"""Experiment configs: flat ``key = value`` text with nested sections.

Grammar (documented in the README):

* ``key = value`` pairs; values keep their raw text until a consumer
  parses them (lists are whitespace-separated).
* ``[section]`` and ``[section.subsection]`` headers open nested scopes.
* ``#`` starts a comment; blank lines are ignored.

Measures are declared as expressions like ``atom(1, 0) + barrier(0.5)``;
jump measures accept ``atom(mass, y0)`` and ``barrier_tail(gamma)``.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from . import kernels as _k
from . import measures as _m
from .streams import STREAM_BLOCK


class ConfigError(ValueError):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"config field '{fieldname}': {message}")
        self.fieldname = fieldname


def parse_config_text(text: str) -> dict:
    """Nested dict of raw string values."""
    root: dict = {}
    scope = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            scope = root
            for part in line[1:-1].strip().split("."):
                if not part:
                    raise ConfigError(line, f"empty section name (line {lineno})")
                scope = scope.setdefault(part, {})
                if not isinstance(scope, dict):
                    raise ConfigError(line, f"section clashes with a key (line {lineno})")
            continue
        if "=" not in line:
            raise ConfigError(line, f"expected 'key = value' (line {lineno})")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(line, f"empty key (line {lineno})")
        scope[key] = value
    return root


def config_digest(text: str) -> str:
    """Digest of the literal config text (whitespace and comments count)."""
    return hashlib.sha256(text.encode()).hexdigest()


# -- typed readers -----------------------------------------------------------

def _get(tree: dict, path: str, default=None, required=False, under: str = ""):
    # ``under`` is the path of ``tree`` from the root, so errors name the full path
    node = tree
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"{under}.{path}".lstrip("."), "missing required field")
            return default
        node = node[part]
    return node


def _as_int(path, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected an integer, got {value!r}") from None


def _as_float(path, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected a number, got {value!r}") from None


def _as_list(path, value, conv):
    try:
        items = tuple(conv(v) for v in str(value).split())
    except ValueError:
        raise ConfigError(path, f"expected a whitespace-separated list, got {value!r}") from None
    if not items:
        raise ConfigError(path, "list must be non-empty")
    return items


_CALL_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z_0-9]*)\s*\(([^()]*)\)\s*$")


def _parse_call(term: str, path: str):
    m = _CALL_RE.match(term)
    if not m:
        raise ConfigError(path, f"cannot parse term {term!r}; expected name(args)")
    name = m.group(1)
    args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
    return name, [_as_float(path, a) for a in args]


_MEASURE_TERMS = {"atom": _m.atom, "beta_density": _m.beta_density,
                  "barrier": _m.barrier_measure, "lebesgue": _m.lebesgue}
_LEVY_TERMS = {"atom": _m.levy_atom, "barrier_tail": _m.barrier_levy_measure}


def _parse_sum(expr: str, path: str, terms: dict):
    """Sum of the ``+``-separated terms, each built by its constructor in ``terms``."""
    total = None
    for term in expr.split("+"):
        name, args = _parse_call(term, path)
        if name not in terms:
            raise ConfigError(path, f"unknown term {name!r}; expected one of {', '.join(terms)}")
        try:
            mu = terms[name](*args)
            total = mu if total is None else total + mu
        except (TypeError, _m.MeasureError) as exc:
            raise ConfigError(path, f"bad term {term.strip()!r}: {exc}") from None
    return total


def parse_measure(expr: str, path: str = "measure") -> _m.FiniteMeasure:
    """Sum of atom(p, x), beta_density(a, b[, scale]), barrier(gamma), lebesgue([scale])."""
    return _parse_sum(expr, path, _MEASURE_TERMS)


def parse_levy_measure(expr: str, path: str = "omega") -> _m.LevyMeasure:
    """Sum of atom(mass, y0) and barrier_tail(gamma) terms, in any number."""
    return _parse_sum(expr, path, _LEVY_TERMS)


def parse_step_distribution(tree: dict, path: str = "kernel.q") -> _k.StepDistribution:
    kind = _get(tree, "type", required=True, under=path)
    if kind == "power_tail":
        gamma = _as_float(f"{path}.gamma", _get(tree, "gamma", required=True, under=path))
        return _k.power_tail(gamma)
    if kind == "finite":
        probs = _as_list(f"{path}.probs", _get(tree, "probs", required=True, under=path), float)
        return _k.finite_step(probs)
    raise ConfigError(f"{path}.type", f"unknown step law {kind!r}")


def build_kernel(tree: dict, path: str = "kernel") -> _k.Kernel:
    """Kernel from its config block; a value a constructor refuses is a ConfigError."""
    def get(key, default=None, required=False):
        return _get(tree, key, default, required, under=path)

    kind = get("type", required=True)
    field = path
    try:
        if kind in ("barrier", "truncated", "ignored"):
            field = f"{path}.q"
            q = parse_step_distribution(get("q", required=True), field)
            factory = {"barrier": _k.barrier_kernel, "truncated": _k.truncated_kernel,
                       "ignored": _k.ignored_jump_kernel}[kind]
            return factory(q)
        if kind == "canonical":
            mu = parse_measure(get("measure", required=True), f"{path}.measure")
            gamma = _as_float(f"{path}.gamma", get("gamma", required=True))
            scale = _as_float(f"{path}.ell", get("ell", 1.0))
            return _k.canonical_kernel(mu, gamma, scale)
        if kind == "coalescent":
            field = f"{path}.Lambda"
            return _k.coalescent_kernel(parse_measure(get("Lambda", required=True), field))
        if kind == "composition":
            field = f"{path}.omega"
            return _k.composition_kernel(parse_levy_measure(get("omega", required=True), field))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None
    raise ConfigError(f"{path}.type", f"unknown kernel type {kind!r}")


# -- the experiment config ---------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    replicates: int
    out_dir: str | None
    n_grid: tuple[int, ...]
    lambda_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    kernel_tree: dict | None
    text: str
    digest: str
    dump_paths: int = 0

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        tree = parse_config_text(text)
        # the [overrides] section (written by the command line) wins over
        # the root-level keys it shadows
        ov = _get(tree, "overrides", {}) or {}

        def pick(key, default=None, required=False):
            if key in ov:
                return ov[key]
            return _get(tree, key, default, required=required)

        seed = _as_int("seed", pick("seed", required=True))
        replicates = _as_int("replicates", pick("replicates", 1))
        if replicates < 1:
            raise ConfigError("replicates", "must be >= 1")
        if replicates >= STREAM_BLOCK:
            raise ConfigError("replicates", f"must be < {STREAM_BLOCK}, the stream "
                              "block of one grid point (larger counts reuse streams)")
        out_dir = pick("out", None)
        n_grid = _as_list("grids.n", _get(tree, "grids.n", "128 256 512 1024"), int)
        if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
            raise ConfigError("grids.n", "grid must be strictly increasing")
        lambda_grid = _as_list("grids.lambda", _get(tree, "grids.lambda", "0.5 1 2"), float)
        if any(b <= a for a, b in zip(lambda_grid, lambda_grid[1:])):
            raise ConfigError("grids.lambda", "grid must be strictly increasing")
        t_grid = _as_list("grids.t", _get(tree, "grids.t", "0.5 1"), float)
        if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
            raise ConfigError("grids.t", "grid must be strictly increasing")
        dump_paths = _as_int("dump_paths", _get(tree, "dump_paths", 0))
        kernel_tree = _get(tree, "kernel", None)
        return cls(seed=seed, replicates=replicates, out_dir=out_dir, n_grid=n_grid,
                   lambda_grid=lambda_grid, t_grid=t_grid, kernel_tree=kernel_tree,
                   text=text, digest=config_digest(text), dump_paths=dump_paths)

    def kernel(self) -> _k.Kernel:
        if self.kernel_tree is None:
            raise ConfigError("kernel", "missing required section")
        return build_kernel(self.kernel_tree)
