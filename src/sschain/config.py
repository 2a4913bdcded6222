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

def _get(tree: dict, path: str, default=None, required=False):
    node = tree
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(path, "missing required field")
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


def parse_measure(expr: str, path: str = "measure") -> _m.FiniteMeasure:
    """Sum of atom(p, x), beta_density(a, b[, scale]), barrier(gamma), lebesgue([scale])."""
    total = None
    for term in expr.split("+"):
        name, args = _parse_call(term, path)
        try:
            if name == "atom":
                mu = _m.atom(*args)
            elif name == "beta_density":
                mu = _m.beta_density(*args)
            elif name == "barrier":
                mu = _m.barrier_measure(*args)
            elif name == "lebesgue":
                mu = _m.lebesgue(*args) if args else _m.lebesgue()
            else:
                raise ConfigError(path, f"unknown measure {name!r}")
        except (TypeError, _m.MeasureError) as exc:
            raise ConfigError(path, f"bad arguments for {name}: {exc}") from None
        total = mu if total is None else total + mu
    if total is None:
        raise ConfigError(path, "empty measure expression")
    return total


def parse_levy_measure(expr: str, path: str = "omega") -> _m.LevyMeasure:
    """Sum of atom(mass, y0) terms and at most one barrier_tail(gamma)."""
    atoms = []
    density = None
    for term in expr.split("+"):
        name, args = _parse_call(term, path)
        if name == "atom":
            if len(args) != 2:
                raise ConfigError(path, "atom(mass, y0) takes two arguments")
            atoms.append((args[1], args[0]))
        elif name == "barrier_tail":
            if density is not None:
                raise ConfigError(path, "only one density term is supported")
            if len(args) != 1:
                raise ConfigError(path, "barrier_tail(gamma) takes one argument")
            density = _m.barrier_levy_measure(args[0])
        else:
            raise ConfigError(path, f"unknown jump measure {name!r}")
    if density is not None and not atoms:
        return density
    if density is None:
        if not atoms:
            raise ConfigError(path, "empty jump measure expression")
        return _m.LevyMeasure(atoms=tuple(atoms))
    return _m.LevyMeasure(density=density.density, atoms=tuple(atoms),
                          small_order=density.small_order,
                          tail=density._tail, tail_inverse=None,
                          unit_beta_terms=(), tail_index=density.tail_index)


def parse_step_distribution(tree: dict, path: str = "kernel.q") -> _k.StepDistribution:
    kind = _get(tree, "type", required=True)
    if kind == "power_tail":
        gamma = _as_float(f"{path}.gamma", _get(tree, "gamma", required=True))
        return _k.power_tail(gamma)
    if kind == "finite":
        probs = _as_list(f"{path}.probs", _get(tree, "probs", required=True), float)
        return _k.finite_step(probs)
    raise ConfigError(f"{path}.type", f"unknown step law {kind!r}")


def build_kernel(tree: dict, path: str = "kernel") -> _k.Kernel:
    """Kernel from its config block."""
    kind = _get(tree, "type", required=True)
    if kind in ("barrier", "truncated", "ignored"):
        q = parse_step_distribution(_get(tree, "q", required=True), f"{path}.q")
        factory = {"barrier": _k.barrier_kernel, "truncated": _k.truncated_kernel,
                   "ignored": _k.ignored_jump_kernel}[kind]
        return factory(q)
    if kind == "canonical":
        mu = parse_measure(_get(tree, "measure", required=True), f"{path}.measure")
        gamma = _as_float(f"{path}.gamma", _get(tree, "gamma", required=True))
        scale = _as_float(f"{path}.ell", _get(tree, "ell", 1.0))
        return _k.canonical_kernel(mu, gamma, scale)
    if kind == "coalescent":
        lam = parse_measure(_get(tree, "Lambda", required=True), f"{path}.Lambda")
        try:
            return _k.coalescent_kernel(lam)
        except ValueError as exc:
            raise ConfigError(f"{path}.Lambda", str(exc)) from None
    if kind == "composition":
        omega = parse_levy_measure(_get(tree, "omega", required=True), f"{path}.omega")
        return _k.composition_kernel(omega)
    raise ConfigError(f"{path}.type", f"unknown kernel type {kind!r}")


# -- the experiment config ---------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    suite: str
    seed: int
    replicates: int
    threads: int
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
        threads = _as_int("threads", pick("threads", 1))
        if threads < 1:
            raise ConfigError("threads", "must be >= 1")
        suite = str(pick("suite", "suite"))
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
        return cls(suite=suite, seed=seed, replicates=replicates, threads=threads,
                   out_dir=out_dir, n_grid=n_grid, lambda_grid=lambda_grid,
                   t_grid=t_grid, kernel_tree=kernel_tree,
                   text=text, digest=config_digest(text), dump_paths=dump_paths)

    def kernel(self) -> _k.Kernel:
        if self.kernel_tree is None:
            raise ConfigError("kernel", "missing required section")
        return build_kernel(self.kernel_tree)
