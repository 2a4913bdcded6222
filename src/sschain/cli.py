"""Experiment runner: wires configs to kernels, engines and verdicts.

Each subcommand selects one suite; results land as JSON-lines records
under ``runs/`` and plot-ready CSV tables under ``tables/`` in the output
directory.  Re-running the same config reproduces the estimate payloads
bit-for-bit, and a record file is never overwritten by a run with a
different config digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import pathlib
import sys
import time

import numpy as np

from . import __version__
from . import chain_engine as ce
from . import exact_dp as dp
from . import kernels as kz
from . import limit_process as lp
from . import measures as ms
from . import suites
from .config import ConfigError, ExperimentConfig
from .stats import empirical_moment
from .streams import STREAM_BLOCK, philox_rng
from .suites import ACCEPTANCE, CriterionResult, _check


def _suite_simulate_chain(cfg: ExperimentConfig):
    kernel = cfg.kernel()
    lines, est, replicate_records = [], {}, []
    tables = {}
    ok = True
    for j, n in enumerate(cfg.n_grid):
        times = ce.sample_absorption_times(kernel, n, cfg.replicates, cfg.seed,
                                           stream0=j * STREAM_BLOCK)
        a_n = kernel.scaling(n)
        m = empirical_moment(np.asarray(times, float) / a_n, 1.0)
        lines.append(f"ok   n={n}: E[A/a] = {m}")
        est[f"n{n}"] = (m.value, m.se)
        for i, t in enumerate(times):
            replicate_records.append({
                "type": "replicate", "kernel": kernel.name, "n": int(n),
                "seed": cfg.seed, "stream": j * STREAM_BLOCK + i,
                "absorption_time": int(t),
            })
        # replay the first replicates with the batch sampler that timed them,
        # so each dumped path ends at its record's absorption time
        k = min(cfg.dump_paths, cfg.replicates)
        if k:
            states = ce.sample_marginal_states(kernel, n, range(int(times[:k].max()) + 1),
                                               k, cfg.seed, stream0=j * STREAM_BLOCK)
            for i in range(k):
                path = ce.ChainPath(kernel, states[i, :times[i] + 1], cfg.seed,
                                    j * STREAM_BLOCK + i)
                tables[f"path_n{n}_r{i}.csv"] = path.to_csv()
    res = CriterionResult("simulate-chain", ok, tuple(lines), est, tables)
    res.records = replicate_records
    return res


def _suite_exact_moments(cfg: ExperimentConfig):
    kernel = cfg.kernel()
    try:  # an absorbing state past 0 is refused, not collapsed: that would change A_n
        table = dp.absorption_moments(kernel, max(cfg.n_grid), 2)
    except dp.AbsorbingStateError as exc:
        raise ConfigError("kernel", f"state {exc.state} is absorbing; exact-moments needs 0 "
                          "to be the only absorbing state") from None
    except dp.DPError as exc:
        raise ConfigError("kernel", str(exc)) from None
    lines = []
    for n in cfg.n_grid:
        a = kernel.scaling(n)
        lines.append(f"ok   n={n}: E[A]/a = {table.moment(n, 1) / a:.6f}, "
                     f"E[A^2]/a^2 = {table.moment(n, 2) / a ** 2:.6f}")
    est = {f"n{n}": [table.moment(n, p) for p in range(3)] for n in cfg.n_grid}
    return CriterionResult("exact-moments", True, tuple(lines), est,
                           tables={"moments.csv": table.to_csv(kernel)})


def _suite_simulate_limit(cfg: ExperimentConfig):
    kernel = cfg.kernel()
    if kernel.mu is None or kernel.gamma is None:
        raise ConfigError("kernel", "this kernel has no limit pair attached")
    triple = ms.levy_triple(kernel.mu)
    lines, est = [], {}
    ok = True
    z = lp.sample_z_marginals(triple, cfg.t_grid, cfg.replicates, cfg.seed)
    for j, t in enumerate(cfg.t_grid):
        for lam in cfg.lambda_grid:
            m = empirical_moment(z[:, j], lam)
            target = math.exp(-triple.laplace_exponent(lam) * t)
            ok &= _check(lines, m.within(target, 4.0),
                         f"E[Z({t})^{lam:g}] = {m} vs {target:.6f}")
            est[f"z_t{t}_lam{lam:g}"] = (m.value, m.se, target)
    samples = lp.sample_exponential_functional(triple, kernel.gamma, cfg.replicates,
                                               cfg.seed, stream0=5 * STREAM_BLOCK)
    analytic = lp.analytic_moments(kernel.mu, kernel.gamma, 2)
    for p in (1, 2):
        m = empirical_moment(samples, float(p))
        ok &= _check(lines, m.within(analytic[p], 4.0),
                     f"E[I^{p}] = {m} vs analytic {analytic[p]:.6f}")
        est[f"I_p{p}"] = (m.value, m.se, analytic[p])
    # per-sample records and one event-time path dump for inspection
    horizon = 16.0
    eps_cut = lp.default_cutoff(triple.levy, horizon)
    records = []
    for i in range(min(cfg.replicates, 200)):
        path = lp.sample_subordinator(triple, horizon,
                                      philox_rng(cfg.seed, 9 * STREAM_BLOCK + i), eps_cut)
        if i == 0:
            first_path = path
        sample = lp.lamperti(path, kernel.gamma)
        records.append({"type": "limit_sample",
                        **lp.limit_record(kernel.name, kernel.gamma, path, sample)})
    res = CriterionResult("simulate-limit", ok, tuple(lines), est,
                          tables={"subordinator_path.csv": first_path.to_csv()})
    res.records = records
    return res


def _suite_diagnose_h(cfg: ExperimentConfig):
    kernel = cfg.kernel()
    diag = kz.hypothesis_h_diagnostic(kernel, cfg.lambda_grid, cfg.n_grid, threshold=0.10)
    lines = [f"{'ok  ' if v.passed else 'FAIL'} lam={lam:g}: {v}"
             for lam, v in sorted(diag.verdicts.items())]
    return CriterionResult("diagnose-h", diag.passed, tuple(lines),
                           {"entries": [(e.n, e.lam, e.value, e.target)
                                        for e in diag.entries]},
                           tables={"diagnostic.csv": diag.to_csv()})


def _suite_coalescent(cfg: ExperimentConfig):
    kernel = cfg.kernel()
    if not isinstance(kernel, kz.CoalescentKernel):
        raise ConfigError("kernel.type", "the coalescent suite needs a coalescent kernel")
    if kernel.beta is None:
        raise ConfigError("kernel.Lambda", "the coalescent suite needs a tail index beta; "
                          "a purely atomic Lambda has none (add a beta_density term)")
    return suites.criterion_3(cfg.seed, kernel=kernel, n_grid=cfg.n_grid,
                              n_mc=max(cfg.n_grid), replicates=cfg.replicates)


def _suite_composition(cfg: ExperimentConfig):
    kernel = cfg.kernel()
    if not isinstance(kernel, kz.CompositionKernel):
        raise ConfigError("kernel.type", "the composition suite needs a composition kernel")
    if max(cfg.n_grid) > 64:
        raise ConfigError("grids.n", "composition cross-checks need small n (<= 64)")
    if max(cfg.n_grid) < 2:
        raise ConfigError("grids.n", "the regenerative chi-square needs a largest n >= 2")
    return suites.criterion_8(cfg.seed, kernel=kernel, n_grid=cfg.n_grid,
                              replicates=cfg.replicates)


def _suite_barrier_triple(cfg: ExperimentConfig):
    kernel = cfg.kernel()
    if not isinstance(kernel, kz._BarrierFamily):
        raise ConfigError("kernel.type", "the coupling suite needs a barrier-family kernel")
    return suites.criterion_7(cfg.seed, q=kernel.q, n=max(cfg.n_grid),
                              replicates=cfg.replicates)


def _suite_acceptance(cfg: ExperimentConfig):
    lines = []
    tables = {}
    est = {}
    ok = True
    for criterion in ACCEPTANCE.values():
        r = criterion(cfg.seed)
        ok &= r.passed
        lines.append(r.report())
        tables.update(r.tables)
        est[r.name] = r.estimates
    return CriterionResult("acceptance suite", ok, tuple(lines), est, tables)


_RUNNERS = {
    "simulate-chain": _suite_simulate_chain,
    "exact-moments": _suite_exact_moments,
    "simulate-limit": _suite_simulate_limit,
    "diagnose-h": _suite_diagnose_h,
    "coalescent": _suite_coalescent,
    "composition": _suite_composition,
    "barrier-triple": _suite_barrier_triple,
    "suite": _suite_acceptance,
}


def run(cfg: ExperimentConfig, name: str) -> CriterionResult:
    """Execute one suite and persist its record and tables."""
    t0 = time.monotonic()
    result = _RUNNERS[name](cfg)
    wallclock = time.monotonic() - t0
    if cfg.out_dir is not None:
        _persist(cfg, name, result, wallclock)
    return result


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _persist(cfg: ExperimentConfig, name: str, result: CriterionResult,
             wallclock: float):
    out = pathlib.Path(cfg.out_dir)
    runs = out / "runs"
    tables = out / "tables"
    runs.mkdir(parents=True, exist_ok=True)
    record_path = runs / f"{name}-{cfg.digest[:12]}.jsonl"
    if record_path.exists():
        with open(record_path, "r", encoding="utf-8") as fh:
            first = json.loads(fh.readline() or "{}")
        if first.get("config_digest") not in (None, cfg.digest):
            raise RuntimeError(
                f"{record_path} holds a record for digest {first.get('config_digest')!r}; "
                "refusing to overwrite it with a different config")
    header = {"type": "run", "suite": name, "config_digest": cfg.digest,
              "code_version": __version__, "seed": cfg.seed,
              "passed": result.passed, "wallclock_s": round(wallclock, 3)}
    estimates = {"type": "estimates", "config_digest": cfg.digest,
                 "estimates": result.estimates,
                 "lines": list(result.lines)}
    with open(record_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, default=_json_default) + "\n")
        fh.write(json.dumps(estimates, sort_keys=True, default=_json_default) + "\n")
        for rec in result.records:
            fh.write(json.dumps(rec, sort_keys=True, default=_json_default) + "\n")
    if result.tables:
        tables.mkdir(parents=True, exist_ok=True)
        for fname, text in result.tables.items():
            (tables / fname).write_text(text, encoding="utf-8")


_DEFAULT_CONFIG = """\
seed = 20260809
replicates = 2000

[kernel]
type = barrier
[kernel.q]
type = power_tail
gamma = 0.5

[grids]
n = 128 256 512 1024 2048 4096 8192
lambda = 0.5 1 2
t = 0.5 1
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sschain",
        description="Scaling-limit laboratory for non-increasing integer Markov chains")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file (key = value text)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory for runs/ and tables/")
        p.add_argument("--replicates", type=int, help="replicate count override")
    args = parser.parse_args(argv)

    if args.config:
        text = pathlib.Path(args.config).read_text(encoding="utf-8")
    else:
        text = _DEFAULT_CONFIG
    overrides = []
    for key in ("seed", "replicates"):
        val = getattr(args, key)
        if val is not None:
            overrides.append(f"{key} = {val}")
    if overrides:
        text = text + "\n[overrides]\n" + "\n".join(overrides) + "\n"
    try:
        cfg = ExperimentConfig.from_text(text)
        if args.out is not None:
            # the output directory is where a run goes, not what it is: keep it
            # out of the digest so one experiment has one record name
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        result = run(cfg, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.report())
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
