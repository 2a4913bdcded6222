"""One workload in one process: set up, run timed passes, check, report.

Started by ``run.py`` with ``src/`` on the path and BLAS/OpenMP threads
pinned to 1.  The process is one closed-loop client: a pass runs the
workload's whole task list, and the next pass starts only when the
previous one is done.  Every pass uses the same seed, so every pass must
return bit-identical outputs.  The last line of standard output is a
JSON record that ``run.py`` turns into the benchmark's result.

Each operation is also timed in reference seconds (see ``calibration_s``),
which is what ``wall_norm_s`` reports.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import gc
import hashlib
import inspect
import itertools
import json
import math
import platform
import resource
import statistics
import struct
import sys
import time
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# estimate digest
# ---------------------------------------------------------------------------

def _feed(h, obj):
    import numpy as np
    from sschain.kernels import Kernel

    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        b = obj.encode()
        h.update(b"s%d:" % len(b) + b)
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, (list, tuple)):
        h.update(b"l%d:" % len(obj))
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(b"d%d:" % len(obj))
        for key in sorted(obj, key=str):
            _feed(h, str(key))
            _feed(h, obj[key])
    elif isinstance(obj, Kernel):
        _feed(h, f"kernel:{obj.name}")
    elif dataclasses.is_dataclass(obj):
        _feed(h, type(obj).__name__)
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, BaseException):
        _feed(h, f"error:{type(obj).__name__}:{obj}")
    else:
        raise TypeError(f"no digest encoding for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# per-layer counters recorded by tracer hooks
# ---------------------------------------------------------------------------

class Certificates:
    """Small-jump certificates of the subordinator paths, per operation.

    A path passes when its neglected variance rate is within the budget
    spread over its horizon, the same comparison ``default_cutoff`` makes;
    ``worst`` is the largest neglected variance x horizon, for reporting.
    """

    def __init__(self, budget: float):
        self.budget = budget
        self.reset()

    def reset(self):
        self.op = 0
        self.worst: dict[int, float] = {}
        self.paths: dict[int, int] = {}
        self.over: dict[int, int] = {}

    def record(self, path):
        k = self.op
        self.worst[k] = max(self.worst.get(k, 0.0), path.neglected_variance * path.horizon)
        self.paths[k] = self.paths.get(k, 0) + 1
        over = path.neglected_variance > self.budget / path.horizon
        self.over[k] = self.over.get(k, 0) + over


class Counters:
    """Counts the tracer hooks collect during one traced pass."""

    def __init__(self, certificates: Certificates):
        self.cert = certificates
        self.serials = weakref.WeakKeyDictionary()
        self.rows: dict[int, set] = {}
        self.replicate_steps = 0
        self.state_steps = 0
        self.dense_bytes = 0
        self.jumps = 0
        self.nonzero_levy_paths = 0
        self.restart_calls: list[tuple[int, int]] = []
        self.doubling_calls: list[tuple[int, int]] = []


def _bind(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def make_hooks(functions: dict) -> dict:
    """Tracer hooks; they add to ``tracer.counters``, the current pass's Counters."""
    from sschain.kernels import BarrierKernel

    def fn(q):
        return functions[q][3]

    build_fids = {i for i, q in enumerate(functions) if q.endswith(".build_row")}

    def build_row(tracer, idx, args, kwargs, out):
        c = tracer.counters
        parent = tracer.parent[idx]
        if parent >= 0 and tracer.fid[parent] in build_fids:
            return  # a collapsed kernel delegating to its base: one row, not two
        kernel, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
        serial = c.serials.setdefault(kernel, len(c.serials))
        c.rows.setdefault(c.cert.op, set()).add((serial, n))

    def subordinator(tracer, idx, args, kwargs, out):
        c = tracer.counters
        c.cert.record(out)
        triple = args[0] if args else kwargs["triple"]
        c.jumps += int(out.jump_times.size)
        c.nonzero_levy_paths += not triple.levy.is_zero

    def steps_of(count):
        def hook(tracer, idx, args, kwargs, out):
            tracer.counters.replicate_steps += count(args, kwargs, out)
        return hook

    def marginal_steps(args, kwargs, out):
        a = _bind(fn("chain_engine.sample_marginal_states"), args, kwargs)
        return a["replicates"] * max(int(s) for s in a["step_points"])

    def moments(tracer, idx, args, kwargs, out):
        a = _bind(fn("exact_dp.absorption_moments"), args, kwargs)
        tracer.counters.state_steps += a["p_max"] * a["n_max"] * (a["n_max"] + 1) // 2

    def pushforward(name, steps_of_call):
        def hook(tracer, idx, args, kwargs, out):
            a = _bind(fn(name), args, kwargs)
            n, steps = a["n"], steps_of_call(a, out)
            if n == 0 or steps == 0:
                return
            c = tracer.counters
            c.state_steps += steps * (n + 1)
            if not isinstance(a["kernel"], BarrierKernel):
                c.dense_bytes += (n + 1) ** 2 * 8
        return hook

    def loop_calls(attr):
        def hook(tracer, idx, args, kwargs, out):
            c = tracer.counters
            getattr(c, attr).append((idx, len(out)))
        return hook

    hooks = {
        "limit_process.sample_subordinator": subordinator,
        "chain_engine.sample_absorption_times": steps_of(lambda a, k, out: int(out.sum())),
        "chain_engine.sample_marginal_states": steps_of(marginal_steps),
        "chain_engine.sample_path": steps_of(lambda a, k, out: out.absorption_time),
        "chain_engine.coupled_barrier_triple":
            steps_of(lambda a, k, out: out.path_hat.states.size - 1),
        "exact_dp.absorption_moments": moments,
        "exact_dp.absorption_distribution": pushforward(
            "exact_dp.absorption_distribution", lambda a, out: out[0].size - 1),
        "exact_dp.marginal_moment": pushforward(
            "exact_dp.marginal_moment",
            lambda a, out: int(math.floor(a["kernel"].scaling(a["n"]) * a["t"]))),
        "limit_process.sample_exponential_functional": loop_calls("restart_calls"),
        "limit_process.sample_y_marginals": loop_calls("restart_calls"),
        "limit_process.sample_gap_compositions": loop_calls("doubling_calls"),
    }
    for q in functions:
        if q.endswith(".build_row"):
            hooks[q] = build_row
    return hooks


STEP_FUNCTIONS = ("chain_engine.sample_absorption_times", "chain_engine.sample_marginal_states",
                  "chain_engine.sample_path", "chain_engine.coupled_barrier_triple")


def layer_report(tracer, op_starts: list[int], op_names: list[str]):
    """Per-layer times and counts of one traced pass, plus a per-operation breakdown."""
    import numpy as np
    from spans import LAYERS

    counters = tracer.counters
    fid, parent, dur, self_t = tracer.arrays()
    n = fid.size
    layer = tracer.layer_of[fid]
    has_parent = parent >= 0
    parent_fid = np.where(has_parent, fid[np.maximum(parent, 0)], -1)

    def is_(fids):
        return np.isin(fid, list(fids))

    build_fids = tracer.fids_named("build_row")
    build = is_(build_fids)
    nested_build = build & np.isin(parent_fid, build_fids)
    top_build = build & ~nested_build
    cache_calls = is_(tracer.fids_named("row") + tracer.fids_named("row_cumsum")
                      + tracer.fids_named("absorbing"))
    built_under = np.zeros(n, dtype=bool)
    built_under[parent[build & has_parent]] = True
    quads = is_(tracer.fids("measures.LevyMeasure.mean_below",
                            "measures.LevyMeasure.variance_below"))
    cutoff_fid = tracer.fids("limit_process.default_cutoff")
    sub = is_(tracer.fids("limit_process.sample_subordinator"))
    sub_children = np.bincount(parent[sub & has_parent], minlength=n)

    rows_built = int(top_build.sum())
    rows_distinct = sum(len(s) for s in counters.rows.values())
    n_cache = int(cache_calls.sum())
    self_by_layer = np.bincount(layer, weights=self_t, minlength=len(LAYERS))
    calls_by_layer = np.bincount(layer, minlength=len(LAYERS))

    times = {f"{name}.self_s": float(self_by_layer[i]) for i, name in enumerate(LAYERS)}
    times["steps_time"] = float(dur[is_(tracer.fids(*STEP_FUNCTIONS))].sum())
    counts = {f"{name}.calls": int(calls_by_layer[i]) for i, name in enumerate(LAYERS)}
    counts.update({
        "measures.small_jump_quads": int(quads.sum()),
        "streams.generators": int(is_(tracer.fids("streams.philox_rng")).sum()),
        "kernels.rows_built": rows_built,
        "kernels.rows_distinct": rows_distinct,
        "kernels.rebuild_ratio": rows_built / rows_distinct if rows_distinct else 0.0,
        "kernels.row_hit_ratio":
            int((cache_calls & ~built_under).sum()) / n_cache if n_cache else 0.0,
        "chain_engine.replicate_steps": counters.replicate_steps,
        "exact_dp.state_steps": counters.state_steps,
        "exact_dp.dense_bytes": counters.dense_bytes,
        "limit_process.paths": int(sub.sum()),
        "limit_process.restarts":
            sum(int(sub_children[i]) - reps for i, reps in counters.restart_calls),
        "limit_process.horizon_doublings":
            sum(int(sub_children[i]) - reps for i, reps in counters.doubling_calls),
        "limit_process.jumps": counters.jumps,
        "limit_process.max_neglected_variance": max(counters.cert.worst.values(), default=0.0),
    })

    per_op = {}
    bounds = op_starts + [n]
    for k, name in enumerate(op_names):
        sl = slice(bounds[k], bounds[k + 1])
        by_layer = np.bincount(layer[sl], weights=self_t[sl], minlength=len(LAYERS))
        built = int(top_build[sl].sum())
        distinct = len(counters.rows.get(k, ()))
        per_op[name] = {
            "self_s": {LAYERS[i]: round(float(v), 4) for i, v in enumerate(by_layer) if v},
            "rows_built": built, "rows_distinct": distinct,
            "rebuild_ratio": round(built / distinct, 4) if distinct else None,
        }
    detail = {
        "spans": n,
        "nonzero_levy_paths": counters.nonzero_levy_paths,
        "default_cutoff_quads": int((quads & np.isin(parent_fid, cutoff_fid)).sum()),
        "per_op": per_op,
    }
    return times, counts, detail


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------

# The host's speed switches between states several times a second (pure
# Python runs about 1.6x faster in the fast one), and the share of fast time
# drifts over minutes, so the raw pass times of one build spread between
# runs by more than the benchmark's bound.  A fixed calibration is timed
# before the first operation of a pass and after each one; the pass's
# reference time is its wall time x CAL_REF_S / the mean calibration time.
# The calibration mixes the two kinds of work the workloads do, in about
# equal time: interpreted Python, which tracks the speed state closely, and
# numpy streaming over an array larger than L2, which tracks it about 0.4 as
# much.  A pure-Python calibration over-corrects the dense, memory-bound
# operations of exact-dp.  CAL_REF_S is about the calibration's mean time
# during passes on a 2-vCPU Xeon (Sapphire Rapids) KVM guest, so reference
# seconds read close to wall seconds there.
CAL_LOOPS = 10_000
CAL_REF_S = 2.7e-3


@functools.cache
def _cal_array():
    import numpy as np

    return np.zeros(1 << 20)  # 8 MB


def _cal_work() -> None:
    import numpy as np

    acc, d = 0.0, {}
    for i in range(CAL_LOOPS):
        d[i & 255] = acc
        acc += (i % 7) * 0.5
    a = _cal_array()
    for _ in range(2):
        np.add(a, 1.0, out=a)


def calibration_s() -> float:
    """Median of three timings of the calibration work.

    Timed in this thread's CPU time, so time the thread spends preempted or
    waiting for the GIL (say, behind a busy background thread) does not
    count as a slow host.
    """
    times = []
    for _ in range(3):
        t0 = time.thread_time()
        _cal_work()
        times.append(time.thread_time() - t0)
    return sorted(times)[1]


# ---------------------------------------------------------------------------
# the pass loop
# ---------------------------------------------------------------------------

def run_pass(ops, on_op):
    """Run every operation once; returns (outputs, wall seconds, reference seconds).

    The wall time sums the operations alone, not the calibrations between them.
    """
    gc.collect()
    outs = []
    wall = 0.0
    cals = [calibration_s()]
    for k, op in enumerate(ops):
        on_op(k)
        t0 = time.perf_counter()
        try:
            outs.append(op.run())
        except Exception as exc:  # a failing operation is counted, not fatal
            outs.append(exc)
        wall += time.perf_counter() - t0
        cals.append(calibration_s())
    return outs, wall, wall * CAL_REF_S / statistics.fmean(cals)


@dataclasses.dataclass
class Passes:
    times: dict            # mode -> wall seconds of each pass
    ref_times: dict        # mode -> reference seconds of each pass
    digests: list          # per pass, one digest per operation
    outputs0: list         # outputs of the first pass (always plain)
    certs0: Certificates   # small-jump certificates of the first pass
    reports: list          # per traced pass, (times, counts) from layer_report
    detail: dict | None    # per-operation breakdown of the last traced pass


def run_passes(ops, seconds: float, trace: bool, min_passes: int,
               cert: Certificates, tracer, probe) -> Passes:
    """Closed loop: plain passes (alternating with traced ones when tracing)
    until the next pass would end after ``seconds``, with ``min_passes`` of each.

    Plain passes run with ``probe`` in place, traced passes with ``tracer``;
    both feed the small-jump certificates to ``cert``.
    """
    modes = ("plain", "traced") if trace else ("plain",)
    res = Passes({m: [] for m in modes}, {m: [] for m in modes}, [], None, None, [], None)
    op_names = [op.name for op in ops]
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        mode = modes[i % len(modes)]
        cert.reset()
        op_starts: list[int] = []
        if mode == "traced":
            tracer.counters = Counters(cert)
            tracer.install()

            def on_op(k):
                cert.op = k
                op_starts.append(len(tracer.fid))
        else:
            probe.install()

            def on_op(k):
                cert.op = k
        try:
            outs, wall, ref = run_pass(ops, on_op)
        finally:
            tracer.remove()
            probe.remove()
        res.times[mode].append(wall)
        res.ref_times[mode].append(ref)
        res.digests.append([digest(o) for o in outs])
        if res.outputs0 is None:
            res.outputs0, res.certs0 = outs, copy.copy(cert)
        if mode == "traced":
            *report, res.detail = layer_report(tracer, op_starts, op_names)
            res.reports.append(report)
        del outs
        nxt = modes[(i + 1) % len(modes)]
        enough = all(len(v) >= min_passes for v in res.times.values())
        if enough and time.perf_counter() + res.times[nxt][-1] > deadline:
            return res


def check_outputs(ops, res: Passes) -> tuple[int, list[str]]:
    """Failed operations over all passes, and one message per check.

    The first pass's outputs are checked against the references; a later
    pass fails an operation whose digest differs from the first pass's.
    """
    cert = res.certs0
    first = res.digests[0]
    failed = 0
    messages = []
    for k, (op, out) in enumerate(zip(ops, res.outputs0)):
        if isinstance(out, Exception):
            lines = [(False, f"raised {type(out).__name__}: {out}")]
        else:
            try:
                lines = op.check(out)
            except Exception as exc:  # a broken check fails its operation
                lines = [(False, f"check raised {type(exc).__name__}: {exc}")]
        if cert.paths.get(k):
            lines.append((cert.over[k] == 0,
                          f"{cert.over[k]} of {cert.paths[k]} paths over the small-jump "
                          f"variance budget {cert.budget:g} "
                          f"(worst variance x horizon {cert.worst[k]:.3g})"))
        checks_ok = all(ok for ok, _ in lines)
        differ = [d[k] != first[k] for d in res.digests]
        if any(differ):
            lines.append((False, f"outputs differ from the first pass in {sum(differ)} passes"))
        messages += [f"{'ok  ' if ok else 'FAIL'} {op.name}: {msg}" for ok, msg in lines]
        failed += sum(not checks_ok or d for d in differ)
    return failed, messages


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy
    import scipy
    import sschain

    expected = ROOT / "src" / "sschain"
    if Path(sschain.__file__).resolve().parent != expected:
        print(f"sschain imported from {sschain.__file__}, expected {expected}", file=sys.stderr)
        return 2
    import workloads
    import spans

    ops = workloads.WORKLOADS[args.workload](args.seed, 0.1 if args.quick else 1.0)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    functions = spans.layer_functions()
    tracer = spans.Tracer(functions, make_hooks(functions))
    cert = Certificates(sschain.limit_process.SMALL_JUMP_VARIANCE_BUDGET)
    probe = spans.Probe(functions, "limit_process.sample_subordinator",
                        lambda args, out: cert.record(out))
    res = run_passes(ops, args.seconds, bool(args.trace), 1 if args.quick else 3,
                     cert, tracer, probe)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, messages = check_outputs(ops, res)
    result = {
        "setup_end": setup_end,
        "times": res.times,
        "ref_times": res.ref_times,
        "attempted": len(res.digests) * len(ops),
        "failed": failed,
        "correct": failed == 0,
        "digest": hashlib.sha256("".join(res.digests[0]).encode()).hexdigest(),
        "messages": messages,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        med = {k: statistics.median(r[0][k] for r in res.reports) for k in res.reports[0][0]}
        counts = res.reports[0][1]
        if any(r[1] != counts for r in res.reports):
            result["correct"] = False
            messages.append("FAIL per-layer counts differ between traced passes")
        steps_time = med.pop("steps_time")
        result["layer"] = {
            **med, **counts,
            "chain_engine.steps_per_s":
                counts["chain_engine.replicate_steps"] / steps_time if steps_time else 0.0,
            "trace.overhead_s":
                statistics.median(res.times["traced"]) - statistics.median(res.times["plain"]),
        }
        result["detail"] = res.detail
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
