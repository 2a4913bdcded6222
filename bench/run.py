"""sschain benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload chain-mc --seed 20260809 --seconds 38 --trace 0

Workloads are ``chain-mc``, ``limit-mc`` and ``exact-dp`` (``all`` runs
the three in turn); see README.md in this directory.  The workload runs
in a worker process (``worker.py``) with BLAS/OpenMP threads pinned to 1
and ``src/`` of this checkout on the path.  Set-up is timed in that worker
and in SETUP_PROBES extra fresh processes that only set up, and the
median is reported.

With ``--trace 0`` the result holds the end-to-end metrics (``setup_s``,
``wall_norm_s``, ``peak_rss_mb``); with ``--trace 1`` it holds the per-layer
metrics of a run that alternates plain and traced passes.  The last line
of standard output is the JSON result; the lines before it are for people:
every metric with its unit, the raw median pass wall time ``wall_s``,
``failed_frac``, the estimate digest, the check messages and the provenance
of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("chain-mc", "limit-mc", "exact-dp")
SETUP_PROBES = 2
RUN_TIMEOUT_S = 175
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Start a fresh worker that must end by the monotonic ``deadline``.

    Returns its JSON record and the monotonic time it was started at.
    """
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    started = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"none (needs more than 10 samples, have {n})"
    pct = 100.0 * (n - 10) / n
    return f"p{pct:.0f} = {sorted(samples)[n - 11]:.4f} s"


def provenance(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
        for line in conf.splitlines():
            key, _, value = line.partition(" ")
            if key.endswith("CACHE_SIZE") and value.strip():
                caches[key.lower()] = int(value)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"cpu": cpu, "nproc": os.cpu_count(), "cache_bytes": caches, **versions,
            "commit": commit, "src_lines": src_lines}


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed)]
    flags = ["--quick"] if quick else []
    setups = []
    for _ in range(0 if quick else SETUP_PROBES):
        rec, started = run_worker(common + ["--seconds", "0", "--setup-only"] + flags,
                                  deadline)
        setups.append(rec["setup_end"] - started)
    rec, started = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)]
                              + flags, deadline)
    setups.append(rec["setup_end"] - started)

    plain = rec["times"]["plain"]
    plain_ref = rec["ref_times"]["plain"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = rec["layer"] if trace else {
        "setup_s": statistics.median(setups), "wall_norm_s": statistics.median(plain_ref),
        "peak_rss_mb": rec["peak_rss_mb"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    print(f"workload {name} seed {seed} trace {trace}")
    for line in rec["messages"]:
        print(f"  {line}")
    print(f"  setup_s      {statistics.median(setups):.4f} s  (median of {len(setups)} set-ups: "
          f"{' '.join(f'{t:.4f}' for t in setups)})")
    print(f"  wall_s       {statistics.median(plain):.4f} s  (median of {len(plain)} passes: "
          f"{' '.join(f'{t:.4f}' for t in plain)}; tail: {tail_percentile(plain)})")
    print(f"  wall_norm_s  {statistics.median(plain_ref):.4f} s  (reference seconds; median of "
          f"{len(plain_ref)} passes: {' '.join(f'{t:.4f}' for t in plain_ref)}; "
          f"tail: {tail_percentile(plain_ref)})")
    print(f"  peak_rss_mb  {rec['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac  {rec['failed']}/{rec['attempted']} = "
          f"{rec['failed'] / rec['attempted']:g}")
    print(f"digest {name} {rec['digest']}")
    if trace:
        for key, m in metrics.items():
            print(f"  {key:40s} {m['value']} {m['unit']}")
        print("trace-detail " + json.dumps(rec["detail"]))
    print("provenance " + json.dumps(provenance(rec["versions"])))
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=20260809)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny replicate counts and one pass, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sschain" / "__init__.py").is_file():
        print(f"no sschain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.quick)
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
