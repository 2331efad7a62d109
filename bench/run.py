"""Benchmark of nematic-hydro at the particle, continuum and angular levels.

    python3 bench/run.py                       # all four workloads, seed 0
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in a fresh worker process (bench/worker.py) with one
BLAS/OpenMP thread.  With --trace 0 the last line of standard output is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
wall_s (median round time of the CLI calls), setup_s (median, over the
worker and PROBES set-up-only processes, of process start to the first CLI
call) and peak_rss_mb (the worker's peak resident memory).  With --trace 1
the metrics are the per-layer ones from spans (bench/spans.py).  This file
uses the standard library only, so it runs, and fails cleanly, where the
package sources are missing.
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

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
WORKLOADS = ("cross-scale", "equilibrium", "continuum", "angular")
PROBES = 2
THREADS = "1"
TIMEOUT_S = 170.0


def run_worker(extra: list[str], env: dict, workdir: Path, deadline: float) -> tuple[float, dict]:
    """Start the worker, wait for it; returns (start time, its JSON result)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *extra, "--workdir", str(workdir)],
        env=env, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.perf_counter() + TIMEOUT_S
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    out = ROOT / "bench" / "out"
    args = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for i in range(PROBES):
            t0, res = run_worker([*args, "--probe"], env, out / f"probe-{os.getpid()}-{i}", deadline)
            setups.append(res["first_call_at"] - t0)
    t0, res = run_worker([*args, "--seconds", str(seconds), "--trace", str(trace)],
                         env, out / f"{name}-{seed}-{os.getpid()}", deadline)
    setups.append(res["first_call_at"] - t0)
    if trace:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    info = dict(workload=name, seed=seed, rounds=res["rounds"],
                round_wall_s=[round(w, 4) for w in res["round_wall_s"]],
                setup_samples_s=[round(s, 4) for s in setups],
                blas_threads=int(THREADS), cores=os.cpu_count(), **res["versions"])
    print("# " + json.dumps(info), flush=True)
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "nematic_hydro" / "cli_io" / "cli.py").is_file():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            if len(names) > 1:
                print(json.dumps({"workload": name, **results[name]}), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        metric_names = list(next(iter(results.values()))["metrics"])
        print(f"{'workload':<12} " + " ".join(f"{m:>14}" for m in metric_names)
              + f" {'attempted':>9} {'failed':>6}")
        for name, r in results.items():
            cells = " ".join(f"{r['metrics'][m]['value']:>11.4f} {r['metrics'][m]['unit']:<2}"
                             for m in metric_names)
            print(f"{name:<12} {cells} {r['attempted']:>9} {r['failed']:>6}")
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
