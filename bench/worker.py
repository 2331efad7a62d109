"""One workload in one fresh process: set-up, timed rounds, checks.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
    python3 bench/worker.py --probe --workload NAME --seed N --workdir DIR

A round calls `cli.main` once per operation of the workload, each into a
fresh output directory.  Rounds repeat until `--seconds` have passed, and
never fewer than MIN_ROUNDS, so that every run attempts whole rounds.
After each operation, untimed, its outputs are checked and their SHA-256
digests compared with the first round's.  `--probe` stops after set-up and
reports when it would have made the first call.  The last line of standard
output is one JSON object for bench/run.py.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3


def prepare(workload: str, seed: int, workdir: Path):
    """The set-up a user pays before the first call: package import, configs
    written and parsed."""
    sys.path.insert(0, str(ROOT / "src"))
    from nematic_hydro.cli_io import cli
    from nematic_hydro.cli_io.config import parse_config

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"nematic_hydro imported from {cli.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for j, op in enumerate(wl.ops):
        path = workdir / f"op{j}.cfg"
        path.write_text(op.config, encoding="utf-8")
        parse_config(path.read_text(encoding="utf-8"))
        paths.append(path)
    return cli, wl, paths


def call(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejections
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an operation that crashes is a failed operation
        traceback.print_exc()
        return 1


def output_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*")
               if p.is_file() and p.name != "run_meta.json")


def measure(args, workdir: Path) -> dict:
    import checks

    cli, wl, cfg_paths = prepare(args.workload, args.seed, workdir)
    tracer = None
    main = cli.main
    if args.trace:
        from spans import ROOT as MAIN_SPAN, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap(MAIN_SPAN, cli.main)

    n_ops = len(wl.ops)
    failed = [0] * n_ops  # per operation index, over rounds
    correct = True
    first_digests: list = [None] * n_ops
    round_walls, traced_rounds = [], []
    first_call_at = None
    begin = time.perf_counter()
    k = 0
    while k < MIN_ROUNDS or time.perf_counter() - begin < args.seconds:
        if tracer:
            tracer.round = k
        rdir = workdir / f"round{k}"
        wall, written = 0.0, 0
        for j, op in enumerate(wl.ops):
            odir = rdir / f"op{j}"
            argv = [*op.argv, "--config", str(cfg_paths[j]), "--out", str(odir)]
            t0 = time.perf_counter()
            first_call_at = first_call_at or t0
            rc = call(main, argv)
            wall += time.perf_counter() - t0
            if rc != 0:
                print(f"[{wl.name}] round {k} {op.name}: exit code {rc}", file=sys.stderr)
                failed[j] += 1
                continue
            fails = checks.guarded(op.check, odir)
            digest = checks.digests(odir)
            if first_digests[j] is None:
                first_digests[j] = digest
            elif digest != first_digests[j]:
                fails.append("data files differ from the first round's (SHA-256)")
            if fails:
                print(f"[{wl.name}] round {k} {op.name}: " + "; ".join(fails), file=sys.stderr)
                failed[j] += 1
                correct = False
            written += output_bytes(odir)
        if tracer:
            traced_rounds.append(layer_metrics(tracer.round_totals(k), written, wall))
        round_walls.append(wall)
        shutil.rmtree(rdir)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.write(ROOT / "bench" / "out" / f"spans-{args.workload}-{args.seed}.json")

    run_fails = checks.guarded(wl.run_check, workdir)
    if run_fails:
        print(f"[{wl.name}] per-run check: " + "; ".join(run_fails), file=sys.stderr)
        failed = [k] * n_ops
        correct = False

    import numpy
    import scipy

    result = {
        "first_call_at": first_call_at,
        "attempted": k * n_ops,
        "failed": sum(failed),
        "correct": correct,
        "rounds": k,
        "round_wall_s": round_walls,
        "wall_s": statistics.median(round_walls),
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        from spans import median_metrics

        result["layers"] = median_metrics(traced_rounds)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    try:
        if args.probe:
            prepare(args.workload, args.seed, args.workdir)
            result = {"first_call_at": time.perf_counter()}
        else:
            result = measure(args, args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
