"""Alternating A/B runs of bench/run.py from two revisions of this repository.

    python3 tools/ab.py --base REV [--workload W[,W...]|all] [--pairs 10]
                        [--seed 0] [--claim WORKLOAD:METRIC] --output FILE

Both trees are exported with `git archive` into a temporary directory, with
no __pycache__ directories, and every run sets PYTHONDONTWRITEBYTECODE=1, so
setup_s includes byte-compilation on both sides.  The change side is the
working tree: its tracked files as `git stash create` records them (stage
new files with `git add` first), or HEAD when nothing is modified.

Pair k runs the base first when k is even and the change first when k is
odd (ABBA).  Each run is the unchanged `bench/run.py --trace 0` of its own
tree, at the benchmark's own run length.  The JSON written has the layout of BENCH_10.json: what, revisions,
machine, claim_rule, claim, no_regression, verdicts and runs.

Verdicts, per workload and per end-to-end metric of BENCHMARK.json (all of
them lower-is-better):
  - worse beyond bound: the change's median exceeds the base's by more than
    the metric's bound;
  - unresolved: the relative interquartile range of either side's runs
    exceeds the bound, unless every run of the change reads better than
    every run of the base;
  - within bound: otherwise.
A claimed metric is met when the change wins at least 9 in 10 of the pairs
and the medians differ by more than the base's interquartile range.
This file uses the standard library only.  It is a measuring tool, not a
gate: it exits 0 whatever the verdicts, and 1 only when it cannot run.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Extract the tree of rev into dest, without any __pycache__."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    for cache in list(dest.rglob("__pycache__")):
        shutil.rmtree(cache)


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One bench/run.py process; its result line, its info line and its exit code."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(x[2:]) for x in lines if x.startswith("# ")), {})
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    return {"exit_code": proc.returncode, "info": info, "result": result}


def run_record(workload, seed, pair, side, ran_first, out, metric_names) -> dict:
    result, info = out["result"], out["info"]
    metrics = result.get("metrics", {})
    return {
        "workload": workload, "seed": seed, "pair": pair, "side": side,
        "ran_first": ran_first, "exit_code": out["exit_code"],
        "correct": result.get("correct", False),
        "attempted": result.get("attempted", 0), "failed": result.get("failed", 0),
        **{m: metrics.get(m, {}).get("value") for m in metric_names},
        "rounds": info.get("rounds"), "round_wall_s": info.get("round_wall_s"),
        "setup_samples_s": info.get("setup_samples_s"),
    }


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def verdict(workload, seed, metric, bound, runs, claimed: bool) -> dict:
    """The comparison of one metric on one workload over all its pairs."""
    by_pair: dict[int, dict[str, dict]] = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [
        (p["parent"][metric], p["change"][metric]) for p in by_pair.values()
        if p["parent"][metric] is not None and p["change"][metric] is not None
    ]
    failed = {side: sum(r["failed"] + (r["exit_code"] != 0) for r in runs if r["side"] == side)
              for side in ("parent", "change")}
    tail = {"bound": bound, "failed_ops": failed,
            "all_correct": all(r["correct"] for r in runs if r["exit_code"] == 0)}
    out = {"workload": workload, "seed": seed, "metric": metric, "pairs": len(pairs)}
    if len(pairs) < 2:
        return {**out, **tail, "verdict": "unresolved: fewer than two complete pairs"}
    base, change = quartiles([a for a, _ in pairs]), quartiles([b for _, b in pairs])
    parent_iqr = base["q3"] - base["q1"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base, change))
    out.update(
        parent=base, change=change,
        median_ratio_change_over_parent=statistics.median(b / a for a, b in pairs),
        ratio_of_medians=change["median"] / base["median"],
        change_wins=sum(b < a for a, b in pairs), change_loses=sum(b > a for a, b in pairs),
        parent_iqr=parent_iqr, relative_spread=spread, **tail,
    )
    if claimed:
        out["median_gap_exceeds_parent_iqr"] = base["median"] - change["median"] > parent_iqr
        out["claim_met"] = (out["median_gap_exceeds_parent_iqr"]
                            and out["change_wins"] >= CLAIM_WIN_SHARE * len(pairs))
    if change["median"] > base["median"] * (1.0 + bound):
        out["verdict"] = "worse beyond bound"
    elif spread > bound and max(b for _, b in pairs) >= min(a for a, _ in pairs):
        out["verdict"] = "unresolved: run-to-run spread exceeds the bound"
    else:
        out["verdict"] = "within bound"
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the parent side")
    parser.add_argument("--workload", default="all",
                        help="comma-separated workloads, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain the change claims")
    parser.add_argument("--output", required=True, type=Path)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = tuple(w["name"] for w in benchmark["workloads"])
    workloads = known if args.workload == "all" else tuple(args.workload.split(","))
    if unknown := set(workloads) - set(known):
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    claim = tuple(args.claim.split(":")) if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads):
        parser.error("--claim takes WORKLOAD:METRIC with a workload that is run")

    try:
        base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
        head = git("rev-parse", "HEAD")
        snapshot = git("stash", "create")
    except subprocess.CalledProcessError as exc:
        print(f"cannot resolve a revision: {exc}", file=sys.stderr)
        return 1
    change = snapshot or head
    end_to_end = benchmark["end_to_end"]
    if claim and claim[1] not in {m["name"] for m in end_to_end}:
        parser.error(f"--claim metric {claim[1]} is not an end-to-end metric")
    metric_names = [m["name"] for m in end_to_end]

    runs: list[dict] = []
    machine = {"cores": os.cpu_count(), "python": platform.python_version()}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(base, trees["parent"])
        export(change, trees["change"])
        for workload in workloads:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for i, side in enumerate(order):
                    out = run_bench(trees[side], workload, args.seed)
                    machine.update({k: out["info"][k] for k in
                                    ("cores", "python", "numpy", "scipy", "blas_threads")
                                    if k in out["info"]})
                    runs.append(run_record(workload, args.seed, pair, side, i == 0, out,
                                           metric_names))
                    print(json.dumps({k: runs[-1][k] for k in
                                      ("workload", "pair", "side", "exit_code", *metric_names)}),
                          flush=True)

    verdicts = [
        verdict(w, args.seed, m["name"], m["bound"], [r for r in runs if r["workload"] == w],
                claim == (w, m["name"]))
        for w in workloads for m in end_to_end
    ]
    claimed = next((v for v in verdicts if claim == (v["workload"], v["metric"])), None)
    # a path deleted on the change side has no blob there to name
    changed = git("diff", "--name-only", "--diff-filter=d", base, change, "--", "src").split()
    deleted = git("diff", "--name-only", "--diff-filter=D", base, change, "--", "src").split()
    report = {
        "what": (
            "Alternating A/B runs of the unchanged bench/run.py (--trace 0, default 20 s "
            "per run) from the parent tree and from the change's tree, by tools/ab.py; pair k "
            "runs the parent first when k is even and the change first when k is odd (ABBA). "
            f"{args.pairs} pairs per workload on seed {args.seed}. Both trees were exported "
            "with git archive, ran with PYTHONDONTWRITEBYTECODE=1 and held no __pycache__ "
            "directories, so setup_s includes byte-compilation on both sides."
        ),
        "revisions": {
            "parent": base,
            "change": (f"the working tree on {head}, as git stash create {snapshot} records it"
                       if snapshot else head),
            "change_source_blobs": {**{p: git("rev-parse", f"{change}:{p}") for p in changed},
                                    **{p: "deleted" for p in deleted}},
            "parent_tree": "exported with git archive of the parent commit into a separate "
                           "directory",
        },
        "machine": {**machine, "platform": platform.platform()},
        "claim_rule": (
            "a gain is claimed when the change wins at least 9 in 10 of the pairs and the "
            "medians differ by more than the parent's interquartile range; a metric regresses "
            "when the change's median exceeds the parent's by more than its BENCHMARK.json "
            "bound, and it is reported as unresolved when the relative interquartile range of "
            "either side's runs exceeds that bound, unless every run of the change reads "
            "better than every run of the parent"
        ),
        "claim": None if claimed is None else {
            "metric": claim[1],
            "workload": claim[0],
            f"seed_{args.seed}": {k: claimed.get(k) for k in (
                "change_wins", "ratio_of_medians", "parent_iqr", "median_gap_exceeds_parent_iqr")},
            "met": bool(claimed.get("claim_met")),
        },
        "no_regression": {
            "worse_beyond_bound": [_line(v) for v in verdicts
                                   if v["verdict"] == "worse beyond bound"],
            "unresolved": [_line(v) for v in verdicts if v["verdict"].startswith("unresolved")],
            "failed_operations": {side: sum(v["failed_ops"][side] for v in verdicts
                                            if v["metric"] == metric_names[0])
                                  for side in ("parent", "change")},
            "all_correct": all(v["all_correct"] for v in verdicts),
        },
        "verdicts": verdicts,
        "runs": runs,
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0


def _line(v: dict) -> str:
    if "ratio_of_medians" not in v:
        return f"{v['workload']} {v['metric']} ({v['verdict']})"
    return (f"{v['workload']} {v['metric']} (ratio of medians {v['ratio_of_medians']:.3f}, "
            f"relative spread {v['relative_spread']:.3f} against bound {v['bound']})")


if __name__ == "__main__":
    sys.exit(main())
