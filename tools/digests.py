"""Byte-identity check of every data file the CLI writes, against another revision.

    python3 tools/digests.py --base REV

REV is exported with tools/ab.py's `export`; the other side is the working
tree as it is on disk.  In each tree one fresh process, with
PYTHONPATH=<tree>/src and one BLAS thread, calls `cli.main` for every
operation of every workload in that tree's bench/workloads.py on seeds 0
and 1, and for the extra configs in EXTRAS, each into its own output
directory.  Every file an operation writes, run_meta.json excepted, is
hashed with SHA-256.  The two processes run side by side.

Prints every file whose digest differs or that exists on one side only, and
every operation whose exit code differs.  A differing CSV or JSON file also
gets the largest absolute deviation over the numeric cells the two sides
hold at the same place (a NaN on one side only counts as infinite); other
files are compared by digest only.  Exits 0 when everything matches and 1
otherwise.  This file uses the standard library only.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab import ROOT, export, git  # noqa: E402

SEEDS = (0, 1)
_VALIDATE_SUITES = ("scaling", "gci", "corrector", "equilibrium", "cross")

# (name, argv without --config/--out, config text): runs the bench workloads
# leave out, the global kernel in d = 3, the self-consistent kinetic policy,
# a 3-D lattice, and every validate suite on its defaults
EXTRAS = [
    ("ibm-indicator-coarse", ("ibm",),
     "[ibm]\nN = 2000\nd = 2\nnu = 4.0\nD = 1.0\nR = 0.1\nkernel = indicator\n"
     f"box_length = {2 ** 0.5!r}\ndt = 0.005\nT = 0.5\ncoarse_grid = 8\n"
     "coarse_bandwidth = 0.1\nseed = 3\n"),
    ("ibm-global-d3", ("ibm",),
     "[ibm]\nN = 2000\nd = 3\nnu = 4.0\nD = 1.0\nR = 0.1\nkernel = global\n"
     "dt = 0.005\nT = 0.5\nseed = 5\n"),
    ("kinetic-self-consistent", ("kinetic",),
     "[kinetic]\nkappa = 4.0\nD = 1.0\nn = 200\ndt = 0.001\nT = 2.0\n"
     "u_policy = self-consistent\n"),
    ("macro-d3", ("macro",), "[macro]\nkappa = 2.0\nd = 3\ngrid_n = 16\nT = 0.002\n"),
    *[(f"validate-{s}", ("validate", "--suite", s), "[validate]\n") for s in _VALIDATE_SUITES],
    ("validate-corrector-d2", ("validate", "--suite", "corrector"), "[validate]\nd = 2\n"),
]


def collect(tree: Path, out: Path) -> dict:
    """Runs every operation with the tree's package; digests and exit codes by name."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from nematic_hydro.cli_io.cli import main
    from worker import call
    from workloads import WORKLOADS

    if not Path(sys.modules["nematic_hydro"].__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"nematic_hydro not imported from {tree / 'src'}")
    ops = [(f"{name}/seed{seed}/{op.name}", op.argv, op.config)
           for name, make in WORKLOADS.items() for seed in SEEDS for op in make(seed).ops]
    files, exit_codes = {}, {}
    for name, argv, config in [*ops, *EXTRAS]:
        op_dir = out / name
        op_dir.mkdir(parents=True)
        cfg = op_dir.parent / f"{op_dir.name}.cfg"
        cfg.write_text(config, encoding="utf-8")
        exit_codes[name] = call(main, [*argv, "--config", str(cfg), "--out", str(op_dir)])
        for path in sorted(op_dir.rglob("*")):
            if path.is_file() and path.name != "run_meta.json":
                key = f"{name}/{path.relative_to(op_dir).as_posix()}"
                files[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{tree.name}: {name} exit {exit_codes[name]}", file=sys.stderr, flush=True)
    return {"files": files, "exit_codes": exit_codes}


def _leaves(node, where: tuple = ()):
    """(position, value) of every scalar in a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield where, node
        return
    for key, value in items:
        yield from _leaves(value, where + (key,))


def _numbers(path: Path) -> dict:
    """The numeric cells of a CSV or JSON file by position; {} for other files."""
    if path.suffix == ".csv":
        rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
        cells = [((i, j), cell) for i, row in enumerate(rows) for j, cell in enumerate(row)]
    elif path.suffix == ".json":
        cells = list(_leaves(json.loads(path.read_text(encoding="utf-8"))))
    else:
        return {}
    numbers = {}
    for where, cell in cells:
        if isinstance(cell, bool):
            continue
        try:
            numbers[where] = float(cell)
        except (TypeError, ValueError):
            pass  # text
    return numbers


def max_deviation(a: Path, b: Path) -> float | None:
    """Largest |a - b| over the numeric cells both files hold at one position."""
    na, nb = _numbers(a), _numbers(b)
    worst = None
    for where, x in na.items():
        if where not in nb:
            continue
        y = nb[where]
        if x == y or (math.isnan(x) and math.isnan(y)):
            dev = 0.0
        else:
            dev = abs(x - y)
            dev = math.inf if math.isnan(dev) else dev
        worst = dev if worst is None else max(worst, dev)
    return worst


def compare(base: dict, change: dict, outputs: dict[str, Path] | None = None) -> list[str]:
    lines = []
    for name in sorted(base["exit_codes"].keys() | change["exit_codes"].keys()):
        a, b = base["exit_codes"].get(name), change["exit_codes"].get(name)
        if a != b:
            lines.append(f"exit code differs: {name}: base {a}, change {b}")
    for key in sorted(base["files"].keys() | change["files"].keys()):
        a, b = base["files"].get(key), change["files"].get(key)
        if a is None or b is None:
            lines.append(f"only in {'change' if a is None else 'base'}: {key}")
        elif a != b:
            dev = max_deviation(outputs["base"] / key, outputs["change"] / key) if outputs else None
            lines.append(f"digest differs: {key}"
                         + ("" if dev is None else f" (max abs deviation {dev:.2g})"))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="revision to compare the working tree with")
    parser.add_argument("--collect", nargs=3, type=Path, metavar=("TREE", "OUT", "JSON"),
                        help=argparse.SUPPRESS)  # the per-tree process
    args = parser.parse_args()
    if args.collect:
        tree, out, result = args.collect
        result.write_text(json.dumps(collect(tree.resolve(), out)))
        return 0
    if not args.base:
        parser.error("--base is required")
    try:
        rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError as exc:
        print(f"cannot resolve {args.base}: {exc}", file=sys.stderr)
        return 1
    threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        export(rev, trees["base"])
        procs, results = {}, {}
        outputs = {side: Path(tmp) / f"{side}-out" for side in trees}
        for side, tree in trees.items():
            results[side] = Path(tmp) / f"{side}.json"
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
                       **threads)
            procs[side] = subprocess.Popen(
                [sys.executable, __file__, "--collect", str(tree), str(outputs[side]),
                 str(results[side])], env=env)
        failed = [side for side, proc in procs.items() if proc.wait() != 0]
        if failed:
            print(f"the collecting process failed on: {', '.join(failed)}", file=sys.stderr)
            return 1
        base, change = (json.loads(results[s].read_text()) for s in ("base", "change"))
        lines = compare(base, change, outputs)
    print("\n".join(lines) if lines else
          f"all {len(change['files'])} files and {len(change['exit_codes'])} exit codes "
          f"match {rev[:12]}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
