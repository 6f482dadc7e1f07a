"""A/B benchmark: this checkout against an earlier revision, in pairs.

    python3 scripts/bench_ab.py REV --workload NAME [--pairs N]

Run from the repository root. ``git archive`` writes revision REV and
this checkout's working tree (uncommitted and untracked files included,
ignored ones not) into two directories of one temporary directory, so
both sides run from fresh copies of the same kind. The working tree is
archived as a tree that ``git add -A`` writes into a copy of the index,
which leaves the checkout and its index as they are. Then
``perfbench/run.py`` runs N pairs of times, once in each copy. Pair i runs
on seed i mod 3 + 1, and the side that goes first alternates from pair to
pair, so drift on the host falls on both.
Every run lasts 25 s, as in ``make bench``.
Before every run each side's ``src/psysafe/__pycache__`` is deleted, so
that both compile the same way. Every run must report ``correct``; the
script stops at the first that does not.

For each metric it prints REV's median [quartiles], this checkout's median
and its wins: the pairs in which it did better, by the direction
``BENCHMARK.json`` gives the metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 25


def archive(rev: str, dest: Path) -> Path:
    """Write revision (or tree) ``rev`` of this repository into ``dest``,
    made if need be; return it."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)
    return dest


def git(*argv: str, env: dict | None = None) -> str:
    """The stdout of ``git argv`` in this repository, stripped."""
    return subprocess.run(["git", *argv], cwd=ROOT, env=env, text=True,
                          capture_output=True, check=True).stdout.strip()


def working_tree() -> str:
    """The ID of a tree of this checkout's working tree, as ``git add -A``
    would stage it, written through a copy of the index."""
    with tempfile.TemporaryDirectory(prefix="bench-ab-index-") as tmp:
        index = Path(tmp) / "index"
        shutil.copyfile(ROOT / git("rev-parse", "--git-path", "index"), index)
        env = {**os.environ, "GIT_INDEX_FILE": str(index)}
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def run_bench(root: Path, workload: str, seed: int) -> dict:
    """The metrics of one perfbench run in ``root``, by name."""
    shutil.rmtree(root / "src" / "psysafe" / "__pycache__",
                  ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=root, capture_output=True, text=True)
    result = {}
    if proc.returncode == 0 and (lines := proc.stdout.strip().splitlines()):
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or not result.get("correct"):
        sys.exit(f"bench_ab: run in {root} (seed {seed}) failed:\n"
                 f"{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lower = {m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        # Paths of one length: perfbench puts its root into each child's
        # PYTHONPATH, and with environments of different sizes A/A rounds
        # on synth-16k read the same code 2-3% apart.
        sides = [("base", archive(args.rev, Path(tmp) / "base")),
                 ("change", archive(working_tree(), Path(tmp) / "work"))]
        runs: dict[str, list] = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = i % 3 + 1
            for side, root in sides if i % 2 == 0 else sides[::-1]:
                runs[side].append(run_bench(root, args.workload, seed))
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{name} {runs['base'][-1][name]:.4g}/"
                f"{runs['change'][-1][name]:.4g}"
                for name in runs["base"][-1]), flush=True)
    print(f"\n{args.workload}: {args.rev} median [quartiles] -> this "
          f"checkout median (wins of {args.pairs})")
    for name in runs["base"][0]:
        before = [run[name] for run in runs["base"]]
        after = [run[name] for run in runs["change"]]
        q1, _, q3 = statistics.quantiles(before, n=4) \
            if len(before) > 1 else before * 3
        better = (lambda a, b: a < b) if lower.get(name, True) \
            else (lambda a, b: a > b)
        wins = sum(better(a, b) for b, a in zip(before, after))
        print(f"  {name}: {statistics.median(before):.4g} "
              f"[{q1:.4g}-{q3:.4g}] -> {statistics.median(after):.4g} "
              f"({wins}/{args.pairs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
