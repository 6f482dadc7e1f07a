"""Parity check: the CLI at an earlier revision against this checkout.

    python3 scripts/parity.py REV [--seed N]

Run from the repository root. ``git archive`` writes revision REV into a
temporary directory, as ``scripts/bench_ab.py`` does. The ops are the CLI
ops of every ``perfbench/run.py`` workload: the paper corpus ops of
``paper-cli``, the four ``synth-16k`` ops, the two ``synth-trace`` traces
and the ``synth-broken`` syntax and refs checks, with the synthetic inputs
generated at seed N (default 1) by this checkout's ``perfbench``. An op
whose argv holds ``--dir`` runs with each ``--dir`` value, its own first,
so the ``synth-trace`` traces are checked up, down and both. Each op
runs twice from this checkout's root, on the same files and argv, once
with REV's ``src`` and once with this checkout's (its working tree,
uncommitted changes included).

It prints one row per op: whether the exit codes and the sha256 of stdout
and stderr are the same. It exits 1 if any op differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ab import ROOT, archive

sys.path.append(str(ROOT / "perfbench"))
import run  # noqa: E402  (perfbench/run.py, for its workloads' ops)
from regen_goldens import child_env  # noqa: E402


def outcome(root: Path, argv: list[str]) -> tuple[int, str, str]:
    """Exit code and sha256 of stdout and stderr of ``psysafe argv``, run
    from this checkout's root on the sources of ``root``."""
    proc = subprocess.run(
        [sys.executable, "-m", "psysafe", *argv], cwd=ROOT,
        env=child_env(root / "src"), capture_output=True)
    return (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
            hashlib.sha256(proc.stderr).hexdigest())


def variants(argv: list[str]) -> list[tuple[str, list[str]]]:
    """``argv``, then, if it holds ``--dir``, ``argv`` with each other
    ``--dir`` value, each with the suffix its row name takes."""
    if "--dir" not in argv:
        return [("", argv)]
    at = argv.index("--dir") + 1
    return [("", argv)] + [(f" --dir {d}", [*argv[:at], d, *argv[at + 1:]])
                           for d in ("up", "down", "both") if d != argv[at]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the revision to compare against")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    os.chdir(ROOT)  # the workloads name their inputs from here
    differ = ops = 0
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        base = archive(args.rev, Path(tmp))
        for workload, make_ops in run.WORKLOADS.items():
            for op in make_ops(args.seed, 1.0)[0]:
                for suffix, argv in variants(op.argv):
                    before, after = outcome(base, argv), outcome(ROOT, argv)
                    diffs = [what for what, a, b in zip(
                        ("exit code", "stdout", "stderr"), before, after)
                        if a != b]
                    ops += 1
                    differ += bool(diffs)
                    print(f"{'DIFFERS' if diffs else 'same':7}  {workload}/"
                          f"{op.name}{suffix}: exit {before[0]} -> {after[0]}"
                          + (f" ({', '.join(diffs)} differ)" if diffs
                             else ""), flush=True)
    print(f"\n{differ} of {ops} ops differ from {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
