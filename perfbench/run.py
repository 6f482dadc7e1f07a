"""psysafe benchmark: CLI latency and throughput on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark drives ``python -m psysafe``
from ``src/`` as a closed loop with one client: one child process at a
time, each op started after the previous one has exited. Every output is
checked against a reference that does not come from psysafe (the pinned
goldens and the README for the bundled corpus, the generator's own
bookkeeping for synthetic models).

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` replays every
op in-process through the public API with spans around each layer (see
``replay.py``) and reports per-layer numbers. Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (see README.md in this directory for the reasoning):

- ``paper-cli``: the bundled corpus through eight cheap ops, dominated
  by interpreter start-up and import.
- ``synth-16k``: 1,600 baseline units (~17.5k declarations) in 8 files
  through check --coverage, report json/md and fmt.
- ``synth-trace``: 1,200 units sharing two stakes and losses, traced down
  from a loss and from a stake.
- ``synth-broken``: the synth-16k shape with seeded lexical/syntax
  defects, and with unresolved and duplicate references; both exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import selectors
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
CORPUS = Path("corpus/paper")
DECL_KEYWORDS = ("stakeholder", "stake", "loss", "hazard", "goal",
                 "controller", "process", "action", "feedback", "resp",
                 "uca", "scenario", "assess")
SETUP_REPEATS = 9
#: Reference start-up time of a bare interpreter (``python -c pass``);
#: end-to-end times are rescaled to the machine speed at which it is this.
INTERP_REF_S = 0.055
#: Reference runs whose median gives one child's speed factor: the two
#: before it and the two after it. A wider window lags the host's speed
#: changes, which then widen the spread of short ops' tails.
SPEED_WINDOW = 4
OP_TIMEOUT_S = 60
MIN_PAPER_OPS = 104
SCALE_FLAG = 1.3

# Which end-to-end metric each layer should move, printed with the layers.
LAYER_MOVES = {
    "lexer": "decls_per_s, op_p50_ms, peak_rss_mb",
    "parser": "decls_per_s", "model": "decls_per_s", "loader": "op_p50_ms",
    "structure": "decls_per_s", "lints": "decls_per_s",
    "report": "op_p50_ms of report ops", "printer": "decls_per_s",
    "tracegraph": "op_p50_ms, decls_per_s", "diagnostics": "op_p50_ms",
    "psysil": "op_p50_ms", "cli": "setup_s, op_p50_ms, op_p90_ms",
}
STDERR_LINE = re.compile(
    r"^(?P<file>.+?):(?P<line>\d+):(?P<col>\d+): "
    r"(?P<sev>error|warning|info)\[(?P<rule>PSY\d{3})\]: \S.*$")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Result:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    maxrss_kb: int


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[Result], str | None]
    decls: int


# -- child processes ---------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NO_COLOR"] = "1"
    return env


def spawn(argv: list[str], env: dict) -> Result:
    """Run one child to exit with both pipes drained; wall time is spawn
    to reap, peak RSS is this child's own ``ru_maxrss`` from wait4."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_DUP2, out_w, 1),
               (os.POSIX_SPAWN_DUP2, err_w, 2)]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                             file_actions=actions)
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks: dict[int, list[bytes]] = {out_r: [], err_r: []}
    deadline = start + OP_TIMEOUT_S
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(max(0.0, deadline - time.perf_counter()))
            if not ready:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    for fd in chunks:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = -1 if timed_out else os.waitstatus_to_exitcode(status)
    return Result(code, b"".join(chunks[out_r]), b"".join(chunks[err_r]),
                  wall, usage.ru_maxrss)


# -- output checks -----------------------------------------------------------

def _problems(res: Result, exit_code: int, err: bytes | None = None
              ) -> list[str]:
    problems = []
    if res.code != exit_code:
        problems.append(f"exit code {res.code}, expected {exit_code}")
    if b"Traceback" in res.err:
        problems.append("traceback on stderr")
    if err is not None and res.err != err:
        problems.append("stderr differs from the reference")
    return problems


def _findings(err: bytes) -> Counter | None:
    """(file, line, severity, rule) multiset; None if a line is malformed."""
    found: Counter = Counter()
    for line in err.decode("utf-8").splitlines():
        m = STDERR_LINE.match(line)
        if m is None:
            return None
        found[(m["file"], int(m["line"]), m["sev"], m["rule"])] += 1
    return found


def _check_findings(res: Result, expected: Counter) -> list[str]:
    found = _findings(res.err)
    if found is None:
        return ["stderr line not in file:line:col: severity[PSYnnn] form"]
    if found != expected:
        extra = sum((found - expected).values())
        missing = sum((expected - found).values())
        return [f"findings differ: {extra} unexpected, {missing} missing"]
    return []


def decl_keys(text: str) -> list[tuple[str, str]]:
    """(kind, ID) of each declaration line; controllers and processes
    share the kind ``entity``."""
    keys = []
    for line in text.splitlines():
        word, _, rest = line.partition(" ")
        if word in DECL_KEYWORDS:
            kind = "entity" if word in ("controller", "process") else word
            keys.append((kind, rest.split(" ", 1)[0]))
    return keys


def _check_canonical(out: bytes, expected: Counter) -> list[str]:
    """fmt output: the same declarations, grouped by kind, ID-sorted."""
    keys = decl_keys(out.decode("utf-8"))
    problems = []
    if Counter(keys) != expected:
        problems.append("fmt declarations differ from the input's")
    kinds = [k for k, _ in keys]
    groups = [k for i, k in enumerate(kinds) if i == 0 or kinds[i - 1] != k]
    if len(groups) != len(set(groups)):
        problems.append("fmt declarations not grouped by kind")
    for kind in set(kinds):
        ids = [i for k, i in keys if k == kind]
        if ids != sorted(ids):
            problems.append(f"fmt {kind} declarations not sorted by ID")
    return problems


def _tree_ids(out: bytes) -> tuple[set[str], int]:
    lines = out.decode("utf-8").splitlines()
    if not lines:
        return set(), 0
    ids = {lines[0].split()[0]}
    ids.update(line.split()[2] for line in lines[1:])
    return ids, len(lines)


def _coverage_table(out: bytes) -> list[list[str]]:
    rows = out.decode("utf-8").splitlines()[1:]
    return [re.split(r"\s{2,}", row.strip()) for row in rows]


def _md_section(md: str, title: str) -> list[str]:
    """Table rows (header and rule excluded) of one Markdown section."""
    _, _, body = md.partition(f"\n{title}\n")
    rows = []
    for line in body.splitlines():
        if line.startswith("## ") or line.startswith("### "):
            break
        if line.startswith("| ") and not line.startswith("| --- "):
            rows.append(line)
    return rows[1:]


def _checker(*checks: Callable[[Result], list[str]]
             ) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        try:
            problems = [p for c in checks for p in c(res)]
        except Exception as exc:  # garbled output is a failed op
            problems = [f"output not checkable: {exc!r}"]
        return "; ".join(problems) or None
    return check


# -- workloads ---------------------------------------------------------------

def paper_cli(seed: int, scale: float) -> tuple[list[Op], dict]:
    """The bundled corpus, checked against the pinned goldens."""
    del seed, scale  # fixed inputs; the seed only orders each cycle
    files = [str(p) for p in sorted(CORPUS.glob("*.psy"))]
    if not files:
        raise BenchError(f"no corpus under {CORPUS}")
    golden = {name: (CORPUS / "golden" / name).read_bytes()
              for name in ("report.json", "report.md", "diagnostics.txt")}
    diags = golden["diagnostics.txt"]
    source = "".join(Path(f).read_text(encoding="utf-8") for f in files)
    keys = Counter(decl_keys(source))
    n = sum(keys.values())
    coverage = [[row["action"], *(", ".join(row[k]) or "-"
                                  for k in gen.UCA_KINDS)]
                for row in json.loads(golden["report.json"])["uca_coverage"]]
    # Reach of `trace --from H3` over the documented edge list
    # (tracegraph module docstring), read off the corpus by hand: up to
    # its losses and their stakes, down to the goal, responsibilities,
    # UCA and scenarios that refer to it.
    h3 = {"H3", "L1", "L2", "L3", "ST1", "ST2", "ST3", "ST4", "SG3", "R2",
          "R4", "R5", "UCA3", "UCA3.SC1", "UCA3.SC2"}
    level = gen.psysil("S2", "E4", "C1")
    ops = [
        Op("check", ["check", *files], _checker(
            lambda r: _problems(r, 0, diags),
            lambda r: ["stdout not empty"] if r.out else []), n),
        Op("check-strict", ["check", *files, "--strict"], _checker(
            lambda r: _problems(r, 1, diags)), n),
        Op("check-coverage", ["check", *files, "--coverage"], _checker(
            lambda r: _problems(r, 0, diags),
            lambda r: [] if _coverage_table(r.out) == coverage
            else ["coverage table differs from golden uca_coverage"]), n),
        Op("report-json", ["report", *files, "--format", "json"], _checker(
            lambda r: _problems(r, 0, diags),
            lambda r: [] if r.out == golden["report.json"]
            else ["report.json differs from golden"]), n),
        Op("report-md", ["report", *files, "--format", "md"], _checker(
            lambda r: _problems(r, 0, diags),
            lambda r: [] if r.out == golden["report.md"]
            else ["report.md differs from golden"]), n),
        Op("trace", ["trace", *files, "--from", "H3"], _checker(
            lambda r: _problems(r, 0, b""),
            lambda r: [] if _tree_ids(r.out)[0] == h3
            else ["trace reach differs"]), n),
        Op("fmt", ["fmt", *files], _checker(
            lambda r: _problems(r, 0, b""),
            lambda r: _check_canonical(r.out, keys)), n),
        Op("psysil", ["psysil", "S2", "E4", "C1"], _checker(
            lambda r: _problems(r, 0, b""),
            lambda r: [] if r.out.decode() == f"PsySIL {level}\n"
            else ["psysil level differs from the README table"]), 0),
    ]
    return ops, {"declarations": n, "scale": 1.0, "files": _digests(files)}


def _digests(files: list[str]) -> dict:
    return {f: hashlib.sha256(Path(f).read_bytes()).hexdigest()
            for f in files}


def _write(model: gen.Model) -> list[str]:
    for rel, _ in model.files:
        shutil.rmtree(ROOT / rel.rsplit("/", 1)[0], ignore_errors=True)
    model.write(ROOT)
    return [rel for rel, _ in model.files]


def _expected_keys(model: gen.Model) -> Counter:
    return Counter(("entity" if d.kind in ("controller", "process")
                    else d.kind, d.id) for d in model.decls)


def synth_16k(seed: int, scale: float) -> tuple[list[Op], dict]:
    units = max(4, round(1600 * scale))
    model = gen.generate(seed, units, _work("synth-16k", scale))
    files = _write(model)
    n = model.declarations
    findings = model.findings
    code = 1 if any(sev == "error" for _, _, sev, _ in findings) else 0
    total = sum(findings.values())

    def json_report(r: Result) -> list[str]:
        doc = json.loads(r.out)
        got = Counter((d["file"], d["line"], d["severity"], d["rule"])
                      for d in doc["diagnostics"])
        levels = Counter(h["level"] for h in doc["psysil"]["hazards"])
        problems = []
        if doc["inventory"] != model.inventory:
            problems.append("report inventory differs")
        if got != findings:
            problems.append("report diagnostics differ")
        if len(doc["uca_coverage"]) != model.coverage_rows:
            problems.append("report coverage row count differs")
        if levels != model.psysil_levels:
            problems.append("report PsySIL levels differ from the README")
        return problems

    def md_report(r: Result) -> list[str]:
        md = r.out.decode("utf-8")
        inventory = {}
        for row in _md_section(md, "## Overview"):
            cells = [c.strip() for c in row.strip("|").split("|")]
            inventory[cells[0]] = int(cells[1])
        problems = []
        if inventory != model.inventory:
            problems.append("markdown inventory differs")
        if len(_md_section(md, "## Diagnostics")) != total:
            problems.append("markdown diagnostics row count differs")
        if len(_md_section(md, "## UCA Coverage")) != model.coverage_rows:
            problems.append("markdown coverage row count differs")
        return problems

    def coverage(r: Result) -> list[str]:
        rows = _coverage_table(r.out)
        uncovered = sum(1 for row in rows if row[1:] == ["-"] * 4)
        if len(rows) != model.coverage_rows:
            return ["coverage row count differs"]
        if uncovered != model.uncovered_actions:
            return ["uncovered action count differs"]
        return []

    ops = [
        Op("check-coverage", ["check", "--coverage", *files], _checker(
            lambda r: _problems(r, code),
            lambda r: _check_findings(r, findings), coverage), n),
        Op("report-json", ["report", "--format", "json", *files], _checker(
            lambda r: _problems(r, code),
            lambda r: _check_findings(r, findings), json_report), n),
        Op("report-md", ["report", "--format", "md", *files], _checker(
            lambda r: _problems(r, code),
            lambda r: _check_findings(r, findings), md_report), n),
        Op("fmt", ["fmt", *files], _checker(
            lambda r: _problems(r, 0, b""),
            lambda r: _check_canonical(r.out, _expected_keys(model))), n),
    ]
    return ops, {"declarations": n, "units": units, "scale": scale,
                 "files": _digests(files)}


def synth_trace(seed: int, scale: float) -> tuple[list[Op], dict]:
    units = max(4, round(1200 * scale))
    # Two shared losses: L1 and ST2 (violated by L2 only) each reach half
    # of the hazards, so both ops cost about the same.
    model = gen.generate(seed, units, _work("synth-trace", scale), shared=2)
    files = _write(model)
    ops = []
    for start in ("L1", "ST2"):
        reached, lines = gen.expected_trace_down(model.decls, start)

        def tree(r: Result, reached=reached, lines=lines) -> list[str]:
            ids, count = _tree_ids(r.out)
            if ids != reached:
                return ["trace reach differs from the generator's BFS"]
            if count != lines:
                return ["trace line count differs"]
            return []

        ops.append(Op(f"trace-{start}",
                      ["trace", *files, "--from", start, "--dir", "down"],
                      _checker(lambda r: _problems(r, 0, b""), tree),
                      model.declarations))
    return ops, {"declarations": model.declarations, "units": units,
                 "scale": scale, "files": _digests(files)}


def synth_broken(seed: int, scale: float) -> tuple[list[Op], dict]:
    units = max(4, round(1600 * scale))
    base = gen.generate(seed, units, _work("synth-broken", scale))
    syntax = gen.with_syntax_defects(
        base, seed, 0.15, _work("synth-broken", scale) + "/syntax")
    refs = gen.with_resolve_defects(
        base, seed, 0.3, _work("synth-broken", scale) + "/refs")
    ops, digests = [], {}
    for name, model in (("check-syntax", syntax), ("check-refs", refs)):
        files = _write(model)
        digests.update(_digests(files))
        ops.append(Op(name, ["check", *files], _checker(
            lambda r: _problems(r, 2),
            lambda r, m=model: _check_findings(r, m.defects)),
            base.declarations))
    return ops, {"declarations": base.declarations, "units": units,
                 "scale": scale, "files": digests}


def _work(name: str, scale: float) -> str:
    return str((WORK / f"{name}-x{scale:g}").relative_to(ROOT))


WORKLOADS = {"paper-cli": paper_cli, "synth-16k": synth_16k,
             "synth-trace": synth_trace, "synth-broken": synth_broken}
SCALED = ("synth-16k", "synth-trace")


# -- measurement -------------------------------------------------------------

class SpeedClock:
    """Rescales child wall times to a reference machine speed.

    On a shared host the CPU speed drifts by tens of percent within
    minutes, and the drift moves every wall time alike. A bare interpreter
    start (``python -c pass``, which never imports psysafe) runs after
    each child as the reference. A child's factor is ``INTERP_REF_S`` over
    the median of the ``SPEED_WINDOW`` reference runs nearest to it, so
    ``wall * factor`` is its wall time at the reference speed, and the
    jitter of a single reference run does not enter it in full.
    """

    def __init__(self, env: dict):
        self.env = env
        self.interp = [self._reference()]

    def _reference(self) -> float:
        return spawn(["-c", "pass"], self.env).wall_s

    def spawn(self, argv: list[str]) -> tuple[Result, int]:
        """Run one child; return its result and its index for factor()."""
        res = spawn(argv, self.env)
        self.interp.append(self._reference())
        return res, len(self.interp) - 2

    def factor(self, index: int) -> float:
        """Factor of child ``index``, which ran between reference runs
        ``index`` and ``index + 1``; call once every child has run."""
        lo = max(0, min(index + 1 - SPEED_WINDOW // 2,
                        len(self.interp) - SPEED_WINDOW))
        window = self.interp[lo:lo + SPEED_WINDOW]
        return INTERP_REF_S / statistics.median(window)


@dataclass
class Sample:
    op: Op
    res: Result
    error: str | None
    clock_index: int = -1  # SpeedClock child index; -1 if not rescaled


def run_op(op: Op, env: dict, clock: SpeedClock | None = None) -> Sample:
    """Run and check one op; its output is dropped unless the check fails."""
    if clock is None:
        res, index = spawn(["-m", "psysafe", *op.argv], env), -1
    else:
        res, index = clock.spawn(["-m", "psysafe", *op.argv])
    error = op.check(res)
    if error is None:
        res.out = res.err = b""
    return Sample(op, res, error, index)


def setup_times(clock: SpeedClock) -> list[tuple[float, int]]:
    """Fresh `psysafe --version` runs as (raw wall, clock index): interpreter
    start, import psysafe and the argparse parser, which every invocation
    pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        res, index = clock.spawn(["-m", "psysafe", "--version"])
        if res.code != 0 or not res.out.startswith(b"psysafe "):
            raise BenchError(f"psysafe --version failed: {res.err[-300:]!r}")
        times.append((res.wall_s, index))
    return times


def bare_times(env: dict, code: str) -> list[float]:
    return [spawn(["-c", code], env).wall_s for _ in range(SETUP_REPEATS)]


def cycles(ops: list[Op], seconds: float, rng: random.Random,
           min_ops: int, body: Callable[[Op], None]) -> int:
    """Run whole cycles over ``ops`` (order shuffled per cycle) until the
    next cycle would end more than half a cycle after ``seconds``; at
    least one cycle and at least ``min_ops`` ops."""
    start = time.perf_counter()
    done = 0
    while True:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            body(op)
        done += 1
        elapsed = time.perf_counter() - start
        if done * len(ops) >= min_ops and \
                elapsed * (done + 0.5) / done > seconds:
            return done


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(name: str, ops: list[Op], info: dict, args, env: dict
            ) -> tuple[dict, int, int]:
    clock = SpeedClock(env)
    setup = setup_times(clock)
    samples: list[Sample] = []
    min_ops = MIN_PAPER_OPS if name == "paper-cli" else 1
    cycles(ops, args.seconds, random.Random(args.seed), min_ops,
           lambda op: samples.append(run_op(op, env, clock)))
    failed = report_failures(samples)
    decls = sum(s.op.decls for s in samples)
    scaled = [s.res.wall_s * clock.factor(s.clock_index) for s in samples]
    metrics = {}
    for prefix, walls in (("", scaled),
                          ("raw ", [s.res.wall_s for s in samples])):
        metrics[prefix + "op_p50_ms"] = (statistics.median(walls) * 1e3,
                                         "ms", len(walls))
        metrics[prefix + "op_p90_ms"] = (quantile(walls, 90) * 1e3, "ms",
                                         len(walls))
        metrics[prefix + "decls_per_s"] = (decls / sum(walls), "1/s",
                                           len(walls))
    metrics["setup_s"] = (statistics.median(
        wall * clock.factor(index) for wall, index in setup), "s", len(setup))
    metrics["raw setup_s"] = (statistics.median(wall for wall, _ in setup),
                              "s", len(setup))
    metrics["peak_rss_mb"] = (max(s.res.maxrss_kb for s in samples) / 1024,
                              "MB", len(samples))
    for op in ops:
        own = [wall * 1e3 for s, wall in zip(samples, scaled) if s.op is op]
        print(f"op {op.name}: median {statistics.median(own):.1f} ms "
              f"n={len(own)} decls={op.decls}")
    factors = [clock.factor(i) for i in range(len(clock.interp) - 1)]
    print(f"env cli.interp_s={statistics.median(clock.interp)} speed factor "
          f"median {statistics.median(factors)} min {min(factors)} max "
          f"{max(factors)} (factor 1: bare interpreter start {INTERP_REF_S} "
          f"s, median of {SPEED_WINDOW} starts around each child)")
    print(f"fail_ratio {failed / len(samples)} ({failed}/{len(samples)})")
    for key, (value, unit, n) in metrics.items():
        print(f"metric {key} {value} {unit} n={n}")
    metrics = {k: metrics[k] for k in END_TO_END}
    return ({k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            len(samples), failed)


def report_failures(samples: list[Sample]) -> int:
    failed = [s for s in samples if s.error]
    for s in failed[:5]:
        print(f"FAIL {s.op.name}: {s.error}; stderr tail "
              f"{s.res.err[-300:]!r}")
    return len(failed)


# -- traced replay -----------------------------------------------------------

def self_times(spans: list[list]) -> tuple[dict, float]:
    """Self time per span name (s) and inclusive loader.load time."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own: Counter = Counter()
    load = 0
    for i, (name, start, end, _) in enumerate(spans):
        own[name] += (end - start - child[i]) / 1e9
        if name == "loader.load":
            load += (end - start) / 1e9
    return own, load


def replay_op(op: Op, env: dict, path: Path) -> tuple[Result, dict]:
    res = spawn([str(BENCH / "replay.py"), str(path), op.name, "--",
                 *op.argv], env)
    data = json.loads(path.read_text()) if path.exists() else None
    path.unlink(missing_ok=True)
    return res, data


def traced(name: str, ops: list[Op], info: dict, args, env: dict
           ) -> tuple[dict, int, int]:
    interp = bare_times(env, "pass")
    imported = bare_times(env, "import psysafe.cli")
    quarter = None
    if name in SCALED:
        quarter_ops, quarter_info = WORKLOADS[name](args.seed,
                                                    info["scale"] / 4)
        quarter = dict(zip((op.name for op in ops), quarter_ops))
    spans_path = WORK / f"{name}-replay.json"
    log: list[dict] = []
    samples: list[Sample] = []
    per_op: dict[str, dict] = {op.name: {"wall": [], "replay": [],
                                         "self": [], "load": [],
                                         "quarter": []} for op in ops}

    def body(op: Op) -> None:
        sample = run_op(op, env)
        samples.append(sample)
        rec = per_op[op.name]
        rec["wall"].append(sample.res.wall_s)
        res, data = replay_op(op, env, spans_path)
        if res.code != sample.res.code or data is None:
            samples.append(Sample(op, res, f"replay exit {res.code}, CLI "
                                  f"exit {sample.res.code}"))
            return
        samples.append(Sample(op, res, None))
        log.append(data)
        own, load = self_times(data["spans"])
        rec["replay"].append(res.wall_s)
        rec["self"].append(own)
        rec["load"].append(load)
        rec["counts"] = data["counts"]
        if quarter is not None:
            qres, qdata = replay_op(quarter[op.name], env, spans_path)
            ok = qdata is not None and qres.code == sample.res.code
            samples.append(Sample(op, qres, None if ok else "quarter replay"))
            if ok:
                rec["quarter"].append(self_times(qdata["spans"])[0])

    cycles(ops, args.seconds, random.Random(args.seed), 1, body)
    failed = report_failures(samples)
    spans_path.write_text(json.dumps(log))

    layer: Counter = Counter()
    counts: Counter = Counter()
    wall = replay = loads = 0.0
    quarter_layer: Counter = Counter()
    for op in ops:
        rec = per_op[op.name]
        if not rec["self"]:
            continue
        wall += statistics.median(rec["wall"])
        replay += statistics.median(rec["replay"])
        loads += statistics.median(rec["load"])
        names = {n for own in rec["self"] for n in own}
        for n in names:
            layer[n] += statistics.median(own.get(n, 0.0)
                                          for own in rec["self"])
            if rec["quarter"]:
                quarter_layer[n] += statistics.median(
                    own.get(n, 0.0) for own in rec["quarter"])
        counts.update(rec["counts"])
    layer_time = sum(v for n, v in layer.items()
                     if not n.startswith("probe."))
    values = {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(imported)
        - statistics.median(interp),
        "cli.overhead_s": wall - layer_time,
        "loader.load_s": loads,
        "bench.trace_overhead": replay / wall - 1 if wall else 0.0,
    }
    probes = set()
    for span_name, seconds in sorted(layer.items()):
        key = span_name.removeprefix("probe.") + "_s"
        if key == "loader.load_s":
            key = "loader.self_s"
        if span_name.startswith("probe."):
            probes.add(key)
        values[key] = seconds
    for key, value in sorted(counts.items()):
        values.setdefault(key, value)
    if quarter is not None:
        ratio = info["declarations"] / quarter_info["declarations"]
        for key, span_name in SCALE_EXPONENTS.items():
            full, small = layer.get(span_name), quarter_layer.get(span_name)
            if full and small:
                values[key] = math.log(full / small) / math.log(ratio)
    print(f"accounting: layer self time {layer_time:.4f} s + "
          f"cli.overhead_s {values['cli.overhead_s']:.4f} s = untraced op "
          f"wall {wall:.4f} s (sum of per-op medians)")
    for key, value in values.items():
        unit = unit_of(key)
        layer_name = key.split(".")[0]
        note = ""
        if key.endswith("scale_exp"):
            note = " FLAG superlinear" if value > SCALE_FLAG else " linear"
        elif key in probes:
            note = " (probe call outside the op)"
        elif layer_name in LAYER_MOVES and unit == "s":
            note = f" moves {LAYER_MOVES[layer_name]}"
        print(f"layer {key} {value} {unit}{note}")
    metrics = {key: {"value": values.get(key, 0.0), "unit": unit_of(key)}
               for key in PER_LAYER}
    return metrics, len(samples), failed


END_TO_END = ("setup_s", "op_p50_ms", "op_p90_ms", "decls_per_s",
              "peak_rss_mb")
PER_LAYER_TIMES = ("cli.interp_s", "cli.import_s", "cli.overhead_s",
                   "loader.load_s", "lexer.tokenize_s", "parser.parse_s",
                   "parser.merge_s", "model.resolve_s")
PER_LAYER = PER_LAYER_TIMES + ("bench.trace_overhead",)
SCALE_EXPONENTS = {
    "lexer.scale_exp": "lexer.tokenize", "parser.scale_exp": "parser.parse",
    "model.scale_exp": "model.resolve",
    "structure.coverage_scale_exp": "structure.coverage",
    "report.build_scale_exp": "report.build",
    "tracegraph.trace_scale_exp": "tracegraph.trace",
}


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("bytes"):
        return "bytes"
    if key.endswith(("scale_exp", "overhead")):
        return "ratio"
    return "count"


# -- entry point -------------------------------------------------------------

def preflight(env: dict) -> None:
    """Refuse to run without the psysafe sources of this checkout."""
    init = ROOT / "src" / "psysafe" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"psysafe sources not found at {init}")
    res = spawn(["-c", "import psysafe; print(psysafe.__file__)"], env)
    found = res.out.decode().strip()
    if res.code != 0 or Path(found).resolve() != init.resolve():
        raise BenchError(f"psysafe imports from {found or res.err!r}, "
                         f"not {init}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    env = child_env()
    try:
        preflight(env)
        WORK.mkdir(exist_ok=True)
        ops, info = WORKLOADS[args.workload](args.seed, 1.0)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    inputs = hashlib.sha256(json.dumps(info["files"], sort_keys=True)
                            .encode()).hexdigest()
    print(f"workload {args.workload} seed={args.seed} "
          f"declarations={info['declarations']} files={len(info['files'])}")
    print(f"env python={sys.version.split()[0]} nproc={os.cpu_count()} "
          f"generator_sha256="
          f"{hashlib.sha256((BENCH / 'gen.py').read_bytes()).hexdigest()} "
          f"inputs_sha256={inputs} seed={args.seed}")
    try:
        run = traced if args.trace else measure
        metrics, attempted, failed = run(args.workload, ops, info, args, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
