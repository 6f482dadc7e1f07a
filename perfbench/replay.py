"""Traced in-process replay of one psysafe CLI op.

    python3 perfbench/replay.py SPANS_OUT OP_ID -- <psysafe argv...>

Makes the same sequence of calls the CLI subcommand makes, through names
in ``psysafe.__all__`` only, and wraps each call into a layer in a span
(name, start ns, end ns, parent index). Stdout and stderr carry what the
CLI would print. At exit the spans and the layer counts are written to
SPANS_OUT as JSON; the process exit code is the CLI's.

Spans whose name starts with ``probe.`` are extra calls made only to count
something the op's own calls do not return (trace graph edges, suppressed
lints). They are not part of the op and are excluded from layer time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import psysafe as ps


class Tracer:
    """Spans kept in memory, written once when the replay ends."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            self.stack.pop()

    def dump(self, path: str) -> None:
        Path(path).write_text(json.dumps({
            "op": self.op_id, "spans": self.spans,
            "counts": dict(self.counts)}))


def _print_diagnostics(t: Tracer, diags) -> None:
    t.counts["diagnostics.count"] += len(diags)
    with t.span("diagnostics.format"):
        lines = [ps.format_diagnostic(d) for d in diags]
    for line in lines:
        print(line, file=sys.stderr)


def _load(t: Tracer, files: list[str]):
    """loader.load_model, stage by stage (see psysafe.loader)."""
    with t.span("loader.load"):
        diags, parsed, allows = [], [], {}
        for name in files:
            text = Path(name).read_text(encoding="utf-8")
            t.counts["lexer.bytes"] += len(text.encode("utf-8"))
            with t.span("lexer.tokenize"):
                lex = ps.tokenize(text, name)
            t.counts["lexer.tokens"] += len(lex.tokens)
            t.counts["lexer.diagnostics"] += len(lex.diagnostics)
            diags.extend(lex.diagnostics)
            for line, rules in lex.allows.items():
                allows[(name, line)] = rules
            with t.span("parser.parse"):
                raw, parse_diags = ps.parse(lex.tokens, name)
            t.counts["parser.decls"] += len(raw.decls)
            t.counts["parser.diagnostics"] += len(parse_diags)
            diags.extend(parse_diags)
            parsed.append((name, raw))
        if diags:
            raise ps.LoadError(diags)
        with t.span("parser.merge"):
            merged, merge_diags = ps.merge_raw_models(parsed)
        t.counts["parser.diagnostics"] += len(merge_diags)
        if merge_diags:
            raise ps.LoadError(merge_diags)
        with t.span("model.resolve"):
            try:
                model = ps.resolve(merged)
            except ps.ResolveError as err:
                t.counts["model.diagnostics"] += len(err.diagnostics)
                raise
    return model, allows


def _analyze(t: Tracer, files: list[str], strict: bool):
    """cli._analyze: load, structure checks, lints, one sorted list."""
    model, allows = _load(t, files)
    config = ps.LintConfig(strict=strict, allows=allows)
    with t.span("structure.validate"):
        structure = ps.validate_structure(model.structure, model.spans)
    with t.span("lints.run"):
        diags = ps.apply_config(structure, config)
        lints = ps.run_lints(model, config)
    t.counts["structure.findings"] += len(structure)
    t.counts["lints.findings"] += len(lints)
    with t.span("probe.lints.unsuppressed"):
        unsuppressed = ps.run_lints(model)
    t.counts["lints.suppressed"] += (len(structure) - len(diags)
                                     + len(unsuppressed) - len(lints))
    diags.extend(lints)
    diags.sort(key=lambda d: (d.span.file, d.span.start_line,
                              d.span.start_col, d.rule))
    return model, diags, config


def _exit_code(diags, strict: bool) -> int:
    if any(d.severity is ps.Severity.ERROR for d in diags):
        return 1
    if strict and any(d.severity is ps.Severity.WARNING for d in diags):
        return 1
    return 0


def replay(t: Tracer, argv: list[str]) -> int:
    command, rest = argv[0], argv[1:]
    flags = {a for a in rest if a.startswith("--")}
    opts = dict(zip(rest, rest[1:]))
    files = [a for a in rest if a.endswith(".psy")]
    if command == "psysil":
        s, e, c = rest
        with t.span("psysil.determine"):
            level = ps.determine_psysil(ps.SeverityClass[s],
                                        ps.ExposureClass[e],
                                        ps.ControllabilityClass[c])
        print("QM" if level is ps.PsySilLevel.QM else f"PsySIL {level.name}")
        return 0
    try:
        if command in ("check", "report"):
            strict = "--strict" in flags
            model, diags, config = _analyze(t, files, strict)
        else:
            model, _ = _load(t, files)
    except ps.DiagnosticError as err:
        _print_diagnostics(t, err.diagnostics)
        return 2
    if command == "check":
        _print_diagnostics(t, diags)
        if "--coverage" in flags:
            with t.span("structure.coverage"):
                rows = ps.uca_category_coverage(model)
            t.counts["structure.coverage_rows"] += len(rows)
            for row in rows:
                print(row.action, *(",".join(row.ucas_for(k)) or "-"
                                    for k in ps.UcaKind))
        return _exit_code(diags, strict)
    if command == "report":
        with t.span("report.build"):
            report = ps.build_report(model, config)
        if opts["--format"] == "json":
            with t.span("report.emit_json"):
                text = ps.emit_json(report)
        else:
            with t.span("report.emit_md"):
                text = ps.emit_markdown(report)
        t.counts["report.bytes"] += len(text.encode("utf-8"))
        _print_diagnostics(t, diags)
        sys.stdout.write(text)
        return _exit_code(diags, False)
    if command == "trace":
        with t.span("tracegraph.trace"):
            tree = ps.format_trace_tree(model, opts["--from"],
                                        opts.get("--dir", "both"))
        lines = tree.splitlines()
        t.counts["tracegraph.reached"] += len(
            {lines[0].split()[0]} | {line.split()[2] for line in lines[1:]})
        with t.span("probe.tracegraph.build"):
            graph = ps.build_trace_graph(model)
        t.counts["tracegraph.edges"] += len(graph.edges)
        sys.stdout.write(tree)
        return 0
    if command == "fmt":
        with t.span("printer.print"):
            text = ps.print_canonical(model)
        t.counts["printer.bytes"] += len(text.encode("utf-8"))
        sys.stdout.write(text)
        return 0
    raise SystemExit(f"replay: unsupported command {command!r}")


def main() -> None:
    spans_out, op_id, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        raise SystemExit(__doc__.splitlines()[2].strip())
    t = Tracer(op_id)
    code = replay(t, argv)
    sys.stdout.flush()
    t.dump(spans_out)
    sys.exit(code)


if __name__ == "__main__":
    main()
