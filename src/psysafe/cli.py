"""Command-line front door: parse -> resolve -> analyze -> report.

Subcommands::

    psysafe check <files...> [--strict] [--config <path>] [--coverage]
    psysafe psysil <S> <E> <C>
    psysafe report <files...> --format json|md [--config <path>] [--out <path>]
    psysafe trace <files...> --from <ID> [--dir up|down|both]
    psysafe fmt <files...>

Exit codes are stable for CI: 0 success (warnings allowed unless
``--strict``), 1 error-severity findings (or warnings under ``--strict``),
2 parse/resolution failure, unreadable input or unwritable output, 64
usage error.

Diagnostics go to stderr in ``file:line:col: severity[PSYnnn]: message``
form; stdout carries only the requested artifact (level, report, tree, or
canonical form). Setting ``NO_COLOR`` disables ANSI coloring.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

# Commands import the modules they run: start-up loads only these.
from .diagnostics import (Diagnostic, DiagnosticError, Severity,
                          format_diagnostic)
from . import __version__

if TYPE_CHECKING:
    from .lints import LintConfig
    from .model import AnalysisModel

EX_OK = 0
EX_FINDINGS = 1
EX_DATA = 2
EX_USAGE = 64


class _ArgumentParser(argparse.ArgumentParser):
    """argparse variant that exits 64 on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message: str, file=None) -> None:
        # argparse ignores a failed write; let run() report it instead.
        if message:
            (file or sys.stderr).write(message)


def _print_diagnostics(diags: Sequence[Diagnostic]) -> None:
    # One write: stderr is line-buffered, so one system call per line else.
    if diags:
        color = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
        sys.stderr.write("".join(f"{format_diagnostic(d, color=color)}\n"
                                 for d in diags))


def _findings_exit(diags: Sequence[Diagnostic], strict: bool) -> int:
    if any(d.severity is Severity.ERROR for d in diags):
        return EX_FINDINGS
    if strict and any(d.severity is Severity.WARNING for d in diags):
        return EX_FINDINGS
    return EX_OK


def _load_config(files: Sequence[str], explicit: str | None) -> LintConfig:
    """Read the lint config: --config wins, else a psysafe.conf next to
    the first input file; defaults otherwise."""
    from .lints import LintConfig, parse_config
    from .loader import read_file
    if explicit is not None:
        path = Path(explicit)
    else:
        path = Path(files[0]).parent / "psysafe.conf"
        if not os.path.isfile(path):
            return LintConfig()
    config, diags = parse_config(read_file(path, "config file"), str(path))
    if any(d.severity is Severity.ERROR for d in diags):
        raise DiagnosticError(diags)
    return config


def _format_coverage(model: AnalysisModel) -> str:
    from .model import UcaKind
    from .structure import uca_category_coverage
    table = [["action"] + [kind.value for kind in UcaKind]]
    table += [[row.action] + [", ".join(ids) or "-" for _, ids in row.by_kind]
              for row in uca_category_coverage(model)]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "".join("  ".join(map(str.ljust, line, widths)).rstrip() + "\n"
                   for line in table)


def cmd_check(args) -> int:
    from .lints import analyze
    from .loader import load_model
    config = _load_config(args.files, args.config)
    model, allows = load_model(args.files)
    diags = analyze(model, config._replace(allows=allows))
    _print_diagnostics(diags)
    if args.coverage:
        print(_format_coverage(model), end="")
    return _findings_exit(diags, args.strict)


def cmd_psysil(args) -> int:
    from .model import (ControllabilityClass, ExposureClass, PsySilLevel,
                        SeverityClass)
    from .psysil import determine_psysil
    try:
        s = SeverityClass[args.severity]
        e = ExposureClass[args.exposure]
        c = ControllabilityClass[args.controllability]
    except KeyError as exc:
        print(f"psysafe psysil: invalid class {exc.args[0]!r}; expected "
              "S1-S3, E1-E4, C1-C3", file=sys.stderr)
        return EX_USAGE
    level = determine_psysil(s, e, c)
    print("QM" if level is PsySilLevel.QM else f"PsySIL {level.name}")
    return EX_OK


def cmd_report(args) -> int:
    from .loader import load_model
    from .report import build_report, emit_json, emit_markdown
    config = _load_config(args.files, args.config)
    model, allows = load_model(args.files)
    report = build_report(model, config._replace(allows=allows))
    text = emit_json(report) if args.format == "json" \
        else emit_markdown(report)
    _print_diagnostics(report.diagnostics)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"psysafe report: cannot write {args.out}: "
                  f"{exc.strerror}", file=sys.stderr)
            return EX_DATA
    else:
        print(text, end="")
    return _findings_exit(report.diagnostics, False)


def cmd_trace(args) -> int:
    from .loader import load_model
    from .tracegraph import format_trace_tree
    model, _ = load_model(args.files)
    try:
        tree = format_trace_tree(model, args.from_id, args.dir)
    except KeyError:
        print(f"psysafe trace: unknown entity ID {args.from_id!r}",
              file=sys.stderr)
        return EX_DATA
    print(tree, end="")
    return EX_OK


def cmd_fmt(args) -> int:
    from .loader import load_model
    from .printer import print_canonical
    model, _ = load_model(args.files)
    print(print_canonical(model), end="")
    return EX_OK


def build_arg_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="psysafe",
        description="Psychological-safety hazard analysis for "
                    "human/autonomous-vehicle interaction models.")
    parser.add_argument("--version", action="version",
                        version=f"psysafe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_ArgumentParser)

    p_check = sub.add_parser("check", help="parse, resolve, validate the "
                             "control structure, and run all lints")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    p_check.add_argument("--strict", action="store_true",
                         help="warnings fail the run")
    p_check.add_argument("--config", metavar="PATH",
                         help="lint config file (default: psysafe.conf "
                         "next to the first input)")
    p_check.add_argument("--coverage", action="store_true",
                         help="print the UCA kind coverage table")
    p_check.set_defaults(func=cmd_check)

    p_psysil = sub.add_parser("psysil",
                              help="determine the PsySIL level for an "
                              "(S, E, C) triple")
    p_psysil.add_argument("severity", metavar="S")
    p_psysil.add_argument("exposure", metavar="E")
    p_psysil.add_argument("controllability", metavar="C")
    p_psysil.set_defaults(func=cmd_psysil)

    p_report = sub.add_parser("report", help="emit a full analysis report")
    p_report.add_argument("files", nargs="+", metavar="FILE")
    p_report.add_argument("--format", required=True,
                          choices=("json", "md"))
    p_report.add_argument("--config", metavar="PATH",
                          help="lint config file, as for check")
    p_report.add_argument("--out", metavar="PATH",
                          help="write to a file instead of stdout")
    p_report.set_defaults(func=cmd_report)

    p_trace = sub.add_parser("trace", help="print the traceability "
                             "subgraph reachable from an entity")
    p_trace.add_argument("files", nargs="+", metavar="FILE")
    p_trace.add_argument("--from", dest="from_id", required=True,
                         metavar="ID")
    p_trace.add_argument("--dir", choices=("up", "down", "both"),
                         default="both")
    p_trace.set_defaults(func=cmd_trace)

    p_fmt = sub.add_parser("fmt", help="print the canonical form")
    p_fmt.add_argument("files", nargs="+", metavar="FILE")
    p_fmt.set_defaults(func=cmd_fmt)

    return parser


class _Closed(io.TextIOBase):
    """Stands in for a stream whose descriptor was closed at start-up."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def _silence(stream) -> None:
    """Point a stream that cannot be written at the null device, so the
    interpreter's flush at exit does not fail again."""
    if isinstance(stream, _Closed):  # nothing to flush at exit
        return
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())


def _cannot_write(prog: str, exc: OSError | UnicodeEncodeError) -> int:
    """Report a failed write, on stderr if that still works; exit 2. A
    stdout that cannot encode the artifact is unwritable too; ``str()`` of
    that error escapes the character, so the reason stays ASCII."""
    try:
        sys.stdout.flush()
    except OSError:
        _silence(sys.stdout)
    try:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"{prog}: cannot write output: {reason}", file=sys.stderr)
    except OSError:
        _silence(sys.stderr)
    return EX_DATA


def run(argv: Sequence[str]) -> int:
    """Entry point returning the process exit code.

    A command whose input cannot be read, parsed or resolved raises
    :class:`DiagnosticError`; its findings are printed here, exit 2. So
    does a run whose stdout or stderr cannot be written, --help and
    --version included.
    """
    parser = build_arg_parser()
    prog = parser.prog
    try:
        try:
            args = parser.parse_args(list(argv))
            prog = f"{parser.prog} {args.command}"
            code = args.func(args)
        except SystemExit as exc:  # --help, --version or a usage error
            code = exc.code if isinstance(exc.code, int) else EX_USAGE
        except DiagnosticError as err:
            _print_diagnostics(err.diagnostics)
            code = EX_DATA
        # Flush here, so that a failed write is reported, not lost at exit.
        sys.stdout.flush()
        sys.stderr.flush()
        return code
    # Commands catch read errors, so an output failed.
    except (OSError, UnicodeEncodeError) as exc:
        return _cannot_write(prog, exc)


def main() -> None:
    # A run keeps its records and makes little cyclic garbage, so collect
    # rarely, past start-up's objects; callers of run() keep the default.
    gc.freeze()
    gc.set_threshold(100_000, 50, 1000)
    # UTF-8 whatever the locale; a stream closed at start-up (None) fails.
    if sys.stdout is not None:
        sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
    sys.stdout = sys.stdout or _Closed()
    sys.stderr = sys.stderr or _Closed()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
