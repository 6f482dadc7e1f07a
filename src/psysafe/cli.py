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

:func:`main` ends the process with :func:`os._exit` once its output is
flushed, so nothing the command built is freed and the interpreter is not
finalized: atexit handlers do not run. A program that embeds psysafe calls
:func:`run`, which returns the exit code.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import os
import sys
from contextlib import contextmanager
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
    args.built = model, diags
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
    args.built = model, report
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
    args.built = model
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
    args.built = model
    print(print_canonical(model), end="")
    return EX_OK


_FILES = ("files",), {"nargs": "+", "metavar": "FILE"}

#: The commands, in usage order: name -> (help, function, arguments), each
#: argument the positional and keyword arguments of ``add_argument``.
_COMMANDS = {
    "check": (
        "parse, resolve, validate the control structure, and run all lints",
        cmd_check,
        [_FILES,
         (("--strict",), {"action": "store_true",
                          "help": "warnings fail the run"}),
         (("--config",), {"metavar": "PATH",
                          "help": "lint config file (default: psysafe.conf "
                                  "next to the first input)"}),
         (("--coverage",), {"action": "store_true",
                            "help": "print the UCA kind coverage table"})]),
    "psysil": (
        "determine the PsySIL level for an (S, E, C) triple",
        cmd_psysil,
        [(("severity",), {"metavar": "S"}),
         (("exposure",), {"metavar": "E"}),
         (("controllability",), {"metavar": "C"})]),
    "report": (
        "emit a full analysis report",
        cmd_report,
        [_FILES,
         (("--format",), {"required": True, "choices": ("json", "md")}),
         (("--config",), {"metavar": "PATH",
                          "help": "lint config file, as for check"}),
         (("--out",), {"metavar": "PATH",
                       "help": "write to a file instead of stdout"})]),
    "trace": (
        "print the traceability subgraph reachable from an entity",
        cmd_trace,
        [_FILES,
         (("--from",), {"dest": "from_id", "required": True,
                        "metavar": "ID"}),
         (("--dir",), {"choices": ("up", "down", "both"),
                       "default": "both"})]),
    "fmt": ("print the canonical form", cmd_fmt, [_FILES]),
}


def build_arg_parser(command: str | None = None) -> _ArgumentParser:
    """The CLI's parser, with every command of :data:`_COMMANDS`, or with
    ``command`` alone. Its usage line names all of them either way, so a
    parse of a ``command`` argv prints what the full parser prints; the
    full one reports a missing or unknown command."""
    parser = _ArgumentParser(
        prog="psysafe",
        description="Psychological-safety hazard analysis for "
                    "human/autonomous-vehicle interaction models.")
    parser.add_argument("--version", action="version",
                        version=f"psysafe {__version__}")
    # The usage line argparse writes for all commands. The full parser
    # takes none: a metavar also names the command in its messages.
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_ArgumentParser, metavar=metavar)
    for name, (summary, func, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=summary)
            for args, kwargs in arguments:
                p.add_argument(*args, **kwargs)
            p.set_defaults(func=func)
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
        print(f"{prog}: cannot write output: {reason}", file=sys.stderr,
              flush=True)
    except OSError:
        _silence(sys.stderr)
    return EX_DATA


#: A run keeps its records and makes little cyclic garbage: collect rarely.
_THRESHOLD = (100_000, 50, 1000)


@contextmanager
def _collect_rarely():
    """Collect at :data:`_THRESHOLD` while a run runs, and restore the
    caller's threshold after it."""
    threshold = gc.get_threshold()
    gc.set_threshold(*_THRESHOLD)
    try:
        yield
    finally:
        gc.set_threshold(*threshold)


@_collect_rarely()
def _run(argv: Sequence[str]) -> tuple[int, object]:
    """:func:`run`, also returning what the command built: the parsed
    arguments, on which each command leaves its model and results as
    ``built``, or the :class:`DiagnosticError` it raised, whose traceback
    holds the frames that built its input."""
    # Build only the subparser that argv asks for, when it names one.
    parser = build_arg_parser(argv[0] if argv and argv[0] in _COMMANDS
                              else None)
    prog = parser.prog
    held = None
    try:
        try:
            held = args = parser.parse_args(list(argv))
            prog = f"{parser.prog} {args.command}"
            code = args.func(args)
        except SystemExit as exc:  # --help, --version or a usage error
            code = exc.code if isinstance(exc.code, int) else EX_USAGE
        except DiagnosticError as err:
            held = err
            _print_diagnostics(err.diagnostics)
            code = EX_DATA
        # Flush here, so that a failed write is reported, not lost at exit.
        sys.stdout.flush()
        sys.stderr.flush()
        return code, held
    # Commands catch read errors, so an output failed.
    except (OSError, UnicodeEncodeError) as exc:
        return _cannot_write(prog, exc), held


def run(argv: Sequence[str]) -> int:
    """Entry point returning the process exit code.

    A command whose input cannot be read, parsed or resolved raises
    :class:`DiagnosticError`; its findings are printed here, exit 2. So
    does a run whose stdout or stderr cannot be written, --help and
    --version included. The collector runs rarely during the call, as
    :func:`main` has it; the threshold is restored on return.
    """
    return _run(argv)[0]


def main() -> None:
    # Start-up's objects live as long as the process, so the collector
    # skips them. The threshold is _run's own, so restoring it on return
    # does not set off a collection of the run's objects before the exit.
    gc.freeze()
    gc.set_threshold(*_THRESHOLD)
    # UTF-8 whatever the locale; a stream closed at start-up (None) fails.
    if sys.stdout is not None:
        sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
    sys.stdout = sys.stdout or _Closed()
    sys.stderr = sys.stderr or _Closed()
    code, held = _run(sys.argv[1:])
    # The output is flushed. End here, while ``held`` still references
    # what the command built: neither its deallocation nor the
    # interpreter's finalization runs, and atexit handlers do not.
    os._exit(code)


if __name__ == "__main__":
    main()
