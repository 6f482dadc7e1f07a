"""The line reader, which :func:`psysafe.loader.load_sources` takes for
large inputs.

It reads declarations on one line and entity blocks of one property a
line by patterns compiled from :data:`psysafe.model.DECLS`, skips blank
lines and records the allows of comment lines. A file is cut into runs of
lines, each from line 1 or from a line whose first word is a declaration
keyword; each stretch of runs the patterns cannot read (the header, a
broken or odd declaration) goes to the token reader alone, so every
diagnostic is the token reader's. A line with a backslash is matched with
its string escapes hidden (:func:`_hide`), so that a string body is one
run of non-quote characters; a line whose escapes cannot be hidden goes
to the token reader too. Only inputs above ``loader.FAST_MIN_CHARS``
import this module, so small ones never compile it.
"""

from __future__ import annotations

import re
from functools import cache

from .diagnostics import Diagnostic, SourceSpan
from .lexer import (_IDENT_PATTERN, _INT_PATTERN, _NEWLINE_PATTERN,
                    KEYWORDS, Token, TokenKind, _new, _record_allow,
                    tokenize)
from .model import DECLS, Field, Form, spelling
from .parser import _PLANS, RawModel, _block_error, parse

#: A string body is one run of non-quote characters, which sre scans far
#: faster than the lexer's escape-aware body: the patterns only see a line
#: with a backslash once :func:`_hide` has taken its escapes out.
_VALUES = {Form.ID: f"({_IDENT_PATTERN})",
           Form.IDS: f"({_IDENT_PATTERN}(?:[ \t]*,[ \t]*{_IDENT_PATTERN})*)",
           Form.INT: f"({_INT_PATTERN})",
           Form.STRING: '"([^"]*)"'}
#: The end of a line: perhaps the '}' of a block, perhaps a comment.
_LINE_END = re.compile(r"[ \t]*(\})?[ \t]*(?:#(.*))?").fullmatch


def _hide(line: str) -> str:
    """``line`` with each ``\\\\`` as NUL, then each ``\\"`` as ``\\x01``,
    paired left to right as the lexer pairs escapes. Raises ValueError, so
    that the token reader reads the line, on a backslash left over or a NUL
    or ``\\x01`` of its own. A hidden comment records the same allows: the
    four characters are all neither word nor whitespace characters."""
    if "\0" in line or "\x01" in line:
        raise ValueError(line)
    line = line.replace("\\\\", "\0").replace('\\"', "\x01")
    if "\\" in line:
        raise ValueError(line)
    return line


def _unhide(text: str | None) -> str | None:
    """A value read from a hidden line, its escapes decoded."""
    return text and text.replace("\x01", '"').replace("\0", "\\")


def _checked(convert, valid):
    """``convert``, raising ValueError on a value that ``valid`` rejects:
    one the token reader reports."""
    def read(text):
        if valid(value := convert(text)):
            return value
        raise ValueError(text)
    return read


#: The ID list converter: a keyword among them is reported.
_IDS = _checked(lambda t: frozenset(map(str.strip, t.split(","))),
                KEYWORDS.isdisjoint)


def _field_pattern(f: Field) -> tuple[str, object]:
    """A field's pattern after the words before it, with one group for its
    value (a flag's is its keyword), and the converter of that group's
    text: None when the text is the value, as for an ID or a string. A
    converter raises ValueError on what the token reader would report: a
    keyword in an ID list, an integer too long, a value that the field's
    ``check`` rejects."""
    if f.form is Form.FLAG:
        return f"[ \t]+({f.keyword})", bool
    if isinstance(f.form, Form):
        value = _VALUES[f.form]
        convert = {Form.INT: int, Form.IDS: _IDS}.get(f.form)
    else:
        spelled = {spelling(m): m for m in f.form}
        value, convert = f"({'|'.join(spelled)})", spelled.__getitem__
    if f.check:
        convert = _checked(convert or str, f.check[0])
    return ((f"[ \t]+{f.keyword}" if f.keyword else "") + f"[ \t]+{value}",
            convert)


@cache
def _line_readers() -> dict:
    """Keyword -> (fullmatch of its line, type, number n of its line
    fields, the record's values after its first n, (value index,
    converter) per field that has one, value indices of its IDs, block).
    Group i + 1 holds the value of line field i, which is record field i.
    Optional fields are strings: an absent one leaves its group None, the
    record default. ``block`` is (the group of the rest of the line after
    an entity's ``{``, match of one property, (attribute, converter, keeps
    every value) per property group), else None."""
    readers = {}
    for keyword, (cls, initial, *_) in _PLANS.items():
        pattern, converts, ids, block = [keyword], [], [], None
        for index, f in enumerate(DECLS[cls].fields):
            if f.form is Form.BLOCK:  # the last field
                pattern.append(r"(?:[ \t]*\{(.*))?")
                props = [_field_pattern(p) for p in DECLS[cls].block]
                block = (index + 1, re.compile("|".join(
                    part for part, _ in props)).match, tuple(
                    (p.attr, convert, cls._field_defaults.get(p.attr) == ())
                    for p, (_, convert) in zip(DECLS[cls].block, props)))
                continue
            part, convert = _field_pattern(f)
            pattern.append(f"(?:{part})?" if f.optional else part)
            if convert:
                converts.append((index, convert))
            if f.form is Form.ID:
                ids.append(index)
        n = len(DECLS[cls].fields) - (block is not None)
        readers[keyword] = (
            re.compile("".join(pattern) + r"[ \t]*(?:#(.*))?").fullmatch,
            cls, n, [initial.get(f, cls._field_defaults.get(f))
                     for f in cls._fields[n:]], tuple(converts),
            tuple(ids), block)
    return readers


def _read_block(lines: list[str], number: int, line: str, hidden: bool,
                pos: int, values: dict, item, props: tuple,
                allows: dict) -> int:
    """Read into ``values`` the entity block whose ``{`` ends before
    ``pos`` of ``line``, line ``number`` as :func:`_hide` gives it when
    ``hidden``, and record its allows: the line of its ``}``. Raises
    ValueError when the patterns cannot read it, so that the token reader
    reads its run. Each property is on one line with its value; ``item``
    and ``props`` are the last two entries of a reader's block."""
    while True:
        while m := item(line, pos):
            attr, convert, keeps = props[m.lastindex - 1]
            value = _unhide(m[m.lastindex]) if hidden else m[m.lastindex]
            if convert:
                value = convert(value)
            values[attr] = values[attr] + (value,) if keeps else value
            pos = m.end()
        if not (end := _LINE_END(line, pos)):
            raise ValueError(line)
        if end[2]:  # a comment, recorded as the lexer records it
            _record_allow(allows, end[2], number)
        if end[1]:
            if _block_error(values):  # the token reader reports it
                raise ValueError(line)
            return number
        if number == len(lines):
            raise ValueError("no '}'")
        line, pos = lines[number], 0
        number += 1
        if hidden := "\\" in line:
            line = _hide(line)


def _read_lines(source: str, file: str
                ) -> tuple[RawModel, list[Diagnostic], dict]:
    """The raw model, diagnostics and allows of ``source``, as the token
    reader gives them over the whole file.

    A run of lines starts at line 1 or at a line whose first word is a
    declaration keyword. The patterns read a run whose first line holds a
    declaration, perhaps opening an entity block of one property a line,
    and whose other lines are blank or comments. Each stretch of adjacent
    runs they cannot read goes to the token reader, with the keyword of
    the next run as the token it stops before: no declaration reads such a
    keyword as a field, so a parse of the whole file restarts there too.
    Once the unread runs (the run of line 1 not counted when no keyword
    opens it) outnumber the declarations read so far plus one, the token
    reader reads the rest of the file in one call; the one spared lets a
    file whose first declaration is odd keep the patterns for the rest.
    """
    readers = _line_readers()
    # The lexer's line ends; str.splitlines also splits at \f and others.
    lines = (re.split(_NEWLINE_PATTERN, source) if "\r" in source
             else source.split("\n"))
    allows, header, decls, lexed, parsed = {}, None, [], [], []

    def read(first: int, stop: int | None = None) -> None:
        """Read lines ``first`` to ``stop`` (not included; the end when
        None) with the token reader."""
        nonlocal header
        lex = tokenize("\n".join(lines[first - 1:stop and stop - 1]), file,
                       first)
        tokens, end = lex.tokens, len(lex.tokens)
        if stop:  # the declaration keyword that opens line stop
            keyword = lines[stop - 1].partition(" ")[0]
            tokens.append(Token(TokenKind.KEYWORD, keyword, keyword, file,
                                stop, 1))
        model, diagnostics = parse(tokens, file, end)
        header = model.header or header
        decls.extend(model.decls)
        lexed.extend(lex.diagnostics)
        parsed.extend(diagnostics)
        allows.update(lex.allows)

    start = 0  # the first line of the open stretch of unread runs, if any
    unread = 0  # the unread runs, but for the header's
    numbered = enumerate(lines, 1)
    for number, line in numbered:
        reader = readers.get(line.partition(" ")[0])
        if reader is None:
            if (end := _LINE_END(line)) and not end[1]:  # blank or a comment
                if end[2]:
                    _record_allow(allows, end[2], number)
                continue
            if start or not decls:  # in an unread run, or in the header's
                start = start or 1
                continue
            # The run of the last declaration read goes on past its lines.
            first = decls.pop()[1].start_line
        else:
            try:
                if hidden := "\\" in line:
                    line = _hide(line)
                if not (m := reader[0](line)):
                    raise ValueError(line)
                _, cls, n, rest, converts, ids, block = reader
                groups = m.groups()
                values = [*groups[:n], *rest]
                if hidden:  # only a string can hold a hidden escape
                    values[:n] = map(_unhide, groups[:n])
                for index, convert in converts:
                    values[index] = convert(values[index])
                for index in ids:
                    if values[index] in KEYWORDS:
                        raise ValueError(line)
                if groups[-1]:  # a comment, unless a block opens (see _hide)
                    _record_allow(allows, groups[-1], number)
                if block and m[block[0]] is not None:
                    named = dict(zip(cls._fields, values))
                    last = _read_block(lines, number, line, hidden,
                                       m.start(block[0]), named,
                                       *block[1:], allows)
                    values = named.values()
                    for _ in range(last - number):
                        next(numbered)  # the block's lines
            except ValueError:  # the token reader reads this run
                first = number
            else:
                if start:
                    read(start, number)
                    start = 0
                decls.append((_new(cls, values),
                              _new(SourceSpan, (file, number, 1))))
                continue
        unread += 1
        start = start or first
        if unread > len(decls) + 1:
            break
    if start:
        read(start)
    return RawModel(header, tuple(decls)), lexed + parsed, allows
