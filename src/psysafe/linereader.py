"""The line reader: the fast path of :func:`psysafe.parser.read_source`.

It reads declarations on one line and entity blocks of one property a
line by patterns compiled from :data:`psysafe.model.DECLS`, skips blank
lines and records the allows of comment lines. Any other line above the
first such declaration opens the prelude (the header): lines 1 to that
declaration, read by the token reader. Any other line after it, a
diagnostic in the prelude or a prelude with no declaration after it sends
the whole file to the token reader, so every diagnostic is the token
reader's. Only inputs above ``FAST_MIN_CHARS`` import this module, so small
ones never compile it.
"""

from __future__ import annotations

import re
from functools import cache

from .diagnostics import SourceSpan
from .lexer import _ESCAPE_RE, KEYWORDS, _new, _record_allow
from .model import DECLS, Field, Form, spelling
from .parser import _PLANS, RawModel, _block_error, read_source

_ID = "[A-Za-z][A-Za-z0-9_.]*"
#: A string allows only the escapes the lexer decodes, \" and \\.
_VALUES = {Form.ID: f"({_ID})", Form.IDS: f"({_ID}(?:[ \t]*,[ \t]*{_ID})*)",
           Form.INT: "([0-9]+)",
           Form.STRING: r'"([^"\\]*(?:\\["\\][^"\\]*)*)"'}
#: The end of a line: perhaps the '}' of a block, perhaps a comment.
_LINE_END = re.compile(r"[ \t]*(\})?[ \t]*(?:#(.*))?").fullmatch


def _unescape(text: str) -> str:
    return _ESCAPE_RE.sub(r"\1", text) if "\\" in text else text


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
    text: None when the text is the value, as for an ID or a string with no
    escape. A converter raises ValueError on what the token reader would
    report: a keyword in an ID list, an integer too long, a value that the
    field's ``check`` rejects."""
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
    converter) per field that has one, value indices of its IDs and of its
    strings, block). Group i + 1 holds the value of line field i, which is
    record field i. Optional fields are strings: an absent one leaves its
    group None, the record default. ``block`` is (the group of the rest of
    the line after an entity's ``{``, match of one property, (attribute,
    converter, keeps every value) per property group), else None."""
    readers = {}
    for keyword, (cls, initial, *_) in _PLANS.items():
        pattern, converts, block = [keyword], [], None
        ids, strings = [], []
        for index, f in enumerate(DECLS[cls].fields):
            if f.form is Form.BLOCK:  # the last field
                pattern.append(r"(?:[ \t]*\{(.*))?")
                props = [_field_pattern(p) for p in DECLS[cls].block]
                block = (index + 1, re.compile("|".join(
                    part for part, _ in props)).match, tuple(
                    (p.attr, convert or _unescape,
                     cls._field_defaults.get(p.attr) == ())
                    for p, (_, convert) in zip(DECLS[cls].block, props)))
                continue
            part, convert = _field_pattern(f)
            pattern.append(f"(?:{part})?" if f.optional else part)
            if convert:
                converts.append((index, convert))
            if f.form is Form.ID:
                ids.append(index)
            elif f.form is Form.STRING:
                strings.append(index)
        n = len(DECLS[cls].fields) - (block is not None)
        readers[keyword] = (
            re.compile("".join(pattern) + r"[ \t]*(?:#(.*))?").fullmatch,
            cls, n, [initial.get(f, cls._field_defaults.get(f))
                     for f in cls._fields[n:]], tuple(converts),
            tuple(ids), tuple(strings), block)
    return readers


def _read_block(lines: list[str], number: int, pos: int, values: dict,
                item, props: tuple, allows: dict) -> int | None:
    """Read into ``values`` the entity block whose ``{`` ends before
    ``pos`` of line ``number`` and record its allows: the line of its
    ``}``, or None when the token reader must read the whole file. Each
    property is on one line with its value; ``item`` and ``props`` are the
    last two entries of a reader's block."""
    for number in range(number, len(lines) + 1):
        line = lines[number - 1]
        while m := item(line, pos):
            attr, convert, keeps = props[m.lastindex - 1]
            try:
                value = convert(m[m.lastindex])
            except ValueError:  # the token reader would report it
                return None
            values[attr] = values[attr] + (value,) if keeps else value
            pos = m.end()
        if not (end := _LINE_END(line, pos)):
            return None
        if end[2]:  # a comment, recorded as the lexer records it
            _record_allow(allows, end[2], number)
        if end[1]:
            return None if _block_error(values) else number
        pos = 0
    return None  # no '}'


def _read_lines(source: str, file: str) -> tuple[RawModel, dict] | None:
    """The raw model and allows of ``source``, or None to read it whole
    with the token reader, which otherwise reads only the prelude: lines 1
    to the first declaration, if any is not blank or a comment."""
    readers = _line_readers()
    # The lexer's line ends; str.splitlines also splits at \f and others.
    lines = (re.split(r"\r\n?|\n", source) if "\r" in source
             else source.split("\n"))
    allows, header, decls = {}, None, []
    prelude = False  # whether a line before the first declaration is odd
    numbered = enumerate(lines, 1)
    for number, line in numbered:
        reader = readers.get(line.partition(" ")[0])
        if not (m := reader and reader[0](line)):
            if (end := _LINE_END(line)) and not end[1]:  # blank or a comment
                if end[2]:
                    _record_allow(allows, end[2], number)
            elif decls:
                return None
            else:
                prelude = True
            continue
        if prelude:
            # The prelude's allows hold those recorded so far.
            model, diagnostics, allows = read_source(
                "\n".join(lines[:number - 1]), file)
            if diagnostics:
                return None
            header, decls, prelude = model.header, [*model.decls], False
        _, cls, n, rest, converts, ids, strings, block = reader
        groups = m.groups()
        values = [*groups[:n], *rest]
        try:
            for index, convert in converts:
                values[index] = convert(values[index])
        except ValueError:  # the token reader would report it
            return None
        for index in ids:
            if values[index] in KEYWORDS:
                return None
        if "\\" in line:
            for index in strings:
                if values[index]:
                    values[index] = _unescape(values[index])
        if groups[-1]:  # a comment, unless a block opens
            _record_allow(allows, groups[-1], number)
        if block and m[block[0]] is not None:
            named = dict(zip(cls._fields, values))
            if not (last := _read_block(lines, number, m.start(block[0]),
                                        named, *block[1:], allows)):
                return None
            values = named.values()
            for _ in range(last - number):
                next(numbered)  # the block's lines
        decls.append((_new(cls, values), _new(SourceSpan, (file, number, 1))))
    return None if prelude else (RawModel(header, tuple(decls)), allows)
