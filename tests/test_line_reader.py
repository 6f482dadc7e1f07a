"""The line reader, ``psysafe.linereader``, against the token reader.

``read_source(..., fast=True)`` must give exactly what ``tokenize`` then
``parse`` give over the whole file: the raw model with every span, the
diagnostics and the allows. The properties call it directly, so the
cut-off that keeps small files on the token reader does not apply.
"""

import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psysafe import linereader
from psysafe.diagnostics import DiagnosticError
from psysafe.lexer import KEYWORDS, tokenize
from psysafe.linereader import _line_readers, _read_lines
from psysafe.loader import load_model, load_sources
from psysafe.model import DECLS, Entity, Form, spelling
from psysafe.parser import _PLANS, FAST_MIN_CHARS, parse, read_source
from psysafe.printer import print_canonical

from tests.conftest import FUZZ, REPO_ROOT
from tests.modelgen import random_model

sys.path.append(str(REPO_ROOT / "perfbench"))
import gen  # noqa: E402  (perfbench/gen.py, the benchmark's generator)


def token_reader(text: str, file: str):
    lex = tokenize(text, file)
    model, diagnostics = parse(lex.tokens, file)
    return model, lex.diagnostics + diagnostics, lex.allows


def assert_same(text: str, file: str = "t.psy") -> None:
    assert read_source(text, file, fast=True) == token_reader(text, file)


#: What may stand between two tokens of one declaration: mostly a space,
#: sometimes a line end (a continuation line), a comment or a stray
#: character the lexer rejects.
WITHIN = [" "] * 12 + ["  ", "\t", "\n", "\r\n", " # note\n", " @ "]
#: What may stand before a declaration keyword: mostly a line end.
BEFORE = ["\n"] * 6 + ["\r\n", "\r", "\n\n", "\n# comment line\n",
                       "  # psysafe-allow PSY004\n",
                       "\t# psysafe-allow PSY005 PSY006\r\n", " "]
STARTS = set(_PLANS) | {"analysis"}


@st.composite
def modelgen_texts(draw):
    """A ``tests/modelgen`` model printed, then its tokens laid out again
    with the separators above, a BOM and a final line end at random."""
    model = random_model(draw(st.integers(0, 10_000)))
    tokens = tokenize(print_canonical(model)).tokens
    out = ["\ufeff"] if draw(st.integers(0, 9)) == 0 else []
    for i, tok in enumerate(tokens):
        if i:
            out.append(draw(st.sampled_from(
                BEFORE if tok.text in STARTS else WITHIN)))
        out.append(tok.text)
    out.append(draw(st.sampled_from(["", "\n", "\r\n", "  # end\n"])))
    return "".join(out)


@FUZZ
@given(modelgen_texts())
def test_modelgen_texts_read_alike(text):
    assert_same(text)


@FUZZ
@given(st.binary())
def test_any_bytes_read_alike(data):
    assert_same(data.decode("utf-8", "surrogateescape"))


#: Values a declaration line may hold, by form, and the bad values one
#: of them may be: what the token reader reports (a keyword as an ID, an
#: empty string, a zero, a bad escape, an integer too long).
VALID = {Form.ID: ["SH1", "ST1", "L1", "H1", "CA1", "UCA1.SC1", "x_y9"],
         Form.STRING: ['"s"', '"a \\" b \\\\"', '"# no comment"', '"\u2028"'],
         Form.INT: ["1", "3", "12"]}
BAD = {Form.ID: ["loss", "of", "context"],
       Form.STRING: ['""', '"bad \\q"', '"open'],
       Form.INT: ["0", "00", "9" * 5000]}
BLOCKS = ["{ human sa_level 2 }", '{ algorithm "a" }', "{ }"]
#: Separators between the words of a line, and line ends, among them
#: characters that str.splitlines takes for line ends and the lexer
#: rejects.
SPACES = [" "] * 30 + ["\t", "  ", "\n"]
ENDS = ["\n"] * 60 + ["\r\n", "\r", "\n\n", "\f", "\u2028", "\x1c",
                      "\n\ufeff", "  # psysafe-allow PSY004 PSY005\n",
                      "# x\r\n"]


@st.composite
def declaration_lines(draw):
    """Lines of declarations written from the fields of ``DECLS``, with
    headers and blank lines among them; at most one value is bad."""
    out = ["\ufeff"] if draw(st.integers(0, 9)) == 0 else []
    bad, slot = draw(st.integers(0, 12)), 0
    for _ in range(draw(st.integers(1, 6))):
        keyword = draw(st.sampled_from(sorted(_PLANS) + ["analysis", ""]))
        if keyword not in _PLANS:  # a header or a blank line
            words = ['analysis "t" { sae_level = 2 }'] if keyword else []
            fields = ()
        else:
            words, fields = [keyword], DECLS[_PLANS[keyword][0]].fields
        for f in fields:
            if f.optional and draw(st.booleans()):
                continue
            if f.form is Form.BLOCK:
                words.append(draw(st.sampled_from(BLOCKS)))
                continue
            if f.keyword is not None:
                words.append(f.keyword)
            slot += 1
            form = Form.ID if f.form is Form.IDS else f.form
            if isinstance(form, Form):
                valid, wrong = VALID[form], BAD[form]
            else:
                valid, wrong = [spelling(m) for m in form], ["S9"]
            value = draw(st.sampled_from(wrong if slot == bad else valid))
            if f.form is Form.IDS:
                value = ", ".join(draw(st.lists(st.sampled_from(valid),
                                                max_size=2)) + [value])
            words.append(value)
        for word in words:
            out.extend((word, draw(st.sampled_from(SPACES))))
        out.append(draw(st.sampled_from(ENDS)))
    return "".join(out)


@FUZZ
@given(declaration_lines())
def test_declaration_lines_read_alike(text):
    assert_same(text)


#: Entity properties written from the block fields of ``DECLS`` with the
#: values above, and one of them each way the token reader reports or
#: reads alone: a bad value (an ``sa_level`` outside 1-3 among them) and
#: a property split over two lines. ``human`` is placed apart.
PROPS = [f"{f.keyword}{sep}{value}" for f in DECLS[Entity].block
         if f.form is not Form.FLAG for sep in (" ", " ", "\t")
         for value in (VALID | {Form.INT: ["1", "2", "3"]})[f.form]]
ODD_PROPS = [f"{f.keyword} {value}" for f in DECLS[Entity].block
             if f.form is not Form.FLAG for value in BAD[f.form]] + \
    ["sa_level 12", "sa_level\n 2"]
#: What may follow a line of a block: mostly nothing, else an allow, a
#: comment or blanks.
TAILS = [""] * 8 + ["  # psysafe-allow PSY004", "# note", " \t"]
#: What may stand between two lines of a multi-line block: mostly nothing,
#: else a blank line or a comment line.
BETWEEN = [""] * 12 + ["\n", "  # psysafe-allow PSY005\n"]


@st.composite
def entity_blocks(draw):
    """Entities with a block, in the one-line layout ``fmt`` prints and in
    the one-property-a-line layout of the corpus, among declaration and
    comment lines; some blocks are laid out otherwise or hold a value the
    token reader reports."""
    lines = ['analysis "t" { sae_level = 2 }', 'stakeholder SH1 "s"']
    for n in range(draw(st.integers(1, 4))):
        props = draw(st.lists(st.sampled_from(PROPS), max_size=4))
        if draw(st.integers(0, 5)) == 0:
            props.insert(draw(st.integers(0, len(props))),
                         draw(st.sampled_from(ODD_PROPS)))
        if draw(st.integers(0, 5)):  # else SA fields are reported
            props.insert(draw(st.integers(0, len(props))), "human")
        opener = (f'{draw(st.sampled_from(["controller", "process"]))} C{n} '
                  f'"c" level {draw(st.sampled_from(["1", "3"]))}')
        if draw(st.booleans()):
            sep = draw(st.sampled_from([" "] * 4 + ["\t", "", "\n"]))
            lines.append(f"{opener} {{{sep}" + "".join(
                f"{p}{draw(st.sampled_from(SPACES + ['']))}" for p in props)
                + "}" + draw(st.sampled_from(TAILS)))
        else:
            lines.append(opener + draw(st.sampled_from(
                [" {"] * 6 + ["{", " {\t", "\n{"]))
                + draw(st.sampled_from(TAILS)))
            for p in props:
                lines.append(draw(st.sampled_from(BETWEEN))
                             + draw(st.sampled_from(["  "] * 4 + ["\t", ""]))
                             + p + draw(st.sampled_from(TAILS)))
            lines.append(draw(st.sampled_from(["}"] * 4 + ["  }", "\t}"]))
                         + draw(st.sampled_from(TAILS)))
        lines.append(draw(st.sampled_from(
            ["", "", 'stake ST1 "s" of SH1', "# a comment line",
             "  # psysafe-allow PSY006"])))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return "\n".join(lines).replace("\n", eol)


@FUZZ
@given(entity_blocks())
def test_entity_blocks_read_alike(text):
    assert_same(text)


#: Words a line may hold: every keyword, punctuation, values valid and
#: not, comments and line ends.
SOUP = sorted(KEYWORDS) + ["{", "}", "=", ",", "SH1", "ST1", "L1", "H1",
                           "S2", "E4", "C1", '"text"', '""', '"a\\"b"',
                           '"open', "0", "1", "7", "#", "# psysafe-allow "
                           "PSY004", "\\", "\ufeff", "\n", "\n", "\r\n"]


@FUZZ
@given(st.lists(st.sampled_from(SOUP), max_size=40),
       st.sampled_from([" ", "\t", "\n"]))
def test_token_soup_reads_alike(words, sep):
    assert_same(sep.join(words))


@FUZZ
@given(st.integers(0, 2**16), st.integers(4, 12),
       st.sampled_from(["clean", "syntax", "refs"]))
def test_benchmark_inputs_read_alike(seed, units, variant):
    model = gen.generate(seed, units, "x", n_files=2)
    if variant == "syntax":
        model = gen.with_syntax_defects(model, seed, 0.3, "y")
    elif variant == "refs":
        model = gen.with_resolve_defects(model, seed, 0.3, "y")
    for path, text in model.files:
        assert_same(text, path)


#: One input for each thing the token reader reads, with the runs of
#: lines, (first, last), that it reads: those the patterns cannot read. A
#: stretch of adjacent odd runs is read in one call, with the keyword of
#: the next run as the token the parse stops before; a run of line 1 that
#: no declaration keyword opens is the header's.
FALLBACKS = {
    "diagnostic in a region":
        ('stakeholder SH1 "s"\nstake ST1 "s" of SH1 @', [(2, 2)]),
    "continued ID list": ('hazard H1 "h" leads_to L1\n  , L2', [(1, 2)]),
    "header after a declaration":
        ('stakeholder SH1 "s"\nanalysis "t" { sae_level = 2 }', [(1, 2)]),
    "header after a region": ('analysis "t" {\n sae_level = 2 }\n'
                              'stakeholder SH1 "s"\n'
                              'analysis "u" { sae_level = 3 }',
                              [(1, 2), (3, 4)]),
    "keyword ID": ('loss L1 "l" violates ST1, loss', [(1, 1)]),
    "keyword key": ('stake stake "s" of SH1', [(1, 1)]),
    "empty string": ('stakeholder SH1 ""', [(1, 1)]),
    "zero": ('controller C1 "c" level 00', [(1, 1)]),
    "integer too long": ('process P1 "p" level ' + "9" * 5000, [(1, 1)]),
    "BOM on line 2":
        ('stakeholder SH1 "s"\n\ufeffstakeholder SH2 "t"', [(1, 2)]),
    "form feed between declarations":
        ('stakeholder SH1 "s"\fstakeholder SH2 "t"', [(1, 1)]),
    "sa_level out of range":
        ('controller C1 "c" level 1 { human sa_level 4 }', [(1, 1)]),
    "SA field of a non-human entity":
        ('controller C1 "c" level 1 {\n  psych_state "calm"\n}', [(1, 3)]),
    "integer too long in a block":
        ('controller C1 "c" level 1 { human sa_level ' + "9" * 5000 + " }",
         [(1, 1)]),
    "block left open": ('controller C1 "c" level 1 {\n  human', [(1, 2)]),
    "prelude with no declaration after it":
        ('analysis "t" {\n  sae_level = 2 }\n# a comment', [(1, 3)]),
    "declaration continued after the first declaration":
        ('stakeholder SH1 "s"\nhazard H1 "h"  # psysafe-allow PSY004\n'
         '  leads_to L1\nstakeholder SH2 "t"', [(2, 3)]),
    "keyword ID between declarations":
        ('stakeholder SH1 "s"\nloss L1 "l" violates ST1, loss\n'
         'stakeholder SH2 "t"', [(2, 2)]),
    "declaration cut short by the next":
        ('stakeholder SH1 "s"\nstake ST1 "s"\nloss L1 "l" violates ST1',
         [(2, 2)]),
    "adjacent odd runs":
        ('stakeholder SH1 "s"\nstakeholder SH2 "t"\n'
         'stake ST1 "s" of SH1 @\nstake ST2 "s"  # of\n  of SH2\n'
         'stakeholder SH3 "u"', [(3, 5)]),
    "odd runs outnumbering the declarations read":
        ('stakeholder SH1 "s"\nstake ST1 "s" of SH1 @\n'
         'stake ST2 "s" of SH1 @\nstake ST3 "s" of SH1 @\n'
         'stakeholder SH2 "t"', [(2, 5)]),
}


def spy_tokenize(monkeypatch) -> list[tuple]:
    """The arguments of each call the line reader makes to ``tokenize``."""
    calls = []
    monkeypatch.setattr(linereader, "tokenize", lambda *args: calls.append(
        args) or tokenize(*args))
    return calls


def token_runs(lines: list[str], file: str, runs) -> list[tuple]:
    """The ``tokenize`` calls that read the runs (first, last) of
    ``lines``."""
    return [("\n".join(lines[first - 1:last]), file, first)
            for first, last in runs]


@pytest.mark.parametrize("text,runs", FALLBACKS.values(), ids=FALLBACKS)
def test_what_the_token_reader_would_report_falls_back(text, runs,
                                                       monkeypatch):
    calls = spy_tokenize(monkeypatch)
    assert_same(text)
    assert calls == token_runs(text.split("\n"), "t.psy", runs)


def test_a_continued_declaration_in_the_prelude_takes_the_line_reader(
        monkeypatch):
    # Only the continued declaration before the first one-line declaration
    # goes to the token reader; the rest of the file takes the patterns.
    prelude = 'hazard H1 "h"  # psysafe-allow PSY004\n  leads_to L1'
    text = prelude + '\nstakeholder SH1 "s"'
    calls = spy_tokenize(monkeypatch)
    model, _, allows = _read_lines(text, "t.psy")
    assert calls == [(prelude, "t.psy", 1)]
    assert len(model.decls) == 2 and allows
    assert_same(text)


def test_clean_files_take_the_line_reader(corpus_files, monkeypatch):
    # The properties above would pass if every file went to the token
    # reader whole.
    texts = [path.read_text(encoding="utf-8") for path in corpus_files]
    texts += [print_canonical(random_model(seed)) for seed in range(20)]
    texts += [text for _, text in gen.generate(1, 16, "x").files]
    texts.append("\ufeff" + texts[0])
    calls = spy_tokenize(monkeypatch)
    for text in texts:
        calls.clear()
        assert_same(text)
        lines = text.split("\n")
        header = next(number for number, line in enumerate(lines, 1)
                      if line.partition(" ")[0] in _PLANS)
        # At most the lines before the first declaration, from line 1.
        assert len(calls) <= 1
        assert all(first == 1 and source.count("\n") + 1 < header
                   for source, _, first in calls)


def test_one_line_declarations_skip_the_token_reader(corpus_files,
                                                    monkeypatch):
    # The canonical form less its header: one declaration a line, entity
    # blocks on one line, and blank lines; then the corpus structure file:
    # comment lines and blocks of one property a line, with allows.
    text = print_canonical(random_model(3)).split("\n}\n", 1)[1]
    assert text.count(" { ") > 2
    structure = next(path for path in corpus_files
                     if path.name == "structure.psy")
    text += structure.read_text(encoding="utf-8").replace(
        "  sa_level 1", "  sa_level 1  # psysafe-allow PSY004").replace(
        "level 2 {", "level 2 {  # psysafe-allow PSY005").replace(
        "\n}\n", "\n}  # psysafe-allow PSY006\n", 1)
    text = text.rstrip() + "  # psysafe-allow PSY007"
    model, _, allows = token_reader(text, "t.psy")
    assert len(allows) == 4
    assert sum(isinstance(decl, Entity) for decl, _ in model.decls) > 4
    monkeypatch.setattr(linereader, "tokenize", None)  # calling it fails
    assert _read_lines(text, "t.psy") == (model, [], allows)


def test_benchmark_inputs_reach_the_token_reader_only_for_the_header(
        monkeypatch):
    calls = spy_tokenize(monkeypatch)
    model = gen.generate(1, 6, "x", n_files=3)
    for path, text in model.files:
        read_source(text, path, fast=True)
    path, text = model.files[0]
    lines = text.split("\n")
    first = next(number for number, line in enumerate(lines)
                 if line.partition(" ")[0] in _PLANS)
    assert calls == [("\n".join(lines[:first]), path, 1)]


def runs_of(lines: list[str]) -> list[tuple[int, int]]:
    """The runs (first, last) of ``lines``: each from line 1 or from a
    line whose first word is a declaration keyword."""
    starts = [1] + [number for number, line in enumerate(lines, 1)
                    if number > 1 and line.partition(" ")[0] in _PLANS]
    return list(zip(starts, [start - 1 for start in starts[1:]]
                    + [len(lines)]))


#: On seed 1 one broken file starts with a broken declaration, the odd
#: run the outnumber rule spares.
@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_broken_benchmark_inputs_send_only_broken_runs(seed, monkeypatch):
    # Each call reads whole runs, each broken, next to a broken one or the
    # header's, and every broken run is read by one. The rest of a file,
    # sent once odd runs outnumber the declarations read plus one, would
    # fail this.
    base = gen.generate(seed, 16, "x", n_files=2)
    broken = gen.with_syntax_defects(base, seed, 0.15, "y")
    calls = spy_tokenize(monkeypatch)
    for (_, clean), (path, text) in zip(base.files, broken.files):
        lines, before = (re.split(r"\r\n?|\n", t) for t in (text, clean))
        runs = runs_of(lines)
        bad = [lines[first - 1:last] != before[first - 1:last]
               for first, last in runs]
        header = lines[0].partition(" ")[0] not in _PLANS  # run 0's
        calls.clear()
        assert_same(text, path)
        read = []
        for source, _, first in calls:
            last = first + source.count("\n")
            ks = [k for k, run in enumerate(runs) if first <= run[0] <= last]
            assert (runs[ks[0]][0], runs[ks[-1]][1]) == (first, last)
            read += ks
        assert [k for k in read if not (k == 0 and header)
                and not any(bad[max(k - 1, 0):k + 2])] == []
        assert {k for k, b in enumerate(bad) if b} <= set(read)
        assert any(bad)


def big_model(extra: str = "") -> str:
    """A clean model above the cut-off, then the lines of ``extra``."""
    lines = ['analysis "t" { sae_level = 2 }', 'stakeholder SH "holder"']
    while sum(len(line) + 1 for line in lines) <= FAST_MIN_CHARS:
        n = len(lines)
        lines.append(f'stake ST{n} "stake number {n} of the model" of SH')
    return "\n".join([*lines, extra])


def load_errors(text: str) -> list[tuple[int, int, str]]:
    with pytest.raises(DiagnosticError) as info:
        load_sources([("big.psy", text)])
    return [(d.span.start_line, d.span.start_col, d.message)
            for d in info.value.diagnostics]


@pytest.mark.parametrize("line", [2, 3, 500])
def test_bom_inside_a_large_file_is_illegal_where_it_stands(line):
    text = big_model()
    lines = text.split("\n")
    lines[line - 1] = "\ufeff" + lines[line - 1]
    errors = load_errors("\n".join(lines))
    assert errors == [(line, 1, "illegal character '\\ufeff'")]


def test_error_in_an_entity_block_after_line_reader_lines():
    block = ('controller C1 "c" level 1 {\n'
             '  algorithm "bad \\q escape"\n'
             '}')
    text = big_model(block)
    line = text.split("\n").index('  algorithm "bad \\q escape"') + 1
    assert line > 1000
    assert load_errors(text) == [
        (line, 18, "unsupported escape sequence '\\q'")]


def test_an_entity_block_opened_on_the_next_line_is_read_alone(
        monkeypatch):
    # The patterns read an entity's "{" only on its declaration's line.
    lines = big_model().split("\n")
    middle = len(lines) // 2
    lines[middle:middle] = ['controller C1 "c" level 1', "{", "  human",
                            "  sa_level 2", "}", "# after the block"]
    text = "\n".join(lines)
    calls = spy_tokenize(monkeypatch)
    assert_same(text, "big.psy")
    assert calls == token_runs(lines, "big.psy",
                               [(1, 1), (middle + 1, middle + 6)])
    model, _ = load_sources([("big.psy", text)])
    [entity] = model.structure.entities
    assert (entity.id, entity.is_human, entity.sa_level) == ("C1", True, 2)


def test_patterns_compile_once_and_only_for_large_inputs(corpus_files):
    _line_readers.cache_clear()
    load_model(corpus_files)
    assert _line_readers.cache_info().currsize == 0
    text = big_model()
    assert len(text) > FAST_MIN_CHARS
    first = load_sources([("big.psy", text)])
    again = load_sources([("big.psy", text)])
    info = _line_readers.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first == again
