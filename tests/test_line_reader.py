"""The line reader, ``psysafe.linereader``, against the token reader.

``read_source(..., fast=True)`` must give exactly what ``tokenize`` then
``parse`` give over the whole file: the raw model with every span, the
diagnostics and the allows. The properties call it directly, so the
cut-off that keeps small files on the token reader does not apply.
"""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psysafe import parser
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


#: One input for each thing that sends the whole file to the token reader.
FALLBACKS = {
    "diagnostic in a region": 'stakeholder SH1 "s"\nstake ST1 "s" of SH1 @',
    "continued ID list": 'hazard H1 "h" leads_to L1\n  , L2',
    "header after a declaration":
        'stakeholder SH1 "s"\nanalysis "t" { sae_level = 2 }',
    "header after a region": 'analysis "t" {\n sae_level = 2 }\n'
                             'stakeholder SH1 "s"\n'
                             'analysis "u" { sae_level = 3 }',
    "keyword ID": 'loss L1 "l" violates ST1, loss',
    "keyword key": 'stake stake "s" of SH1',
    "empty string": 'stakeholder SH1 ""',
    "zero": 'controller C1 "c" level 00',
    "integer too long": 'process P1 "p" level ' + "9" * 5000,
    "BOM on line 2": 'stakeholder SH1 "s"\n\ufeffstakeholder SH2 "t"',
    "form feed between declarations":
        'stakeholder SH1 "s"\fstakeholder SH2 "t"',
    "sa_level out of range": 'controller C1 "c" level 1 { human sa_level 4 }',
    "SA field of a non-human entity":
        'controller C1 "c" level 1 {\n  psych_state "calm"\n}',
    "integer too long in a block":
        'controller C1 "c" level 1 { human sa_level ' + "9" * 5000 + " }",
    "block left open": 'controller C1 "c" level 1 {\n  human',
    "prelude with no declaration after it":
        'analysis "t" {\n  sae_level = 2 }\n# a comment',
    "declaration continued after the first declaration":
        'stakeholder SH1 "s"\nhazard H1 "h"\n  leads_to L1',
}


@pytest.mark.parametrize("text", FALLBACKS.values(), ids=FALLBACKS)
def test_what_the_token_reader_would_report_falls_back(text):
    assert _read_lines(text, "t.psy") is None
    assert_same(text)


def test_a_continued_declaration_in_the_prelude_takes_the_line_reader(
        monkeypatch):
    prelude = 'hazard H1 "h"  # psysafe-allow PSY004\n  leads_to L1'
    text = prelude + '\nstakeholder SH1 "s"'
    calls = []
    monkeypatch.setattr(parser, "tokenize", lambda *args: calls.append(
        args) or tokenize(*args))
    assert _read_lines(text, "t.psy") is not None
    assert calls == [(prelude, "t.psy")]
    assert_same(text)


def test_clean_files_take_the_line_reader(corpus_files):
    # The properties above would pass if every file fell back whole.
    texts = [path.read_text(encoding="utf-8") for path in corpus_files]
    texts += [print_canonical(random_model(seed)) for seed in range(20)]
    texts += [text for _, text in gen.generate(1, 16, "x").files]
    texts.append("\ufeff" + texts[0])
    for text in texts:
        assert _read_lines(text, "t.psy") is not None
        assert_same(text)


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
    monkeypatch.setattr(parser, "tokenize", None)  # calling it would fail
    assert _read_lines(text, "t.psy") == (model, allows)


def test_benchmark_inputs_reach_the_token_reader_only_for_the_header(
        monkeypatch):
    calls = []
    monkeypatch.setattr(parser, "tokenize", lambda *args: calls.append(
        args) or tokenize(*args))
    model = gen.generate(1, 6, "x", n_files=3)
    for path, text in model.files:
        read_source(text, path, fast=True)
    path, text = model.files[0]
    lines = text.split("\n")
    first = next(number for number, line in enumerate(lines)
                 if line.partition(" ")[0] in _PLANS)
    assert calls == [("\n".join(lines[:first]), path)]


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
