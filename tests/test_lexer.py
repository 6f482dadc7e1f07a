import re

import pytest
from hypothesis import given, strategies as st

from psysafe.diagnostics import SourceSpan
from psysafe.lexer import KEYWORDS, Token, TokenKind, tokenize

from tests import reference_lexer
from tests.conftest import FUZZ, REPO_ROOT


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text).tokens]


def test_keywords_identifiers_and_strings():
    res = tokenize('hazard H1 "sudden manoeuvre"')
    assert not res.diagnostics
    assert [(t.kind, t.text) for t in res.tokens] == [
        (TokenKind.KEYWORD, "hazard"),
        (TokenKind.IDENT, "H1"),
        (TokenKind.STRING, '"sudden manoeuvre"'),
    ]
    assert res.tokens[2].value == "sudden manoeuvre"


def test_empty_input_yields_no_tokens():
    res = tokenize("")
    assert res.tokens == []
    assert res.diagnostics == []


def test_unterminated_string_reports_column_of_quote():
    res = tokenize('"unterminated')
    assert len(res.diagnostics) == 1
    d = res.diagnostics[0]
    assert d.rule == "PSY000"
    assert "unterminated" in d.message
    assert (d.span.start_line, d.span.start_col) == (1, 1)
    assert res.tokens == []


def test_unterminated_string_recovers_on_next_line():
    res = tokenize('loss L1 "oops\nloss L2 "fine" violates ST1')
    assert len(res.diagnostics) == 1
    texts = [t.text for t in res.tokens]
    assert '"fine"' in texts


def test_illegal_character():
    res = tokenize("loss @ L1")
    assert len(res.diagnostics) == 1
    assert "illegal character" in res.diagnostics[0].message
    assert [t.text for t in res.tokens] == ["loss", "L1"]


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_non_ascii_digit_is_illegal(digit):
    # '²' and the Arabic-Indic '٣' satisfy str.isdigit(); neither is an
    # integer literal.
    res = tokenize(f"sae_level = {digit}")
    assert [d.message for d in res.diagnostics] == \
        [f"illegal character {digit!r}"]
    assert [t.text for t in res.tokens] == ["sae_level", "="]


def test_integer_beyond_int_string_limit_is_a_diagnostic():
    res = tokenize("level " + "9" * 5000)
    assert [d.rule for d in res.diagnostics] == ["PSY000"]
    assert "integer literal too long" in res.diagnostics[0].message
    assert [t.text for t in res.tokens] == ["level"]


def test_lint_is_not_reserved_in_models():
    assert kinds("lint") == [(TokenKind.IDENT, "lint")]


def test_reserved_words_are_the_doc_grammar_terminals():
    # The quoted terminals of docs/language.md's grammar, less punctuation
    # and the S/E/C class codes, which lex as identifiers.
    doc = (REPO_ROOT / "docs" / "language.md").read_text(encoding="utf-8")
    grammar = re.search(r"## Grammar\n\n```\n(.*?)```", doc, re.S)[1]
    terminals = set(re.findall(r'"([^"]+)"', grammar))
    codes = {f"{c}{n}" for c, top in (("S", 3), ("E", 4), ("C", 3))
             for n in range(1, top + 1)}
    assert codes <= terminals
    assert terminals - set("{}=,") - codes == KEYWORDS


def test_escapes_decode():
    res = tokenize(r'"a \"quoted\" \\ backslash"')
    assert not res.diagnostics
    assert res.tokens[0].value == 'a "quoted" \\ backslash'


def test_unknown_escape_is_reported():
    res = tokenize(r'"bad \n escape"')
    assert len(res.diagnostics) == 1
    assert "escape" in res.diagnostics[0].message


def test_comments_skipped_and_allow_collected():
    res = tokenize("# plain comment\n"
                   "loss L1 \"x\" violates ST1  # psysafe-allow PSY001\n"
                   "goal G1 \"y\" prevents H1 # psysafe-allow PSY003, PSY004\n"
                   "hazard H1 \"z\" leads_to L1 # psysafe-allow PSY005\r\n"
                   "stake")
    assert not res.diagnostics
    assert res.allows == {2: frozenset({"PSY001"}),
                          3: frozenset({"PSY003", "PSY004"}),
                          4: frozenset({"PSY005"})}
    assert res.tokens[-1].span == SourceSpan("<input>", 5, 1)


@pytest.mark.parametrize("comment", [
    "# psysafe-allow PSY0011",
    "# psysafe-allow XPSY001",
    "# psysafe-allow PSY001x",
    "# psysafe-allow PSY001_",
    "# psysafe-allow-all PSY001",
    "# psysafe-allow.PSY001",
    "# psysafe-allowPSY001",
    "# psysafe-allow PSY\u0660\u0660\u0661",
    "# psysafe-allow PSY001\u0661",
    "# psysafe-allow",
])
def test_allow_comment_names_rules_exactly(comment):
    assert tokenize(f"loss L1 {comment}").allows == {}


@pytest.mark.parametrize("comment,rules", [
    ("#psysafe-allow PSY001", {"PSY001"}),
    ("# psysafe-allow\tPSY001", {"PSY001"}),
    ("# psysafe-allow PSY001,PSY004", {"PSY001", "PSY004"}),
    ("# psysafe-allow PSY001 PSY004.", {"PSY001", "PSY004"}),
    ("# psysafe-allow (PSY001) PSY0041", {"PSY001"}),
])
def test_allow_comment_rule_lists(comment, rules):
    assert tokenize(f"loss L1 {comment}").allows == {1: frozenset(rules)}


def test_hash_inside_string_is_not_a_comment():
    res = tokenize('"see # psysafe-allow PSY001 inside"')
    assert res.allows == {}
    assert res.tokens[0].value == "see # psysafe-allow PSY001 inside"


def test_crlf_and_lf_both_count_lines():
    res = tokenize('loss\r\nhazard\nstake')
    lines = [t.span.start_line for t in res.tokens]
    assert lines == [1, 2, 3]


def test_columns_count_unicode_scalars():
    res = tokenize('stake ST1 "émotion" of SH1')
    string_tok = res.tokens[2]
    assert string_tok.span.start_col == 11


def test_dotted_identifier_is_one_token():
    res = tokenize("UCA3.SC2")
    assert [(t.kind, t.text) for t in res.tokens] == \
        [(TokenKind.IDENT, "UCA3.SC2")]


def test_spans_reconstruct_text():
    source = 'goal SG1 "g" prevents H1, H2\nassess H2 severity S2'
    res = tokenize(source, "f.psy")
    lines = source.split("\n")
    for tok in res.tokens:
        line = lines[tok.span.start_line - 1]
        assert line[tok.span.start_col - 1:].startswith(tok.text)


#: Edge cases with exact positions: (source, tokens as (text, line,
#: column), diagnostics as (message, line, column)).
EXACT_SPANS = [
    ("\ufeffloss L1", [("loss", 1, 1), ("L1", 1, 6)], []),
    ("loss\rhazard", [("loss", 1, 1), ("hazard", 2, 1)], []),
    ('"a"\\', [('"a"', 1, 1)], [("illegal character '\\\\'", 1, 4)]),
    ('"a\\\nloss', [("loss", 2, 1)],
     [("unterminated string literal", 1, 1)]),
    ('loss "a\\', [("loss", 1, 1)],
     [("unterminated string literal", 1, 6)]),
    ('"a\\q b L1\nL2', [("L2", 2, 1)],
     [("unsupported escape sequence '\\q'", 1, 3),
      ("unterminated string literal", 1, 1)]),
    ("loss\fL1", [("loss", 1, 1), ("L1", 1, 6)],
     [("illegal character '\\x0c'", 1, 5)]),
    ('"\U0001F600" L1', [('"\U0001F600"', 1, 1), ("L1", 1, 5)], []),
]


@pytest.mark.parametrize("source,tokens,diagnostics", EXACT_SPANS)
def test_exact_spans(source, tokens, diagnostics):
    res = tokenize(source)
    assert [(t.text, t.span.start_line, t.span.start_col)
            for t in res.tokens] == tokens
    # Each token's text stands at its column of its line.
    lines = re.split(r"\r\n|\r|\n", source.removeprefix("\ufeff"))
    assert all(lines[line - 1][col - 1:].startswith(text)
               for text, line, col in tokens)
    assert [(d.message, d.span.start_line, d.span.start_col)
            for d in res.diagnostics] == diagnostics


@FUZZ
@given(st.text(alphabet="\ufeff\r\n\t\f \"\\#\U0001F600\u00b2\u0663"
                        "\u00e9aZ_.07{=,"))
def test_spans_lie_on_one_line_of_the_source(text):
    # A leading BOM is no part of line 1; every line end is one of these.
    lines = re.split(r"\r\n|\r|\n", text.removeprefix("\ufeff"))
    res = tokenize(text)
    for tok in res.tokens:
        span = tok.span
        assert span == SourceSpan("<input>", tok.line, tok.col)
        assert lines[span.start_line - 1][span.start_col - 1:].startswith(
            tok.text)
    for d in res.diagnostics:
        span = d.span
        assert 1 <= span.start_col <= len(lines[span.start_line - 1])


def test_token_is_immutable_and_hashable():
    tok = tokenize('hazard "h"', "f.psy").tokens[1]
    assert tok == Token(TokenKind.STRING, '"h"', "h", "f.psy", 1, 8)
    assert tok.span == SourceSpan("f.psy", 1, 8)
    with pytest.raises(AttributeError):
        tok.line = 2
    with pytest.raises(AttributeError):
        tok.span = SourceSpan("f.psy", 2, 1)
    assert hash(tok) == hash(Token(TokenKind.STRING, '"h"', "h", "f.psy",
                                   1, 8))


@given(st.text(alphabet=st.characters(blacklist_characters="\n\r",
                                      blacklist_categories=("Cs",)),
               max_size=40))
def test_any_string_value_round_trips_through_escaping(value):
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    res = tokenize(f'"{escaped}"')
    assert not res.diagnostics
    assert len(res.tokens) == 1
    assert res.tokens[0].kind is TokenKind.STRING
    assert res.tokens[0].value == value


@given(st.from_regex(r"[A-Za-z][A-Za-z0-9_.]{0,12}", fullmatch=True))
def test_identifier_lexes_as_single_token(ident):
    res = tokenize(ident)
    assert not res.diagnostics
    assert len(res.tokens) == 1
    tok: Token = res.tokens[0]
    assert tok.text == ident
    assert tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD)


#: Pieces of lexer input: blanks, every line end, a BOM, the characters
#: that open or end a token, words that make an allow comment, and
#: non-ASCII characters.
PIECES = [" ", "  ", "\t", "\r", "\n", "\r\n", "\ufeff", '"', "\\", "#",
          "0", "42", "a", "Z9", "H1.x_y", "hazard", "{", "}", "=", ",", "@",
          "psysafe-allow", "PSY004", "é", "٣", "\U0001F600"]


@FUZZ
@given(st.lists(st.sampled_from(PIECES), max_size=60).map("".join))
def test_tokenize_matches_the_reference_lexer(text):
    assert tokenize(text, "f.psy") == reference_lexer.tokenize(text, "f.psy")
