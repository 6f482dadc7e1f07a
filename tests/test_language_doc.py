"""``docs/language.md`` states the declaration syntax that ``DECLS`` holds.

Each declaration's production is built from :data:`DECLS`, with those of
the entity properties, the UCA kinds and the causal factors, and must be
a production of the doc's grammar block, whitespace normalised.
"""

import re

from psysafe.model import DECLS, CausalFactor, Form, UcaKind, spelling

from tests.conftest import REPO_ROOT

DOC = (REPO_ROOT / "docs" / "language.md").read_text(encoding="utf-8")
#: The productions of the grammar block, each with one space for every
#: run of whitespace.
GRAMMAR = {" ".join(p.split()) + " ;" for p in re.search(
    r"^## Grammar\n+```\n(.*?)```", DOC, re.DOTALL | re.MULTILINE)[1]
    .split(";") if p.strip()}
#: Enums the grammar names by a production of their own; the others are
#: written inline.
NAMED = {UcaKind: "ucakind", CausalFactor: "factor"}
FORMS = {Form.ID: "ID", Form.IDS: "idlist", Form.STRING: "STRING",
         Form.INT: "INT", Form.BLOCK: '"{" { entprop } "}"'}


def _quoted(words) -> list[str]:
    return [f'"{word}"' for word in words]


def _syntax(field) -> str:
    """A field as the grammar writes it: its keyword, if any, then its
    value, in ``[ ... ]`` when the field is optional."""
    if field.form is Form.FLAG:  # the keyword alone
        return f'"{field.keyword}"'
    if isinstance(field.form, Form):
        value = FORMS[field.form]
    else:
        value = NAMED.get(field.form) or "({})".format(
            "|".join(_quoted(map(spelling, field.form))))
    syntax = f'"{field.keyword}" {value}' if field.keyword else value
    return f"[ {syntax} ]" if field.optional else syntax


def productions() -> list[str]:
    built, names = [], []
    for cls, spec in DECLS.items():
        if len(spec.keywords) == 1:
            name, head = spec.keywords[0], f'"{spec.keywords[0]}"'
        else:
            name = cls.__name__.lower()
            head = "({})".format("|".join(_quoted(spec.keywords)))
        names.append(name)
        built.append(" ".join([f"{name} := {head}",
                               *map(_syntax, spec.fields), ";"]))
        if spec.block:
            built.append("entprop := "
                         + " | ".join(map(_syntax, spec.block)) + " ;")
    for enum, name in NAMED.items():
        built.append(f"{name} := "
                     + " | ".join(_quoted(map(spelling, enum))) + " ;")
    built.append("decl := " + " | ".join(names) + " ;")
    return built


def test_grammar_block_holds_every_declaration_of_decls():
    built = productions()
    assert len(built) == len(DECLS) + 4  # entprop, ucakind, factor, decl
    assert [p for p in built if p not in GRAMMAR] == []
