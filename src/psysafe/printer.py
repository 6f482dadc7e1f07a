"""Canonical ``.psy`` form of a resolved model.

Deterministic: declarations are grouped by kind, sorted by ID inside each
group, and ID lists are sorted. Re-parsing and resolving the output yields
a model equal to the input (spans aside).
"""

from __future__ import annotations

from operator import attrgetter

from .model import DECLS, AnalysisModel, Entity, Field, Form, spelling


def _q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _ids(ids: frozenset[str] | tuple[str, ...]) -> str:
    return ", ".join(sorted(ids))


def _entity_props(e: Entity) -> str:
    """`` { ... }`` of the entity's properties; nothing without any."""
    props: list[str] = []
    for f in DECLS[Entity].block:
        value = getattr(e, f.attr)
        for v in value if isinstance(value, tuple) else (value,):
            if v is True:  # a flag
                props.append(f.keyword)
            elif v is not None and v is not False:
                props.append(f"{f.keyword} {_FORMATS[f.form](v)}")
    return " { " + " ".join(props) + " }" if props else ""


_FORMATS = {Form.IDS: _ids, Form.STRING: _q, Form.INT: str}


def _step(f: Field) -> tuple:
    """(text before the value, getter or None for the item itself,
    formatter or None for a value written as it stands) of one field."""
    if f.form is Form.BLOCK:
        return "", None, _entity_props
    if isinstance(f.form, Form):
        fmt = None if f.form is Form.ID else _FORMATS[f.form]
    else:
        fmt = {m: spelling(m) for m in f.form}.__getitem__
    return f" {f.keyword} " if f.keyword else " ", attrgetter(f.attr), fmt


#: (spec, sort key, keyword or None, steps) in table order, which is the
#: canonical group order; None when the item's kind gives its keyword.
_PLANS = [(spec, attrgetter(spec.fields[0].attr),
           spec.keywords[0] if len(spec.keywords) == 1 else None,
           tuple(map(_step, spec.fields)))
          for spec in DECLS.values()]


def print_canonical(model: AnalysisModel) -> str:
    """Render a resolved model as canonical ``.psy`` text (LF line ends)."""
    out: list[str] = []
    out.append(f"analysis {_q(model.title)} {{")
    out.append(f"  sae_level = {model.sae_level}")
    if model.boundary is not None:
        out.append(f"  boundary {_q(model.boundary)}")
    out.append("}")
    for spec, key, keyword, steps in _PLANS:
        items = sorted(spec.items(model), key=key)
        if items:
            out.append("")
        for item in items:
            line = keyword or spec.keyword_of(item)
            for before, get, fmt in steps:
                value = item if get is None else get(item)
                if value is not None:  # else an absent optional field
                    line += before + (value if fmt is None else fmt(value))
            out.append(line)
    return "\n".join(out) + "\n"
