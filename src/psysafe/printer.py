"""Canonical ``.psy`` form of a resolved model.

Deterministic: declarations are grouped by kind, sorted by ID inside each
group, and ID lists are sorted. Re-parsing and resolving the output yields
a model equal to the input (spans aside).
"""

from __future__ import annotations

from operator import attrgetter

from .model import DECLS, AnalysisModel, Entity, Form, spelling


def _q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _ids(ids: frozenset[str] | tuple[str, ...]) -> str:
    return ", ".join(sorted(ids))


def _entity_props(e: Entity) -> str:
    props: list[str] = []
    for f in DECLS[Entity].block:
        value = getattr(e, f.attr)
        for v in value if isinstance(value, tuple) else (value,):
            if v is True:  # a flag
                props.append(f.keyword)
            elif v is not None and v is not False:
                props.append(f"{f.keyword} {_FORMATS[f.form](v)}")
    return "{ " + " ".join(props) + " }" if props else ""


_FORMATS = {Form.ID: str, Form.IDS: _ids, Form.STRING: _q, Form.INT: str,
            Form.BLOCK: _entity_props}


#: (spec, sort key, (keyword, getter, formatter) per field) in table
#: order, which is the canonical group order. The entity block formats
#: the whole entity.
_PLANS = [(spec, attrgetter(spec.fields[0].attr),
           tuple((f.keyword,
                  attrgetter(f.attr) if f.attr else lambda item: item,
                  _FORMATS[f.form] if isinstance(f.form, Form) else spelling)
                 for f in spec.fields))
          for spec in DECLS.values()]


def print_canonical(model: AnalysisModel) -> str:
    """Render a resolved model as canonical ``.psy`` text (LF line ends)."""
    out: list[str] = []
    out.append(f"analysis {_q(model.title)} {{")
    out.append(f"  sae_level = {model.sae_level}")
    if model.boundary is not None:
        out.append(f"  boundary {_q(model.boundary)}")
    out.append("}")
    for spec, key, steps in _PLANS:
        items = sorted(spec.items(model), key=key)
        if items:
            out.append("")
        for item in items:
            words = [spec.keyword_of(item)]
            for keyword, get, fmt in steps:
                value = get(item)
                if value is None:  # an absent optional field
                    continue
                if keyword is not None:
                    words.append(keyword)
                text = fmt(value)
                if text:  # an entity without properties has no block
                    words.append(text)
            out.append(" ".join(words))
    return "\n".join(out) + "\n"
