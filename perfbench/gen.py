"""Seeded generator of synthetic ``.psy`` models with their expected outcomes.

Stdlib only and independent of psysafe: every expected outcome (inventory,
findings per rule and location, coverage rows, trace reach, injected
defects) is derived here from the declarations the generator wrote, using
the rules documented in ``docs/language.md`` and ``docs/rules.md``.

A *unit* is the baseline shape of eleven declarations: stake, loss,
hazard, goal, controller ``C{i}`` at level ``i % 3 + 1``, action
``C{i} -> C{i+1}``, feedback back, resp, UCA, scenario and assessment.
Draws vary string length (from the corpus's lengths for that field), UCA
kind, what a UCA or scenario attaches to, and which declarations carry
allow comments, so every completeness rule but PSY001/PSY002 (which the
grammar cannot trigger) fires somewhere.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

UCA_KINDS = ("not_provided", "provided", "wrong_timing", "wrong_duration")
FACTORS = ("controller_failure", "inadequate_algorithm", "unsafe_input",
           "inadequate_process_model")
SEVERITY = {  # docs/rules.md default severities
    "PSY000": "error", "PSY003": "error", "PSY004": "warning",
    "PSY005": "warning", "PSY006": "warning", "PSY007": "warning",
    "PSY009": "warning", "PSY010": "warning", "PSY011": "error",
    "PSY012": "error", "PSY013": "error", "PSY014": "error",
}
#: README "PsySIL determination" table: (S, E) -> levels for C1, C2, C3.
PSYSIL_TABLE = {
    ("S1", "E3"): ("QM", "QM", "A"), ("S1", "E4"): ("QM", "A", "B"),
    ("S2", "E2"): ("QM", "QM", "A"), ("S2", "E3"): ("QM", "A", "B"),
    ("S2", "E4"): ("A", "B", "C"), ("S3", "E1"): ("QM", "QM", "A"),
    ("S3", "E2"): ("QM", "A", "B"), ("S3", "E3"): ("A", "B", "C"),
    ("S3", "E4"): ("B", "C", "D"),
}

_WORDS = ("driver", "vehicle", "lane", "merge", "brake", "warning", "trust",
          "stress", "swerve", "takeover", "request", "monitor", "state",
          "information", "manoeuvre", "highway", "passenger", "comfort",
          "anxiety", "sensor", "feedback", "emergency", "stop", "ODD",
          "situation", "awareness", "confidence", "unexpected", "behaviour")

#: Length in characters of every string of corpus/paper/*.psy, by field
#: (``name``: stakeholder, controller and process names; ``comment``: the
#: text of each ``#`` comment line). A generated string of a field takes
#: one of these lengths, drawn uniformly.
CORPUS_LENGTHS = {
    "analysis": (67,), "boundary": (204,), "comment": (69, 38, 58, 49, 66, 28),
    "name": (12, 12, 14, 52), "stake": (30, 28, 10, 46),
    "loss": (13, 24, 48), "hazard": (88, 83, 76, 65, 58),
    "hazard.context": (113,), "goal": (101, 95, 77, 42, 65),
    "rationale": (285,), "psych_state": (173,), "algorithm": (124,),
    "process_model": (57, 64), "label": (70, 62, 45, 46),
    "resp": (43, 41, 36, 19, 23, 26, 34), "uca.context": (216, 202, 219),
    "scenario": (280, 272, 225, 400),
}
_SPICE = ('\\"quoted\\"', "C:\\\\path", "#3", "naïve", "café", "(e.g. rain)",
          "{braces}", "a = b,")


def psysil(severity: str, exposure: str, controllability: str) -> str:
    """Level from the README table; empty cells are QM."""
    row = PSYSIL_TABLE.get((severity, exposure))
    return row[int(controllability[1]) - 1] if row else "QM"


@dataclass
class Decl:
    kind: str           # declaration keyword; assess uses the hazard ID
    id: str
    refs: dict          # field -> list of referenced IDs
    props: dict = field(default_factory=dict)
    allow: tuple = ()   # rules named in a trailing # psysafe-allow
    file: str = ""
    line: int = 0


@dataclass
class Model:
    """Generated files plus the bookkeeping the benchmark checks against."""

    parts: list                 # [(relative path, lines, crlf)]
    decls: list                 # every Decl, in file order
    inventory: dict
    findings: Counter           # (file, line, severity, rule) -> n
    coverage_rows: int
    uncovered_actions: int
    psysil_levels: Counter
    defects: Counter = field(default_factory=Counter)

    @property
    def files(self) -> list[tuple[str, str]]:
        """[(relative path, text)]; CRLF parts end lines with CRLF."""
        eol = {True: "\r\n", False: "\n"}
        return [(path, eol[crlf].join(lines) + eol[crlf])
                for path, lines, crlf in self.parts]

    @property
    def declarations(self) -> int:
        return len(self.decls)

    def write(self, root: Path) -> dict:
        """Write the files under ``root``; return {path: sha256}."""
        digests = {}
        for rel, text in self.files:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            data = text.encode("utf-8")
            path.write_bytes(data)
            digests[rel] = hashlib.sha256(data).hexdigest()
        return digests


def _text(rng: random.Random, field: str) -> str:
    """Prose as long as a corpus string of ``field`` (CORPUS_LENGTHS)."""
    target = rng.choice(CORPUS_LENGTHS[field])
    words: list[str] = []
    size = 0
    while size < target:
        word = rng.choice(_SPICE) if rng.random() < 0.03 else \
            rng.choice(_WORDS)
        words.append(word)
        size += len(word) + 1
    return " ".join(words)[:max(target, 1)].rstrip("\\ ") or "x"


def _q(text: str) -> str:
    return f'"{text}"'


def _build_decls(rng: random.Random, units: int, shared: int | None
                 ) -> list[Decl]:
    """Declarations of ``units`` units; ``shared`` caps stakes and losses."""
    n_stakes = shared or units
    decls = [Decl("stakeholder", "SH1", {}, {"name": _text(rng, "name")}),
             Decl("stakeholder", "SH2", {}, {"name": _text(rng, "name")})]

    def other(i: int) -> int:
        return rng.randint(1, units) if units > 1 else i

    def pick(prefix: str, i: int) -> str:
        return f"{prefix}{i}" if shared is None else \
            f"{prefix}{(i - 1) % shared + 1}"

    for i in range(1, units + 1):
        unit: list[Decl] = []
        if i <= n_stakes:
            unit.append(Decl("stake", f"ST{i}",
                             {"of": [rng.choice(("SH1", "SH2"))]},
                             {"description": _text(rng, "stake")}))
            # Shared stakes: every loss also violates ST1, so a downward
            # trace from ST1 reaches the whole model and one from ST2 only
            # the hazards that lead to L2.
            violates = [f"ST{i}"] if shared is None or i == 1 else \
                [f"ST{i}", "ST1"]
            unit.append(Decl("loss", f"L{i}", {"violates": violates},
                             {"description": _text(rng, "loss")}))
        leads_to = [pick("L", i)]
        if rng.random() < 0.1:
            leads_to.append(pick("L", other(i)))
        context = _text(rng, "hazard.context") if rng.random() < 0.3 \
            else None
        unit.append(Decl("hazard", f"H{i}", {"leads_to": leads_to},
                         {"description": _text(rng, "hazard"),
                          "context": context}))
        r = rng.random()
        prevents = [f"H{other(i)}"] if r < 0.03 else \
            [f"H{i}", f"H{other(i)}"] if r < 0.13 else [f"H{i}"]
        # A goal without responsibilities is sometimes accepted on purpose.
        allow = ("PSY004",) if rng.random() < 0.02 else ()
        unit.append(Decl("goal", f"SG{i}", {"prevents": prevents},
                         {"description": _text(rng, "goal")}, allow))

        level = i % 3 + 1
        r = rng.random()
        if r < 0.03:
            unit.append(Decl("process", f"C{i}", {}, {
                "name": _text(rng, "name"), "level": level}))
        elif r < 0.06:
            unit.append(Decl("controller", f"C{i}", {}, {
                "name": _text(rng, "name"), "level": level, "human": True,
                "sa_level": rng.randint(1, 3),
                "psych_state": _text(rng, "psych_state")
                if rng.random() < 0.7 else None}))
        else:
            models = [] if rng.random() < 0.05 else \
                [_text(rng, "process_model") for _ in range(rng.randint(1, 2))]
            unit.append(Decl("controller", f"C{i}", {}, {
                "name": _text(rng, "name"), "level": level,
                "algorithm": _text(rng, "algorithm")
                if rng.random() < 0.5 else None,
                "process_model": models}))
        nxt = i % units + 1
        unit.append(Decl("action", f"CA{i}",
                         {"from": [f"C{i}"], "to": [f"C{nxt}"]},
                         {"label": _text(rng, "label")}))
        unit.append(Decl("feedback", f"FB{i}",
                         {"from": [f"C{nxt}"], "to": [f"C{i}"]},
                         {"label": _text(rng, "label")}))

        assignee = "SH1" if rng.random() < 0.03 else f"C{i}"
        r = rng.random()
        derived = [f"SG{other(i)}"] if r < 0.05 else \
            [f"SG{i}", f"SG{other(i)}"] if r < 0.15 else [f"SG{i}"]
        unit.append(Decl("resp", f"R{i}",
                         {"of": [assignee], "from": derived},
                         {"description": _text(rng, "resp")}))

        on = f"FB{i}" if rng.random() < 0.15 else f"CA{i}"
        r = rng.random()
        hazards = [f"H{other(i)}"] if r < 0.05 else \
            [f"H{i}", f"H{other(i)}"] if r < 0.15 else [f"H{i}"]
        for_action = rng.random() < 0.1
        allow = ("PSY006",) if for_action and rng.random() < 0.5 else ()
        unit.append(Decl("uca", f"UCA{i}", {"on": [on], "hazards": hazards},
                         {"kind": rng.choice(UCA_KINDS),
                          "context": _text(rng, "uca.context")}, allow))
        scen_for = f"CA{i}" if for_action else f"UCA{i}"
        unit.append(Decl("scenario", f"UCA{i}.SC1", {"for": [scen_for]},
                         {"factor": rng.choice(FACTORS),
                          "description": _text(rng, "scenario")}))
        if rng.random() < 0.92:
            rationale = _text(rng, "rationale") if rng.random() < 0.3 \
                else None
            unit.append(Decl("assess", f"H{i}", {"hazard": [f"H{i}"]}, {
                "severity": rng.choice(("S1", "S2", "S3")),
                "exposure": rng.choice(("E1", "E2", "E3", "E4")),
                "controllability": rng.choice(("C1", "C2", "C3")),
                "rationale": rationale}))
        decls.extend(unit)
    return decls


def _render(d: Decl) -> list[str]:
    p, r = d.props, d.refs
    if d.kind == "stakeholder":
        lines = [f"stakeholder {d.id} {_q(p['name'])}"]
    elif d.kind == "stake":
        lines = [f"stake {d.id} {_q(p['description'])} of {r['of'][0]}"]
    elif d.kind == "loss":
        lines = [f"loss {d.id} {_q(p['description'])} violates "
                 f"{', '.join(r['violates'])}"]
    elif d.kind == "hazard":
        line = (f"hazard {d.id} {_q(p['description'])} leads_to "
                f"{', '.join(r['leads_to'])}")
        if p["context"] is not None:
            line += f" context {_q(p['context'])}"
        lines = [line]
    elif d.kind == "goal":
        lines = [f"goal {d.id} {_q(p['description'])} prevents "
                 f"{', '.join(r['prevents'])}"]
    elif d.kind in ("controller", "process"):
        head = f"{d.kind} {d.id} {_q(p['name'])} level {p['level']}"
        body = []
        if p.get("human"):
            body.append("  human")
            body.append(f"  sa_level {p['sa_level']}")
            if p.get("psych_state") is not None:
                body.append(f"  psych_state {_q(p['psych_state'])}")
        if p.get("algorithm") is not None:
            body.append(f"  algorithm {_q(p['algorithm'])}")
        for pm in p.get("process_model", ()):
            body.append(f"  process_model {_q(pm)}")
        lines = [head + " {", *body, "}"] if body else [head]
    elif d.kind in ("action", "feedback"):
        lines = [f"{d.kind} {d.id} {_q(p['label'])} from {r['from'][0]} "
                 f"to {r['to'][0]}"]
    elif d.kind == "resp":
        lines = [f"resp {d.id} {_q(p['description'])} of {r['of'][0]} "
                 f"from {', '.join(r['from'])}"]
    elif d.kind == "uca":
        lines = [f"uca {d.id} on {r['on'][0]} kind {p['kind']} context "
                 f"{_q(p['context'])} hazards {', '.join(r['hazards'])}"]
    elif d.kind == "scenario":
        lines = [f"scenario {d.id} for {r['for'][0]} factor {p['factor']} "
                 f"{_q(p['description'])}"]
    else:
        line = (f"assess {d.id} severity {p['severity']} exposure "
                f"{p['exposure']} controllability {p['controllability']}")
        if p["rationale"] is not None:
            line += f" rationale {_q(p['rationale'])}"
        lines = [line]
    if d.allow:
        lines[0] += "  # psysafe-allow " + " ".join(d.allow)
    return lines


def _layout(rng: random.Random, decls: list[Decl], prefix: str,
            n_files: int, header: list[str]) -> list[list]:
    """Split declarations into files; returns [(path, lines, crlf)]."""
    per_file = -(-len(decls) // n_files)
    files = []
    for f in range(n_files):
        chunk = decls[f * per_file:(f + 1) * per_file]
        path = f"{prefix}/m{f:02d}.psy"
        lines = [f"# Synthetic psysafe model, part {f + 1} of {n_files}."]
        if f == 0:
            lines.extend(header)
        for d in chunk:
            if d.kind == "stake" and rng.random() < 0.1:
                lines.append("")
                lines.append(f"# {_text(rng, 'comment')}")
            d.file = path
            d.line = len(lines) + 1
            lines.extend(_render(d))
        files.append([path, lines, f == n_files - 1])
    return files


def _expected_findings(decls: list[Decl]) -> Counter:
    """Apply docs/rules.md to the declarations; findings named in an allow
    comment on the declaration's line are dropped."""
    by_kind: dict[str, list[Decl]] = {}
    for d in decls:
        by_kind.setdefault(d.kind, []).append(d)
    entities = by_kind.get("controller", []) + by_kind.get("process", [])
    level = {e.id: e.props["level"] for e in entities}
    raw: list[tuple[Decl, str]] = []

    prevented = {h for g in by_kind["goal"] for h in g.refs["prevents"]}
    traced = {h for u in by_kind["uca"] for h in u.refs["hazards"]}
    assessed = {a.id for a in by_kind.get("assess", [])}
    for h in by_kind["hazard"]:
        if h.id not in prevented:
            raw.append((h, "PSY003"))
        if h.id not in traced:
            raw.append((h, "PSY005"))
        if h.id not in assessed:
            raw.append((h, "PSY007"))
    covered = {g for r in by_kind["resp"] for g in r.refs["from"]}
    raw += [(g, "PSY004") for g in by_kind["goal"] if g.id not in covered]
    explained = {s.refs["for"][0] for s in by_kind["scenario"]}
    raw += [(u, "PSY006") for u in by_kind["uca"] if u.id not in explained]
    for e in entities:
        p = e.props
        if p.get("human"):
            if p.get("sa_level") is None or p.get("psych_state") is None:
                raw.append((e, "PSY009"))
        elif e.kind == "controller" and not p.get("process_model"):
            raw.append((e, "PSY009"))
    structure = set(level)
    raw += [(r, "PSY012") for r in by_kind["resp"]
            if r.refs["of"][0] not in structure]
    feedback_adj: dict[str, set[str]] = {}
    for fb in by_kind["feedback"]:
        src, dst = fb.refs["from"][0], fb.refs["to"][0]
        feedback_adj.setdefault(src, set()).add(dst)
        if level[src] < level[dst]:
            raw.append((fb, "PSY014"))
    for ca in by_kind["action"]:
        src, dst = ca.refs["from"][0], ca.refs["to"][0]
        if level[src] > level[dst]:
            raw.append((ca, "PSY014"))
        if dst != src and src not in _bfs(feedback_adj, dst):
            raw.append((ca, "PSY010"))

    return Counter((d.file, d.line, SEVERITY[rule], rule)
                   for d, rule in raw if rule not in d.allow)


def _bfs(adj: dict[str, set[str]], start: str) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in adj.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def trace_edges(decls: list[Decl]) -> list[tuple[str, str]]:
    """Declared links, from the derived artifact to the one it refers to
    (loss -> stake, hazard -> loss, goal -> hazard, resp -> goal/entity,
    UCA -> action/hazard, scenario -> UCA/action)."""
    fields = {"loss": ("violates",), "hazard": ("leads_to",),
              "goal": ("prevents",), "resp": ("from", "of"),
              "uca": ("on", "hazards"), "scenario": ("for",)}
    edges = set()
    for d in decls:
        for name in fields.get(d.kind, ()):
            edges.update((d.id, ref) for ref in d.refs[name])
    return sorted(edges)


def expected_trace_down(decls: list[Decl], start: str) -> tuple[set, int]:
    """IDs reached by ``trace --from start --dir down`` and the number of
    tree lines: the root plus every incoming edge of each reached node."""
    incoming: dict[str, set[str]] = {}
    for src, dst in trace_edges(decls):
        incoming.setdefault(dst, set()).add(src)
    reached = _bfs(incoming, start)
    return reached, 1 + sum(len(incoming.get(n, ())) for n in reached)


def generate(seed: int, units: int, prefix: str, n_files: int = 8,
             shared: int | None = None) -> Model:
    """A clean model of ``units`` units split over ``n_files`` files under
    ``prefix``; the last file uses CRLF line ends."""
    rng = random.Random(f"psysafe-bench:{seed}:{units}:{shared}")
    decls = _build_decls(rng, units, shared)
    header = ["", f"analysis {_q(_text(rng, 'analysis'))} {{",
              f"  sae_level = {rng.randint(2, 5)}",
              f"  boundary {_q(_text(rng, 'boundary'))}", "}"]
    laid = _layout(rng, decls, prefix, n_files, header)
    findings = _expected_findings(decls)
    kinds = Counter(d.kind for d in decls)
    actions = {d.id for d in decls if d.kind == "action"}
    on_action = {d.refs["on"][0] for d in decls if d.kind == "uca"}
    inventory = {
        "stakeholders": kinds["stakeholder"], "stakes": kinds["stake"],
        "losses": kinds["loss"], "hazards": kinds["hazard"],
        "goals": kinds["goal"], "responsibilities": kinds["resp"],
        "controllers": kinds["controller"], "processes": kinds["process"],
        "actions": kinds["action"], "feedbacks": kinds["feedback"],
        "ucas": kinds["uca"], "scenarios": kinds["scenario"],
        "assessments": kinds["assess"],
    }
    levels = Counter(psysil(d.props["severity"], d.props["exposure"],
                            d.props["controllability"])
                     for d in decls if d.kind == "assess")
    return Model(parts=laid, decls=decls, inventory=inventory,
                 findings=findings, coverage_rows=len(actions),
                 uncovered_actions=len(actions - on_action),
                 psysil_levels=levels)


def with_syntax_defects(model: Model, seed: int, rate: float,
                        prefix: str) -> Model:
    """Copy of ``model`` under ``prefix`` with at most one lexical or syntax
    defect in a share ``rate`` of the single-line declarations.

    Expected diagnostics, all PSY000 errors (docs/language.md: strings
    are single-line with two escapes; the parser reports one diagnostic
    per broken declaration and resumes at the next declaration keyword):

    - ``illegal_char``: one lexical diagnostic on the declaration's line;
      the character sits between tokens, so the declaration still parses.
    - ``bad_escape``: one lexical diagnostic on the declaration's line;
      the string still ends, so the declaration still parses.
    - ``missing_keyword``: the keyword after the description is dropped;
      one syntax diagnostic at the next token on the same line.
    - ``unterminated_string``: the closing quote of the line's last string
      is dropped; one lexical diagnostic on that line plus one syntax
      diagnostic at the first token of the next declaration.

    The last declaration of each file is never broken, so no diagnostic
    falls at the end of a file.
    """
    rng = random.Random(f"psysafe-bench-defects:{seed}")
    keyword = {"stake": "of", "loss": "violates", "hazard": "leads_to",
               "goal": "prevents", "action": "from", "feedback": "from",
               "resp": "of"}
    expected: Counter = Counter()
    parts = []
    for path, lines, crlf in model.parts:
        new_path = _rebase(path, prefix)
        lines = list(lines)
        decl_at = {d.line: d for d in model.decls if d.file == path}
        starts = sorted(decl_at)
        for k, line in enumerate(starts[:-1]):
            d = decl_at[line]
            if d.kind in ("controller", "process") or rng.random() >= rate:
                continue
            code, _, comment = lines[line - 1].partition("  # ")
            choices = ["illegal_char"]
            if '"' in code:
                choices.append("bad_escape")
            if d.kind in keyword:
                choices.append("missing_keyword")
            if code.endswith('"'):
                choices.append("unterminated_string")
            kind = rng.choice(choices)
            if kind == "illegal_char":
                head, sep, tail = code.partition(f" {d.id} ")
                code = f"{head}{sep}{rng.choice('@$;!%^&*?~|')} {tail}"
            elif kind == "bad_escape":
                at = code.index('"') + 1
                code = code[:at] + "\\q" + code[at:]
            elif kind == "missing_keyword":
                code = code.replace(f'" {keyword[d.kind]} ', '" ', 1)
            else:
                code = code[:-1]
                expected[(new_path, starts[k + 1], "error", "PSY000")] += 1
            expected[(new_path, line, "error", "PSY000")] += 1
            lines[line - 1] = code + ("  # " + comment if comment else "")
        parts.append((new_path, lines, crlf))
    return _variant(model, parts, expected)


def with_resolve_defects(model: Model, seed: int, rate: float,
                         prefix: str) -> Model:
    """Copy of ``model`` under ``prefix`` with clean syntax but
    unresolvable references (PSY011: a hazard leading to an undeclared
    loss) and duplicate IDs (PSY013: a goal declared twice). Each defect is
    one diagnostic at the start line of the offending declaration."""
    rng = random.Random(f"psysafe-bench-refs:{seed}")
    expected: Counter = Counter()
    parts = []
    for path, lines, crlf in model.parts:
        new_path = _rebase(path, prefix)
        decl_at = {d.line: d for d in model.decls if d.file == path}
        out: list[str] = []
        for number, text in enumerate(lines, 1):
            d = decl_at.get(number)
            if d is not None and d.kind == "hazard" and rng.random() < rate:
                text = text.replace(" leads_to ", f" leads_to LX{d.id}, ", 1)
                expected[(new_path, len(out) + 1, "error", "PSY011")] += 1
            out.append(text)
            if d is not None and d.kind == "goal" and rng.random() < rate:
                expected[(new_path, len(out) + 1, "error", "PSY013")] += 1
                out.append(text)
        parts.append((new_path, out, crlf))
    return _variant(model, parts, expected)


def _rebase(path: str, prefix: str) -> str:
    return f"{prefix}/{path.rsplit('/', 1)[-1]}"


def _variant(model: Model, parts: list, defects: Counter) -> Model:
    """A broken copy: same declarations, new text, expected diagnostics
    ``defects`` instead of findings."""
    return Model(parts=parts, decls=model.decls, inventory=model.inventory,
                 findings=Counter(), coverage_rows=model.coverage_rows,
                 uncovered_actions=model.uncovered_actions,
                 psysil_levels=model.psysil_levels, defects=defects)

