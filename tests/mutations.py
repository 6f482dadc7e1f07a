"""Single-mutation fixtures for the lint rule catalog.

A clean base model produces zero diagnostics of any rule; each mutation
flips exactly one fact and must trigger its rule exactly once. Rules the
grammar cannot express (empty link lists) are mutated on the resolved
model instead of the source text.
"""

from psysafe.diagnostics import Diagnostic
from psysafe.lints import LintConfig, analyze
from psysafe.loader import load_sources
from psysafe.model import AnalysisModel, ResolveError

CLEAN_PSY = """\
analysis "Clean fixture" { sae_level = 3 }

stakeholder SH1 "Operator"
stake ST1 "Feeling safe" of SH1
loss L1 "Loss of calm" violates ST1
hazard H1 "Erratic behaviour" leads_to L1
goal G1 "Behave predictably" prevents H1

controller OP "Operator" level 1 { human sa_level 2 psych_state "calm" }
controller CTL "Controller" level 2 { process_model "plant state" }
process PLANT "Plant" level 3

action A1 "Command" from OP to CTL
action A2 "Actuate" from CTL to PLANT
feedback F1 "Status" from CTL to OP
feedback F2 "Sensing" from PLANT to CTL

resp R1 "Keep behaviour predictable" of CTL from G1
uca U1 on A2 kind wrong_timing context "Acts late" hazards H1
scenario U1.SC1 for U1 factor controller_failure "Actuator stuck"
assess H1 severity S2 exposure E3 controllability C2
"""


def load_clean(text: str = CLEAN_PSY) -> tuple[AnalysisModel, dict]:
    return load_sources([("clean.psy", text)])


def all_diagnostics(model: AnalysisModel,
                    allows: dict | None = None) -> list[Diagnostic]:
    return analyze(model, LintConfig(allows=allows or {}))


def _replace_line(text: str, needle: str, replacement: str) -> str:
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if needle in line]
    assert len(hits) == 1, f"needle {needle!r} matched {len(hits)} lines"
    if replacement:
        lines[hits[0]] = replacement + "\n"
    else:
        del lines[hits[0]]
    return "".join(lines)


def _drop_losses_link(model: AnalysisModel) -> AnalysisModel:
    loss = model.losses[0]._replace(violates=frozenset())
    return model._replace(losses=(loss,) + model.losses[1:])


def _drop_hazard_link(model: AnalysisModel) -> AnalysisModel:
    hazard = model.hazards[0]._replace(leads_to=frozenset())
    return model._replace(hazards=(hazard,) + model.hazards[1:])


def mutant_diagnostics(rule: str) -> list[Diagnostic]:
    """Diagnostics produced by the single-mutation fixture for ``rule``.

    Rules PSY011 and PSY013 abort resolution, so their diagnostics come
    from the raised error rather than the lint pass.
    """
    text_mutations = {
        "PSY003": (None, CLEAN_PSY +
                   'hazard H2 "Second hazard" leads_to L1\n'),
        "PSY004": (None, CLEAN_PSY + 'goal G2 "Extra goal" prevents H1\n'),
        "PSY005": ("uca U1", None),  # also drops the scenario, see below
        "PSY006": ("scenario U1.SC1", None),
        "PSY007": ("assess H1", None),
        "PSY009": ('controller OP "Operator" level 1',
                   'controller OP "Operator" level 1 { human sa_level 2 }'),
        "PSY010": ('feedback F1 "Status" from CTL to OP', None),
        "PSY011": ("hazards H1", 'uca U1 on A2 kind wrong_timing context '
                   '"Acts late" hazards H9'),
        "PSY012": ('resp R1 "Keep behaviour predictable" of CTL from G1',
                   'resp R1 "Keep behaviour predictable" of H1 from G1'),
        "PSY013": (None, CLEAN_PSY + 'stake ST1 "Feeling safe" of SH1\n'),
        "PSY014": (None, CLEAN_PSY + 'action A3 "Bad" from PLANT to OP\n'),
    }

    if rule == "PSY001":
        model, allows = load_clean()
        return all_diagnostics(_drop_losses_link(model), allows)
    if rule == "PSY002":
        model, allows = load_clean()
        return all_diagnostics(_drop_hazard_link(model), allows)

    needle, replacement = text_mutations[rule]
    if needle is None:
        text = replacement
    else:
        text = _replace_line(CLEAN_PSY, needle, replacement)
    if rule == "PSY005":
        # Removing the UCA takes its scenario subtree with it.
        text = _replace_line(text, "scenario U1.SC1", None)

    try:
        model, allows = load_sources([("clean.psy", text)])
    except ResolveError as err:
        return err.diagnostics
    return all_diagnostics(model, allows)


MUTATION_RULES = ("PSY001", "PSY002", "PSY003", "PSY004", "PSY005",
                  "PSY006", "PSY007", "PSY009", "PSY010", "PSY011",
                  "PSY012", "PSY013", "PSY014")
