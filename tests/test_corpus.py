"""Fidelity checks for the bundled lane-change example."""

from psysafe.model import CausalFactor, EntityKind, UcaKind


def test_fixture_files_present(corpus_files):
    names = [p.name for p in corpus_files]
    assert names == ["hazards.psy", "structure.psy", "ucas.psy"]


def test_entity_inventory(corpus_model):
    m = corpus_model
    assert [s.id for s in m.stakeholders] == ["SH_DRV"]
    assert [s.id for s in m.stakes] == ["ST1", "ST2", "ST3", "ST4"]
    assert [l.id for l in m.losses] == ["L1", "L2", "L3"]
    assert [h.id for h in m.hazards] == ["H1", "H2", "H3", "H4", "H5"]
    assert [g.id for g in m.goals] == ["SG1", "SG2", "SG3", "SG4", "SG5"]
    assert [r.id for r in m.responsibilities] == \
        ["R1", "R2", "R3", "R4", "R5", "R6", "R7"]
    assert [u.id for u in m.ucas] == ["UCA1", "UCA2", "UCA3"]
    assert [s.id for s in m.scenarios] == \
        ["UCA2.SC1", "UCA2.SC2", "UCA3.SC1", "UCA3.SC2"]
    assert list(m.assessments) == ["H2"]


def test_loss_descriptions(corpus_model):
    descriptions = {l.id: l.description for l in corpus_model.losses}
    assert descriptions["L1"] == "Loss of trust"
    assert descriptions["L2"] == "Stress, shock, or trauma"
    assert descriptions["L3"] == \
        "Fear of loss of life, injury, or property damage"


def test_hazard_loss_links(corpus_model):
    links = {h.id: set(h.leads_to) for h in corpus_model.hazards}
    assert links == {"H1": {"L2"}, "H2": {"L2"},
                     "H3": {"L1", "L2", "L3"}, "H4": {"L3"},
                     "H5": {"L1", "L2"}}


def test_goal_hazard_links(corpus_model):
    links = {g.id: set(g.prevents) for g in corpus_model.goals}
    assert links == {"SG1": {"H1"}, "SG2": {"H1", "H2", "H5"},
                     "SG3": {"H3"}, "SG4": {"H4"}, "SG5": {"H5"}}


def test_responsibility_assignments(corpus_model):
    resp = {r.id: (r.assignee, set(r.derived_from))
            for r in corpus_model.responsibilities}
    assert resp == {
        "R1": ("DRV", {"SG1", "SG2"}),
        "R2": ("DRV", {"SG3"}),
        "R3": ("ADS", {"SG1", "SG2"}),
        "R4": ("ADS", {"SG3"}),
        "R5": ("ADS", {"SG3"}),
        "R6": ("ADS", {"SG2"}),
        "R7": ("ADS", {"SG2"}),
    }


def test_control_structure_levels(corpus_model):
    entities = {e.id: e for e in corpus_model.structure.entities}
    assert entities["DRV"].level == 1 and entities["DRV"].is_human
    assert entities["DRV"].kind is EntityKind.CONTROLLER
    assert entities["DRV"].sa_level == 1
    assert entities["DRV"].psych_state is not None
    assert entities["ADS"].level == 2
    assert len(entities["ADS"].process_model) == 2
    assert entities["VEH"].level == 3
    assert entities["VEH"].kind is EntityKind.PROCESS

    actions = {(a.source, a.target) for a in corpus_model.structure.actions}
    assert actions == {("DRV", "ADS"), ("ADS", "VEH")}
    feedbacks = {(f.source, f.target)
                 for f in corpus_model.structure.feedbacks}
    assert feedbacks == {("ADS", "DRV"), ("VEH", "ADS")}


def test_uca_links_and_kinds(corpus_model):
    ucas = {u.id: u for u in corpus_model.ucas}
    assert ucas["UCA1"].on == "CA_motion"
    assert ucas["UCA1"].kind is UcaKind.PROVIDED
    assert set(ucas["UCA1"].hazards) == {"H1"}
    assert ucas["UCA2"].on == "FB_inform"
    assert ucas["UCA2"].kind is UcaKind.NOT_PROVIDED
    assert set(ucas["UCA2"].hazards) == {"H5"}
    assert ucas["UCA3"].on == "CA_takeover"
    assert ucas["UCA3"].kind is UcaKind.NOT_PROVIDED
    assert set(ucas["UCA3"].hazards) == {"H2", "H3"}


def test_scenario_factors(corpus_model):
    factors = {s.id: s.factor for s in corpus_model.scenarios}
    assert factors == {
        "UCA2.SC1": CausalFactor.INADEQUATE_ALGORITHM,
        "UCA2.SC2": CausalFactor.INADEQUATE_PROCESS_MODEL,
        "UCA3.SC1": CausalFactor.UNSAFE_INPUT,
        "UCA3.SC2": CausalFactor.INADEQUATE_ALGORITHM,
    }
    for scenario in corpus_model.scenarios:
        assert scenario.for_ref == scenario.id.split(".")[0]


def test_h2_assessment(corpus_model):
    a = corpus_model.assessments["H2"]
    assert (a.severity.name, a.exposure.name, a.controllability.name) == \
        ("S2", "E4", "C1")
    assert a.rationale


def test_sae_level_is_4(corpus_model):
    assert corpus_model.sae_level == 4
    assert corpus_model.boundary is not None
