import itertools

from psysafe.model import (ControllabilityClass, ExposureClass, PsySilLevel,
                           SafetyGoal, SeverityClass)
from psysafe.psysil import determine_psysil, goal_psysil, psysil_table

ALL_INPUTS = list(itertools.product(SeverityClass, ExposureClass,
                                    ControllabilityClass))


def closed_form(s, e, c):
    """Independent oracle: QM iff ranks sum to 6 or less, else A..D."""
    total = int(s) + int(e) + int(c)
    if total <= 6:
        return PsySilLevel.QM
    return PsySilLevel(total - 6)


def test_closed_form_matches_table_on_all_36_inputs():
    for s, e, c in ALL_INPUTS:
        assert determine_psysil(s, e, c) == closed_form(s, e, c), (s, e, c)


def test_published_cells():
    S, E, C, L = (SeverityClass, ExposureClass, ControllabilityClass,
                  PsySilLevel)
    assert determine_psysil(S.S2, E.E4, C.C1) is L.A
    assert determine_psysil(S.S3, E.E4, C.C3) is L.D
    assert determine_psysil(S.S1, E.E1, C.C1) is L.QM
    assert determine_psysil(S.S2, E.E3, C.C3) is L.B
    assert determine_psysil(S.S1, E.E3, C.C3) is L.A
    assert determine_psysil(S.S3, E.E1, C.C3) is L.A


def test_table_has_36_cells_with_expected_level_counts():
    table = psysil_table()
    assert len(table) == 36
    assert len({(c.severity, c.exposure, c.controllability)
                for c in table}) == 36
    counts = {}
    for cell in table:
        counts[cell.level] = counts.get(cell.level, 0) + 1
    assert counts == {PsySilLevel.QM: 18, PsySilLevel.A: 8,
                      PsySilLevel.B: 6, PsySilLevel.C: 3, PsySilLevel.D: 1}


def test_table_is_sorted_by_severity_exposure_controllability():
    table = psysil_table()
    keys = [(c.severity, c.exposure, c.controllability) for c in table]
    assert keys == sorted(keys)


def test_monotonicity_in_each_parameter():
    for s, e, c in ALL_INPUTS:
        level = determine_psysil(s, e, c)
        if s < SeverityClass.S3:
            assert determine_psysil(SeverityClass(s + 1), e, c) >= level
        if e < ExposureClass.E4:
            assert determine_psysil(s, ExposureClass(e + 1), c) >= level
        if c < ControllabilityClass.C3:
            assert determine_psysil(s, e, ControllabilityClass(c + 1)) \
                >= level


def test_goal_inherits_maximum_of_assessed_hazards(corpus_model):
    goals = {g.id: g for g in corpus_model.goals}
    # SG2 prevents H1, H2, H5; only H2 is assessed (S2, E4, C1) -> A.
    assert goal_psysil(goals["SG2"], corpus_model) is PsySilLevel.A
    assert goal_psysil(goals["SG1"], corpus_model) is None
    assert goal_psysil(goals["SG4"], corpus_model) is None


def test_goal_psysil_takes_the_worst_hazard():
    from psysafe.model import RiskAssessment
    from tests.mutations import load_clean

    model, _ = load_clean()
    S, E, C = SeverityClass, ExposureClass, ControllabilityClass
    model = model._replace(assessments={
        "H1": RiskAssessment("H1", S.S2, E.E4, C.C1),   # A
    })
    goal = SafetyGoal("G9", "g", frozenset({"H1"}))
    assert goal_psysil(goal, model) is PsySilLevel.A

    model = model._replace(assessments={
        "H1": RiskAssessment("H1", S.S3, E.E4, C.C2),   # C
    })
    assert goal_psysil(goal, model) is PsySilLevel.C


def test_goal_over_hazards_rated_a_and_b_inherits_b():
    from psysafe.model import Hazard, RiskAssessment
    from tests.mutations import load_clean

    model, _ = load_clean()
    S, E, C = SeverityClass, ExposureClass, ControllabilityClass
    extra = Hazard("H2", "second", frozenset({"L1"}))
    model = model._replace(
        hazards=model.hazards + (extra,),
        assessments={
            "H1": RiskAssessment("H1", S.S2, E.E4, C.C1),   # A
            "H2": RiskAssessment("H2", S.S2, E.E4, C.C2),   # B
        })
    goal = SafetyGoal("GA", "g", frozenset(["H1", "H2"]))
    assert goal_psysil(goal, model) is PsySilLevel.B


def test_goal_psysil_is_order_independent():
    from psysafe.model import Hazard, RiskAssessment
    from tests.mutations import load_clean

    model, _ = load_clean()
    S, E, C = SeverityClass, ExposureClass, ControllabilityClass
    extra = Hazard("H2", "second", frozenset({"L1"}))
    model = model._replace(
        hazards=model.hazards + (extra,),
        assessments={
            "H1": RiskAssessment("H1", S.S2, E.E4, C.C1),   # A
            "H2": RiskAssessment("H2", S.S2, E.E4, C.C3),   # C
        })
    a = SafetyGoal("GA", "g", frozenset(["H1", "H2"]))
    b = SafetyGoal("GB", "g", frozenset(["H2", "H1"]))
    assert goal_psysil(a, model) == goal_psysil(b, model) == PsySilLevel.C
