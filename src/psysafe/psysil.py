"""PsySIL determination from severity, exposure, and controllability.

The rating table is stored literally, cell by cell; blank cells map to QM
(no integrity level required). An additive closed form reproduces the
table (QM iff S+E+C <= 6, otherwise the level at index S+E+C-6) and the
test suite checks the two against each other over all 36 inputs, but the
table data below is the ground truth the tool ships.
"""

from __future__ import annotations

from collections import namedtuple

from .model import (AnalysisModel, ControllabilityClass, ExposureClass,
                    PsySilLevel, SafetyGoal, SeverityClass)

_S = SeverityClass
_E = ExposureClass
_C = ControllabilityClass
_L = PsySilLevel

#: The 18 populated cells of the rating table (8 A, 6 B, 3 C, 1 D).
RATED_CELLS: dict[tuple[SeverityClass, ExposureClass, ControllabilityClass],
                  PsySilLevel] = {
    (_S.S1, _E.E3, _C.C3): _L.A,
    (_S.S1, _E.E4, _C.C2): _L.A,
    (_S.S1, _E.E4, _C.C3): _L.B,

    (_S.S2, _E.E2, _C.C3): _L.A,
    (_S.S2, _E.E3, _C.C2): _L.A,
    (_S.S2, _E.E3, _C.C3): _L.B,
    (_S.S2, _E.E4, _C.C1): _L.A,
    (_S.S2, _E.E4, _C.C2): _L.B,
    (_S.S2, _E.E4, _C.C3): _L.C,

    (_S.S3, _E.E1, _C.C3): _L.A,
    (_S.S3, _E.E2, _C.C2): _L.A,
    (_S.S3, _E.E2, _C.C3): _L.B,
    (_S.S3, _E.E3, _C.C1): _L.A,
    (_S.S3, _E.E3, _C.C2): _L.B,
    (_S.S3, _E.E3, _C.C3): _L.C,
    (_S.S3, _E.E4, _C.C1): _L.B,
    (_S.S3, _E.E4, _C.C2): _L.C,
    (_S.S3, _E.E4, _C.C3): _L.D,
}


class PsySilCell(namedtuple("PsySilCell",
                            "severity exposure controllability level")):
    __slots__ = ()


def determine_psysil(severity: SeverityClass, exposure: ExposureClass,
                     controllability: ControllabilityClass) -> PsySilLevel:
    """Look up the PsySIL level for an (S, E, C) triple.

    Total over all 36 combinations; unrated cells return QM.
    """
    return RATED_CELLS.get((severity, exposure, controllability),
                           PsySilLevel.QM)


def psysil_table() -> list[PsySilCell]:
    """All 36 cells of the rating table, sorted by (S, E, C)."""
    return [PsySilCell(s, e, c, determine_psysil(s, e, c))
            for s in SeverityClass
            for e in ExposureClass
            for c in ControllabilityClass]


def goal_psysil(goal: SafetyGoal,
                model: AnalysisModel) -> PsySilLevel | None:
    """Stringency a safety goal inherits from the hazards it prevents.

    The goal must cover the worst hazard it mitigates, so this is the
    maximum level over the prevented hazards that carry an assessment;
    None when none of them carries one.
    """
    levels = []
    for hazard_id in goal.prevents:
        assessment = model.assessments.get(hazard_id)
        if assessment is not None:
            levels.append(determine_psysil(assessment.severity,
                                           assessment.exposure,
                                           assessment.controllability))
    return max(levels) if levels else None
