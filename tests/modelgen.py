"""Seeded random generator of valid resolved models.

Used by the round-trip tests: any model this produces must survive
print -> tokenize -> parse -> resolve unchanged. Strings deliberately
include quotes, backslashes, hashes, and non-ASCII characters to exercise
escaping; IDs include dotted forms like UCA1.SC2.
"""

import random

from psysafe.model import (AnalysisModel, CausalFactor, ControlAction,
                           ControllabilityClass, ControlStructure, Entity,
                           EntityKind, ExposureClass, FeedbackLink, Hazard,
                           Loss, LossScenario, Responsibility,
                           RiskAssessment, SafetyGoal, SeverityClass, Stake,
                           Stakeholder, Uca, UcaKind)

_WORDS = ["lane", "merge", "brake", "alert", "trust", "stress", "swerve",
          "takeover", "monitor", "warn", "drive", "sense"]
_SPICE = ['"', "\\", "#", "{", "}", "=", ",", "é", "ü", "口", "  ", "'"]


def _text(rng: random.Random) -> str:
    parts = rng.choices(_WORDS, k=rng.randint(1, 5))
    if rng.random() < 0.5:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(_SPICE))
    return " ".join(parts)


def _maybe(rng: random.Random, value):
    return value if rng.random() < 0.5 else None


def _some_ids(rng: random.Random, items) -> tuple:
    """The IDs of a non-empty random sample of ``items``, as a reader
    stores an ID list: sorted, each once."""
    return tuple(sorted(i.id for i in
                        rng.sample(items, rng.randint(1, len(items)))))


def random_model(seed: int) -> AnalysisModel:
    rng = random.Random(seed)

    stakeholders = [Stakeholder(f"SH{i}", _text(rng))
                    for i in range(1, rng.randint(2, 3))]
    stakes = [Stake(f"ST{i}", _text(rng), rng.choice(stakeholders).id)
              for i in range(1, rng.randint(2, 5))]
    losses = [Loss(f"L{i}", _text(rng), _some_ids(rng, stakes))
              for i in range(1, rng.randint(2, 4))]
    hazards = [Hazard(f"H{i}", _text(rng), _some_ids(rng, losses),
                      _maybe(rng, _text(rng)))
               for i in range(1, rng.randint(2, 5))]
    goals = [SafetyGoal(f"SG{i}", _text(rng), _some_ids(rng, hazards))
             for i in range(1, rng.randint(1, 5))]

    entities = []
    for i in range(1, rng.randint(2, 4)):
        human = rng.random() < 0.4
        entities.append(Entity(
            id=f"E{i}", name=_text(rng), level=rng.randint(1, 3),
            kind=rng.choice((EntityKind.CONTROLLER, EntityKind.PROCESS)),
            is_human=human,
            sa_level=rng.choice((None, 1, 2, 3)) if human else None,
            psych_state=_maybe(rng, _text(rng)) if human else None,
            algorithm=_maybe(rng, _text(rng)),
            process_model=tuple(_text(rng)
                                for _ in range(rng.randint(0, 2)))))

    actions = [ControlAction(f"CA{i}", _text(rng),
                             rng.choice(entities).id,
                             rng.choice(entities).id)
               for i in range(1, rng.randint(1, 4))]
    feedbacks = [FeedbackLink(f"FB{i}", _text(rng),
                              rng.choice(entities).id,
                              rng.choice(entities).id)
                 for i in range(1, rng.randint(1, 4))]

    responsibilities = []
    if goals:
        for i in range(1, rng.randint(1, 4)):
            responsibilities.append(Responsibility(
                f"R{i}", _text(rng), rng.choice(entities).id,
                _some_ids(rng, goals)))

    ucas = []
    on_candidates = actions + feedbacks
    if on_candidates:
        for i in range(1, rng.randint(1, 4)):
            ucas.append(Uca(
                f"UCA{i}", rng.choice(on_candidates).id,
                rng.choice(list(UcaKind)), _text(rng),
                _some_ids(rng, hazards)))

    scenarios = []
    for_candidates = [u.id for u in ucas] + [a.id for a in actions]
    if for_candidates:
        for i in range(1, rng.randint(1, 4)):
            scenarios.append(LossScenario(
                f"SC{i}.a", rng.choice(for_candidates),
                rng.choice(list(CausalFactor)), _text(rng)))

    assessments = {}
    for hazard in hazards:
        if rng.random() < 0.4:
            assessments[hazard.id] = RiskAssessment(
                hazard.id,
                rng.choice(list(SeverityClass)),
                rng.choice(list(ExposureClass)),
                rng.choice(list(ControllabilityClass)),
                _maybe(rng, _text(rng)))

    by_id = lambda item: item.id  # noqa: E731
    return AnalysisModel(
        title=_text(rng),
        sae_level=rng.randint(2, 5),
        boundary=_maybe(rng, _text(rng)),
        stakeholders=tuple(sorted(stakeholders, key=by_id)),
        stakes=tuple(sorted(stakes, key=by_id)),
        losses=tuple(sorted(losses, key=by_id)),
        hazards=tuple(sorted(hazards, key=by_id)),
        goals=tuple(sorted(goals, key=by_id)),
        responsibilities=tuple(sorted(responsibilities, key=by_id)),
        structure=ControlStructure(
            entities=tuple(sorted(entities, key=by_id)),
            actions=tuple(sorted(actions, key=by_id)),
            feedbacks=tuple(sorted(feedbacks, key=by_id))),
        ucas=tuple(sorted(ucas, key=by_id)),
        scenarios=tuple(sorted(scenarios, key=by_id)),
        assessments=assessments,
    )
