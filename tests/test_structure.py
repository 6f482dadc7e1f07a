import time
from collections import deque

from hypothesis import given, strategies as st

from psysafe.loader import load_sources
from psysafe.model import (ControlAction, ControlStructure, Entity,
                           EntityKind, FeedbackLink, UcaKind)
from psysafe import structure as structure_module
from psysafe.structure import uca_category_coverage, validate_structure

from tests.conftest import FUZZ
from tests.mutations import CLEAN_PSY


def test_corpus_structure_is_clean(corpus_model):
    assert validate_structure(corpus_model.structure,
                              corpus_model.spans) == []


def test_removing_the_inform_feedback_opens_one_loop(corpus_model):
    structure = corpus_model.structure
    feedbacks = tuple(f for f in structure.feedbacks if f.id != "FB_inform")
    mutated = structure._replace(feedbacks=feedbacks)
    diags = validate_structure(mutated, corpus_model.spans)
    assert [d.rule for d in diags] == ["PSY010"]
    assert diags[0].related == ("CA_takeover",)


def test_action_from_lower_to_higher_level_is_psy014():
    text = CLEAN_PSY + 'action A3 "Up" from PLANT to OP\n'
    model, _ = load_sources([("t.psy", text)])
    diags = validate_structure(model.structure, model.spans)
    rules = [d.rule for d in diags]
    assert rules.count("PSY014") == 1
    psy014 = next(d for d in diags if d.rule == "PSY014")
    assert psy014.related == ("A3",)
    assert psy014.message == (
        "control action A3 flows up the hierarchy (from level 3 to level 1); "
        "commands flow down")


def test_feedback_from_higher_to_lower_level_is_psy014():
    text = CLEAN_PSY + 'feedback F3 "Down" from OP to PLANT\n'
    model, _ = load_sources([("t.psy", text)])
    diags = validate_structure(model.structure, model.spans)
    assert [d.rule for d in diags] == ["PSY014"]
    assert diags[0].related == ("F3",)
    assert diags[0].message == (
        "feedback F3 flows down the hierarchy (from level 1 to level 3); "
        "feedback flows up")


def test_peer_level_action_is_allowed():
    text = CLEAN_PSY + ('controller CTL2 "Peer" level 2 '
                        '{ process_model "peer state" }\n'
                        'action A3 "Arbitrate" from CTL to CTL2\n'
                        'feedback F3 "Peer status" from CTL2 to CTL\n')
    model, _ = load_sources([("t.psy", text)])
    diags = validate_structure(model.structure, model.spans)
    assert diags == []


def test_transitive_feedback_closes_the_loop():
    # A command that skips a level is closed by feedback hops through the
    # intermediate level.
    text = CLEAN_PSY + 'action A3 "Direct" from OP to PLANT\n'
    model, _ = load_sources([("t.psy", text)])
    diags = validate_structure(model.structure, model.spans)
    assert diags == []  # PLANT -> CTL -> OP closes A3


def test_human_missing_mental_model_fields_is_psy009():
    text = CLEAN_PSY.replace(
        'controller OP "Operator" level 1 '
        '{ human sa_level 2 psych_state "calm" }',
        'controller OP "Operator" level 1 { human }')
    model, _ = load_sources([("t.psy", text)])
    diags = validate_structure(model.structure, model.spans)
    assert [d.rule for d in diags] == ["PSY009"]
    assert "sa_level and psych_state" in diags[0].message


def test_controller_without_process_model_is_psy009():
    text = CLEAN_PSY.replace(' { process_model "plant state" }', '')
    model, _ = load_sources([("t.psy", text)])
    diags = validate_structure(model.structure, model.spans)
    assert [d.rule for d in diags] == ["PSY009"]
    assert diags[0].related == ("CTL",)


def test_processes_do_not_need_process_models(corpus_model):
    vehicle = next(e for e in corpus_model.structure.entities
                   if e.id == "VEH")
    assert vehicle.process_model == ()
    assert validate_structure(corpus_model.structure,
                              corpus_model.spans) == []


def test_validation_is_order_independent(corpus_model):
    structure = corpus_model.structure
    shuffled = structure._replace(
        entities=tuple(reversed(structure.entities)),
        actions=tuple(reversed(structure.actions)),
        feedbacks=tuple(reversed(structure.feedbacks)))
    a = validate_structure(structure, corpus_model.spans)
    b = validate_structure(shuffled, corpus_model.spans)
    assert sorted((d.rule, d.message) for d in a) == \
        sorted((d.rule, d.message) for d in b)


def open_loops(structure: ControlStructure) -> list[str]:
    """The control actions PSY010 reports: one BFS per action from its
    target along feedback links, looking for its source."""
    adj: dict[str, set[str]] = {}
    for fb in structure.feedbacks:
        adj.setdefault(fb.source, set()).add(fb.target)

    def reachable(start: str, goal: str) -> bool:
        seen, queue = {start}, deque([start])
        while queue:
            node = queue.popleft()
            if node == goal:
                return True
            for nxt in adj.get(node, set()) - seen:
                seen.add(nxt)
                queue.append(nxt)
        return False

    return sorted(a.id for a in structure.actions
                  if not reachable(a.target, a.source))


def psy010(structure: ControlStructure) -> list[str]:
    return [d.related[0] for d in validate_structure(structure)
            if d.rule == "PSY010"]


NODES = ["C1", "C2", "C3", "C4", "C5", "C6"]
links = st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
                 max_size=12)


@FUZZ
@given(links, links, st.lists(st.integers(1, 3), min_size=len(NODES),
                              max_size=len(NODES)))
def test_open_loops_are_those_of_one_search_per_action(actions, feedbacks,
                                                       levels):
    # Cycles, self-loops, actions whose source is their target and
    # feedback that flows down all occur.
    structure = ControlStructure(
        tuple(Entity(n, n, level, EntityKind.CONTROLLER)
              for n, level in zip(NODES, levels)),
        tuple(ControlAction(f"A{i}", "a", *link)
              for i, link in enumerate(actions)),
        tuple(FeedbackLink(f"F{i}", "f", *link)
              for i, link in enumerate(feedbacks)))
    assert psy010(structure) == open_loops(structure)


def test_loop_closure_is_linear_on_a_deep_chain():
    # Feedback climbs a chain of 4,000 levels and every action starts at
    # the top: a search per action would walk the chain again each time.
    n = 4000
    structure = ControlStructure(
        tuple(Entity(f"C{i}", "c", i, EntityKind.CONTROLLER)
              for i in range(1, n + 1)),
        tuple(ControlAction(f"A{i}", "a", "C1", f"C{i}")
              for i in range(1, n + 1)),
        tuple(FeedbackLink(f"F{i}", "f", f"C{i + 1}", f"C{i}")
              for i in range(1, n)))
    start = time.perf_counter()
    assert psy010(structure) == []
    assert time.perf_counter() - start < 1.0


def test_direct_feedback_closes_a_loop_without_a_walk(monkeypatch):
    # A chain of 32,000 controllers, each commanding the next, which feeds
    # straight back: each such loop closes by one lookup, so the walk,
    # whose masks would be 32,000 bits wide, gets no start. An action that
    # skips a level closes only through two feedback links: it alone walks.
    n = 32_000
    controllers = tuple(Entity(f"C{i}", "c", i, EntityKind.CONTROLLER)
                        for i in range(1, n + 1))
    chain = tuple(ControlAction(f"A{i}", "a", f"C{i}", f"C{i + 1}")
                  for i in range(1, n))
    feedbacks = tuple(FeedbackLink(f"F{i}", "f", f"C{i + 1}", f"C{i}")
                      for i in range(1, n))
    starts = []
    walk = structure_module._reach_masks
    monkeypatch.setattr(structure_module, "_reach_masks",
                        lambda adj, bits, targets: starts.extend(targets)
                        or walk(adj, bits, targets))
    assert psy010(ControlStructure(controllers, chain, feedbacks)) == []
    assert starts == []
    skip = ControlAction("AX", "a", "C1", "C3")
    assert psy010(ControlStructure(controllers, chain + (skip,),
                                   feedbacks)) == []
    assert starts == ["C3"]


def test_coverage_rows_for_corpus(corpus_model):
    rows = uca_category_coverage(corpus_model)
    assert [r.action for r in rows] == ["CA_motion", "CA_takeover"]
    by_action = {r.action: r for r in rows}
    assert by_action["CA_takeover"].ucas_for(UcaKind.NOT_PROVIDED) == \
        ("UCA3",)
    assert by_action["CA_motion"].ucas_for(UcaKind.PROVIDED) == ("UCA1",)
    for row in rows:
        assert len(row.by_kind) == 4
        assert not row.uncovered


def test_uncovered_actions_sort_first():
    text = CLEAN_PSY + 'action A0 "Spare" from OP to CTL\n'
    model, _ = load_sources([("t.psy", text)])
    rows = uca_category_coverage(model)
    assert [r.action for r in rows] == ["A0", "A1", "A2"]
    assert rows[0].uncovered
    assert all(rows[0].ucas_for(kind) == () for kind in UcaKind)


def test_four_kind_fixture_fully_covers_one_action():
    text = CLEAN_PSY + "".join(
        f'uca U{i} on A2 kind {kind.value} context "c" hazards H1\n'
        for i, kind in enumerate(UcaKind, start=2))
    model, _ = load_sources([("t.psy", text)])
    rows = {r.action: r for r in uca_category_coverage(model)}
    assert all(rows["A2"].ucas_for(kind) for kind in UcaKind)
