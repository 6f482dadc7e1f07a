import sys
from collections import deque

import pytest

from psysafe.loader import load_sources
from psysafe.tracegraph import EdgeType, build_trace_graph, format_trace_tree

from tests.conftest import REPO_ROOT
from tests.modelgen import random_model

sys.path.append(str(REPO_ROOT / "perfbench"))
import gen  # noqa: E402  (perfbench/gen.py, the benchmark's generator)


def reach(model, start, direction):
    """The IDs the ``trace`` tree names: the root, then the third word of
    each step line (``-> edge_type ID [kind]``)."""
    root, *steps = format_trace_tree(model, start, direction).splitlines()
    return {root.split()[0], *(line.split()[2] for line in steps)}


def edges_of(graph, edge_type):
    return {(e.source, e.target) for e in graph.edges
            if e.type is edge_type}


def test_corpus_leads_to_edges(corpus_model):
    graph = build_trace_graph(corpus_model)
    leads = edges_of(graph, EdgeType.LEADS_TO)
    assert {("H3", "L1"), ("H3", "L2"), ("H3", "L3")} <= leads


def test_corpus_prevents_edges(corpus_model):
    graph = build_trace_graph(corpus_model)
    prevents = edges_of(graph, EdgeType.PREVENTS)
    assert {("SG2", "H1"), ("SG2", "H2"), ("SG2", "H5")} <= prevents


def test_empty_model_gives_empty_graph():
    model, _ = load_sources([("t.psy", 'analysis "t" { sae_level = 2 }')])
    graph = build_trace_graph(model)
    assert graph.edges == ()


def test_no_synthesized_edges(corpus_model):
    graph = build_trace_graph(corpus_model)
    declared = (
        sum(len(l.violates) for l in corpus_model.losses)
        + sum(len(h.leads_to) for h in corpus_model.hazards)
        + sum(len(g.prevents) for g in corpus_model.goals)
        + sum(len(r.derived_from) + 1 for r in corpus_model.responsibilities)
        + sum(len(u.hazards) + 1 for u in corpus_model.ucas)
        + len(corpus_model.scenarios))
    assert len(graph.edges) == declared


def test_trace_h3_both_directions(corpus_model):
    assert reach(corpus_model, "H3", "both") == {
        "H3", "L1", "L2", "L3", "ST1", "ST2", "ST3", "ST4",
        "SG3", "R2", "R4", "R5", "UCA3", "UCA3.SC1", "UCA3.SC2"}


def test_trace_up_from_loss_reaches_its_stakes(corpus_model):
    assert reach(corpus_model, "L2", "up") == {"L2", "ST2"}


def test_trace_down_excludes_forward_side_branches(corpus_model):
    # Down from H3 collects preventers/tracers, but not the sibling hazard
    # H2 that UCA3 also points at, nor the structure behind them.
    assert reach(corpus_model, "H3", "down") == {
        "H3", "SG3", "R2", "R4", "R5", "UCA3", "UCA3.SC1", "UCA3.SC2"}


def test_isolated_node_traces_to_itself():
    model, _ = load_sources([(
        "t.psy",
        'analysis "t" { sae_level = 2 }\n'
        'stakeholder SH1 "s"\n'
        'stake ST1 "st" of SH1\n')])
    assert reach(model, "ST1", "down") == {"ST1"}


def test_trace_both_is_symmetric(corpus_model):
    ids = list(corpus_model.entity_ids)
    membership = {x: reach(corpus_model, x, "both") for x in ids}
    for x in ids:
        for y in membership[x]:
            assert x in membership[y], (x, y)


def test_unknown_id_raises_key_error(corpus_model):
    with pytest.raises(KeyError):
        format_trace_tree(corpus_model, "NOPE")


def test_invalid_direction_raises_value_error(corpus_model):
    with pytest.raises(ValueError):
        format_trace_tree(corpus_model, "H3", "sideways")


def test_tree_rendering_is_deterministic(corpus_model):
    a = format_trace_tree(corpus_model, "H3", "both")
    b = format_trace_tree(corpus_model, "H3", "both")
    assert a == b
    assert a.splitlines()[0] == "H3 [hazard]"
    assert "-> leads_to L1 [loss]" in a
    assert "<- prevents SG3 [goal]" in a


def reference_trace(model, start, direction):
    """Tree text and reached IDs by scanning every edge at each node,
    the way traces were computed before the graph indexed its edges."""
    graph = build_trace_graph(model)

    def steps(node, forward):
        edges = [e for e in graph.edges
                 if (e.source if forward else e.target) == node]
        edges.sort(key=lambda e: ((e.target if forward else e.source),
                                  e.type.value))
        return [((e.target if forward else e.source), e) for e in edges]

    lines = [f"{start} [{model.kind_of(start)}]"]

    def expand(node, forward, depth, seen):
        for other, e in steps(node, forward):
            lines.append(f"{'  ' * depth}{'->' if forward else '<-'} "
                         f"{e.type} {other} [{model.kind_of(other)}]")
            if other not in seen:
                seen.add(other)
                expand(other, forward, depth + 1, seen)

    reached = {start}
    forwards = {"up": (True,), "down": (False,), "both": (True, False)}
    for forward in forwards[direction]:
        expand(start, forward, 1, {start})
        queue = deque([start])
        while queue:
            for other, _ in steps(queue.popleft(), forward):
                if other not in reached:
                    reached.add(other)
                    queue.append(other)
    return "\n".join(lines) + "\n", reached


def test_trace_matches_edge_scan_reference():
    # The generated models, then the benchmark's shape: losses and stakes
    # shared by many hazards, so that traces meet nodes already expanded.
    models = {f"seed {seed}": random_model(seed) for seed in range(100)}
    models["benchmark"], _ = load_sources(
        gen.generate(1, 16, "x", n_files=2, shared=2).files)
    for name, model in models.items():
        for start in model.entity_ids:
            for direction in ("up", "down", "both"):
                tree, reached = reference_trace(model, start, direction)
                where = (name, start, direction)
                assert format_trace_tree(model, start, direction) == tree, \
                    where
                assert reach(model, start, direction) == reached, where

