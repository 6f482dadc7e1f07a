"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS`` line (visible with
``pytest -s`` or on failure) and enforces the stated runtime budget.
Run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import json
import re
import time

from psysafe.model import (ControllabilityClass, ExposureClass, PsySilLevel,
                           SeverityClass)
from psysafe.psysil import determine_psysil, psysil_table
from psysafe.structure import validate_structure
from psysafe.report import build_report, emit_json

from tests.modelgen import random_model
from tests.mutations import MUTATION_RULES, mutant_diagnostics
from tests.test_cli import CORPUS_ARGS, psysafe
from tests.test_printer import round_trip

# The 18 rated cells as printed in the rating table, transcribed
# independently of src/psysafe/psysil.py.
PRINTED_CELLS = {
    ("S1", "E3", "C3"): "A",
    ("S1", "E4", "C2"): "A", ("S1", "E4", "C3"): "B",
    ("S2", "E2", "C3"): "A",
    ("S2", "E3", "C2"): "A", ("S2", "E3", "C3"): "B",
    ("S2", "E4", "C1"): "A", ("S2", "E4", "C2"): "B",
    ("S2", "E4", "C3"): "C",
    ("S3", "E1", "C3"): "A",
    ("S3", "E2", "C2"): "A", ("S3", "E2", "C3"): "B",
    ("S3", "E3", "C1"): "A", ("S3", "E3", "C2"): "B",
    ("S3", "E3", "C3"): "C",
    ("S3", "E4", "C1"): "B", ("S3", "E4", "C2"): "C",
    ("S3", "E4", "C3"): "D",
}

ALL_INPUTS = list(itertools.product(SeverityClass, ExposureClass,
                                    ControllabilityClass))


def _passed(n, text):
    print(f"criterion {n} ({text}): PASS")


def test_criterion_1_psysil_table_fidelity():
    start = time.perf_counter()
    counts = {}
    for s, e, c in ALL_INPUTS:
        level = determine_psysil(s, e, c)
        printed = PRINTED_CELLS.get((s.name, e.name, c.name))
        expected = PsySilLevel[printed] if printed else PsySilLevel.QM
        assert level == expected, (s, e, c)
        # Additive closed-form oracle.
        total = int(s) + int(e) + int(c)
        oracle = PsySilLevel.QM if total <= 6 else PsySilLevel(total - 6)
        assert level == oracle, (s, e, c)
        counts[level] = counts.get(level, 0) + 1
    assert counts == {PsySilLevel.QM: 18, PsySilLevel.A: 8,
                      PsySilLevel.B: 6, PsySilLevel.C: 3, PsySilLevel.D: 1}
    assert len(psysil_table()) == 36
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, "table matches all 36 printed/oracle cells")


def test_criterion_2_monotonicity():
    start = time.perf_counter()
    for s, e, c in ALL_INPUTS:
        level = determine_psysil(s, e, c)
        if s < SeverityClass.S3:
            assert determine_psysil(SeverityClass(s + 1), e, c) >= level
        if e < ExposureClass.E4:
            assert determine_psysil(s, ExposureClass(e + 1), c) >= level
        if c < ControllabilityClass.C3:
            assert determine_psysil(s, e, ControllabilityClass(c + 1)) \
                >= level
    assert time.perf_counter() - start < 1.0
    _passed(2, "level never decreases on any single-parameter increment")


def test_criterion_3_worked_example_reproduction():
    start = time.perf_counter()
    proc = psysafe("psysil", "S2", "E4", "C1")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert proc.stdout == "PsySIL A\n"
    assert elapsed < 1.0
    _passed(3, "psysil S2 E4 C1 prints PsySIL A")


def test_criterion_4_corpus_check():
    start = time.perf_counter()
    proc = psysafe("check", *CORPUS_ARGS)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    found = []
    for line in lines:
        m = re.search(r"(warning|error|info)\[(PSY\d{3})\]: .*?"
                      r"\b(H\d|UCA\d)\b", line)
        assert m, line
        assert m.group(1) == "warning"
        found.append((m.group(2), m.group(3)))
    assert sorted(found) == [("PSY005", "H4"), ("PSY006", "UCA1"),
                             ("PSY007", "H1"), ("PSY007", "H3"),
                             ("PSY007", "H4"), ("PSY007", "H5")]
    strict = psysafe("check", "--strict", *CORPUS_ARGS)
    assert strict.returncode == 1
    assert elapsed < 1.0
    _passed(4, "corpus check: exactly six warnings, exit 0; strict exit 1")


def test_criterion_5_traceability_goldens(corpus_model, corpus_config,
                                          repo_root, monkeypatch):
    monkeypatch.chdir(repo_root)
    start = time.perf_counter()
    first = emit_json(build_report(corpus_model, corpus_config))
    second = emit_json(build_report(corpus_model, corpus_config))
    assert first == second
    doc = json.loads(first)
    assert doc["matrices"]["goal_hazard"] == {
        "SG1": ["H1"], "SG2": ["H1", "H2", "H5"], "SG3": ["H3"],
        "SG4": ["H4"], "SG5": ["H5"]}
    assert doc["matrices"]["hazard_loss"] == {
        "H1": ["L2"], "H2": ["L2"], "H3": ["L1", "L2", "L3"],
        "H4": ["L3"], "H5": ["L1", "L2"]}
    assert time.perf_counter() - start < 1.0
    _passed(5, "goal x hazard and hazard x loss matrices, byte-stable")


def test_criterion_6_round_trip_500_models(corpus_model):
    start = time.perf_counter()
    assert round_trip(corpus_model) == corpus_model
    for seed in range(500):
        model = random_model(seed)
        assert round_trip(model) == model, f"seed {seed}"
    assert time.perf_counter() - start < 30.0
    _passed(6, "corpus and 500 generated models round-trip")


def test_criterion_7_lint_mutation_suite():
    start = time.perf_counter()
    assert set(MUTATION_RULES) == {
        "PSY001", "PSY002", "PSY003", "PSY004", "PSY005", "PSY006",
        "PSY007", "PSY009", "PSY010", "PSY011", "PSY012", "PSY013",
        "PSY014"}
    from tests.mutations import all_diagnostics, load_clean
    model, allows = load_clean()
    clean = all_diagnostics(model, allows)
    assert clean == []
    for rule in MUTATION_RULES:
        hits = [d for d in mutant_diagnostics(rule) if d.rule == rule]
        assert len(hits) == 1, rule
    assert time.perf_counter() - start < 5.0
    _passed(7, "each rule fires exactly once on its mutant, never on "
               "the clean fixture")


def test_criterion_8_control_loop_validation(corpus_model):
    start = time.perf_counter()
    assert validate_structure(corpus_model.structure,
                              corpus_model.spans) == []
    structure = corpus_model.structure
    without_inform = structure._replace(
        feedbacks=tuple(f for f in structure.feedbacks
                        if f.id != "FB_inform"))
    diags = validate_structure(without_inform, corpus_model.spans)
    assert [d.rule for d in diags] == ["PSY010"]
    assert diags[0].related == ("CA_takeover",)
    assert time.perf_counter() - start < 1.0
    _passed(8, "corpus structure clean; dropping ADS-to-driver feedback "
               "yields exactly one PSY010")
