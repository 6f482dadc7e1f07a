"""The JSON report checked against docs/report-schema.md, transcribed into
a JSON Schema (draft 2020-12). jsonschema is a test dependency only."""

import json

import pytest
from jsonschema import Draft202012Validator

from psysafe.cli import run
from psysafe.printer import print_canonical

from tests.conftest import EDGE_GOLDEN_DIR, GOLDEN_DIR
from tests.modelgen import random_model

IDS = {"type": "array", "items": {"type": "string"}, "uniqueItems": True}


def record(**properties):
    """An object with exactly these keys, all required."""
    return {"type": "object", "properties": properties,
            "required": list(properties), "additionalProperties": False}


INVENTORY = ("stakeholders", "stakes", "losses", "hazards", "goals",
             "responsibilities", "controllers", "processes", "actions",
             "feedbacks", "ucas", "scenarios", "assessments")
LEVELS = ["QM", "A", "B", "C", "D"]

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **record(
        schema={"const": "1"},
        tool_version={"type": "string"},
        title={"type": "string"},
        sae_level={"type": "integer", "minimum": 2, "maximum": 5},
        boundary={"type": ["string", "null"]},
        inventory=record(**{kind: {"type": "integer", "minimum": 0}
                            for kind in INVENTORY}),
        psysil=record(
            hazards={"type": "array", "items": record(
                hazard={"type": "string"},
                severity={"enum": ["S1", "S2", "S3"]},
                exposure={"enum": ["E1", "E2", "E3", "E4"]},
                controllability={"enum": ["C1", "C2", "C3"]},
                level={"enum": LEVELS})},
            goals={"type": "array", "items": record(
                goal={"type": "string"},
                level={"enum": [*LEVELS, "unassessed"]})}),
        matrices=record(**{name: {"type": "object",
                                  "additionalProperties": IDS}
                           for name in ("goal_hazard", "hazard_loss",
                                        "uca_hazard")}),
        uca_coverage={"type": "array", "items": record(
            action={"type": "string"}, not_provided=IDS, provided=IDS,
            wrong_timing=IDS, wrong_duration=IDS)},
        diagnostics={"type": "array", "items": record(
            file={"type": "string"},
            line={"type": "integer", "minimum": 1},
            col={"type": "integer", "minimum": 1},
            severity={"enum": ["error", "warning", "info"]},
            rule={"type": "string", "pattern": "^PSY[0-9]{3}$"},
            message={"type": "string"},
            related={"type": "array", "items": {"type": "string"}})}),
}


def check_report(text):
    """Validate one report document, then what a schema cannot say: the
    order of keys and of entries."""
    doc = json.loads(text)
    errors = [f"{list(e.absolute_path)}: {e.message}"
              for e in Draft202012Validator(SCHEMA).iter_errors(doc)]
    assert errors == []
    assert list(doc) == list(SCHEMA["properties"])
    for key, entries in (("hazard", doc["psysil"]["hazards"]),
                         ("goal", doc["psysil"]["goals"])):
        ids = [entry[key] for entry in entries]
        assert ids == sorted(ids)
    for matrix in doc["matrices"].values():
        assert list(matrix) == sorted(matrix)
        assert all(row == sorted(row) for row in matrix.values())
    diags = [(d["file"], d["line"], d["col"], d["rule"], d["message"])
             for d in doc["diagnostics"]]
    assert diags == sorted(diags)


def report_json(capsys, *argv):
    assert run(["report", "--format", "json", *argv]) in (0, 1)
    return capsys.readouterr().out


def test_schema_is_valid_and_rejects_a_broken_report():
    Draft202012Validator.check_schema(SCHEMA)
    doc = json.loads((GOLDEN_DIR / "report.json").read_text(encoding="utf-8"))
    doc["diagnostics"][0]["rule"] = "W7"
    del doc["inventory"]["ucas"]
    errors = Draft202012Validator(SCHEMA).iter_errors(doc)
    assert sorted(list(e.absolute_path) for e in errors) == [
        ["diagnostics", 0, "rule"], ["inventory"]]


def test_corpus_report_matches_schema(capsys, corpus_files):
    check_report(report_json(capsys, *map(str, corpus_files)))
    check_report((GOLDEN_DIR / "report.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["header_only", "pipes"])
def test_edge_goldens_match_schema(name):
    check_report((EDGE_GOLDEN_DIR / name / "report.json").read_text(
        encoding="utf-8"))


@pytest.mark.parametrize("seed", range(0, 100, 10))
def test_generated_model_reports_match_schema(capsys, tmp_path, seed):
    path = tmp_path / "m.psy"
    path.write_text(print_canonical(random_model(seed)), encoding="utf-8")
    check_report(report_json(capsys, str(path)))
