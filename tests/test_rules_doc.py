"""``docs/rules.md`` states the rule catalog that the code enforces.

The rule table must list :data:`RULES` in order with the same default
severities and descriptions, and each sentence about rules that abort
the run must name exactly the rules the catalog marks.
"""

import re

from psysafe.diagnostics import RULES

from tests.conftest import REPO_ROOT

DOC = (REPO_ROOT / "docs" / "rules.md").read_text(encoding="utf-8")


def test_rule_table_matches_catalog():
    rows = re.findall(r"^\| (PSY\d{3}) \| (\w+) \| (.*) \|$", DOC,
                      re.MULTILINE)
    assert rows == [(r.id, r.default_severity.value, r.description)
                    for r in RULES.values()]


def test_abort_sentences_name_the_marked_rules():
    sentences = [s for s in re.split(r"(?<=[.;])\s+", DOC)
                 if "abort the run" in s]
    assert sentences
    marked = {r.id for r in RULES.values() if r.aborts}
    for sentence in sentences:
        assert set(re.findall(r"PSY\d{3}", sentence)) == marked, sentence
