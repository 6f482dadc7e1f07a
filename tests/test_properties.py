"""Cross-cutting invariants checked over generated models."""

import json
import random

from psysafe.cli import run
from psysafe.lexer import tokenize
from psysafe.lints import LintConfig, run_lints
from psysafe.loader import load_sources
from psysafe.model import DECLS, AnalysisModel, resolve
from psysafe.parser import parse
from psysafe.printer import print_canonical
from psysafe.report import build_report, emit_json
from psysafe.structure import validate_structure

from tests.modelgen import random_model
from tests.test_printer import round_trip


def test_generated_models_satisfy_model_invariants():
    for seed in range(100):
        model = random_model(seed)
        ids = list(model.entity_ids)
        assert len(ids) == len(set(ids)), f"seed {seed}"
        known = set(ids)
        for loss in model.losses:
            assert loss.violates and known.issuperset(loss.violates)
        for hazard in model.hazards:
            assert hazard.leads_to and known.issuperset(hazard.leads_to)
        for goal in model.goals:
            assert goal.prevents and known.issuperset(goal.prevents)
        for resp in model.responsibilities:
            assert resp.derived_from and known.issuperset(resp.derived_from)
        assert 2 <= model.sae_level <= 5


def test_resolve_hands_the_model_its_kind_map():
    # resolve fills the cached _kinds from pass 1's map, built in
    # declaration order; entity_ids keeps the DECLS table order whatever
    # order the declarations came in.
    build = AnalysisModel._kinds.func
    for seed in range(50):
        model = random_model(seed)
        raw, _ = parse(tokenize(print_canonical(model), "m.psy").tokens,
                       "m.psy")
        for decls in (raw.decls, raw.decls[::-1]):
            resolved = resolve(raw._replace(decls=decls))
            assert resolved.__dict__["_kinds"] == build(resolved), seed
            assert list(resolved.entity_ids) == list(build(model)), seed


def test_lints_and_reports_are_pure_functions_of_the_model():
    for seed in range(25):
        model = random_model(seed)
        config = LintConfig()
        assert run_lints(model, config) == run_lints(model, config)
        assert validate_structure(model.structure) == \
            validate_structure(model.structure)
        assert emit_json(build_report(model, config)) == \
            emit_json(build_report(model, config))


def test_reparsed_models_lint_identically():
    # The canonical form carries everything the lints look at. Spans (and
    # with them the sort order) differ, so compare the finding multisets.
    for seed in range(25):
        model = random_model(seed)
        again = round_trip(model)
        a = sorted((d.rule, d.message) for d in run_lints(model, LintConfig()))
        b = sorted((d.rule, d.message) for d in run_lints(again, LintConfig()))
        assert a == b, f"seed {seed}"


def test_printer_output_is_stable():
    for seed in range(25):
        model = random_model(seed)
        assert print_canonical(model) == print_canonical(model)


def _cli_outputs(files, ids, capsys):
    """What the CLI prints on ``files`` that does not name a position:
    the exit code and stdout of fmt, check --coverage and trace --dir both
    from each of ``ids``; the JSON report, its diagnostics as a multiset;
    the Markdown report up to its diagnostics."""
    def stdout(*argv):
        return run([*argv, *files]), capsys.readouterr().out
    code, text = stdout("report", "--format", "json")
    report = json.loads(text)
    report["diagnostics"] = sorted(
        (d["severity"], d["rule"], d["message"], d["related"])
        for d in report["diagnostics"])
    code_md, md = stdout("report", "--format", "md")
    return (stdout("fmt"), stdout("check", "--coverage"),
            [stdout("trace", "--dir", "both", "--from", i) for i in ids],
            code, report, code_md, md.partition("## Diagnostics")[0])


def _shuffled_split(seed):
    """Generated model ``seed``, its canonical text, that text's
    declarations shuffled, the header kept first, and split over one to
    three texts, and the generator, for further draws."""
    model = random_model(seed)
    rng = random.Random(seed)
    text = print_canonical(model)
    header, _, body = text.partition("\n}\n")
    decls = [line + "\n" for line in body.splitlines() if line]
    rng.shuffle(decls)
    cuts = sorted(rng.sample(range(1, len(decls)), rng.randint(0, 2)))
    parts = [decls[a:b] for a, b in zip([0, *cuts], [*cuts, None])]
    parts[0].insert(0, header + "\n}\n")
    return model, text, ["".join(part) for part in parts], rng


def test_resolve_orders_every_collection_by_its_key():
    # resolve alone orders the model; the printer, the reports and the
    # structure checks read it in its order.
    for seed in range(60):
        _, _, parts, _ = _shuffled_split(seed)
        model, _ = load_sources([(f"{i}.psy", p) for i, p in enumerate(parts)])
        for spec in DECLS.values():
            if spec.declares_id:
                ids = [item.id for item in spec.items(model)]
                assert all(a < b for a, b in zip(ids, ids[1:])), \
                    (seed, spec.path)
        assert list(model.assessments) == sorted(model.assessments), seed


def test_declaration_order_and_file_split_never_change_the_outputs(
        tmp_path, monkeypatch, capsys):
    # The canonical text in one file against its declarations shuffled,
    # the header kept first, and split over one to three files.
    monkeypatch.chdir(tmp_path)
    for seed in range(60):
        model, text, parts, rng = _shuffled_split(seed)
        (tmp_path / str(seed)).mkdir()
        split = [f"{seed}/{i}.psy" for i in range(len(parts))]
        for name, part in zip(split, parts):
            (tmp_path / name).write_text(part, encoding="utf-8")
        canonical = f"{seed}/canonical.psy"
        (tmp_path / canonical).write_text(text, encoding="utf-8")
        ids = rng.sample(list(model.entity_ids), 3)
        assert _cli_outputs(split, ids, capsys) == \
            _cli_outputs([canonical], ids, capsys), f"seed {seed}"
