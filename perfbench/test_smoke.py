"""Smoke test of the benchmark harness at the smallest size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every op of every workload once on tiny inputs, through the CLI and
through the traced replay, and checks that the harness's own checks pass
and bite. No timing assertions.
"""

import argparse
import os

import pytest

import gen
import run

TINY = 0.01  # 16 units instead of 1,600


@pytest.fixture(scope="module")
def env():
    os.chdir(run.ROOT)
    run.WORK.mkdir(exist_ok=True)
    run.preflight(run.child_env())
    return run.child_env()


def test_generator_is_seeded():
    first = gen.generate(7, 12, "x")
    assert first.files == gen.generate(7, 12, "x").files
    assert first.files != gen.generate(8, 12, "x").files
    assert first.files[-1][1].count("\r\n") == first.files[-1][1].count("\n")


def test_defects_cover_every_class():
    base = gen.generate(7, 200, "x")
    broken = gen.with_syntax_defects(base, 7, 0.15, "y")
    text = "".join(t for _, t in broken.files)
    assert "\\q" in text and " leads_to " in text
    assert sum(broken.defects.values()) > 40


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_op_passes_its_checks(env, name):
    ops, _ = run.WORKLOADS[name](3, TINY)
    for op in ops:
        sample = run.run_op(op, env)
        assert sample.error is None, (op.name, sample.error)
        res, data = run.replay_op(op, env, run.WORK / f"smoke-{name}.json")
        assert res.code == sample.res.code, op.name
        assert data["spans"] or op.name == "psysil"


def test_checks_reject_wrong_output(env):
    ops, _ = run.WORKLOADS["synth-16k"](3, TINY)
    good = run.run_op(ops[0], env).res
    extra = b"x.psy:1:1: error[PSY003]: hazard H1 is not prevented\n"
    for bad in (run.Result(good.code, good.out, good.err + extra, 0, 0),
                run.Result(good.code ^ 1, good.out, good.err, 0, 0),
                run.Result(good.code, good.out[:-40], good.err, 0, 0),
                run.Result(good.code, good.out, b"Traceback\n", 0, 0)):
        assert ops[0].check(bad)


@pytest.mark.parametrize("name", ["paper-cli", "synth-16k"])
def test_traced_run_reports_every_layer_metric(env, name, capsys):
    ops, info = run.WORKLOADS[name](3, TINY)
    args = argparse.Namespace(seed=3, seconds=0)
    metrics, attempted, failed = run.traced(name, ops, info, args, env)
    assert failed == 0 and attempted >= 2 * len(ops)
    assert set(metrics) == set(run.PER_LAYER)
    out = capsys.readouterr().out
    assert "accounting:" in out
    if name in run.SCALED:
        assert "layer structure.coverage_scale_exp" in out
