"""Tests of the benchmark's own arithmetic and of tracing's neutrality."""

import collections

import pytest

import cvnnuniv.cli as cli
import tracing
from cvnnuniv.activations import by_name
from cvnnuniv.cli import run_cli

# root [0, 10] with children [1, 4] (which has a child [2, 3]), [5, 9] and an overlapping [6, 8]
NESTED = [
    ("cli.run_cli", 0.0, 10.0, -1),
    ("constructor.extract_monomial", 1.0, 4.0, 0),
    ("activations.call", 2.0, 3.0, 1),
    ("network.eval_network", 5.0, 9.0, 0),
    ("network.compose", 6.0, 8.0, 0),
]


def test_self_times_subtract_the_union_of_children():
    assert tracing.self_times(NESTED) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_summary_accounts_for_the_whole_pass():
    nested = NESTED[:4]
    out = tracing.summarize(nested, collections.Counter(), -1.0, 12.0)
    assert out["cli.self_s"] == 3.0
    assert out["constructor.self_s"] == 2.0
    assert out["network.self_s"] == 4.0
    assert out["activations.s"] == 1.0
    assert out["network.eval.s"] == 4.0
    assert out["remainder.s"] == 3.0
    layers = sum(v for k, v in out.items() if k.endswith(".self_s")) + out["activations.s"]
    assert layers + out["remainder.s"] == 13.0


def test_call_tree_folds_spans_by_path():
    tree = {path: (calls, total, own) for path, calls, total, own in tracing.call_tree(NESTED)}
    assert tree["cli.run_cli/constructor.extract_monomial/activations.call"] == (1, 1.0, 1.0)
    assert tree["cli.run_cli"] == (1, 10.0, 3.0)


def test_recorder_nests_spans():
    ticks = iter(range(100))
    rec = tracing.Recorder(clock=lambda: next(ticks))
    inner = rec.timed("grids.inner", lambda: None)
    outer = rec.timed("cli.outer", lambda: inner())
    outer()
    assert rec.spans == [("cli.outer", 0, 3, -1), ("grids.inner", 1, 2, 0)]


def test_counting_copy_counts_and_keeps_values():
    rec = tracing.Recorder()
    spec = by_name("ratio")
    copy = tracing.counting_activation(spec, rec)
    z = [0.5 + 0.1j, -2.0, 3j]
    assert copy.raw(z).tobytes() == spec.raw(z).tobytes()
    assert copy == spec and copy is not spec
    assert rec.counts["activations.calls"] == 1 and rec.counts["activations.points"] == 3


JOBS = [
    ["classify", "--activation", "sin"],
    ["approximate", "--activation", "ratio", "--target", "cone", "--degree", "2", "--override"],
    ["invariants", "--activation", "abs2", "--kind", "laplacian:3", "--layers", "1", "--trials", "3"],
    ["floor", "--activation", "zlog", "--target", "cone", "--widths", "20,40"],
]


@pytest.mark.parametrize("argv", JOBS, ids=[j[0] for j in JOBS])
def test_traced_jobs_write_the_same_bytes(tmp_path, argv):
    plain = tmp_path / "plain.json"
    assert run_cli(argv + ["--seed", "3", "--out", str(plain)]) == 0
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        traced = tmp_path / "traced.json"
        assert run_cli(argv + ["--seed", "3", "--out", str(traced)]) == 0
    finally:
        restore()
    assert traced.read_bytes() == plain.read_bytes()
    assert rec.counts["activations.points"] > 0
    assert rec.spans and all(span is not None for span in rec.spans)
    assert cli.run_cli is run_cli and cli.by_name is by_name
