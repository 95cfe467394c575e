import os
import sys
import time

import numpy as np
import pytest

from cvnnuniv import verify, workers
from cvnnuniv.activations import ActivationSpec, by_name
from cvnnuniv.errors import ActivationSingularityError
from cvnnuniv.grids import make_grid, random_points
from cvnnuniv.network import ShallowNetwork
from cvnnuniv.targets import cone
from cvnnuniv.verify import (
    MAX_LAPLACIAN_POWER,
    FloorTable,
    check_network_invariant,
    error_floor_experiment,
    holomorphy_of_best_fit,
    parse_kind,
)
from cvnnuniv.wirtinger import laplacian_power

GRID = make_grid(0.0, 1.5, 17)


def test_dbar_vanishes_for_holomorphic():
    for name in ("sin", "tanh"):
        for depth in (1, 2):
            rep = check_network_invariant(by_name(name), depth, "dbar_vanishes", GRID, trials=10, seed=0)
            assert rep.max_residual <= 1e-5, (name, depth)


def test_even_antiholomorphic_composition_is_holomorphic():
    rep = check_network_invariant(by_name("conj_sin"), 2, "dbar_vanishes", GRID, trials=10, seed=0)
    assert rep.max_residual <= 1e-5
    rep = check_network_invariant(by_name("conj_sin"), 1, "d_vanishes", GRID, trials=10, seed=0)
    assert rep.max_residual <= 1e-5
    # odd depth does not satisfy dbar == 0
    rep = check_network_invariant(by_name("conj_sin"), 1, "dbar_vanishes", GRID, trials=10, seed=0)
    assert rep.max_residual > 1e-2


def test_polynomial_degree_bound():
    for name, n in (("poly_zzbar", 1), ("abs2", 2)):
        for depth in (1, 2):
            m = n**depth + 1
            rep = check_network_invariant(
                by_name(name), depth, f"laplacian_power_vanishes({m})", GRID, trials=10, seed=0
            )
            assert rep.max_residual <= 1e-4, (name, depth)


def test_abs2_shallow_laplacian_oracle():
    # Delta of sum_j a_j |w_j z + b_j|^2 equals 4 sum_j a_j |w_j|^2, a constant
    abs2 = by_name("abs2")
    rng = np.random.default_rng(3)
    a = random_points(0.0, 2.0, 4, rng)[:, 0]
    w = random_points(0.0, 2.0, 4, rng)[:, 0]
    b = random_points(0.0, 2.0, 4, rng)[:, 0]
    net = ShallowNetwork(c=0.0, a=a, w=w[:, None], b=b)

    def f(z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for j in range(4):
            pre = w[j] * z + b[j]
            out += a[j] * pre * np.conj(pre)
        return out

    oracle = 4.0 * np.sum(a * np.abs(w) ** 2)
    got = laplacian_power(f, 1, 0.4 - 0.2j)
    assert got == pytest.approx(oracle, rel=1e-8)
    # Delta^3 kills the shallow class, Delta alone does not
    rep3 = check_network_invariant(abs2, 1, "laplacian_power_vanishes(3)", GRID, trials=10, seed=0)
    rep1 = check_network_invariant(abs2, 1, "laplacian_power_vanishes(1)", GRID, trials=10, seed=0)
    assert rep3.max_residual <= 1e-4
    assert rep1.max_residual > 1e-1


def test_example_4_8_shallow_nets_harmonic_off_axis():
    e48 = by_name("example_4_8")
    off_axis = make_grid(0.3j, 1.0, 13, avoid=e48.nonsmooth_set, guard=0.2)
    rep = check_network_invariant(e48, 1, "laplacian_power_vanishes(1)", off_axis, trials=10, seed=0)
    assert rep.max_residual <= 1e-5


def test_floor_experiment_regression_bounds():
    table = error_floor_experiment(by_name("ratio"), cone, (200,), (0.0, 1.0), seed=0)
    width, sup, l1 = table.rows[0]
    assert sup <= 0.1

    poly2 = lambda z: 0.3 * np.asarray(z) ** 2 + 0.1 * np.conj(np.asarray(z)) - 0.5
    table = error_floor_experiment(by_name("ratio"), poly2, (200,), (0.0, 1.0), seed=0)
    assert table.rows[0][1] <= 1e-2


def test_floor_separation():
    ratio_table = error_floor_experiment(by_name("ratio"), cone, (50, 100, 200), (0.0, 1.0), seed=0)
    sin_table = error_floor_experiment(by_name("sin"), cone, (50, 100, 200), (0.0, 1.0), seed=0)
    ratio_l1 = ratio_table.rows[-1][2]
    sin_min = min(r[2] for r in sin_table.rows)
    assert sin_min >= 5.0 * ratio_l1


def test_classifier_rejected_floor_exceeds_universal():
    # at equal widths the rejected activation stays at least 3x worse
    widths = (50, 100, 200)
    ratio_table = error_floor_experiment(by_name("ratio"), cone, widths, (0.0, 1.0), seed=0)
    sin_table = error_floor_experiment(by_name("sin"), cone, widths, (0.0, 1.0), seed=0)
    for (w1, _, l1), (w2, _, l2) in zip(ratio_table.rows, sin_table.rows):
        assert w1 == w2
        assert l2 >= 3.0 * l1


def test_holomorphy_of_best_fit():
    for name in ("sin", "tanh"):
        val = holomorphy_of_best_fit(by_name(name), cone, (50,), (0.0, 1.0), seed=0)
        assert val <= 1e-4, name
    with pytest.raises(ValueError, match="not holomorphic"):
        holomorphy_of_best_fit(by_name("ratio"), cone, (50,), (0.0, 1.0), seed=0)


def test_floor_table_formats():
    table = error_floor_experiment(by_name("ratio"), cone, (10, 20), (0.0, 1.0), seed=0)
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "width,sup_error,l1_error"
    assert len(lines) == 3
    doc = table.to_json_dict()
    assert doc["rows"][0]["width"] == 10
    with pytest.raises(ValueError, match="strictly increasing"):
        FloorTable(rows=((20, 0.1, 0.1), (10, 0.1, 0.1)), activation_name="x", target_name="y", fit_method="z")


def test_invariant_report_serializes():
    rep = check_network_invariant(by_name("sin"), 1, "dbar_vanishes", GRID, trials=3, seed=1)
    doc = rep.to_json_dict()
    assert doc["invariant_kind"] == "dbar_vanishes"
    assert doc["networks_tested"] == 3
    assert doc["max_residual"] >= 0.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown invariant kind"):
        check_network_invariant(by_name("sin"), 1, "nonsense", GRID)


def test_parse_kind_takes_short_and_canonical_names():
    assert parse_kind("dbar") == parse_kind("dbar_vanishes") == ("dbar_vanishes", (0, 1), 1.0)
    assert parse_kind("d") == parse_kind("d_vanishes") == ("d_vanishes", (1, 0), 1.0)
    assert parse_kind("laplacian:2") == parse_kind("laplacian_power_vanishes(2)") == ("laplacian_power_vanishes(2)", (2, 2), 16.0)
    assert parse_kind(f"laplacian:{MAX_LAPLACIAN_POWER}")[1] == (MAX_LAPLACIAN_POWER, MAX_LAPLACIAN_POWER)
    too_large = (f"laplacian:{MAX_LAPLACIAN_POWER + 1}", "laplacian:600", "laplacian_power_vanishes(600)")
    for kind in ("laplacian:x", "laplacian:-1", "laplacian:0", "laplacian_power_vanishes(x)", "laplacian_power_vanishes(0)", *too_large):
        with pytest.raises(ValueError):
            parse_kind(kind)
    # the report echoes the canonical name
    assert check_network_invariant(by_name("sin"), 1, "dbar", GRID, trials=1).invariant_kind == "dbar_vanishes"


@pytest.mark.parametrize("trials", [0, -3])
def test_fewer_than_one_trial_is_refused(trials):
    # zero networks would read as a vacuous pass for abs2, which is not holomorphic
    with pytest.raises(ValueError, match="at least one trial"):
        check_network_invariant(by_name("abs2"), 1, "dbar", GRID, trials=trials)


def _sin_unless_far(far):
    """sin, with ``far(z)`` for the result when some argument lies beyond |z| = 3."""

    def fn(z):
        if np.max(np.abs(z)) > 3.0:
            return far(z)
        return np.sin(z)

    return fn


def _raise(exc):
    def far(z):
        raise exc

    return far


def test_singular_features_are_redrawn_and_other_errors_propagate():
    def floor(far):
        sigma = ActivationSpec("sin_near", fn=_sin_unless_far(far))
        return error_floor_experiment(sigma, cone, (10, 20), (0.0, 1.0), seed=0)

    # an arithmetic error or a singularity is redrawn exactly as a non-finite column is
    want = floor(lambda z: np.full(z.shape, np.inf + 0j))
    assert floor(_raise(ZeroDivisionError("pole"))) == want
    assert floor(_raise(ActivationSingularityError("pole"))) == want
    # a bug in sigma is no reason to redraw
    with pytest.raises(TypeError, match="bug"):
        floor(_raise(TypeError("bug")))


def test_floor_designs_are_row_blocks_of_one_ones_column_matrix():
    # the fit and test designs are views of the drawn matrix, with the bits of a ones column glued to the features
    pts = make_grid(0.0, 1.0, 9).scalars
    feats, params = verify._draw_features(by_name("sin"), 5, pts, np.random.default_rng(3))
    assert feats.shape == (pts.size, 6) and len(params) == 5
    fvals = cone(pts)
    design, test_design = feats[:40], feats[40:]
    glued = [np.concatenate([np.ones((rows.shape[0], 1)), rows[:, 1:]], axis=1) for rows in (design, test_design)]
    assert design.flags.c_contiguous and test_design.flags.c_contiguous
    assert np.array_equal(design.view(np.uint64), glued[0].view(np.uint64))
    coef = np.linalg.lstsq(design, fvals[:40], rcond=1e-8)[0]
    want = np.linalg.lstsq(glued[0], fvals[:40], rcond=1e-8)[0]
    assert np.array_equal(coef.view(np.uint64), want.view(np.uint64))
    assert np.array_equal((test_design @ coef).view(np.uint64), (glued[1] @ want).view(np.uint64))


@pytest.mark.parametrize(
    "name, depth, kind",
    [("sin", 3, "dbar"), ("abs2", 2, "laplacian:5"), ("tanh", 3, "dbar")],
    ids=["sin-dbar-L3", "abs2-laplacian5-L2", "tanh-dbar-L3"],
)
def test_pooled_trials_give_the_serial_report(name, depth, kind, use_workers):
    use_workers(1)
    serial = check_network_invariant(by_name(name), depth, kind, GRID, trials=8, seed=0)
    assert workers._pool is None
    if name == "tanh":
        # poles of the composition: the skipped points are summed over the trials too
        assert serial.skipped_points > 0
    switch = sys.getswitchinterval()
    for count in (2, (os.cpu_count() or 1) + 2):
        use_workers(count)
        sys.setswitchinterval(1e-5)
        try:
            assert check_network_invariant(by_name(name), depth, kind, GRID, trials=8, seed=0) == serial
            assert workers._pool is not None
        finally:
            sys.setswitchinterval(switch)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_the_earliest_failing_trial_raises(count, use_workers, monkeypatch):
    # the same networks check_network_invariant draws at seed 4; trials 2 and 6 fail
    rng = np.random.default_rng(4)
    nets = [verify._random_network(rng, 1, 2) for _ in range(8)]
    failing = {nets[k].layers[0][1].tobytes(): k for k in (2, 6)}
    raw_network_fn = verify._raw_network_fn

    def fail_some(net, sigma):
        k = failing.get(net.layers[0][1].tobytes())
        if k is None:
            return raw_network_fn(net, sigma)

        def fail(z):
            if k == 2:
                # the later trial fails first in time
                time.sleep(0.2)
            raise RuntimeError(f"trial {k} failed")

        return fail

    monkeypatch.setattr(verify, "_raw_network_fn", fail_some)
    use_workers(count)
    with pytest.raises(RuntimeError, match="trial 2 failed"):
        check_network_invariant(by_name("sin"), 2, "dbar", GRID, trials=8, seed=4)


_INVARIANTS_IN_WORKERS = """
from cvnnuniv import workers
from cvnnuniv.activations import by_name
from cvnnuniv.grids import make_grid
from cvnnuniv.verify import check_network_invariant

grid = make_grid(0.0, 1.5, 9)
workers._WORKERS = 2
# one check on each worker: had they handed their trials to the pool, both would wait on it
futures = [workers.pool().submit(check_network_invariant, by_name("sin"), 2, "dbar", grid, 6, seed) for seed in (0, 1)]
reports = [f.result() for f in futures]
assert [r.seed for r in reports] == [0, 1] and all(r.networks_tested == 6 for r in reports)
assert reports[0] == check_network_invariant(by_name("sin"), 2, "dbar", grid, 6, 0)
"""


def test_an_invariant_check_inside_a_worker_does_not_wait_on_the_pool(run_python):
    assert run_python(_INVARIANTS_IN_WORKERS, timeout=120), "the check did not finish: a worker waits on its own pool"
