import math

import numpy as np
import pytest

from cvnnuniv.activations import activation_catalog, activation_names, by_name
from cvnnuniv.errors import ActivationSingularityError
from cvnnuniv.grids import cut_distance, random_points


def test_catalog_covers_required_names():
    required = {
        "ratio",
        "sigmoid_split",
        "zlog",
        "rho_c",
        "example_4_8",
        "tanh",
        "sin",
        "sinh",
        "conj_sin",
        "poly_zzbar",
        "abs2",
        "arcsin_principal",
    }
    assert required <= set(activation_names())


def test_ratio_values():
    ratio = by_name("ratio")
    assert ratio(1.0) == pytest.approx(0.5)
    assert ratio(0.0) == 0.0


def test_example_4_8_values():
    sig = by_name("example_4_8")
    assert sig(-1.0 + 0j) == 0.0
    assert sig(-1.0 + 1j) == -1.0
    assert sig(2.0 + 0j) == 2.0


def test_zlog_values():
    zlog = by_name("zlog")
    assert zlog(1.0) == 0.0
    assert zlog(-2.0 + 0j) == 0.0
    assert zlog(0.0) == 0.0
    z = 1j
    assert zlog(z) == pytest.approx(z * np.log(z))


def test_zlog_bounded_on_unit_ball():
    # |z log z| <= sup_{0<r<=1} r (|ln r| + pi) = pi on the closed unit ball
    zlog = by_name("zlog")
    rng = np.random.default_rng(0)
    pts = random_points(0.0, 1.0, 20_000, rng)[:, 0]
    assert np.max(np.abs(zlog(pts))) <= math.pi + 1e-9


def test_marked_continuous_entries_are_continuous():
    # 1e4 random adjacent pairs per activation; refinement shrinks the spread
    rng = np.random.default_rng(1)
    base = random_points(0.0, 2.0, 10_000, rng)[:, 0]
    for spec in activation_catalog():
        if spec.discontinuity_set:
            continue
        gaps = []
        for h in (1e-4, 1e-6):
            step = h * np.exp(2j * np.pi * rng.random(base.size))
            gaps.append(np.max(np.abs(spec(base + step) - spec(base))))
        assert gaps[1] <= max(1e-4, gaps[0]), spec.name


def test_example_4_8_twice_is_rho_c_exactly():
    sig = by_name("example_4_8")
    rho = by_name("rho_c")
    rng = np.random.default_rng(2)
    pts = random_points(0.0, 3.0, 5_000, rng)[:, 0]
    pts = np.concatenate([pts, np.linspace(-3, 3, 101) + 0j])  # real-axis points included
    assert np.array_equal(sig(sig(pts)), rho(pts))
    assert np.array_equal(sig(sig(sig(pts))), rho(pts))


def test_tanh_singularity_is_an_error():
    tanh = by_name("tanh")
    with pytest.raises(ActivationSingularityError):
        tanh(1j * math.pi / 2)
    # fine away from the poles
    assert np.isfinite(tanh(1.0 + 1j))


def _cut_samples(cut):
    """Points of ``cut`` within radius 5 of its anchor (all anchors of a points cut)."""
    if cut.kind == "points":
        return np.asarray(cut.anchors, dtype=complex)
    t = np.linspace(0.0 if cut.kind == "ray" else -5.0, 5.0, 101)
    return cut.anchors[0] + t * cut.direction / abs(cut.direction)


def test_metadata_consistency():
    for spec in activation_catalog():
        # sigma is not smooth where it is not continuous: a discontinuity is non-smooth or singular
        for cut in spec.discontinuity_set:
            dist = cut_distance(_cut_samples(cut), tuple(spec.nonsmooth_set) + tuple(spec.singular_points))
            assert np.max(dist) <= 1e-12, spec.name
        assert spec.locally_bounded, spec.name


def test_smooth_follows_from_the_nonsmooth_set():
    nonsmooth = {"ratio", "zlog", "rho_c", "example_4_8", "arcsin_principal"}
    assert {spec.name: spec.smooth for spec in activation_catalog()} == {
        name: name not in nonsmooth for name in activation_names()
    }


def test_unknown_name():
    with pytest.raises(KeyError, match="unknown activation"):
        by_name("nosuch")
