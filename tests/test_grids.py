import numpy as np
import pytest

from cvnnuniv.errors import GridError
from cvnnuniv.grids import (
    cut_distance,
    line_cut,
    make_grid,
    points_cut,
    random_points,
    ray_cut,
)


def test_unit_grid_contains_axis_points():
    g = make_grid(0.0, 1.0, 3)
    pts = set(np.round(g.scalars, 12))
    for expected in (0, 1, -1, 1j, -1j):
        assert complex(expected) in pts
    # corners of the bounding square fall outside the ball
    assert complex(1 + 1j) not in pts
    assert g.size == 5


def test_all_points_inside_ball():
    g = make_grid(0.5 - 0.25j, 2.0, 17)
    assert np.all(np.abs(g.scalars - (0.5 - 0.25j)) <= 2.0 * (1 + 1e-12))


def test_avoid_real_axis_guard():
    g = make_grid(0.0, 1.0, 9, avoid=(line_cut(0.0, 1.0),))
    guard = 1.0 / 90.0
    assert np.all(np.abs(g.scalars.imag) >= guard)


def test_points_per_axis_precondition():
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 1)


def test_grid_exhausted():
    wall = line_cut(0.0, 1.0)
    with pytest.raises(GridError, match="grid exhausted"):
        make_grid(0.0, 1.0, 3, avoid=(wall,), guard=10.0)


def test_grid_deterministic():
    a = make_grid(0.3 + 0.1j, 1.5, 21, avoid=(points_cut(0.5),))
    b = make_grid(0.3 + 0.1j, 1.5, 21, avoid=(points_cut(0.5),))
    assert np.array_equal(a.points, b.points)


def test_staggered_disjoint_from_regular():
    fit = make_grid(0.0, 1.0, 32, staggered=True)
    test = make_grid(0.0, 1.0, 65)
    shared = set(map(complex, fit.scalars)) & set(map(complex, test.scalars))
    assert not shared


def test_multidim_grid():
    g = make_grid([0.0, 0.0], 1.0, 4)
    assert g.points.shape[1] == 2
    assert np.all(np.linalg.norm(g.points, axis=1) <= 1.0 + 1e-12)


def test_cut_distances():
    ray = ray_cut(0.0, -1.0)  # the set (-inf, 0]
    assert cut_distance(-2.0 + 0j, (ray,)) == pytest.approx(0.0)
    assert cut_distance(2.0 + 0j, (ray,)) == pytest.approx(2.0)
    assert cut_distance(-1.0 + 0.5j, (ray,)) == pytest.approx(0.5)
    line = line_cut(0.0, 1j)  # the imaginary axis
    assert cut_distance(3.0 + 5j, (line,)) == pytest.approx(3.0)
    pts = points_cut(1.0, -1j)
    assert cut_distance(0.0, (pts,)) == pytest.approx(1.0)


def test_random_points_in_ball_and_seeded():
    rng = np.random.default_rng(7)
    pts = random_points(1.0 + 1j, 0.5, 200, rng)
    assert np.all(np.abs(pts[:, 0] - (1 + 1j)) <= 0.5)
    rng2 = np.random.default_rng(7)
    pts2 = random_points(1.0 + 1j, 0.5, 200, rng2)
    assert np.array_equal(pts, pts2)
