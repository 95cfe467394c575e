import dataclasses
import os
import sys
import warnings

import numpy as np
import pytest

from cvnnuniv import classifier, wirtinger, workers
from cvnnuniv.activations import by_name
from cvnnuniv.errors import StencilSingularityError
from cvnnuniv.grids import make_grid, random_points
from cvnnuniv.wirtinger import (
    LatticeMollification,
    default_step,
    fd_weights,
    jet_entries_at,
    laplacian_power,
    make_mollifier,
    mollify,
    stencil_halfwidth,
    stencil_steps,
    stencil_weights,
    wirtinger_jet,
)


def zzbar(z):
    return z * np.conj(z)


def zzbar_jet_exact(theta, m, ell):
    # d^m dbar^l (z zbar): nonzero only for m, l <= 1
    table = {
        (0, 0): theta * np.conj(theta),
        (1, 0): np.conj(theta),
        (0, 1): theta,
        (1, 1): 1.0,
    }
    return table.get((m, ell), 0.0)


def test_jet_basic_monomials():
    j = wirtinger_jet(lambda z: z, 0.3 + 0.7j, 1, 1)
    assert j[(1, 0)] == pytest.approx(1.0, abs=1e-10)
    assert j[(0, 1)] == pytest.approx(0.0, abs=1e-10)
    j = wirtinger_jet(zzbar, 1.7 - 0.3j, 1, 1)
    assert j[(1, 1)] == pytest.approx(1.0, abs=1e-9)
    j = wirtinger_jet(lambda z: z**2 * np.conj(z) ** 3, 1.0 + 0j, 2, 3)
    assert j[(2, 3)] == pytest.approx(12.0, rel=1e-6)
    j = wirtinger_jet(np.sin, 0j, 1, 1)
    assert j[(1, 0)] == pytest.approx(1.0, abs=1e-10)
    assert j[(0, 1)] == pytest.approx(0.0, abs=1e-10)


def test_jet_zero_entry_is_direct_evaluation():
    z0 = 0.4 - 1.1j
    j = wirtinger_jet(np.sin, z0, 2, 2)
    assert j[(0, 0)] == complex(np.sin(z0))


def test_laplacian_powers():
    assert laplacian_power(zzbar, 1, 0.6 + 0.1j) == pytest.approx(4.0, rel=1e-9)
    assert laplacian_power(lambda z: zzbar(z) ** 2, 2, -0.4 + 0.9j) == pytest.approx(64.0, rel=1e-8)
    assert laplacian_power(lambda z: z.real + 0j, 1, 1 + 1j) == pytest.approx(0.0, abs=1e-9)


def test_stencil_singularity_detected():
    def bad(z):
        out = np.asarray(1.0 / z, dtype=complex)
        return out

    with pytest.raises(StencilSingularityError, match="stencil hit singularity"):
        wirtinger_jet(bad, 0.0, 1, 1, step=0.5)


def test_monomial_reproduction_identity():
    # jets in the dilation parameter w of phi(w z + theta) reproduce
    # z^m zbar^l (d^m dbar^l phi)(theta)
    theta = 0.3 + 0.2j
    zs = random_points(0.0, 1.0, 12, np.random.default_rng(3))[:, 0]
    cases = [
        (zzbar, lambda m, l: zzbar_jet_exact(theta, m, l)),
        (np.sin, None),
    ]
    for phi, exact in cases:
        ref = wirtinger_jet(phi, theta, 2, 2, step=1e-2)
        scale = max(1.0, max(abs(v) for v in ref.values.values()))
        for m in range(3):
            for ell in range(3):
                want = np.asarray([z**m * np.conj(z) ** ell for z in zs]) * ref[(m, ell)]
                got = np.asarray(
                    [wirtinger_jet(lambda w, z=z: phi(w * z + theta), 0.0, 2, 2, step=1e-2)[(m, ell)] for z in zs]
                )
                assert np.max(np.abs(got - want)) <= 1e-4 * scale, (phi.__name__, m, ell)
                if exact is not None:
                    assert abs(ref[(m, ell)] - exact(m, ell)) <= 1e-4 * scale


def test_affine_chain_rule():
    # Delta^m [g(a z + b)] = |a|^(2m) (Delta^m g)(a z + b)
    rng = np.random.default_rng(4)
    for g in (lambda z: zzbar(z) ** 2, np.sin):
        for _ in range(5):
            a, b = random_points(0.0, 1.5, 2, rng)[:, 0]
            z0 = complex(random_points(0.0, 1.0, 1, rng)[0, 0])
            for m in (1, 2):
                lhs = laplacian_power(lambda z: g(a * z + b), m, z0)
                rhs = abs(a) ** (2 * m) * laplacian_power(g, m, a * z0 + b)
                assert abs(lhs - rhs) <= 1e-3 * max(1.0, abs(rhs))


def test_conjugation_symmetry():
    # jet of conj(f) equals the conjugated, transposed jet of f
    f = lambda z: np.sin(z) + 0.3 * z * np.conj(z) ** 2
    fbar = lambda z: np.conj(f(z))
    z0 = 0.7 - 0.4j
    jf = wirtinger_jet(f, z0, 2, 2)
    jb = wirtinger_jet(fbar, z0, 2, 2)
    for m in range(3):
        for ell in range(3):
            assert jb[(m, ell)] == pytest.approx(np.conj(jf[(ell, m)]), abs=1e-6)


def test_holomorphic_jets_vanish():
    rng = np.random.default_rng(5)
    pts = random_points(0.0, 1.2, 20, rng)[:, 0]
    for name in ("sin", "sinh", "tanh"):
        spec = by_name(name)
        use = pts
        if name == "tanh":
            use = pts[np.abs(pts.imag) < 0.6]  # keep stencils clear of the poles
        for z0 in use:
            j = wirtinger_jet(spec.raw, complex(z0), 2, 2)
            for m in range(3):
                for ell in range(1, 3):
                    assert abs(j[(m, ell)]) <= 1e-6, (name, m, ell)


def test_mollifier_normalization_and_support():
    spec = make_mollifier(0.05, 64)
    assert spec.weights.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.abs(spec.offsets) < 0.05)


def _rounded(z, spacing):
    # ``z`` rounded per axis to the lattice ``spacing * Z^2``
    out = np.array(z, dtype=complex)
    out.real, out.imag = spacing * np.round(out.real / spacing), spacing * np.round(out.imag / spacing)
    return out


def test_make_mollifier_builds_the_lattice_spec():
    spec = make_mollifier(0.05, np.int64(40))
    assert spec.quadrature_points_per_axis == 40 and type(spec.quadrature_points_per_axis) is int
    assert spec.spacing == pytest.approx(0.0025, rel=1e-15) and spec.weights.size == 1264


@pytest.mark.parametrize(
    "epsilon, q", [(0.05, 0), (0.05, -3), (np.nan, 40), (np.inf, 40), (0.05, 2.5), (0.0, 40), (-0.05, 40)]
)
def test_make_mollifier_validates_its_inputs(epsilon, q):
    with pytest.raises(ValueError, match="epsilon must be finite and positive, and quadrature_points_per_axis"):
        make_mollifier(epsilon, q)


def test_a_spec_whose_nodes_are_off_its_lattice_is_refused():
    # only a hand-built spec can have them: its nodes shifted by 0.3 spacings, or no nodes at all
    spec = make_mollifier(0.05, 40)
    shifted = dataclasses.replace(spec, offsets=spec.offsets + 0.3 * spec.spacing)
    empty = dataclasses.replace(spec, offsets=np.empty(0, dtype=complex), weights=np.empty(0))
    for bad in (shifted, empty):
        with pytest.raises(ValueError, match="the spec's nodes are not on its lattice"):
            mollify(by_name("ratio"), bad)


def test_mollify_preserves_affine():
    affine = by_name("poly_zzbar")  # z + zbar = 2 Re z is affine in (x, y)
    spec = make_mollifier(0.1, 64)
    f = mollify(affine, spec)
    zs = _rounded(random_points(0.0, 2.0, 50, np.random.default_rng(6))[:, 0], spec.spacing)
    assert np.max(np.abs(f(zs) - affine(zs))) <= 1e-12


def test_mollify_rho_c():
    rho = by_name("rho_c")
    eps = 0.05
    f = mollify(rho, make_mollifier(eps, 64))
    # far from the crease the kernel sees only the affine part
    assert f(0.5 + 0.3j) == pytest.approx(0.5, abs=1e-12)
    # at the crease the value sits strictly inside (0, eps)
    v = complex(f(0.0))
    assert 0.0 < v.real < eps and abs(v.imag) < 1e-12
    # high-resolution quadrature oracle pins the value
    oracle = complex(mollify(rho, make_mollifier(eps, 512))(0.0))
    assert v.real == pytest.approx(oracle.real, rel=1e-2)


def test_jet_entry_at_matches_pointwise():
    f = lambda z: np.sin(z) + z * np.conj(z)
    zs = random_points(0.0, 1.5, 7, np.random.default_rng(8))[:, 0]
    batch = jet_entries_at(f, zs, [(1, 1)], step=0.01)[(1, 1)]
    single = np.array([wirtinger_jet(f, complex(z), 1, 1, step=0.01)[(1, 1)] for z in zs])
    assert np.max(np.abs(batch - single)) < 1e-10


def _lattice_points(spec, centers, seed, step=4, half=5, reach=700):
    # square stencils of (2 half + 1)^2 lattice points, ``step`` spacings apart, around random lattice points;
    # with half=0 the points are scattered, and their windows share no samples
    rng = np.random.default_rng(seed)
    a, b = rng.integers(-reach, reach, (2, centers, 1, 1))
    offs = step * np.arange(-half, half + 1)
    a, b = np.broadcast_arrays(a + offs[:, None], b + offs[None, :])
    return (a * spec.spacing + 1j * (b * spec.spacing)).ravel()


def _by_nodes(sigma, spec, z):
    # the reference: the node-by-node quadrature at ``z``, and the same sum of |samples| to scale its error
    samples = sigma.raw(z[:, None] - spec.offsets[None, :])
    samples = np.where(np.isfinite(samples), samples, 0.0)
    return samples @ spec.weights, np.abs(samples) @ spec.weights


def _assert_is_the_node_quadrature(got, sigma, spec, z):
    want, scale = _by_nodes(sigma, spec, z)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("name", ["ratio", "zlog", "arcsin_principal", "example_4_8"])
def test_mollify_on_lattice_matches_direct_quadrature(name):
    sigma = by_name(name)
    spec = make_mollifier(0.05, 40)
    z = np.concatenate([_lattice_points(spec, 4, 11), _lattice_points(spec, 200, 12, half=0)])
    _assert_is_the_node_quadrature(LatticeMollification(sigma, spec)(z), sigma, spec, z)


def test_lattice_mollification_refuses_points_off_the_lattice():
    # a point off the lattice, or past its reach, is refused, not rounded; rounded onto the lattice it is the node quadrature
    sigma = by_name("zlog")
    spec = make_mollifier(0.05, 40)
    z = random_points(0.0, 2.0, 500, np.random.default_rng(12))[:, 0]
    f = LatticeMollification(sigma, spec)
    for bad in (z, np.array([(wirtinger._LATTICE_REACH + 1) * spec.spacing + 0j])):
        with pytest.raises(ValueError, match="off the mollifier's lattice"):
            f(bad)
    on = _rounded(z, spec.spacing)
    _assert_is_the_node_quadrature(f(on), sigma, spec, on)


def test_mollify_refuses_one_off_lattice_point_in_a_lattice_batch():
    # nothing is sampled or held for the refused batch
    spec = make_mollifier(0.05, 12)
    z = _lattice_points(spec, 3, 25)
    z[17] += 0.4 * spec.spacing
    f = mollify(by_name("ratio"), spec)
    with pytest.raises(ValueError, match="off the mollifier's lattice"):
        f(z)
    assert f.held_values == 0 and not f.canvas.have.any()


def test_mollify_is_the_lattice_mollification():
    # one mollified function: mollify builds a LatticeMollification, whose values are a fresh instance's
    sigma = by_name("zlog")
    spec = make_mollifier(0.05, 12)
    z = _lattice_points(spec, 30, 16)
    f = mollify(sigma, spec)
    assert isinstance(f, LatticeMollification) and f.spec is spec
    assert np.array_equal(f(z).view(np.uint64), LatticeMollification(sigma, spec)(z).view(np.uint64))


def test_mollify_is_nan_at_non_finite_points():
    f = mollify(by_name("ratio"), make_mollifier(0.05, 12))
    bad = np.array([np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 0.3)])
    # on the lattice (36 + 12 i and -60 + 30 i spacings)
    good = np.array([0.3 + 0.1j, -0.5 + 0.25j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f(np.concatenate([bad, good]))
    assert np.all(np.isnan(got[: bad.size]))
    assert np.array_equal(got[bad.size :].view(np.uint64), mollify(by_name("ratio"), make_mollifier(0.05, 12))(good).view(np.uint64))


# budgets: a 128 x 128 canvas and no values, so every cell below samples into a canvas of its own, and a
# 1024 x 1024 canvas over some of the cells with room for 100 values
_SMALL_BUDGETS = [128**2, 1024**2 + 100]


@pytest.mark.parametrize("name", ["ratio", "abs2"])
def test_lattice_mollification_value_does_not_depend_on_batch_or_held_samples(name, monkeypatch):
    # abs2's z * conj(z) is a complex product, which NumPy may round differently in long arrays
    sigma = by_name(name)
    spec = make_mollifier(0.05, 40)
    z = np.concatenate([_lattice_points(spec, 2, 13, step=20, half=6), _lattice_points(spec, 100, 14, half=0)])
    # p alone samples only its own window; inside its stencil (about 8e4 samples at once), and again once
    # held, it reads samples shared with its neighbours
    p = z[60:61]
    cold = LatticeMollification(sigma, spec)(p)
    f = LatticeMollification(sigma, spec)
    batch = f(z)
    assert f.canvas.have.any()
    warm = f(p)
    bits = cold.view(np.uint64)
    assert np.array_equal(batch[60:61].view(np.uint64), bits)
    assert np.array_equal(warm.view(np.uint64), bits)
    assert np.array_equal(f(z[::-1])[::-1].copy().view(np.uint64), batch.view(np.uint64))
    # a smaller canvas holds only the samples of the cells inside it, without moving a bit
    for budget in _SMALL_BUDGETS:
        monkeypatch.setattr(wirtinger, "_HELD", budget)
        small = LatticeMollification(sigma, spec)
        for _ in range(2):
            assert np.array_equal(small(z).view(np.uint64), batch.view(np.uint64))
            assert small.canvas.samples.size + small.held_values <= budget


def test_lattice_mollification_holds_samples_under_the_budget(monkeypatch):
    sigma = by_name("ratio")
    spec = make_mollifier(0.05, 40)
    # 80 stencils of 13 x 13 points 20 spacings apart need about 6M samples, most of them outside the canvas
    first = _lattice_points(spec, 80, 15, step=20, half=6, reach=4000)
    both = np.concatenate([first, _lattice_points(spec, 80, 16, step=20, half=6, reach=4000)])
    for budget in [wirtinger._HELD, *_SMALL_BUDGETS]:
        monkeypatch.setattr(wirtinger, "_HELD", budget)
        f = LatticeMollification(sigma, spec)
        side = f.canvas.samples.shape[0]
        assert f.canvas.samples.shape == (side, side) and f.canvas.u0 == f.canvas.v0 == -side // 2
        room = budget - side**2
        assert 0 <= room < budget
        # values are held while the budget has room, and none is dropped for later ones
        for z in (first, both):
            f(z)
            assert f.held_values == min(np.unique(z).size, room) == sum(keys.size for keys, _ in f.values.values())


def _formed(f, monkeypatch):
    """Counts of the lattice values ``f`` forms, one entry per :meth:`_cell_values` call."""
    counts = []
    cell_values = f._cell_values

    def counted(u, v):
        counts.append(u.size)
        return cell_values(u, v)

    monkeypatch.setattr(f, "_cell_values", counted)
    return counts


@pytest.mark.parametrize("name", ["ratio", "abs2"])
def test_held_value_has_the_same_bits_fresh_held_duplicated_and_past_the_budget(name, monkeypatch):
    sigma = by_name(name)
    spec = make_mollifier(0.05, 40)
    z = _lattice_points(spec, 3, 17, step=6, half=4)
    distinct = np.unique(z).size
    pick = np.arange(0, z.size, 9)
    # each picked point alone, on a fresh instance
    fresh = np.array([LatticeMollification(sigma, spec)(p)[0] for p in z[pick, None]]).view(np.uint64)
    f = LatticeMollification(sigma, spec)
    formed = _formed(f, monkeypatch)
    assert np.array_equal(f(z)[pick].view(np.uint64), fresh)
    assert sum(formed) == distinct == f.held_values
    # held: read back without forming a value
    assert np.array_equal(f(z[pick]).view(np.uint64), fresh)
    assert sum(formed) == distinct
    # duplicated within one batch, on a fresh instance
    g = LatticeMollification(sigma, spec)
    twice = g(z[np.concatenate([pick, pick[::-1], pick])])
    assert np.array_equal(twice.reshape(3, -1)[[0, 2]].view(np.uint64), np.stack([fresh, fresh]))
    assert np.array_equal(twice.reshape(3, -1)[1, ::-1].copy().view(np.uint64), fresh)
    assert g.held_values == pick.size
    # a budget that holds a small canvas and part of the values: no value is dropped, none added once full
    monkeypatch.setattr(wirtinger, "_HELD", 128**2 + 100)
    small = LatticeMollification(sigma, spec)
    held = []
    for _ in range(2):
        assert np.array_equal(small(z)[pick].view(np.uint64), fresh)
        held.append(_held_state(small))
        assert small.canvas.samples.size + small.held_values == wirtinger._HELD
    assert held[0] == held[1] and 0 < small.held_values < distinct


def test_lattice_keys_at_the_lattice_reach(monkeypatch):
    # spacing 1/4 puts every lattice point out to _LATTICE_REACH spacings exactly on the lattice;
    # ratio's values there are the directions of the points, so any two corners that share a key differ
    sigma = by_name("ratio")
    spec = make_mollifier(0.5, 4)
    reach = int(wirtinger._LATTICE_REACH)
    ends = np.array([-reach, -reach + 1, -1, 0, 1, reach - 1, reach])
    a, b = np.meshgrid(ends, ends)
    z = (a * spec.spacing + 1j * (b * spec.spacing)).ravel()
    f = LatticeMollification(sigma, spec)
    formed = _formed(f, monkeypatch)
    got = f(z)
    assert sum(formed) == z.size
    _assert_is_the_node_quadrature(got, sigma, spec, z)
    assert np.array_equal(f(z[::-1])[::-1].copy().view(np.uint64), got.view(np.uint64))
    assert sum(formed) == z.size


def _counting(name):
    """(activation, counts): ``name`` whose every call appends its point count to ``counts``."""
    spec, counts = by_name(name), []

    def fn(z):
        counts.append(z.size)
        return spec.raw(z)

    return dataclasses.replace(spec, fn=fn), counts


def _held_state(f):
    """Everything a lattice holds: its canvas's block bitmap and the bits of the blocks it marks, and the value keys and bits per cell."""
    blocks = f.canvas.samples[_held_blocks(f)]
    values = {key: (k.tobytes(), v.view(np.uint64).tobytes()) for key, (k, v) in f.values.items()}
    return f.canvas.have.tobytes(), blocks.view(np.uint64).tobytes(), values, f.held_values


def _held_blocks(f):
    """Boolean mask over the canvas's samples of the blocks it marks held."""
    B = wirtinger._BLOCK
    return np.repeat(np.repeat(f.canvas.have, B, axis=0), B, axis=1)


def _unread_at_sampling(f, monkeypatch):
    """[most cells whose sums ``f`` had not read when it began sampling another cell], over its calls."""
    most, unread = [0], set()
    cell_values = f._cell_values

    class Read:
        def __init__(self, sums):
            self.sums = sums

        def result(self):
            unread.discard(self)
            return self.sums.result()

    def tracked(u, v):
        most[0] = max(most[0], len(unread))
        sums = Read(cell_values(u, v))
        unread.add(sums)
        return sums

    monkeypatch.setattr(f, "_cell_values", tracked)
    return most


@pytest.mark.parametrize("budget", [None, *_SMALL_BUDGETS], ids=["default", "small-canvas", "canvas-and-values"])
def test_pooled_sums_match_the_serial_pass(budget, monkeypatch, use_workers):
    # stencils in about 20 cells, twice over, some inside the canvas and some past it: sigma sees the same
    # points, and the same samples and values are held
    spec = make_mollifier(0.05, 40)
    z = np.concatenate([_lattice_points(spec, 12, 19, step=20, half=3, reach=4000), _lattice_points(spec, 6, 22, step=20, half=3)])
    if budget is not None:
        monkeypatch.setattr(wirtinger, "_HELD", budget)

    def run(count):
        use_workers(count)
        sigma, counts = _counting("ratio")
        f = LatticeMollification(sigma, spec)
        unread = _unread_at_sampling(f, monkeypatch)
        got = [f(z).view(np.uint64), f(z[::-1]).view(np.uint64)]
        assert (workers._pool is not None) == (count > 1)
        # while a cell is sampled, the sums of the _WORKERS cells before it may be pending, and none when serial
        assert unread[0] == (count if count > 1 else 0)
        return got, sum(counts), _held_state(f)

    serial = run(1)
    assert serial[1] > 0
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for count in (2, (os.cpu_count() or 1) + 2):
            got, points, held = run(count)
            assert all(np.array_equal(a, b) for a, b in zip(got, serial[0], strict=True))
            assert (points, held) == serial[1:]
    finally:
        sys.setswitchinterval(switch)


_LATTICE_IN_A_WORKER = """
import numpy as np
from cvnnuniv import workers
from cvnnuniv.activations import by_name
from cvnnuniv.wirtinger import LatticeMollification, make_mollifier

spec = make_mollifier(0.05, 40)
rng = np.random.default_rng(20)
a, b = rng.integers(-4000, 4000, (2, 400))
z = a * spec.spacing + 1j * (b * spec.spacing)
workers._WORKERS = 2
want = LatticeMollification(by_name("ratio"), spec)(z)
# both workers busy with lattice calls whose cells would be handed to the pool they run on
futures = [workers.pool().submit(LatticeMollification(by_name("ratio"), spec), z) for _ in range(2)]
assert all(np.array_equal(f.result().view(np.uint64), want.view(np.uint64)) for f in futures)
"""


def test_a_lattice_called_inside_a_worker_does_not_wait_on_the_pool(run_python):
    # in a child process: a deadlocked pool's workers would also block this interpreter's exit
    assert run_python(_LATTICE_IN_A_WORKER, timeout=120), "the lattice call did not finish: a worker waits on its own pool"


@pytest.mark.parametrize("count", [1, 2])
def test_a_sample_that_raises_in_a_later_cell_surfaces_and_leaves_the_lattice_usable(count, use_workers):
    spec = make_mollifier(0.05, 40)
    ratio = by_name("ratio")
    use_workers(count)
    # stencils inside the canvas, then past it
    for reach in (700, 4000):
        z = _lattice_points(spec, 12, 21, step=20, half=3, reach=reach)
        failing = [True]

        def fn(args):
            # the cells are taken in order of their real index, so only the last ones sample this far right
            if failing[0] and np.any(args.real > 0.8 * z.real.max()):
                raise RuntimeError("sigma failed")
            return ratio.raw(args)

        f = LatticeMollification(dataclasses.replace(ratio, fn=fn), spec)
        with pytest.raises(RuntimeError, match="sigma failed"):
            f(z)
        # the cells before the failing one are formed and held, every value counted once
        assert 0 < f.held_values == sum(keys.size for keys, _ in f.values.values())
        # every block marked held holds sigma's samples: the failing cell marked none of its blocks
        have = f.canvas.have
        assert have.any() == (reach == 700)
        want = LatticeMollification(ratio, spec)
        want(z)
        assert np.all(want.canvas.have[have])
        assert _held_state(f)[1] == want.canvas.samples[_held_blocks(f)].view(np.uint64).tobytes()
        failing[0] = False
        assert np.array_equal(f(z).view(np.uint64), want(z).view(np.uint64))
        assert f.held_values == np.unique(z).size


def test_points_outside_the_canvas_get_a_fresh_instances_bits():
    sigma = by_name("ratio")
    spec = make_mollifier(0.05, 40)
    z = _lattice_points(spec, 12, 23, step=20, half=3, reach=4000)
    f = LatticeMollification(sigma, spec)
    half = f.canvas.samples.shape[0] // 2 * spec.spacing
    outside = (np.abs(z.real) > half + 1) | (np.abs(z.imag) > half + 1)
    assert outside.sum() > z.size // 2
    # the canvas first, then every point alone on a fresh instance, then all at once on a used one
    f(_lattice_points(spec, 4, 24, step=20, half=3))
    alone = np.array([LatticeMollification(sigma, spec)(p)[0] for p in z[outside, None]])
    assert np.array_equal(f(z)[outside].view(np.uint64), alone.view(np.uint64))
    assert not f.canvas.have.all()


def _classifier_snapped_steps():
    # the classifier's steps on the default grid, each scale times the levels of stencil_steps, snapped to its lattice
    lattice = LatticeMollification(by_name("ratio"), classifier._MOLLIFIER)
    levels = stencil_steps(make_grid(0.0, 2.0, classifier.GRID_POINTS_PER_AXIS).scalars, 1.0)
    return {lattice.spacing} | {float(h) for s in (0.01, 0.02, 0.035) for h in lattice.snap_steps(s * levels)}


# steps the callers use: the classifier's default and snapped steps, verify's per-point first-order steps
# 1e-3 (1 + |z|) and halved powers of two, its Laplacian steps, and the constructor's dilation steps
_STEPS = sorted(
    {float(h) for K in range(1, 9) for h in (default_step(K), default_step(K, 0.7 - 1.2j))}
    | _classifier_snapped_steps()
    | {float(h) for h in 1e-3 * (1.0 + np.abs(random_points(0.0, 2.0, 40, np.random.default_rng(18))[:, 0]))}
    | {2.0**-k for k in range(5, 16)}
    | {float(h) for k in (1, 2, 3) for h in stencil_steps(np.array([0.0, 1.0, 1.9j]), 0.12 * np.sqrt(k))}
    | {0.01, 0.015}
)


@pytest.mark.parametrize("K", range(1, 9))
def test_stencil_weights_columns_are_the_per_order_recursion_bit_for_bit(K):
    n = stencil_halfwidth(K)
    offs = np.arange(-n, n + 1)
    for h in _STEPS:
        table = stencil_weights(n, h, K)
        assert table.shape == (2 * n + 1, K + 1)
        for a in range(K + 1):
            assert np.array_equal(table[:, a].view(np.uint64), fd_weights(a, offs * h)[:, a].view(np.uint64)), (h, a)
        assert stencil_weights(n, h, K) is table


def test_stencil_weights_table_is_read_only():
    table = stencil_weights(stencil_halfwidth(4), 0.01, 4)
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    assert np.array_equal(stencil_weights(stencil_halfwidth(4), 0.01, 4), fd_weights(4, 0.01 * np.arange(-5, 6)))


def test_snap_steps_rounds_to_whole_spacings():
    f = LatticeMollification(by_name("ratio"), make_mollifier(0.05, 40))
    steps = np.array([0.01, 0.01 * np.sqrt(2), 0.035 * np.sqrt(2), 1e-4])
    assert np.allclose(f.snap_steps(steps) / 0.0025, [4, 6, 20, 1], rtol=0, atol=1e-12)


def _full_square_entries(f, zs, entries, steps):
    # the reference: every entry from f sampled on the whole (2n+1)^2 square, one step group at a time
    K = max(m + ell for m, ell in entries)
    n = stencil_halfwidth(K)
    offs = np.arange(-n, n + 1)
    out = {e: np.zeros(zs.shape, dtype=complex) for e in entries}
    for h in np.unique(steps):
        sel = steps == h
        vals = f(zs[sel][:, None, None] + h * (offs[:, None] + 1j * offs[None, :]))
        w = stencil_weights(n, float(h), K)
        for e in entries:
            for (a, b), coeff in wirtinger._mixed_coefficients(*e).items():
                out[e][sel] += coeff * np.einsum("i,nij,j->n", w[:, a], vals, w[:, b])
    return out


_ZS = random_points(0.0, 2.0, 60, np.random.default_rng(32))[:, 0]


@pytest.mark.parametrize(
    "steps",
    [
        1e-3 * (1.0 + np.abs(_ZS)),
        2.0 ** -np.random.default_rng(33).integers(7, 14, _ZS.size),
        np.full(_ZS.size, 1e-3),
    ],
    ids=["per-point", "powers-of-two", "1e-3"],
)
@pytest.mark.parametrize("entries", [[(1, 0), (0, 1)], [(0, 1)], [(1, 0)]])
def test_first_order_entries_are_the_full_squares(steps, entries):
    # f is sampled at the cross alone; a node left out adds only zeros, so every entry keeps its bits
    # (== also takes -0 for +0: the sign of an exactly-zero entry may differ)
    f = lambda z: np.tanh(z) * np.exp(0.3 * np.conj(z)) + z * np.conj(z)
    got = jet_entries_at(f, _ZS, entries, step=steps)
    want = _full_square_entries(f, _ZS, entries, steps)
    for e in entries:
        assert np.array_equal(got[e], want[e]), e


@pytest.mark.parametrize(
    "entries", [[(1, 0), (0, 1)], [(1, 1)], [(2, 0), (1, 1), (0, 2)], [(2, 1)], [(2, 2), (1, 1)], [(3, 3)]]
)
@pytest.mark.parametrize("step", [0.01, 1e-3])
def test_stencils_sample_the_nodes_their_weights_read(entries, step):
    # first order: the 17-node cross (d/dx's centre weight is roundoff, not 0, at these steps);
    # a mixed partial reads every node of the square
    sizes = []

    def f(z):
        sizes.append(z.size)
        return np.sin(z)

    zs = np.array([0.2 + 0.1j, -0.5j, 1.1])
    jet_entries_at(f, zs, entries, step=step)
    K = max(m + ell for m, ell in entries)
    n = stencil_halfwidth(K)
    assert sum(sizes) == zs.size * (17 if K == 1 else (2 * n + 1) ** 2)


def _nan_at(node):
    return lambda z: np.where(np.abs(z - node) < 1e-12, np.nan, zzbar(z))


def test_a_non_finite_sample_raises_only_where_a_weight_reads_it():
    h = 0.01
    zs = np.array([0.3 + 0.2j])
    first = [(1, 0), (0, 1)]
    want = jet_entries_at(zzbar, zs, first, step=h)
    # off both axes of the cross: every first-order partial weighs this node by 0
    got = jet_entries_at(_nan_at(zs[0] + h * (2 + 1j)), zs, first, step=h)
    assert all(np.array_equal(got[e], want[e]) for e in first)
    # on the cross, and anywhere on the square once a mixed partial is asked for
    with pytest.raises(StencilSingularityError, match="stencil hit singularity"):
        jet_entries_at(_nan_at(zs[0] + 2 * h), zs, first, step=h)
    with pytest.raises(StencilSingularityError, match="stencil hit singularity"):
        jet_entries_at(_nan_at(zs[0] + h * (2 + 1j)), zs, [(1, 1)], step=h)


def test_a_nonzero_off_centre_value_weight_keeps_the_full_square(monkeypatch):
    # Fornberg's 0th-order column is an exact delta (the centre node zeroes every other weight), but the
    # support reads the table: had roundoff left the off-centre weights nonzero, the whole square would be sampled
    real = wirtinger.stencil_weights

    def perturbed(halfwidth, step, order):
        table = real(halfwidth, step, order).copy()
        table[:, 0] = np.where(table[:, 0] == 0.0, 1e-17, table[:, 0])
        return table

    sizes = []

    def f(z):
        sizes.append(z.size)
        return np.sin(z)

    monkeypatch.setattr(wirtinger, "stencil_weights", perturbed)
    wirtinger._stencil_support.cache_clear()
    try:
        jet_entries_at(f, np.array([0.2 + 0.1j]), [(1, 0), (0, 1)], step=0.01)
    finally:
        wirtinger._stencil_support.cache_clear()
    assert sizes == [81]
