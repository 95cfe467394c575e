import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

from cvnnuniv import network, workers
from cvnnuniv.activations import ActivationSpec, by_name
from cvnnuniv.errors import ActivationSingularityError
from cvnnuniv.grids import random_points
from cvnnuniv.network import (
    NetworkWeights,
    RidgeNetwork,
    ShallowNetwork,
    _cmul,
    compose,
    eval_network,
    eval_ridge,
    eval_shallow,
    lift_affine,
    linear_combine,
    load_network,
    network_from_json_dict,
    network_to_json_dict,
    restrict_line,
    save_network,
)

RATIO = by_name("ratio")
ABS2 = by_name("abs2")


def passthrough_net():
    # single neuron computing sigma(z)
    return NetworkWeights((([[1.0]], [0.0]), ([[1.0]], [0.0])))


def random_net(rng, d=1, hidden=(3, 2), scale=2.0):
    widths = (d,) + tuple(hidden) + (1,)
    layers = []
    for j in range(len(widths) - 1):
        a = scale * (rng.random((widths[j + 1], widths[j])) * 2 - 1) + 1j * scale * (
            rng.random((widths[j + 1], widths[j])) * 2 - 1
        )
        b = scale * (rng.random(widths[j + 1]) * 2 - 1) + 1j * scale * (rng.random(widths[j + 1]) * 2 - 1)
        layers.append((a, b))
    return NetworkWeights(tuple(layers))


def _shallow_net(rng, d, width, outer_scale=1.0):
    a, b = (rng.standard_normal((2, width, 2)) @ [1, 1j]) * [[outer_scale], [1.0]]
    w = rng.standard_normal((width, d, 2)) @ [1, 1j]
    return ShallowNetwork(c=0.5 - 0.25j, a=a, w=w, b=b)


def test_eval_identity_like():
    net = passthrough_net()
    assert eval_network(net, RATIO, 1.0) == pytest.approx(0.5)


def test_eval_composed_depth2():
    net = compose(passthrough_net(), passthrough_net())
    assert net.hidden_layers == 2
    assert eval_network(net, RATIO, 1.0) == pytest.approx(1.0 / 3.0)


def test_zero_output_matrix_gives_constant():
    net = NetworkWeights((([[1.0]], [0.0]), ([[0.0]], [7.0 + 2.0j])))
    for z in (0.0, 1.5 - 0.5j, 3.0):
        assert eval_network(net, RATIO, z) == pytest.approx(7.0 + 2.0j)


def test_eval_shallow_cases():
    s = ShallowNetwork(c=0.0, a=[1.0], w=[[1.0]], b=[0.0])
    assert eval_shallow(s, ABS2, 2.0) == pytest.approx(4.0)
    s = ShallowNetwork.constant(5.0)
    assert eval_shallow(s, ABS2, 1.0 - 1.0j) == pytest.approx(5.0)
    s = ShallowNetwork(c=0.0, a=[1.0, -1.0], w=[[1.0], [1.0]], b=[0.0, 0.0])
    assert eval_shallow(s, RATIO, 0.7 + 0.1j) == pytest.approx(0.0)


def test_shallow_conversion_matches():
    rng = np.random.default_rng(0)
    a, w, b = (rng.standard_normal((4, 3, 2)) @ [1, 1j]).T
    s = ShallowNetwork(c=1.0 - 2.0j, a=a, w=w[:, None], b=b)
    zs = random_points(0.0, 2.0, 50, rng)[:, 0]
    direct = eval_shallow(s, RATIO, zs)
    via_net = eval_network(s.to_network(), RATIO, zs)
    assert np.max(np.abs(direct - via_net)) < 1e-14


def test_linear_combine_identity_cases():
    rng = np.random.default_rng(1)
    t1 = random_net(rng)
    t2 = random_net(rng)
    zs = random_points(0.0, 1.5, 40, rng)[:, 0]
    same = linear_combine(t1, t2, 1.0, 0.0)
    assert np.max(np.abs(eval_network(same, RATIO, zs) - eval_network(t1, RATIO, zs))) < 1e-12
    halves = linear_combine(t1, t1, 0.5, 0.5)
    assert np.max(np.abs(eval_network(halves, RATIO, zs) - eval_network(t1, RATIO, zs))) < 1e-12


def test_linear_combine_matches_direct_evaluation():
    rng = np.random.default_rng(2)
    t1 = random_net(rng)
    t2 = random_net(rng)
    alpha, beta = 2.0, -1.0j
    combo = linear_combine(t1, t2, alpha, beta)
    zs = random_points(0.0, 1.5, 100, rng)[:, 0]
    want = alpha * eval_network(t1, RATIO, zs) + beta * eval_network(t2, RATIO, zs)
    got = eval_network(combo, RATIO, zs)
    assert np.max(np.abs(got - want)) < 1e-12


def test_linear_combine_orderings_agree():
    rng = np.random.default_rng(3)
    nets = [random_net(rng) for _ in range(3)]
    zs = random_points(0.0, 1.0, 30, rng)[:, 0]
    left = linear_combine(linear_combine(nets[0], nets[1], 1, 1), nets[2], 1, 1)
    right = linear_combine(nets[0], linear_combine(nets[1], nets[2], 1, 1), 1, 1)
    swapped = linear_combine(nets[1], nets[0], 1, 1)
    assert np.max(np.abs(eval_network(left, RATIO, zs) - eval_network(right, RATIO, zs))) < 1e-12
    assert np.max(
        np.abs(eval_network(swapped, RATIO, zs) - eval_network(linear_combine(nets[0], nets[1], 1, 1), RATIO, zs))
    ) < 1e-12


def test_compose_matches_sequential():
    rng = np.random.default_rng(4)
    inner = random_net(rng, d=1, hidden=(3,), scale=1.0)
    outer = random_net(rng, d=1, hidden=(2, 2), scale=1.0)
    combo = compose(outer, inner)
    assert combo.hidden_layers == inner.hidden_layers + outer.hidden_layers
    zs = random_points(0.0, 1.0, 100, rng)[:, 0]
    want = np.array([eval_network(outer, RATIO, eval_network(inner, RATIO, complex(z))) for z in zs])
    got = eval_network(combo, RATIO, zs)
    assert np.max(np.abs(got - want)) < 1e-12


def test_compose_constant_inner():
    rng = np.random.default_rng(5)
    outer = random_net(rng, hidden=(3,), scale=1.0)
    inner = NetworkWeights((([[0.0]], [0.0]), ([[0.0]], [0.0])))
    combo = compose(outer, inner)
    zs = random_points(0.0, 2.0, 10, rng)[:, 0]
    want = eval_network(outer, RATIO, eval_network(inner, RATIO, 123.0))
    assert np.max(np.abs(eval_network(combo, RATIO, zs) - want)) < 1e-13


def test_compose_requires_scalar_outer():
    rng = np.random.default_rng(6)
    outer = random_net(rng, d=2, hidden=(2,), scale=1.0)
    inner = random_net(rng, d=1, hidden=(2,), scale=1.0)
    with pytest.raises(ValueError):
        compose(outer, inner)


def test_lift_affine():
    rng = np.random.default_rng(7)
    t = random_net(rng, d=1, hidden=(3,), scale=1.0)
    a = np.array([0.3 - 1j, 1.2 + 0.4j])
    b = 0.7 + 0.2j
    lifted = lift_affine(t, a, b)
    zs = random_points([0.0, 0.0], 1.0, 100, rng)
    want = np.array([eval_network(t, RATIO, complex(b + a @ z)) for z in zs])
    got = eval_network(lifted, RATIO, zs)
    assert np.max(np.abs(got - want)) < 1e-12
    # basis direction picks out one coordinate
    e1 = lift_affine(t, [1.0, 0.0], 0.0)
    got = eval_network(e1, RATIO, zs)
    want = eval_network(t, RATIO, zs[:, 0])
    assert np.max(np.abs(got - want)) < 1e-13
    # zero direction gives a constant
    const = lift_affine(t, [0.0, 0.0], b)
    got = eval_network(const, RATIO, zs)
    assert np.max(np.abs(got - eval_network(t, RATIO, complex(b)))) < 1e-13


def test_restrict_line():
    rng = np.random.default_rng(8)
    t = random_net(rng, d=2, hidden=(3,), scale=1.0)
    a = np.array([1.0 + 0.5j, -0.7j])
    b = np.array([0.2, -0.1 + 0.3j])
    line = restrict_line(t, a, b)
    assert line.input_dim == 1
    zs = random_points(0.0, 1.0, 100, rng)[:, 0]
    want = np.array([eval_network(t, RATIO, b + complex(z) * a) for z in zs])
    got = eval_network(line, RATIO, zs)
    assert np.max(np.abs(got - want)) < 1e-12
    const = restrict_line(t, [0.0, 0.0], b)
    assert eval_network(const, RATIO, 5.0) == pytest.approx(eval_network(t, RATIO, b))


def test_lift_restrict_round_trip():
    rng = np.random.default_rng(9)
    t = random_net(rng, d=1, hidden=(2,), scale=1.0)
    a = 1.3 - 0.4j
    round_trip = restrict_line(lift_affine(t, [a], 0.0), [np.conj(a) / abs(a) ** 2], [0.0])
    zs = random_points(0.0, 1.0, 50, rng)[:, 0]
    assert np.max(np.abs(eval_network(round_trip, RATIO, zs) - eval_network(t, RATIO, zs))) < 1e-13


def test_example_4_8_composition_network():
    sig = by_name("example_4_8")
    rho = by_name("rho_c")
    net = compose(passthrough_net(), passthrough_net())
    rng = np.random.default_rng(10)
    zs = random_points(0.0, 2.0, 500, rng)[:, 0]
    zs = np.concatenate([zs, np.linspace(-2, 2, 41) + 0j])
    got = eval_network(net, sig, zs)
    assert np.array_equal(got, rho(zs))


def test_singularity_error():
    tanh = by_name("tanh")
    net = passthrough_net()
    with pytest.raises(ActivationSingularityError, match="activation singularity hit"):
        eval_network(net, tanh, 1j * np.pi / 2)


def _float_reference(t):
    # the bytes of the per-entry float() format the writer replaced
    return json.dumps(
        {
            "format": "cvnn-network/1",
            "d": t.input_dim,
            "L": t.hidden_layers,
            "layers": [
                {
                    "A": [[[float(v.real), float(v.imag)] for v in row] for row in a],
                    "b": [[float(v.real), float(v.imag)] for v in b],
                }
                for a, b in t.layers
            ],
        }
    ).encode()


def test_serialization_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    layers = [(a.copy(), b.copy()) for a, b in random_net(rng, d=2, hidden=(3, 2), scale=1.7).layers]
    specials = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1.7976931348623157e308]
    layers[0][0].flat[:3] = [complex(*specials[0:2]), complex(*specials[2:4]), complex(*specials[4:6])]
    layers[1][1][0] = complex(specials[5], specials[0])
    t = NetworkWeights(tuple(layers))
    path = tmp_path / "net.json"
    save_network(t, path)
    assert path.read_bytes() == _float_reference(t)
    for back in (load_network(path), network_from_json_dict(json.loads(json.dumps(network_to_json_dict(t))))):
        for (a1, b1), (a2, b2) in zip(t.layers, back.layers):
            assert np.array_equal(a1.view(np.uint64), a2.view(np.uint64))
            assert np.array_equal(b1.view(np.uint64), b2.view(np.uint64))
        assert np.signbit(back.layers[0][0][0, 0].real) and np.signbit(back.layers[1][1][0].imag)


def _malformed(edit):
    doc = network_to_json_dict(random_net(np.random.default_rng(3), d=2))
    edit(doc)
    return doc


def _malformed_ridge(edit):
    rng = np.random.default_rng(18)
    net = RidgeNetwork(_shallow_net(rng, 2, 3), random_net(rng, hidden=(3, 2)))
    doc = {
        "format": "cvnn-network/2",
        "ridge": network_to_json_dict(net.ridge.to_network()),
        "trunk": network_to_json_dict(net.trunk),
    }
    edit(doc, rng)
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _malformed(lambda doc: doc["layers"][0]["A"][0].__setitem__(0, [1.0])),
        _malformed(lambda doc: doc["layers"][0]["A"][1].pop()),
        _malformed(lambda doc: doc.__setitem__("format", "cvnn-network/9")),
        _malformed(lambda doc: doc["layers"][1]["b"].__setitem__(0, [None, 1.0])),
        _malformed(lambda doc: doc["layers"][1].pop("b")),
        _malformed(lambda doc: doc.__setitem__("d", 3)),
        _malformed_ridge(lambda doc, rng: doc.__setitem__("trunk", network_to_json_dict(random_net(rng, d=2)))),
        _malformed_ridge(lambda doc, rng: doc.__setitem__("ridge", network_to_json_dict(random_net(rng, d=2)))),
        _malformed_ridge(lambda doc, rng: doc.pop("trunk")),
        _malformed_ridge(lambda doc, rng: doc["trunk"].__setitem__("format", "cvnn-network/2")),
    ],
    ids=[
        "non-pair",
        "ragged",
        "tag",
        "null",
        "missing-key",
        "declared-d",
        "trunk-2-inputs",
        "ridge-depth-2",
        "missing-trunk",
        "nested-tag",
    ],
)
def test_malformed_network_document_raises_value_error(doc):
    with pytest.raises(ValueError):
        network_from_json_dict(doc)


def test_cmul_rounds_like_python_complex_product():
    # NumPy's array multiply may fuse into FMA; the shallow-network arithmetic must round as Python does
    rng = np.random.default_rng(12)
    for n in (3, 8, 1000):
        x, y = rng.standard_normal((2, n, 2)) @ [1, 1j] * rng.uniform(0.1, 10.0, (2, n))
        want = np.array([complex(p) * complex(q) for p, q in zip(x, y)])
        assert np.array_equal(_cmul(x, y).view(np.uint64), want.view(np.uint64))
        want = np.array([complex(x[0]) * complex(q) for q in y])
        assert np.array_equal(_cmul(x[0], y).view(np.uint64), want.view(np.uint64))


def test_eval_shallow_checks_the_input_dimension():
    s = ShallowNetwork(c=0.0, a=[1.0], w=[[1.0, 2.0]], b=[0.0])
    assert eval_shallow(s, ABS2, [1.0, 0.5j]) == pytest.approx(abs(1.0 + 1.0j) ** 2)
    with pytest.raises(ValueError):
        eval_shallow(s, ABS2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        eval_shallow(s, ABS2, np.zeros((4, 3)))


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.uint64)


def _one_shot_network(theta, sigma, batch):
    # the unblocked evaluation: every layer's product over the whole batch at once
    cur = batch
    for a, b in theta.layers[:-1]:
        cur = sigma(cur @ a.T + b)
    a, b = theta.layers[-1]
    return (cur @ a.T + b)[:, 0]


def _one_shot_shallow(s, sigma, batch):
    return np.full(batch.shape[0], s.c, dtype=complex) + sigma(batch @ s.w.T + s.b) @ s.a


@pytest.mark.parametrize("d", [1, 2])
def test_one_point_evaluates_as_inside_a_batch(d):
    # a lone row would go through gemv or dot, which sum in another order than gemm
    rng = np.random.default_rng(13)
    s = _shallow_net(rng, d, 300, outer_scale=1e6)
    deep = random_net(rng, d=d, hidden=(200, 150), scale=30.0)
    ridges = RidgeNetwork(_shallow_net(rng, d, 30, outer_scale=1e6), random_net(rng, hidden=(40, 30), scale=30.0))
    batch = random_points(0.0, 1.5, 40, rng, d=d)
    cases = ((eval_shallow, s), (eval_network, s.to_network()), (eval_network, deep), (eval_ridge, ridges))
    for evaluate, net in cases:
        inside = evaluate(net, RATIO, batch)
        for i, z in enumerate(batch):
            point = z[0] if d == 1 else z
            alone = evaluate(net, RATIO, point)
            assert isinstance(alone, complex)
            assert np.array_equal(_bits(alone), _bits(inside[i]))
            assert np.array_equal(_bits(evaluate(net, RATIO, batch[i : i + 1])), _bits(inside[i : i + 1]))


@pytest.mark.parametrize("d", [1, 2])
def test_row_blocks_leave_every_bit_unchanged(d, monkeypatch):
    rng = np.random.default_rng(14)
    s = _shallow_net(rng, d, 40, outer_scale=1e3)
    deep = random_net(rng, d=d, hidden=(40, 30), scale=5.0)
    monkeypatch.setattr(network, "CHUNK_ENTRIES", 7 * 40)
    step = 7
    for n in (2, 3, step - 1, step, step + 1, 2 * step + 1, 50):
        batch = random_points(0.0, 1.5, n, rng, d=d)
        assert np.array_equal(_bits(eval_shallow(s, RATIO, batch)), _bits(_one_shot_shallow(s, RATIO, batch)))
        assert np.array_equal(_bits(eval_network(deep, RATIO, batch)), _bits(_one_shot_network(deep, RATIO, batch)))
        z = batch[:, 0] if d == 1 else batch
        assert np.array_equal(_bits(eval_network(s.to_network(), RATIO, z)), _bits(eval_shallow(s, RATIO, z)))


def test_row_chunks_cover_the_batch_without_one_row_blocks():
    for width in (1, 3, 1024, 1 << 21):
        for n in (0, 1, 2, 3, 4, 5, 1023, 1024, 1025, 2049, 2050):
            chunks = network._row_chunks(n, width)
            assert chunks[0].start == 0 and chunks[-1].stop == n
            assert all(p.stop == q.start for p, q in zip(chunks, chunks[1:]))
            assert n < 2 or min(r.stop - r.start for r in chunks) >= 2


def test_evaluation_memory_stays_bounded():
    rng = np.random.default_rng(15)
    s = _shallow_net(rng, 1, 2048)
    # 64 ridges of a width-64 trunk: every trunk pre-activation at once would take 524 MB
    ridges = RidgeNetwork(_shallow_net(rng, 1, 64), random_net(rng, hidden=(64,), scale=1.0))
    zs = random_points(0.0, 1.0, 8000, rng)[:, 0]
    for evaluate, net in ((eval_shallow, s), (eval_network, s.to_network()), (eval_ridge, ridges)):
        tracemalloc.start()
        try:
            evaluate(net, RATIO, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole 8000 x 2048 pre-activation alone would take 262 MB
        assert peak < 64 * 2**20


def _dense_expansion(net):
    # one trunk copy per ridge, through the exact network algebra
    r = net.ridge
    lifted = [lift_affine(net.trunk, r.w[j], r.b[j]) for j in range(r.width)]
    dense = linear_combine(lifted[0], lifted[1], r.a[0], r.a[1])
    for j in range(2, r.width):
        dense = linear_combine(dense, lifted[j], 1.0, r.a[j])
    a, b = dense.layers[-1]
    return NetworkWeights(dense.layers[:-1] + ((a, b + r.c),))


@pytest.mark.parametrize("d", [1, 2])
def test_ridge_network_equals_its_dense_expansion(d):
    rng = np.random.default_rng(16)
    for hidden in ((3,), (4, 3), (3, 2, 2)):
        net = RidgeNetwork(_shallow_net(rng, d, 5), random_net(rng, hidden=hidden, scale=1.0))
        dense = _dense_expansion(net)
        assert (net.hidden_layers, net.total_neurons) == (dense.hidden_layers, dense.total_neurons)
        zs = random_points(0.0, 1.0, 60, rng, d=d)
        zs = zs[:, 0] if d == 1 else zs
        assert np.max(np.abs(eval_ridge(net, RATIO, zs) - eval_network(dense, RATIO, zs))) < 1e-12


def test_ridge_network_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    nan, inf = float("nan"), float("inf")
    s = _shallow_net(rng, 2, 4)
    a, w, b = s.a.copy(), s.w.copy(), s.b.copy()
    a[:2] = [complex(-0.0, nan), complex(inf, -inf)]
    w[1, 0], b[3] = complex(0.0, -0.0), complex(nan, -0.0)
    trunk = [(x.copy(), y.copy()) for x, y in random_net(rng, hidden=(3, 2)).layers]
    trunk[1][0][0, 1], trunk[2][1][0] = complex(-inf, 5e-324), complex(-0.0, -0.0)
    net = RidgeNetwork(ShallowNetwork(complex(-0.0, inf), a, w, b), NetworkWeights(tuple(trunk)))
    path = tmp_path / "net.json"
    save_network(net, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "cvnn-network/2"
    assert doc["ridge"]["format"] == doc["trunk"]["format"] == "cvnn-network/1"
    back = load_network(path)
    assert isinstance(back, RidgeNetwork)
    assert np.array_equal(_bits(back.ridge.c), _bits(net.ridge.c))
    for name in ("a", "w", "b"):
        assert np.array_equal(_bits(getattr(back.ridge, name)), _bits(getattr(net.ridge, name)))
    for (a1, b1), (a2, b2) in zip(net.trunk.layers, back.trunk.layers, strict=True):
        assert np.array_equal(_bits(a1), _bits(a2)) and np.array_equal(_bits(b1), _bits(b2))


def test_pooled_blocks_match_the_serial_loop(monkeypatch, use_workers):
    rng = np.random.default_rng(16)
    s = _shallow_net(rng, 2, 300, outer_scale=1e3)
    cases = (
        (eval_shallow, s),
        (eval_network, s.to_network()),
        (eval_network, random_net(rng, d=2, hidden=(60, 50, 40), scale=3.0)),
        (eval_ridge, RidgeNetwork(_shallow_net(rng, 2, 30, outer_scale=1e3), random_net(rng, hidden=(40, 30)))),
    )
    batch = random_points(0.0, 1.5, 5000, rng, d=2)
    # hundreds of blocks per call, so that the workers interleave
    monkeypatch.setattr(network, "CHUNK_ENTRIES", 1 << 12)
    use_workers(1)
    serial = [evaluate(net, RATIO, batch) for evaluate, net in cases]
    assert workers._pool is None
    # two workers, then more workers than cores with a short switch interval: a lost block write would show
    switch = sys.getswitchinterval()
    for count in (2, (os.cpu_count() or 1) + 2):
        use_workers(count)
        sys.setswitchinterval(1e-5)
        try:
            for (evaluate, net), want in zip(cases, serial):
                assert np.array_equal(_bits(evaluate(net, RATIO, batch)), _bits(want))
            assert workers._pool is not None
        finally:
            sys.setswitchinterval(switch)


_NESTED_RIDGES = """
import numpy as np
from cvnnuniv import network, workers
from cvnnuniv.activations import by_name
from cvnnuniv.network import NetworkWeights, RidgeNetwork, ShallowNetwork

rng = np.random.default_rng(17)
c = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
trunk = NetworkWeights(((c(64, 1), c(64)), (c(1, 64), c(1))))
ridges = RidgeNetwork(ShallowNetwork(0.0, c(64), c(64, 2), c(64)), trunk)
workers._WORKERS = 2
# four ridge blocks, each evaluating its trunk in 64 blocks: nested fan-out would hold both workers waiting
out = network.eval_ridge(ridges, by_name("ratio"), 0.3 * c(4096, 2))
assert out.shape == (4096,) and np.all(np.isfinite(out))
"""


def test_ridge_trunks_inside_workers_do_not_wait_on_the_pool(run_python):
    # in a child process: a deadlocked pool's workers would also block this interpreter's exit
    assert run_python(_NESTED_RIDGES, timeout=120), "eval_ridge did not finish: a worker waits on its own pool"


_FORK_AFTER_POOL = """
import multiprocessing
import numpy as np
from cvnnuniv import network, workers
from cvnnuniv.activations import by_name

rng = np.random.default_rng(18)
s = network.ShallowNetwork(0.0, rng.standard_normal(300), rng.standard_normal((300, 1)), rng.standard_normal(300))
zs = rng.standard_normal(5000) + 0j
workers._WORKERS = 2
want = network.eval_shallow(s, by_name("ratio"), zs)
assert workers._pool is not None


def child():
    raise SystemExit(0 if np.array_equal(network.eval_shallow(s, by_name("ratio"), zs), want) else 1)


proc = multiprocessing.get_context("fork").Process(target=child)
proc.start()
proc.join(60)
if proc.is_alive():
    proc.kill()
    proc.join()
    raise SystemExit("the forked child's evaluation did not finish")
assert proc.exitcode == 0
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_evaluates_on_a_pool_of_its_own(run_python):
    # the child inherits the parent's pool object but none of its threads
    assert run_python(_FORK_AFTER_POOL, timeout=120)


def _reciprocal(z):
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / (z - 2.0)


@pytest.mark.parametrize(
    "sigma, pole",
    [
        (by_name("tanh"), 1j * np.pi / 2),
        (ActivationSpec("reciprocal", fn=_reciprocal), 2.0),
        (_reciprocal, 2.0),
    ],
    ids=["declared", "spec-nonfinite", "callable-nonfinite"],
)
@pytest.mark.parametrize("count", [1, 2])
def test_a_singularity_in_a_late_block_raises(sigma, pole, count, use_workers):
    use_workers(count)
    # eight copies of the neuron z -> sigma(z): 8192 rows per block, the pole in the last of seven blocks
    s = ShallowNetwork(0.0, np.ones(8), np.ones((8, 1)), np.zeros(8))
    zs = np.linspace(-0.5, 0.5, 50000) + 0j
    zs[-1] = pole
    assert len(network._row_chunks(zs.size, s.width)) == 7
    with pytest.raises(ActivationSingularityError, match="activation singularity hit"):
        eval_shallow(s, sigma, zs)
    with pytest.raises(ActivationSingularityError, match="activation singularity hit"):
        eval_network(s.to_network(), sigma, zs)


def test_importing_the_package_starts_no_thread(run_python):
    code = (
        "import threading, cvnnuniv, cvnnuniv.cli\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert cvnnuniv.workers._pool is None\n"
        "import sys\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    assert run_python(code, timeout=60)
