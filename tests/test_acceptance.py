"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import time

import numpy as np

from cvnnuniv.activations import by_name
from cvnnuniv.cli import run_cli
from cvnnuniv.constructor import build_relu_c, pad_with_identity
from cvnnuniv.grids import make_grid, random_points
from cvnnuniv.network import (
    NetworkWeights,
    compose,
    eval_network,
    lift_affine,
    linear_combine,
    restrict_line,
)
from cvnnuniv.targets import cone, relu_c
from cvnnuniv.verify import check_network_invariant, error_floor_experiment, holomorphy_of_best_fit
from cvnnuniv.wirtinger import laplacian_power, wirtinger_jet


def _check(ok, label):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def test_criterion_1_monomial_reproduction():
    theta = 0.3 + 0.2j
    zs = random_points(0.0, 1.0, 25, np.random.default_rng(1))[:, 0]
    worst = 0.0
    for phi in (lambda z: z * np.conj(z), np.sin):
        ref = wirtinger_jet(phi, theta, 2, 2, step=1e-2)
        for m in range(3):
            for ell in range(3):
                want = zs**m * np.conj(zs) ** ell * ref[(m, ell)]
                got = np.array(
                    [wirtinger_jet(lambda w, z=z: phi(w * z + theta), 0.0, 2, 2, step=1e-2)[(m, ell)] for z in zs]
                )
                err = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
                worst = max(worst, float(err))
    _check(worst <= 1e-4, f"criterion 1: monomial reproduction, worst relative error {worst:.2e} <= 1e-4")


def test_criterion_2_affine_chain_rule():
    g = lambda z: (z * np.conj(z)) ** 2
    rng = np.random.default_rng(2)
    pairs = random_points(0.0, 1.5, 20, rng)[:, 0].reshape(10, 2)
    z0 = 0.4 - 0.3j
    worst = 0.0
    for a, b in pairs:
        for m in (1, 2):
            lhs = laplacian_power(lambda z: g(a * z + b), m, z0)
            rhs = abs(a) ** (2 * m) * laplacian_power(g, m, a * z0 + b)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    _check(worst <= 1e-3, f"criterion 2: affine chain rule, worst scaled error {worst:.2e} <= 1e-3")


def test_criterion_3_classifier_table(catalog_reports):
    expected = {
        "ratio": ("yes", "yes"),
        "sigmoid_split": ("yes", "yes"),
        "zlog": ("yes", "yes"),
        "tanh": ("no", "no"),
        "sin": ("no", "no"),
        "sinh": ("no", "no"),
        "conj_sin": ("no", "no"),
        "poly_zzbar": ("no", "no"),
        "abs2": ("no", "no"),
        "rho_c": ("yes", "yes"),
        "example_4_8": ("no", "yes"),
    }
    wrong = []
    for name, (shallow, deep) in expected.items():
        rep = catalog_reports[name]
        if rep.shallow_universal != shallow or rep.deep_universal != deep:
            wrong.append(name)
    if not catalog_reports["example_4_8"].ae_equal_but_discontinuous:
        wrong.append("example_4_8 (ae flag)")
    _check(not wrong, f"criterion 3: classifier verdict table, misclassified = {wrong or 'none'}")


def test_criterion_4_network_algebra():
    rng = np.random.default_rng(4)
    ratio = by_name("ratio")

    def rand_net(d, hidden):
        dims = [d] + list(hidden) + [1]
        layers = []
        for j in range(len(dims) - 1):
            a = rng.standard_normal((dims[j + 1], dims[j])) + 1j * rng.standard_normal((dims[j + 1], dims[j]))
            b = rng.standard_normal(dims[j + 1]) + 1j * rng.standard_normal(dims[j + 1])
            layers.append((a, b))
        return NetworkWeights(tuple(layers))

    zs1 = random_points(0.0, 1.0, 100, rng)[:, 0]
    zs2 = random_points([0.0, 0.0], 1.0, 100, rng)
    worst = 0.0

    t1, t2 = rand_net(1, (3, 2)), rand_net(1, (2, 3))
    combo = linear_combine(t1, t2, 2.0, -1.0j)
    want = 2.0 * eval_network(t1, ratio, zs1) - 1.0j * eval_network(t2, ratio, zs1)
    worst = max(worst, float(np.max(np.abs(eval_network(combo, ratio, zs1) - want))))

    outer, inner = rand_net(1, (2,)), rand_net(1, (3,))
    comp = compose(outer, inner)
    want = np.array([eval_network(outer, ratio, eval_network(inner, ratio, complex(z))) for z in zs1])
    worst = max(worst, float(np.max(np.abs(eval_network(comp, ratio, zs1) - want))))

    t = rand_net(1, (3,))
    a_vec = np.array([0.7 - 0.2j, -0.4 + 1.1j])
    lifted = lift_affine(t, a_vec, 0.3 + 0.1j)
    want = np.array([eval_network(t, ratio, complex(0.3 + 0.1j + a_vec @ z)) for z in zs2])
    worst = max(worst, float(np.max(np.abs(eval_network(lifted, ratio, zs2) - want))))

    t = rand_net(2, (3,))
    b_vec = np.array([0.1, -0.2j])
    line = restrict_line(t, a_vec, b_vec)
    want = np.array([eval_network(t, ratio, b_vec + complex(z) * a_vec) for z in zs1])
    worst = max(worst, float(np.max(np.abs(eval_network(line, ratio, zs1) - want))))

    _check(worst <= 1e-12, f"criterion 4: network algebra exactness, worst deviation {worst:.2e} <= 1e-12")


def test_criterion_5_example_4_8_identity():
    sig = by_name("example_4_8")
    net = compose(
        NetworkWeights((([[1.0]], [0.0]), ([[1.0]], [0.0]))),
        NetworkWeights((([[1.0]], [0.0]), ([[1.0]], [0.0]))),
    )
    pts = random_points(0.0, 2.0, 900, np.random.default_rng(5))[:, 0]
    pts = np.concatenate([pts, np.linspace(-2.0, 2.0, 100) + 0j])
    err = float(np.max(np.abs(eval_network(net, sig, pts) - relu_c(pts))))
    _check(err <= 1e-15, f"criterion 5: composed example_4_8 equals the real-part ReLU, error {err:.1e} <= 1e-15")


def test_criterion_6_constructive_shallow_universality(tmp_path):
    out = tmp_path / "cert.json"
    start = time.time()
    code = run_cli(
        [
            "approximate",
            "--activation",
            "ratio",
            "--target",
            "cone",
            "--degree",
            "6",
            "--radius",
            "1",
            "--out",
            str(out),
        ]
    )
    elapsed = time.time() - start
    cert = json.loads(out.read_text())
    ok = code == 0 and cert["sup_error"] <= 0.1 and elapsed <= 60.0 and cert["test_grid_size"] >= 65 * 65 // 2
    _check(
        ok,
        f"criterion 6: shallow synthesis ratio/cone degree 6, sup_error {cert['sup_error']:.4f} <= 0.1 "
        f"in {elapsed:.1f}s <= 60s",
    )


def test_criterion_7_deep_relu_synthesis():
    ratio = by_name("ratio")
    net = build_relu_c(ratio, 2.0, 0.1, gate=False)
    grid = make_grid(0.0, 2.0, 65)
    err2 = float(np.max(np.abs(eval_network(net, ratio, grid.scalars) - relu_c(grid.scalars))))
    net3 = pad_with_identity(net, ratio, 1, 3.0)
    err3 = float(np.max(np.abs(eval_network(net3, ratio, grid.scalars) - relu_c(grid.scalars))))
    ok = err2 <= 0.1 and err3 <= 0.2 and net.hidden_layers == 2 and net3.hidden_layers == 3
    _check(ok, f"criterion 7: deep ReLU synthesis, L=2 error {err2:.4f} <= 0.1, L=3 error {err3:.4f} <= 0.2")


def test_criterion_8_obstruction_invariants():
    grid = make_grid(0.0, 1.5, 17)
    worst_dbar = 0.0
    for name in ("sin", "tanh"):
        for depth in (1, 2, 3):
            rep = check_network_invariant(by_name(name), depth, "dbar_vanishes", grid, trials=20, seed=0)
            worst_dbar = max(worst_dbar, rep.max_residual)
    worst_lap = 0.0
    for name, n in (("poly_zzbar", 1), ("abs2", 2)):
        for depth in (1, 2):
            m = n**depth + 1
            rep = check_network_invariant(
                by_name(name), depth, f"laplacian_power_vanishes({m})", grid, trials=20, seed=0
            )
            worst_lap = max(worst_lap, rep.max_residual)
    ok = worst_dbar <= 1e-5 and worst_lap <= 1e-4
    _check(
        ok,
        f"criterion 8: obstruction invariants, dbar {worst_dbar:.2e} <= 1e-5, "
        f"Laplacian power {worst_lap:.2e} <= 1e-4",
    )


def test_criterion_9_floor_separation():
    widths = (50, 100, 200)
    ratio_table = error_floor_experiment(by_name("ratio"), cone, widths, (0.0, 1.0), seed=0)
    sin_table = error_floor_experiment(by_name("sin"), cone, widths, (0.0, 1.0), seed=0)
    ratio_l1 = ratio_table.rows[-1][2]
    sin_min = min(r[2] for r in sin_table.rows)
    factor = sin_min / ratio_l1
    dbar = holomorphy_of_best_fit(by_name("sin"), cone, widths, (0.0, 1.0), seed=0)
    ok = factor >= 3.0 and dbar <= 1e-4
    _check(
        ok,
        f"criterion 9: error floor, sin/ratio l1 factor {factor:.1f} >= 3, best-fit dbar {dbar:.1e} <= 1e-4",
    )


def test_criterion_10_determinism(tmp_path):
    runs = {
        "classify": ["classify", "--activation", "ratio", "--seed", "0"],
        "approximate": [
            "approximate",
            "--activation",
            "ratio",
            "--target",
            "cone",
            "--degree",
            "6",
            "--radius",
            "1",
            "--seed",
            "0",
        ],
        "floor": ["floor", "--activation", "ratio", "--target", "cone", "--widths", "50,100,200", "--seed", "0"],
    }
    mismatched = []
    for label, argv in runs.items():
        payloads = []
        for attempt in range(2):
            out = tmp_path / f"{label}_{attempt}.json"
            assert run_cli(argv + ["--out", str(out)]) == 0
            payloads.append(out.read_bytes())
        if payloads[0] != payloads[1]:
            mismatched.append(label)
    _check(not mismatched, f"criterion 10: byte-identical reports, mismatches = {mismatched or 'none'}")
