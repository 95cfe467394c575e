import dataclasses
import functools
import json

import numpy as np
import pytest

from cvnnuniv import classifier, constructor, wirtinger
from cvnnuniv.activations import ActivationSpec, by_name
from cvnnuniv.constructor import (
    JET_LIMIT,
    PIVOT_RELU_EPS,
    PSI_WIDTH,
    REAL_STAGE_WIDTH,
    RIDGE_FIT_POINTS,
    ConstructorConfig,
    build_relu_c,
    extract_monomial,
    fd_step_for,
    find_active_point,
    lift_dimension,
    pad_with_identity,
    synthesize_deep,
    synthesize_shallow,
    _rescale_shallow,
    _ridge_parameters,
    _search_grid,
    _wirtinger_tables,
)
from cvnnuniv.errors import NoActivePointError, SynthesisRefusedError
from cvnnuniv.grids import make_grid, random_points
from cvnnuniv.network import RidgeNetwork, ShallowNetwork, eval_network, eval_ridge, eval_shallow
from cvnnuniv.targets import cone, relu_c, resolve_target, rez
from cvnnuniv.wirtinger import jet_entries_at

RATIO = by_name("ratio")
ABS2 = by_name("abs2")
CFG = ConstructorConfig()
UNIT = make_grid(0.0, 1.0, 33).scalars


def test_monomial_fidelity_abs2():
    # the producible monomials of z zbar (its second pure derivatives vanish)
    for m, ell in ((0, 0), (1, 0), (0, 1), (1, 1)):
        mono, failures = extract_monomial(ABS2, {(m, ell): 1.0}, _search_grid(ABS2))
        got = eval_shallow(mono, ABS2, UNIT)
        want = UNIT**m * np.conj(UNIT) ** ell
        assert not failures and np.max(np.abs(got - want)) <= 1e-2, (m, ell)


def test_monomial_fidelity_ratio_all_orders():
    search = _search_grid(RATIO)
    for total in range(1, 7):
        for m in range(total + 1):
            ell = total - m
            mono, failures = extract_monomial(RATIO, {(m, ell): 1.0}, search)
            got = eval_shallow(mono, RATIO, UNIT)
            want = UNIT**m * np.conj(UNIT) ** ell
            assert not failures and np.max(np.abs(got - want)) <= 1e-2, (m, ell)
    # every monomial up to order 6 at once, on one lattice at one theta
    poly = {(m, ell): 1.0 for m in range(7) for ell in range(7 - m)}
    net, failures = extract_monomial(RATIO, poly, search)
    want = sum(UNIT**m * np.conj(UNIT) ** ell for m, ell in poly)
    assert not failures and net.width <= 121 and np.unique(net.b).size == 1
    assert np.max(np.abs(eval_shallow(net, RATIO, UNIT) - want)) <= 1e-2


def test_impossible_monomial_is_inactive():
    # z zbar has no (2, 0) jet anywhere: the monomial is left out and named, the rest is realized
    net, failures = extract_monomial(ABS2, {(2, 0): 1.0, (1, 1): 2.0}, _search_grid(ABS2))
    assert failures == ["(2,0): inactive expansion point"]
    assert np.max(np.abs(eval_shallow(net, ABS2, UNIT) - 2.0 * np.abs(UNIT) ** 2)) <= 1e-2
    net, failures = extract_monomial(ABS2, {(2, 0): 1.0}, _search_grid(ABS2))
    assert failures == ["(2,0): inactive expansion point"] and net.width == 0


def test_zeroth_monomial_is_exact_constant():
    mono, failures = extract_monomial(RATIO, {(0, 0): 1.0}, _search_grid(RATIO))
    assert mono.width == 0 and not failures
    assert eval_shallow(mono, RATIO, 1.3 - 0.7j) == 1.0


def test_abs2_quadratic_extrapolates():
    mono, _ = extract_monomial(ABS2, {(1, 1): 1.0}, _search_grid(ABS2))
    assert eval_shallow(mono, ABS2, 2.0 + 0j) == pytest.approx(4.0, abs=1e-3 * 4)


def test_find_active_point_cases():
    search = make_grid(0.0, 1.0, 11)
    nodes, tables = _wirtinger_tables([(1, 1)])
    theta, rho, active = find_active_point(ABS2, nodes, tables, search)
    assert active.tolist() == [True]
    assert rho[0] == pytest.approx(1.0, rel=1e-6)
    # sin is holomorphic: its dbar jet vanishes at every candidate
    nodes, tables = _wirtinger_tables([(0, 1)])
    _, _, active = find_active_point(by_name("sin"), nodes, tables, search)
    assert active.tolist() == [False]
    # ratio: raw candidates keep the lattice clear of the non-smooth point
    search_r = make_grid(0.0, 1.0, 11, avoid=RATIO.nonsmooth_set, guard=0.25)
    nodes, tables = _wirtinger_tables([(2, 1), (0, 3), (1, 0)])
    theta, rho, active = find_active_point(RATIO, nodes, tables, search_r)
    assert active.all() and np.min(np.abs(rho)) > 0.01 and abs(theta) >= 0.25
    # a candidate that activates more monomials wins over larger jets: abs2 has (1, 1) everywhere, (2, 0) nowhere
    nodes, tables = _wirtinger_tables([(2, 0), (1, 1), (1, 0)])
    _, _, active = find_active_point(ABS2, nodes, tables, search)
    assert active.tolist() == [False, True, True]


@pytest.mark.parametrize(
    "sigma, search",
    [(by_name("sin"), np.zeros(0)), (RATIO, [0.0])],
    ids=["empty-grid", "only-point-on-the-cut"],
)
def test_no_candidate_leaves_every_monomial_inactive(sigma, search):
    # an empty search grid, or one whose only point lies on ratio's non-smooth point, has no candidate theta
    net, failures = extract_monomial(sigma, {(1, 0): 1.0, (0, 0): 0.5}, search)
    assert failures == ["(1,0): inactive expansion point"]
    assert net.width == 0 and eval_shallow(net, sigma, 0.3 + 0.1j) == 0.5
    with pytest.raises(NoActivePointError, match=r"\(1,0\): inactive expansion point"):
        constructor._extract_exactly(sigma, {(1, 0): 1.0}, search)


def _forbidden(*args, **kwargs):
    raise AssertionError("synthesis evaluated a mollified activation")


def test_synthesis_never_mollifies(monkeypatch):
    # every synthesis samples the raw activation, non-smooth ones included
    monkeypatch.setattr(wirtinger.LatticeMollification, "__call__", _forbidden)
    for name in ("zlog", "rho_c", "arcsin_principal"):
        _, cert = synthesize_shallow(by_name(name), cone, (0.0, 1.0), 4, CFG, target_name="cone", gate=False)
        assert cert.failures == (), name
    assert build_relu_c(RATIO, 2.0, 0.1, gate=False).hidden_layers == 2
    # rho_c is linear off its cut, so the surrogate's higher monomials are inactive: an honest failure
    # (its deep synthesis composes rho_c with itself instead)
    with pytest.raises(NoActivePointError, match=r"\(0,2\): inactive expansion point"):
        build_relu_c(by_name("rho_c"), 2.0, 0.1, gate=False)


def test_dilation_stencil_matches_jet_entries():
    # extraction's tables and the classifier's jet sum one Wirtinger expansion in two
    # orders; on one lattice they must agree to the extraction noise floor at the steps it uses
    def f(z):
        return np.exp(0.7 * z) * np.conj(z) ** 2 + np.sin(np.conj(z))

    for theta in (0.3 - 0.2j, -0.45 + 0.6j):
        for top in range(1, JET_LIMIT + 1):
            monomials = [(m, total - m) for total in range(top + 1) for m in range(total + 1)]
            nodes, tables = _wirtinger_tables(monomials)
            samples = f(theta + nodes)
            jets = jet_entries_at(f, np.array([theta]), monomials, step=fd_step_for(top))
            for (m, ell), table in zip(monomials, tables):
                bound = 4 * 2.3e-16 * np.sum(np.abs(table)) * np.max(np.abs(samples))
                assert abs(np.sum(table * samples) - jets[(m, ell)][0]) <= bound, (theta, m, ell)


def test_synthesize_exact_monomial_chain():
    net, cert = synthesize_shallow(
        ABS2, lambda z: z * np.conj(z), (0.0, 1.0), 2, CFG, target_name="abs2_target", gate=False
    )
    assert cert.sup_error <= 1e-3


def test_synthesize_constant_target():
    target = resolve_target("constant:3.0,1.0")
    net, cert = synthesize_shallow(RATIO, target, (0.0, 1.0), 2, CFG, target_name="constant", gate=False)
    assert cert.sup_error <= 1e-6


def test_synthesize_cone_degree6():
    net, cert = synthesize_shallow(RATIO, cone, (0.0, 1.0), 6, CFG, target_name="cone", gate=False)
    assert cert.sup_error <= 0.1
    assert cert.test_grid_size > 3000
    # one (2n+1)^2 lattice at one theta: every neuron has the bias theta
    assert net.width <= 121 and np.unique(net.b).size == 1
    # no worse than one active point and one stencil per monomial (2875 neurons, sup_error 0.0654814)
    assert cert.sup_error <= 0.065481


@pytest.mark.parametrize(
    "name, degree, failures, width",
    [("ratio", 6, 0, 2875), ("sigmoid_split", 6, 7, 2028), ("rho_c", 4, 12, 34), ("zlog", 4, 10, 340), ("arcsin_principal", 4, 10, 340)],
)
def test_one_lattice_fails_no_more_and_is_no_wider(name, degree, failures, width):
    # failures and width bound one active point and one stencil per monomial; sup_error must meet the 0.1
    # budget for sigmoid_split and be no worse than a polynomial fit realized monomial by monomial for the rest
    ceiling = {"ratio": 0.065481, "sigmoid_split": 0.1, "rho_c": 0.914006, "zlog": 0.913414, "arcsin_principal": 0.913414}
    net, cert = synthesize_shallow(by_name(name), cone, (0.0, 1.0), degree, CFG, target_name="cone", gate=False)
    assert len(cert.failures) <= failures and net.width <= width
    # the refit leaves no monomial out
    assert cert.sup_error <= ceiling[name] and not cert.failures


def test_degree_zero_and_an_inactive_lattice_fit_the_constant_alone():
    # a constant activation has no active monomial anywhere: its lattice contributes no neuron
    flat = ActivationSpec(name="flat", fn=lambda z: np.full(z.shape, 0.5 + 0j))
    nets = [
        synthesize_shallow(sigma, cone, (0.0, 1.0), degree, CFG, target_name="cone", gate=False)[0]
        for sigma, degree in ((RATIO, 0), (flat, 3))
    ]
    assert [net.width for net in nets] == [0, 0] and nets[0].c == nets[1].c
    assert abs(nets[0].c - 0.5) <= 0.1


def test_synthesize_off_center_domain():
    center = 0.5 + 0.2j
    target = lambda z: (np.asarray(z) - center) ** 2
    net, cert = synthesize_shallow(RATIO, target, (center, 0.8), 3, CFG, target_name="shifted", gate=False)
    assert cert.sup_error <= 1e-2
    assert cert.domain["center"] == [[0.5, 0.2]]
    assert cert.domain["radius"] == 0.8


def test_synthesize_error_monotone_in_degree():
    sups = []
    for degree in (2, 4, 6):
        _, cert = synthesize_shallow(RATIO, cone, (0.0, 1.0), degree, CFG, target_name="cone", gate=False)
        sups.append(cert.sup_error)
    assert sups[1] <= sups[0] + 1e-12
    assert sups[2] <= sups[1] + 1e-12


def test_synthesize_deterministic():
    certs = [synthesize_shallow(RATIO, cone, (0.0, 1.0), 4, CFG, target_name="cone", gate=False)[1] for _ in range(2)]
    a, b = (json.dumps(cert.to_json_dict(), sort_keys=True, indent=2) for cert in certs)
    assert a == b


def test_shallow_refusal_gate():
    with pytest.raises(SynthesisRefusedError):
        synthesize_shallow(by_name("sin"), cone, (0.0, 1.0), 2, CFG, target_name="cone")


@pytest.mark.parametrize("name", ["sin", "conj_sin", "poly_zzbar"])
def test_deep_refusal_gate(name):
    # holomorphic, antiholomorphic, polynomial
    with pytest.raises(SynthesisRefusedError, match=r"deep_universal verdict is 'no'.*--override.*gate=False"):
        synthesize_deep(by_name(name), cone, 1, 2, (0.0, 1.0), CFG, target_name="cone")


def test_lift_refusal_gate():
    # |z|^2 is polyharmonic of order 2
    with pytest.raises(SynthesisRefusedError, match="shallow_universal verdict is 'no'"):
        lift_dimension(ABS2, rez, (0.0, 1.0), 2, CFG, target_name="rez")


def test_build_relu_c_refusal_gate():
    with pytest.raises(SynthesisRefusedError, match="deep_universal"):
        build_relu_c(by_name("sin"), 2.0, 0.1, gate=True)


def test_example_4_8_passes_the_deep_gate_by_its_relu_witness(monkeypatch):
    # off its cut example_4_8 is a polynomial; sigma(sigma(z)) = max(0, Re z) is what makes it deep universal
    e48 = by_name("example_4_8")
    constructor._require_verdict(e48, "deep_universal")
    monkeypatch.setattr(classifier, "_is_exact_relu_composer", lambda sigma: False)
    with pytest.raises(SynthesisRefusedError, match="'indeterminate'"):
        constructor._require_verdict(e48, "deep_universal")


def _refuse(*args, **kwargs):
    raise AssertionError("a gate ran a test of the other verdict")


def test_deep_gate_skips_the_polyharmonic_search(monkeypatch):
    monkeypatch.setattr(classifier, "detect_polyharmonic", _refuse)
    for name in ("ratio", "example_4_8"):
        constructor._require_verdict(by_name(name), "deep_universal")


def test_shallow_gate_skips_the_deep_tests(monkeypatch):
    monkeypatch.setattr(classifier, "detect_polynomial", _refuse)
    monkeypatch.setattr(classifier, "_directional_residuals", _refuse)
    constructor._require_verdict(RATIO, "shallow_universal")


def _cost(monkeypatch, sigma, run):
    """(sigma points, lattice values formed) of ``run`` on a counting copy of ``sigma``."""
    points, sums = [], []
    cell_values = wirtinger.LatticeMollification._cell_values

    def counting(z):
        points.append(np.size(z))
        return sigma.raw(z)

    def counted_cell_values(self, u, v):
        sums.append(u.size)
        return cell_values(self, u, v)

    monkeypatch.setattr(wirtinger.LatticeMollification, "_cell_values", counted_cell_values)
    run(dataclasses.replace(sigma, fn=counting))
    monkeypatch.undo()
    return sum(points), sum(sums)


def test_deep_gate_cost_on_ratio(monkeypatch):
    # a full classify of ratio evaluates sigma at 929,792 points and forms 37,622 lattice values; no fit residual
    # of ratio is below tol, so the gate forms no derivative jet, and its first-order stencils read 17 of 81 nodes
    cost = _cost(monkeypatch, RATIO, lambda sigma: constructor._require_verdict(sigma, "deep_universal"))
    assert cost == (442368, 2637)


def test_shallow_gate_cost_on_ratio(monkeypatch):
    # the first probe rules out every order, so only the scale and the first probe's two stencils are formed
    cost = _cost(monkeypatch, RATIO, lambda sigma: constructor._require_verdict(sigma, "shallow_universal"))
    assert cost == (131072, 402)


def test_rho_c_shallow_gate_costs_the_full_shallow_stage(monkeypatch):
    # rho_c is linear off its cut, so the first probe leaves every order open and both groups are sampled in full;
    # the first probe's values are held, so the gate forms exactly the values of the full shallow stage (its sigma
    # calls only pad more pieces to the fixed piece length)
    rho_c = by_name("rho_c")
    config = classifier.ClassifierConfig()
    gate = _cost(monkeypatch, rho_c, lambda sigma: constructor._require_verdict(sigma, "shallow_universal"))
    stage = _cost(
        monkeypatch,
        rho_c,
        lambda sigma: classifier._shallow_stage(sigma, classifier._prepared_points(sigma, config), config.tol),
    )
    assert gate[1] == stage[1] == 37279


def test_build_relu_c_budget():
    net = build_relu_c(RATIO, 2.0, 0.1, gate=False)
    assert net.hidden_layers == 2
    grid = make_grid(0.0, 2.0, 65)
    err = np.abs(eval_network(net, RATIO, grid.scalars) - relu_c(grid.scalars))
    assert float(np.max(err)) <= 0.1
    for z, want in ((1.0, 1.0), (-1.0, 0.0), (1j, 0.0)):
        assert abs(eval_network(net, RATIO, complex(z)) - want) <= 0.1


def test_build_relu_c_padded_depth3():
    net = build_relu_c(RATIO, 2.0, 0.1, gate=False)
    net3 = pad_with_identity(net, RATIO, 1, 3.0)
    assert net3.hidden_layers == 3
    grid = make_grid(0.0, 2.0, 65)
    err = np.abs(eval_network(net3, RATIO, grid.scalars) - relu_c(grid.scalars))
    assert float(np.max(err)) <= 0.2


def test_synthesize_deep_reduces_to_relu_build():
    net, cert = synthesize_deep(RATIO, relu_c, 1, 2, (0.0, 2.0), CFG, target_name="relu_c", gate=False)
    assert net.hidden_layers == 2
    assert cert.sup_error <= 0.1
    net3, cert3 = synthesize_deep(RATIO, relu_c, 1, 3, (0.0, 2.0), CFG, target_name="relu_c", gate=False)
    assert net3.hidden_layers == 3
    assert cert3.sup_error <= 0.2


def test_deep_relu_c_is_the_padded_pivot_surrogate():
    # ratio builds the surrogate to PIVOT_RELU_EPS; example_4_8 composes with itself to max(0, Re z) exactly
    surrogates = {
        "ratio": build_relu_c(RATIO, 2.0, PIVOT_RELU_EPS, gate=False),
        "example_4_8": constructor.compose(constructor._passthrough_net(), constructor._passthrough_net()),
    }
    for name, surrogate in surrogates.items():
        sigma = by_name(name)
        for L in (2, 3):
            net, _ = synthesize_deep(sigma, relu_c, 1, L, (0.0, 2.0), CFG, target_name="relu_c", gate=False)
            want = pad_with_identity(surrogate, sigma, L - 2, 3.0)
            assert len(net.layers) == len(want.layers) == L + 1, (name, L)
            for (a, b), (wa, wb) in zip(net.layers, want.layers):
                assert np.array_equal(_bits(a), _bits(wa)) and np.array_equal(_bits(b), _bits(wb)), (name, L)


def test_synthesize_deep_chooses_path_by_target_not_label():
    e48 = by_name("example_4_8")
    _, named = synthesize_deep(e48, cone, 1, 2, (0.0, 1.0), CFG, target_name="cone", gate=False)
    _, mislabeled = synthesize_deep(e48, cone, 1, 2, (0.0, 1.0), CFG, target_name="relu_c", gate=False)
    assert (mislabeled.sup_error, mislabeled.network_size) == (named.sup_error, named.network_size)
    # relu_c under any label, and behind a functools.wraps wrapper, takes the surrogate path
    _, labeled = synthesize_deep(e48, relu_c, 1, 2, (0.0, 2.0), CFG, target_name="relu_c", gate=False)
    _, custom = synthesize_deep(e48, functools.wraps(relu_c)(lambda z: relu_c(z)), 1, 2, (0.0, 2.0), CFG, gate=False)
    assert labeled.network_size == custom.network_size == (2, 2)
    assert custom.sup_error == labeled.sup_error


def test_synthesize_shallow_evaluates_target_twice():
    # once on the fit grid and once on the held-out grid
    calls = []

    def counting_cone(z):
        calls.append(z.size)
        return cone(z)

    synthesize_shallow(RATIO, counting_cone, (0.0, 1.0), 6, CFG, target_name="cone", gate=False)
    assert len(calls) == 2


def test_synthesize_deep_generic_path():
    net, cert = synthesize_deep(RATIO, cone, 1, 2, (0.0, 1.0), CFG, target_name="cone", gate=False)
    assert net.hidden_layers == 2
    assert cert.sup_error <= 0.15
    # every ridge shares one 1-input trunk; the size counts the trunk once per ridge
    assert isinstance(net, RidgeNetwork) and net.trunk.input_dim == 1
    assert cert.network_size == (2, net.ridge.width * net.trunk.total_neurons)
    grid = make_grid(0.0, 1.0, 65)
    assert cert.sup_error == float(np.max(np.abs(cone(grid.scalars) - eval_ridge(net, RATIO, grid.scalars))))
    # on C^2 each ridge reads its own direction w[j]
    net2, cert2 = synthesize_deep(RATIO, cone, 2, 2, (0.0, 1.0), CFG, target_name="cone", gate=False)
    assert net2.ridge.w.shape == (net2.ridge.width, 2)
    assert cert2.network_size == cert.network_size
    assert cert2.sup_error <= 0.25


def test_example_4_8_deep_succeeds_shallow_refused():
    e48 = by_name("example_4_8")
    with pytest.raises(SynthesisRefusedError):
        synthesize_shallow(e48, cone, (0.0, 1.0), 4, CFG, target_name="cone")
    net, cert = synthesize_deep(e48, cone, 1, 2, (0.0, 1.0), CFG, target_name="cone")
    assert cert.sup_error <= 0.1


def test_lift_dimension_ridge_target():
    net, cert = lift_dimension(RATIO, rez, (0.0, 1.0), 2, CFG, target_name="rez", gate=False)
    assert net.input_dim == 2
    assert cert.sup_error <= 0.05


def test_lift_dimension_constant():
    target = resolve_target("constant:0.5,-0.25")
    net, cert = lift_dimension(RATIO, target, (0.0, 1.0), 2, CFG, target_name="constant", gate=False)
    assert cert.sup_error <= 1e-6


def test_lift_dimension_cone_slice():
    cone_z1 = lambda z: np.maximum(0.0, 1.0 - np.abs(np.asarray(z)[:, 0])) + 0j
    net, cert = lift_dimension(RATIO, cone_z1, (0.0, 1.0), 2, CFG, target_name="cone_z1", gate=False)
    assert cert.sup_error <= 0.15
    assert "stage1_sup" in cert.stage_errors


def test_extract_monomial_validation():
    search = _search_grid(RATIO)
    with pytest.raises(ValueError, match="jet limit"):
        extract_monomial(RATIO, {(5, 5): 1.0}, search)
    with pytest.raises(ValueError, match="nonnegative"):
        extract_monomial(RATIO, {(-1, 0): 1.0}, search)


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


def _assert_same_network(net, a, w, b, c):
    for got, want in ((net.a, a), (net.w, w), (net.b, b), ([net.c], [c])):
        assert np.array_equal(_bits(got), _bits(want))


def _arrays(terms):
    """(a, w, b) stacked from per-neuron (a_j, w_j, b_j) tuples."""
    return [np.array([t[k] for t in terms]) for k in range(3)]


def test_shallow_arrays_round_as_the_per_neuron_formulas():
    # reference: one (a_j, w_j, b_j) per neuron, a_j = sum c * table[j] / rho in Python complex arithmetic
    poly = {(2, 1): 0.7, (1, 0): -0.3j, (0, 2): 1.1 + 0.2j}
    search = _search_grid(RATIO)
    monomials = sorted(poly)
    nodes, tables = _wirtinger_tables(monomials)
    theta, rho, active = find_active_point(RATIO, nodes, tables, search)
    terms = []
    for j, w_node in enumerate(nodes):
        a_j = 0j
        for key, r, table, ok in zip(monomials, rho, tables, active):
            if ok:
                a_j = a_j + complex(np.complex128(poly[key]) / r) * complex(table[j])
        if a_j != 0:
            terms.append((a_j, np.array([w_node]), theta))

    net, failures = extract_monomial(RATIO, poly, search)
    assert net.width == len(terms)
    _assert_same_network(net, *_arrays(terms), 0.0)

    factor = 0.7 - 1.3j
    scaled = [(factor * a, w, b) for a, w, b in terms]
    _assert_same_network(net.scaled(factor), *_arrays(scaled), factor * 0j)

    center, radius = 0.3 - 0.2j, 1.3
    moved = [(a, w / radius, b - complex(w[0]) * center / radius) for a, w, b in terms]
    _assert_same_network(_rescale_shallow(net, center, radius), *_arrays(moved), 0.0)


def test_lifted_net_is_ridges_of_the_psi_fit(monkeypatch):
    # record the fits; the certificate is not needed here
    fits = []

    def record(*args, fn=constructor._refit_design, **kwargs):
        fits.append(fn(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(constructor, "_refit_design", record)
    monkeypatch.setattr(constructor, "_certificate", lambda *args, **kwargs: None)
    net, _ = lift_dimension(RATIO, rez, (0.0, 1.0), 2, CFG, target_name="rez", gate=False)
    # fits in call order: psi, the ideal ReLU ridges, the substituted refit
    (alpha, _), _, (coef, _) = fits

    # replay the seeded draws: psi's u_k and c_k, then the ridge stage's fit points and ridges
    rng = np.random.default_rng(CFG.seed)
    u_k = random_points(0.0, 2.0, PSI_WIDTH, rng)[:, 0]
    c_k = random_points(0.0, 2.0, PSI_WIDTH, rng)[:, 0]
    center = np.zeros(2, dtype=complex)
    fit_pts = random_points(center, 1.0, RIDGE_FIT_POINTS, rng, d=2)
    w, gamma = _ridge_parameters(rng, REAL_STAGE_WIDTH, 2, 1.0)
    s = 1.05 * np.maximum(np.max(np.abs((fit_pts - center) @ w.T + gamma), axis=0), 1e-9)
    bias = [gamma[j] / s[j] - (w[j] @ center) / s[j] for j in range(REAL_STAGE_WIDTH)]

    assert isinstance(net, RidgeNetwork) and net.input_dim == 2
    _assert_same_network(net.ridge, coef[1:] * s, w / s[:, None], bias, coef[0])
    (u, c), (a, const) = net.trunk.layers
    for got, want in ((u, u_k[:, None]), (c, c_k), (a, alpha[None, 1:]), (const, alpha[:1])):
        assert np.array_equal(_bits(got), _bits(want))

    # the same function as the dense shallow net of every (ridge j, psi neuron k) neuron
    r = net.ridge
    dense = ShallowNetwork(
        r.c + np.sum(r.a) * alpha[0],
        (r.a[:, None] * alpha[None, 1:]).ravel(),
        (u_k[None, :, None] * r.w[:, None, :]).reshape(-1, 2),
        (c_k[None, :] + u_k[None, :] * r.b[:, None]).ravel(),
    )
    zs = random_points(center, 1.0, 50, np.random.default_rng(3), d=2)
    # the sums cancel (|alpha_0| ~ 2e4), so the tolerance is relative to the sum of the absolute terms
    terms = ShallowNetwork(abs(dense.c), np.abs(dense.a), dense.w, dense.b)
    scale = eval_shallow(terms, lambda x: np.abs(RATIO(x)), zs).real
    gap = np.abs(eval_ridge(net, RATIO, zs) - eval_shallow(dense, RATIO, zs))
    assert np.all(gap <= 1e-12 * scale)


def _lstsq_refit(design, fvals, lawson=0):
    """The per-pass lstsq Lawson loop that every design took before the factored solve: (coef, sup, winning pass)."""
    w = np.ones(fvals.size)
    best = None
    for k in range(1 + lawson):
        root = np.sqrt(w)
        coef, *_ = np.linalg.lstsq(design * root[:, None], fvals * root, rcond=None)
        resid = np.abs(fvals - design @ coef)
        if best is None or np.max(resid) < best[1]:
            best = (coef, float(np.max(resid)), k)
        w = w * (resid + 1e-12)
        w = w / np.mean(w)
    return best


def _recorded_passes(monkeypatch):
    """The sup residual of every Lawson pass that later refits make, in order."""
    sups = []

    def lawson(weighted_fit, residual, n, passes, fn=constructor._lawson):
        def recorded(solution):
            resid = residual(solution)
            sups.append(float(np.max(resid)))
            return resid

        return fn(weighted_fit, recorded, n, passes)

    monkeypatch.setattr(constructor, "_lawson", lawson)
    return sups


def _counted(monkeypatch, name):
    """Count the calls of ``np.linalg.<name>``; the list grows by one per call."""
    calls = []

    def counted(*args, fn=getattr(np.linalg, name), **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _graded_design(rng, n, p, dtype=complex):
    # a full-rank design of condition number about 1e6, with a constant column first
    cols = rng.standard_normal((n, p - 1)) * np.logspace(0, -6, p - 1)
    if dtype is complex:
        cols = cols + 1j * rng.standard_normal((n, p - 1)) * np.logspace(0, -6, p - 1)
    return constructor._design(cols)


def _kinked(rng, n):
    # a target no column fits exactly, so that the Lawson passes trade the mean for the sup
    return np.abs(rng.standard_normal(n)) + 1j * np.maximum(0.0, rng.standard_normal(n))


def test_full_rank_refit_fits_as_the_lstsq_loop(monkeypatch):
    rng = np.random.default_rng(3)
    design, fvals = _graded_design(rng, 600, 40), _kinked(rng, 600)
    sups = _recorded_passes(monkeypatch)
    lstsq_calls = _counted(monkeypatch, "lstsq")
    coef, sup = constructor._refit_design(design, fvals, lawson=4)
    assert lstsq_calls == [] and len(sups) == 5
    monkeypatch.undo()
    want, want_sup, winner = _lstsq_refit(design, fvals, lawson=4)
    fitted, want_fitted = design @ coef, design @ want
    assert np.max(np.abs(fitted - want_fitted)) <= 1e-9 * np.max(np.abs(want_fitted))
    assert abs(sup - want_sup) <= 1e-9 * want_sup
    assert sups.index(min(sups)) == winner


def test_rank_deficient_refit_is_the_lstsq_loop_bit_for_bit():
    rng = np.random.default_rng(4)
    design = _graded_design(rng, 600, 40)
    design = np.concatenate([design, design[:, 5:10] + design[:, 10:15]], axis=1)
    fvals = _kinked(rng, 600)
    coef, sup = constructor._refit_design(design, fvals, lawson=4)
    want, want_sup, _ = _lstsq_refit(design, fvals, lawson=4)
    assert np.array_equal(coef, want) and sup == want_sup


def test_real_design_fits_re_and_im_in_real_arithmetic():
    rng = np.random.default_rng(5)
    design, fvals = _graded_design(rng, 600, 40, dtype=float), _kinked(rng, 600)
    coef, sup = constructor._refit_design(design, fvals)
    want, want_sup, _ = _lstsq_refit(design.astype(complex), fvals)
    assert coef.dtype == complex and coef.shape == want.shape
    assert np.max(np.abs(coef - want)) <= 1e-12 * np.max(np.abs(want))
    assert abs(sup - want_sup) <= 1e-12 * want_sup
    # with Lawson passes a real full-rank design takes the factored solve, still in real arithmetic
    coef, sup = constructor._refit_design(design, fvals, lawson=3)
    want, want_sup, _ = _lstsq_refit(design.astype(complex), fvals, lawson=3)
    assert coef.dtype == complex
    assert np.max(np.abs(design @ coef - design @ want)) <= 1e-9 * np.max(np.abs(design @ want))


@pytest.mark.parametrize("rejected", [{1}, {0, 1, 2, 3, 4}])
def test_a_gram_that_cholesky_rejects_falls_back_to_lstsq(monkeypatch, rejected):
    rng = np.random.default_rng(6)
    design, fvals = _graded_design(rng, 600, 40), _kinked(rng, 600)
    lstsq_calls = _counted(monkeypatch, "lstsq")
    cholesky, passes = np.linalg.cholesky, []

    def rejecting(gram):
        passes.append(gram)
        if len(passes) - 1 in rejected:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(gram)

    monkeypatch.setattr(np.linalg, "cholesky", rejecting)
    coef, sup = constructor._refit_design(design, fvals, lawson=4)
    assert len(passes) == 5 and len(lstsq_calls) == len(rejected)
    monkeypatch.undo()
    want, want_sup, _ = _lstsq_refit(design, fvals, lawson=4)
    if len(rejected) == 5:
        # every pass rejected: the lstsq loop itself
        assert np.array_equal(coef, want) and sup == want_sup
    assert np.max(np.abs(design @ coef - design @ want)) <= 1e-9 * np.max(np.abs(design @ want))


def test_deep_synthesis_solves_one_lstsq(monkeypatch):
    # the ReLU stage-1 fit; the five Lawson passes of the full-rank refit share one factorization
    calls = _counted(monkeypatch, "lstsq")
    synthesize_deep(RATIO, cone, 1, 2, (0.0, 1.0), CFG, target_name="cone", gate=False)
    assert len(calls) == 1
