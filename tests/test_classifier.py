import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnnuniv import wirtinger
from cvnnuniv.activations import ActivationSpec, activation_catalog, activation_names, by_name
from cvnnuniv.classifier import (
    _MOLLIFIER,
    ClassifierConfig,
    _deep_stage,
    _prepared_points,
    _shallow_stage,
    _verdict,
    classify,
    detect_holomorphy,
    detect_polyharmonic,
    detect_polynomial,
)
from cvnnuniv.grids import line_cut, make_grid, ray_cut

EXPECTED = {
    "ratio": ("yes", "yes"),
    "sigmoid_split": ("yes", "yes"),
    "zlog": ("yes", "yes"),
    "rho_c": ("yes", "yes"),
    "example_4_8": ("no", "yes"),
    "tanh": ("no", "no"),
    "sin": ("no", "no"),
    "sinh": ("no", "no"),
    "conj_sin": ("no", "no"),
    "poly_zzbar": ("no", "no"),
    "abs2": ("no", "no"),
    "arcsin_principal": ("yes", "yes"),
}


def test_catalog_verdicts(catalog_reports):
    for name, (shallow, deep) in EXPECTED.items():
        rep = catalog_reports[name]
        assert rep.shallow_universal == shallow, name
        assert rep.deep_universal == deep, name
    assert catalog_reports["example_4_8"].ae_equal_but_discontinuous


def test_shallow_yes_implies_deep_yes(catalog_reports):
    for rep in catalog_reports.values():
        if rep.shallow_universal == "yes":
            assert rep.deep_universal == "yes", rep.activation_name


def test_holo_and_anti_only_for_low_degree_polys(catalog_reports):
    for rep in catalog_reports.values():
        if rep.holomorphic and rep.antiholomorphic:
            assert rep.polynomial_degree is not None and rep.polynomial_degree <= 1


def test_bounded_nonconstant_never_polyharmonic(catalog_reports):
    # bounded polyharmonic functions are constant, so these must report none
    for name in ("ratio", "sigmoid_split"):
        assert catalog_reports[name].polyharmonic_order is None


def test_polynomial_tests_agree(catalog_reports):
    tol = ClassifierConfig().tol
    for rep in catalog_reports.values():
        fit = rep.evidence["poly_fit_residuals"]
        deriv = rep.evidence["poly_deriv_residuals"]
        if rep.polynomial_degree is not None:
            g = rep.polynomial_degree
            assert fit[g] < tol and deriv[g] < tol, rep.activation_name
        else:
            assert all(f >= tol or d >= tol for f, d in zip(fit, deriv)), rep.activation_name


def test_expected_orders_and_degrees(catalog_reports):
    assert catalog_reports["abs2"].polyharmonic_order == 2
    assert catalog_reports["abs2"].polynomial_degree == 2
    assert catalog_reports["poly_zzbar"].polyharmonic_order == 1
    assert catalog_reports["poly_zzbar"].polynomial_degree == 1
    assert catalog_reports["example_4_8"].polyharmonic_order == 1
    assert catalog_reports["example_4_8"].polynomial_degree == 1
    for name in ("sin", "sinh", "tanh"):
        assert catalog_reports[name].holomorphic and not catalog_reports[name].antiholomorphic
    assert catalog_reports["conj_sin"].antiholomorphic


def test_tol_shrink_never_flips_yes_to_no(catalog_reports):
    tight = ClassifierConfig(tol=ClassifierConfig().tol / 10.0)
    for name in ("ratio", "abs2", "example_4_8", "sin"):
        was = catalog_reports[name]
        now = classify(by_name(name), tight)
        for field in ("shallow_universal", "deep_universal"):
            if getattr(was, field) == "yes":
                assert getattr(now, field) != "no", name


def test_report_byte_identical():
    a, b = (json.dumps(classify(by_name("abs2")).to_json_dict(), sort_keys=True, indent=2) for _ in range(2))
    assert a == b


def test_detect_polyharmonic_re():
    re_spec = ActivationSpec(name="re_part", fn=lambda z: z.real + 0j)
    grid = make_grid(0.0, 2.0, 9)
    found, order, _ = detect_polyharmonic(re_spec, 4, grid, 1e-4)
    assert found and order == 1


def test_detect_polyharmonic_abs2_order2():
    grid = make_grid(0.0, 2.0, 9)
    found, order, residuals = detect_polyharmonic(by_name("abs2"), 4, grid, 1e-4)
    assert found and order == 2
    assert residuals[0] > 1e-4  # Delta |z|^2 = 4 does not vanish


def test_detect_polyharmonic_ratio_not_found():
    grid = make_grid(0.0, 2.0, 9)
    found, order, residuals = detect_polyharmonic(by_name("ratio"), 4, grid, 1e-4)
    assert not found and order is None
    assert len(residuals) == 4


def test_iterated_laplacian_oracle_for_ratio():
    # independent oracle: nested discrete 5-point Laplacians on a fine mesh
    h = 1e-2
    sigma = by_name("ratio")

    def lap(f, z, h):
        return (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)) / h**2

    f1 = lambda z: sigma.raw(z)
    f2 = lambda z: lap(f1, z, h)
    f3 = lambda z: lap(f2, z, h)
    for z0 in (0.5 + 0.3j, -0.8 + 0.9j):
        assert abs(lap(f1, z0, h)) > 1e-2  # Delta ratio != 0
        assert abs(lap(f3, z0, h)) > 1e-2  # Delta^2 as well


def test_detect_holomorphy_cases():
    tol = 1e-4
    tanh = by_name("tanh")
    grid = make_grid(0.0, 2.0, 15, avoid=tanh.singular_points, guard=0.7)
    assert detect_holomorphy(tanh, grid, tol) == "holomorphic"
    plain = make_grid(0.0, 2.0, 15)
    assert detect_holomorphy(by_name("conj_sin"), plain, tol) == "antiholomorphic"
    assert detect_holomorphy(by_name("sigmoid_split"), plain, tol) == "neither"


def test_sigmoid_split_dbar_oracle():
    # direct stencil oracle at z = 1: dbar sigma = (s'(1) - s'(0)) / 2 != 0
    sigma = by_name("sigmoid_split").raw
    h = 1e-5
    dx = (sigma(1 + h) - sigma(1 - h)) / (2 * h)
    dy = (sigma(1 + 1j * h) - sigma(1 - 1j * h)) / (2 * h)
    dbar = 0.5 * (dx + 1j * dy)
    assert abs(dbar) > 1e-2


def test_detect_polynomial_cases():
    grid = make_grid(0.0, 2.0, 15)
    found, deg, *_ = detect_polynomial(by_name("poly_zzbar"), 4, grid, 1e-4)
    assert found and deg == 1
    found, deg, *_ = detect_polynomial(by_name("abs2"), 4, grid, 1e-4)
    assert found and deg == 2
    found, deg, *_ = detect_polynomial(by_name("ratio"), 4, grid, 1e-4)
    assert not found and deg is None
    with pytest.raises(ValueError, match="max_degree must be at least 0"):
        detect_polynomial(by_name("poly_zzbar"), -1, grid, 1e-4)


def _rounded(pts, spacing):
    # the points rounded per axis to the lattice ``spacing * Z^2``
    out = np.array(pts, dtype=complex)
    out.real, out.imag = spacing * np.round(out.real / spacing), spacing * np.round(out.imag / spacing)
    return out


def _detections(grid, deriv_points, mollifier=None):
    ratio = by_name("ratio")
    return repr(
        (
            detect_polyharmonic(ratio, 4, grid, 1e-4, mollifier=mollifier),
            detect_holomorphy(ratio, grid, 1e-4, mollifier=mollifier),
            detect_polynomial(ratio, 4, grid, 1e-4, mollifier=mollifier, deriv_points=deriv_points),
        )
    )


@pytest.mark.parametrize("epsilon, q", [(None, None), (0.1, 12)], ids=["default", "caller"])
def test_detect_rounds_an_off_lattice_grid_to_the_mollifiers_lattice(epsilon, q):
    # the default mollification (spacing _MOLLIFIER.spacing) or a caller's (spacing 1/60) is tested on its own
    # lattice: every residual has the bits of the grid rounded to it (repr tells apart any two floats)
    mollifier = wirtinger.mollify(by_name("ratio"), wirtinger.make_mollifier(epsilon, q)) if q else None
    spacing = mollifier.spacing if q else _MOLLIFIER.spacing
    pts = make_grid(0.0, 2.0, 15).scalars
    deriv = pts[::4] + 0.3 * spacing
    want = _detections(_rounded(pts, spacing), _rounded(deriv, spacing), mollifier)
    assert _detections(pts, deriv, mollifier) == want


def test_not_locally_bounded_is_indeterminate():
    spec = ActivationSpec(
        name="wild",
        fn=lambda z: z,
        locally_bounded=False,
    )
    rep = classify(spec)
    assert rep.shallow_universal == "indeterminate"
    assert rep.deep_universal == "indeterminate"


def test_ae_branch_decided_by_relu_composition_witness():
    # both equal Re z off a cut, so both are a.e. polynomials yet discontinuous: the ae branch decides
    cut = ray_cut(0.0, -1.0)
    one_on_cut = ActivationSpec(
        name="re_or_one",
        fn=lambda z: np.where((z.imag == 0) & (z.real < 0), 1.0, z.real),
        discontinuity_set=(cut,),
        nonsmooth_set=(cut,),
    )
    rep = classify(one_on_cut)
    assert rep.ae_equal_but_discontinuous
    assert (rep.shallow_universal, rep.deep_universal) == ("no", "indeterminate")
    # a copy of example_4_8 under another name: sigma(sigma(z)) = max(0, Re z) is the witness for "yes"
    e48 = by_name("example_4_8")
    composer = ActivationSpec(
        name="relu_composer",
        fn=e48.raw,
        discontinuity_set=(cut,),
        nonsmooth_set=(line_cut(0.0, 1.0),),
    )
    rep = classify(composer)
    assert rep.ae_equal_but_discontinuous
    assert (rep.shallow_universal, rep.deep_universal) == ("no", "yes")


def test_report_json_fields(catalog_reports):
    doc = catalog_reports["ratio"].to_json_dict()
    for field in (
        "activation_name",
        "polyharmonic_order",
        "holomorphic",
        "antiholomorphic",
        "polynomial_degree",
        "ae_equal_but_discontinuous",
        "shallow_universal",
        "deep_universal",
        "evidence",
        "config_echo",
        "version",
    ):
        assert field in doc


def _copy(spec, fn=None, **changes):
    fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    fields.update(changes)
    return ActivationSpec(fn=fn or spec.raw, **fields)


def test_mollified_classify_evaluates_sigma_once_per_lattice_argument():
    # the mollifier has 316 nodes; evaluating each stencil node's quadrature on its own costs about 1.6e7 points.
    # The radius-1.5 grid steps by 18.75 lattice spacings: its points are rounded to the lattice too (the
    # mollification refuses a point off it)
    ratio = by_name("ratio")
    for radius in (2.0, 1.5):
        points = []

        def counting(z):
            points.append(np.size(z))
            return ratio.raw(z)

        rep = classify(_copy(ratio, fn=counting), ClassifierConfig(grid_radius=radius))
        assert (rep.shallow_universal, rep.deep_universal) == ("yes", "yes")
        assert sum(points) <= 6e6, radius


def test_example_4_8_at_an_off_lattice_radius():
    # off the lattice some quadrature arguments fall on the real axis, where example_4_8 differs from Re z
    rep = classify(by_name("example_4_8"), ClassifierConfig(grid_radius=1.5))
    assert (rep.shallow_universal, rep.deep_universal, rep.polyharmonic_order) == ("no", "yes", 1)
    assert rep.ae_equal_but_discontinuous


MOLLIFIED = ("ratio", "zlog", "rho_c", "example_4_8", "arcsin_principal")


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
def test_mollified_catalog_verdicts_hold_at_every_radius(radius):
    # the verdicts decided through the mollifier's quadrature, on grids inside and outside its sample canvas;
    # the radius-0.5 grid misses arcsin_principal's cuts, a known wrong answer (tests/test_known_defects.py)
    for name in MOLLIFIED:
        if name == "arcsin_principal" and radius == 0.5:
            continue
        rep = classify(by_name(name), ClassifierConfig(grid_radius=radius))
        assert (rep.shallow_universal, rep.deep_universal) == EXPECTED[name], name
        assert rep.ae_equal_but_discontinuous == (name == "example_4_8"), name


@pytest.mark.parametrize("phi", [0.3, 0.7, 1.2, 2.0, 2.9])
def test_rotated_rho_c_is_universal(phi):
    # max(0, Re(e^{i phi} z)) creases on the line Re(e^{i phi} z) = 0, through 0 along i e^{-i phi}
    turn = np.exp(1j * phi)
    rotated = ActivationSpec(
        name=f"rho_c_{phi}",
        fn=lambda z: np.maximum(0.0, (turn * z).real) + 0j,
        nonsmooth_set=(line_cut(0.0, 1j / turn),),
    )
    rep = classify(rotated)
    assert (rep.shallow_universal, rep.deep_universal, rep.polyharmonic_order) == ("yes", "yes", None)


def test_mollified_classify_forms_one_sum_per_distinct_lattice_point(monkeypatch):
    # a lattice value is one sum over the mollifier's nodes; every value the classifier asks for again is read back
    lattice = wirtinger.LatticeMollification
    instances, points, sums = set(), set(), []
    call, cell_values = lattice.__call__, lattice._cell_values

    def counted_call(self, z):
        flat = np.asarray(z, dtype=complex).ravel()
        on_re, a = wirtinger._lattice_index(flat.real, self.spacing)
        on_im, b = wirtinger._lattice_index(flat.imag, self.spacing)
        assert np.all(on_re & on_im)
        instances.add(id(self))
        points.update(zip(a.tolist(), b.tolist()))
        return call(self, z)

    def counted_cell_values(self, u, v):
        assert self.spec is _MOLLIFIER
        sums.append(u.size)
        return cell_values(self, u, v)

    monkeypatch.setattr(lattice, "__call__", counted_call)
    monkeypatch.setattr(lattice, "_cell_values", counted_cell_values)
    classify(by_name("ratio"))
    assert len(instances) == 1
    assert sum(sums) == len(points)


@pytest.mark.parametrize("name", ["abs2", "poly_zzbar", "sin", "conj_sin"])
def test_declaring_a_smooth_activation_nonsmooth_keeps_its_class(name, catalog_reports):
    # mollifying a smooth function commutes with d, dbar and Delta and keeps polynomials of the same
    # degree, so a spurious crease on the imaginary axis must not change the classification
    was = catalog_reports[name]
    rep = classify(_copy(by_name(name), name=f"{name}_nonsmooth", nonsmooth_set=(line_cut(0.0, 1j),)))
    for field in (
        "shallow_universal",
        "deep_universal",
        "polyharmonic_order",
        "polynomial_degree",
        "holomorphic",
        "antiholomorphic",
        "ae_equal_but_discontinuous",
    ):
        assert getattr(rep, field) == getattr(was, field), (name, field)


# polynomials whose verdicts the bounded order and degree searches get wrong today; only agreement is asserted
CAPPED_POLYNOMIALS = (
    ActivationSpec(name="abs_pow8", fn=lambda z: np.abs(z) ** 8 + 0j),
    ActivationSpec(name="abs_pow6", fn=lambda z: np.abs(z) ** 6 + 0j),
    ActivationSpec(name="z5_plus_zbar", fn=lambda z: z**5 + np.conj(z)),
)


@pytest.mark.parametrize("sigma", [*activation_catalog(), *CAPPED_POLYNOMIALS], ids=lambda s: s.name)
def test_each_stage_alone_agrees_with_the_report(sigma, catalog_reports):
    # each stage on a preparation of its own, as a synthesis gate runs it
    report = catalog_reports[sigma.name] if sigma.name in catalog_reports else classify(sigma)
    config = ClassifierConfig()
    shallow, shallow_evidence = _shallow_stage(sigma, _prepared_points(sigma, config), config.tol)
    deep, deep_evidence = _deep_stage(sigma, _prepared_points(sigma, config), config.tol)
    for field, value in {**shallow, **deep}.items():
        assert getattr(report, field) == value, field
    assert {**shallow_evidence, **deep_evidence, "scale_points": report.evidence["scale_points"]} == report.evidence


RATIO = by_name("ratio")
_CUT = ray_cut(0.0, -1.0)
# beside the capped polynomials: mollified sigma whose first probe leaves an order open (abs_re, abs2_nonsmooth,
# re_or_one) or rules out every order (ratio_plus_half_abs2, conj_ratio), and the ae branch's indeterminate case
GATE_CASES = (
    *CAPPED_POLYNOMIALS,
    ActivationSpec(name="z3_zbar2", fn=lambda z: z**3 * np.conj(z) ** 2),
    ActivationSpec(name="z2_zbar5", fn=lambda z: z**2 * np.conj(z) ** 5 / 10),
    ActivationSpec(
        name="ratio_plus_half_abs2", fn=lambda z: RATIO.raw(z) + np.abs(z) ** 2 / 2, nonsmooth_set=RATIO.nonsmooth_set
    ),
    ActivationSpec(name="conj_ratio", fn=lambda z: np.conj(RATIO.raw(z)), nonsmooth_set=RATIO.nonsmooth_set),
    ActivationSpec(name="abs_re", fn=lambda z: np.abs(z.real) + 0j, nonsmooth_set=(line_cut(0.0, 1j),)),
    ActivationSpec(name="abs2_nonsmooth", fn=lambda z: z * np.conj(z), nonsmooth_set=(line_cut(0.0, 1j),)),
    # fits degree 1 to 3e-8, but its second derivatives do not vanish: the deep gate needs the jets to say yes
    ActivationSpec(name="wiggled_poly", fn=lambda z: z + np.conj(z) + 1e-5 * np.sin(50 * z.real)),
    ActivationSpec(
        name="re_or_one",
        fn=lambda z: np.where((z.imag == 0) & (z.real < 0), 1.0, z.real),
        discontinuity_set=(_CUT,),
        nonsmooth_set=(_CUT,),
    ),
)


def _gates_agree(sigma, report):
    for field in ("shallow_universal", "deep_universal"):
        assert _verdict(sigma, field) == getattr(report, field), (sigma.name, field)


@pytest.mark.parametrize("sigma", [*activation_catalog(), *GATE_CASES], ids=lambda s: s.name)
def test_each_gate_returns_the_reported_verdict(sigma, catalog_reports):
    # rho_c and example_4_8 leave an order open at the first probe, so their shallow gates sample every group in full
    _gates_agree(sigma, catalog_reports[sigma.name] if sigma.name in catalog_reports else classify(sigma))


def _sum_of(terms):
    specs = [(by_name(name), c) for name, c in terms]
    return ActivationSpec(
        name="+".join(f"{c}*{name}" for name, c in terms),
        fn=lambda z: sum(c * spec.raw(z) for spec, c in specs),
        discontinuity_set=tuple(cut for spec, _ in specs for cut in spec.discontinuity_set),
        locally_bounded=all(spec.locally_bounded for spec, _ in specs),
        nonsmooth_set=tuple(cut for spec, _ in specs for cut in spec.nonsmooth_set),
        singular_points=tuple(cut for spec, _ in specs for cut in spec.singular_points),
    )


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from(activation_names()), st.sampled_from((1.0, -0.5, 2.0, 1j))),
        min_size=2,
        max_size=3,
        unique_by=lambda term: term[0],
    )
)
def test_gates_agree_with_classify_on_sums_of_catalog_terms(terms):
    sigma = _sum_of(terms)
    _gates_agree(sigma, classify(sigma))


@pytest.mark.parametrize("error, verdict", [(TypeError, None), (ZeroDivisionError, "indeterminate")])
def test_only_an_arithmetic_or_singularity_error_is_no_relu_witness(error, verdict):
    # a copy of example_4_8 that fails beyond |z| = 2.95, where only sigma(sigma(z)) of the ae branch samples it:
    # an arithmetic error means no witness, any other error is a bug in sigma and propagates
    e48 = by_name("example_4_8")

    def failing(z):
        if np.max(np.abs(z), initial=0.0) > 2.95:
            raise error("beyond 2.95")
        return e48.raw(z)

    sigma = _copy(e48, fn=failing, name="failing_e48")
    if verdict is None:
        with pytest.raises(error):
            classify(sigma)
        with pytest.raises(error):
            _verdict(sigma, "deep_universal")
    else:
        assert classify(sigma).deep_universal == verdict
        assert _verdict(sigma, "deep_universal") == verdict
