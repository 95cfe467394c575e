"""Numerical universality classification of activation functions.

Shallow networks are universal iff the activation is not (almost everywhere
equal to) a smooth function annihilated by some power of the Laplacian; deep
networks (two or more hidden layers) are universal iff the activation is
neither a polynomial in z and zbar, nor holomorphic, nor antiholomorphic, all
in the almost-everywhere sense.  Both criteria are decided here on grids with
declared tolerances.

Every activation takes one path, and only the function it reads differs:
sigma itself when smooth, else its mollification.  Mollifying turns an
almost-everywhere property of the raw function into an exact property of the
mollification, and the evidence against it concentrates near the non-smooth
set, so the points include those close to (and on) the declared cuts.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import __version__
from .activations import avoid_set
from .errors import ActivationSingularityError
from .grids import cut_distance, make_grid, points_of, random_points, subsample
from .wirtinger import LatticeMollification, jet_entries_at, make_mollifier, stencil_halfwidth, stencil_steps

YES = "yes"
NO = "no"
INDETERMINATE = "indeterminate"

# fixed numerical policy; the report's version pins it
GRID_POINTS_PER_AXIS = 33
MOLLIFIER_EPSILON = 0.05
MOLLIFIER_QUADRATURE = 20
MAX_ORDER = 4
MAX_DEGREE = 4
POINT_SINGULARITY_GUARD = 0.5
PROBES = 120
_MOLLIFIER = make_mollifier(MOLLIFIER_EPSILON, MOLLIFIER_QUADRATURE)


@dataclasses.dataclass(frozen=True)
class ClassifierConfig:
    """Settable policy for :func:`classify`; echoed into every report."""

    tol: float = 1e-4
    grid_radius: float = 2.0

    def echo(self):
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ClassificationReport:
    """Verdicts plus the numerical evidence that produced them."""

    activation_name: str
    polyharmonic_order: int | None
    holomorphic: bool
    antiholomorphic: bool
    polynomial_degree: int | None
    ae_equal_but_discontinuous: bool
    shallow_universal: str
    deep_universal: str
    evidence: dict
    config_echo: dict

    def to_json_dict(self):
        doc = dataclasses.asdict(self)
        doc["version"] = __version__
        return doc


def _scale_of(f, pts):
    return max(1.0, float(np.max(np.abs(f(pts)))))


def _smoothed(sigma):
    return LatticeMollification(sigma, _MOLLIFIER)


def _on_lattice(grid, spacing):
    """The points of ``grid`` rounded per axis to the lattice ``spacing * Z^2``; a point on it is returned unchanged."""
    pts = np.array(points_of(grid), dtype=complex)
    pts.real, pts.imag = spacing * np.round(pts.real / spacing), spacing * np.round(pts.imag / spacing)
    return pts


def _jets(f, pts, entries, step_scale):
    """Jet entries at ``pts`` with the default steps for ``step_scale``.

    A :class:`LatticeMollification` rounds the steps to its lattice
    (:meth:`~LatticeMollification.snap_steps`), so stencils on lattice
    points stay where it evaluates sigma once per argument; any other
    ``f`` gets the default steps.
    """
    if not isinstance(f, LatticeMollification):
        return jet_entries_at(f, pts, entries, step_scale=step_scale)
    return jet_entries_at(f, pts, entries, step=f.snap_steps(stencil_steps(pts, step_scale)))


def _tested(sigma, mollifier):
    """The function the stencils read: sigma when smooth, else ``mollifier``, by default its lattice mollification."""
    if sigma.smooth:
        return sigma.raw
    return mollifier if mollifier is not None else _smoothed(sigma)


def _points_for(f, grid):
    """The points of ``grid``, rounded to f's lattice when ``f`` is a :class:`LatticeMollification`."""
    return _on_lattice(grid, f.spacing) if isinstance(f, LatticeMollification) else points_of(grid)


def _polyharmonic_groups(max_order):
    """(orders, step scale) of each stencil sampling of the polyharmonic search."""
    return [(range(1, min(2, max_order) + 1), 0.01), (range(3, max_order + 1), 0.035)]


def _laplacian_residuals(f, pts, orders, step_scale, scale):
    """Maximum of |Delta^m f| over ``pts`` relative to ``scale``, for each order of one stencil group."""
    vals = _jets(f, pts, [(m, m) for m in orders], step_scale)
    return [float(np.max(np.abs(4.0**m * vals[(m, m)])) / scale) for m in orders]


def _polyharmonic_search(f, pts, groups, tol, screen=False):
    """(found, order_or_None, residuals) of the least order m with r_m < tol, group by group.

    With ``screen``, each group is first sampled at ``pts[0]`` alone, with
    the group's full stencil, and skipped (its residuals unreported) when
    that point rules out every one of its orders.  That is exact when ``f``
    is a :class:`LatticeMollification`: its values and each stencil row do
    not depend on the batch they are formed in, so a one-point residual is
    never above the all-point one (a NaN stays a NaN), and ``found`` and
    ``order`` are the unscreened ones.
    """
    scale = _scale_of(f, pts)
    residuals = []
    for orders, step_scale in groups:
        if not orders:
            continue
        if screen and not any(r < tol for r in _laplacian_residuals(f, pts[:1], orders, step_scale, scale)):
            continue
        for m, r in zip(orders, _laplacian_residuals(f, pts, orders, step_scale, scale)):
            residuals.append(r)
            if r < tol:
                return True, m, residuals
    return False, None, residuals


def detect_polyharmonic(sigma, max_order, grid, tol, mollifier=None):
    """Least m <= max_order with Delta^m sigma ~ 0 on the grid, if any.

    Returns (found, order_or_None, residuals).  Residual r_m is the grid
    maximum of |Delta^m| relative to max(1, sup|sigma|); orders 1-2 share
    one stencil at step scale 0.01, orders 3-4 one at 0.035.  Non-smooth
    activations are tested through ``mollifier``, by default their
    :class:`LatticeMollification`.  A lattice mollification (the default or
    a caller's) is tested on the grid and steps rounded to its own spacing;
    any other callable gets the grid as given.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    f = _tested(sigma, mollifier)
    return _polyharmonic_search(f, _points_for(f, grid), _polyharmonic_groups(max_order), tol)


def _directional_residuals(f, pts):
    """(max |d f|, max |dbar f|) over ``pts``."""
    vals = _jets(f, pts, [(1, 0), (0, 1)], 0.01)
    return float(np.max(np.abs(vals[(1, 0)]))), float(np.max(np.abs(vals[(0, 1)])))


def _holomorphy_flags(d_res, dbar_res, tol):
    """(holomorphic, antiholomorphic): |dbar|, resp. |d|, at most ``tol`` relative to max(|d|, |dbar|, 1)."""
    scale = max(d_res, dbar_res, 1.0)
    return dbar_res <= tol * scale, d_res <= tol * scale


def detect_holomorphy(sigma, grid, tol, mollifier=None):
    """Classify as "holomorphic", "antiholomorphic", or "neither".

    Compares the grid maxima of |d sigma| and |dbar sigma| (mollified when
    sigma is not smooth) against ``tol`` relative to max(|d|, |dbar|, 1),
    on the grid rounded as in :func:`detect_polyharmonic`.
    """
    f = _tested(sigma, mollifier)
    holo, anti = _holomorphy_flags(*_directional_residuals(f, _points_for(f, grid)), tol)
    if holo and not anti:
        return "holomorphic"
    if anti and not holo:
        return "antiholomorphic"
    if holo and anti:
        # both derivatives vanish: constant; report as holomorphic
        return "holomorphic"
    return "neither"


def monomial_design(u, degree):
    """Columns u^m conj(u)^l with m + l <= degree.

    Returns (design, powers); column k is the monomial ``powers[k] = (m, l)``.
    """
    powers = [(m, total - m) for total in range(degree + 1) for m in range(total + 1)]
    return np.stack([u**m * np.conj(u) ** ell for m, ell in powers], axis=1), powers


def _fit_residuals(f, pts, max_degree):
    """(residuals, scale): relative sup residual of the least-squares fit to f on ``pts``, per degree 0..max_degree."""
    fvals = f(pts)
    scale = max(1.0, float(np.max(np.abs(fvals))))
    u = pts / max(1.0, float(np.max(np.abs(pts))))
    residuals = []
    for g in range(max_degree + 1):
        design, _ = monomial_design(u, g)
        coef, *_ = np.linalg.lstsq(design, fvals, rcond=None)
        residuals.append(float(np.max(np.abs(fvals - design @ coef))) / scale)
    return residuals, scale


def _derivative_residuals(f, pts, max_degree, scale):
    """max(|d^(g+1) f|, |dbar^(g+1) f|) over ``pts`` relative to ``scale``, for each degree g = 0..max_degree."""
    entries = [(k, 0) for k in range(1, max_degree + 2)] + [(0, k) for k in range(1, max_degree + 2)]
    jets = _jets(f, pts, entries, 0.02)
    return [
        max(float(np.max(np.abs(jets[(g + 1, 0)]))), float(np.max(np.abs(jets[(0, g + 1)])))) / scale
        for g in range(max_degree + 1)
    ]


def _least_degree(fit_residuals, deriv_residuals, tol):
    """Least degree whose fit and derivative residuals are both below ``tol``, or None."""
    for g, (fit_r, deriv_r) in enumerate(zip(fit_residuals, deriv_residuals)):
        if fit_r < tol and deriv_r < tol:
            return g
    return None


def detect_polynomial(sigma, max_degree, grid, tol, mollifier=None, deriv_points=None):
    """Least total degree g <= max_degree with sigma = p(z, zbar) on the grid.

    A candidate degree must pass two independent tests: the least-squares fit
    in the monomials z^m zbar^l (m + l <= g) has relative sup residual below
    ``tol``, and the pure derivatives of order g + 1 vanish.  Returns
    (found, degree_or_None, fit_residuals, deriv_residuals), with one fit
    and one derivative residual per degree 0..max_degree.  The derivatives
    are taken at ``deriv_points``, by default ``PROBES // 2`` of the grid's
    points; the grid and ``deriv_points`` are rounded as in
    :func:`detect_polyharmonic`.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be at least 0")
    f = _tested(sigma, mollifier)
    pts = _points_for(f, grid)
    fit_residuals, scale = _fit_residuals(f, pts, max_degree)
    dpts = subsample(pts, PROBES // 2) if deriv_points is None else _points_for(f, deriv_points)
    deriv_residuals = _derivative_residuals(f, dpts, max_degree, scale)
    degree = _least_degree(fit_residuals, deriv_residuals, tol)
    return degree is not None, degree, fit_residuals, deriv_residuals


def _is_exact_relu_composer(sigma):
    """True when sigma(sigma(z)) equals max(0, Re z) to round-off everywhere sampled."""
    pts = random_points(0.0, 3.0, 512, np.random.default_rng(12345))[:, 0]
    pts = np.concatenate([pts, np.linspace(-3, 3, 33) + 0j])
    try:
        vals = sigma(sigma(pts))
    except (ArithmeticError, ActivationSingularityError):
        return False
    return bool(np.max(np.abs(vals - np.maximum(0.0, pts.real))) < 1e-14)


def largest_radius(sigma):
    """Largest ``grid_radius`` whose points and stencil nodes all lie within the mollifier's reach; inf when smooth.

    The grid reaches R, and the widest stencil, one of the polyharmonic
    search's, reaches its halfwidth times a step of at most
    ``scale * 2^(1/4) (1 + R)`` (:func:`stencil_steps`) plus half a spacing
    (:meth:`~LatticeMollification.snap_steps`).
    """
    if sigma.smooth:
        return math.inf
    grow = max(stencil_halfwidth(2 * max(orders)) * s for orders, s in _polyharmonic_groups(MAX_ORDER)) * 2**0.25
    return (_MOLLIFIER.reach - grow) / (1.0 + grow) - stencil_halfwidth(2 * MAX_ORDER) * _MOLLIFIER.spacing


def _prepared_points(sigma, config):
    """Shared preparation of both stages: (probes, fit points, mollification).

    The points are the grid's, rounded to the mollifier's lattice (off it
    some quadrature arguments fall on a cut; on the grids of radius 2, 4 and
    8 the rounding moves no point) and clear of isolated singular points,
    plus once more those within 1.5 epsilon of a cut.  The fit reads every
    point; the probes are ``PROBES`` of the points and at most ``PROBES`` of
    the near-cut ones.  The mollification is ``None`` for a smooth
    activation, which both stages then read raw.
    """
    pts = _on_lattice(make_grid(0.0, config.grid_radius, GRID_POINTS_PER_AXIS), _MOLLIFIER.spacing)
    point_cuts = tuple(c for c in avoid_set(sigma) if c.kind == "points")
    if point_cuts:
        pts = pts[cut_distance(pts, point_cuts) >= POINT_SINGULARITY_GUARD]
    cuts = tuple(sigma.nonsmooth_set) + tuple(sigma.discontinuity_set)
    near = pts[cut_distance(pts, cuts) <= 1.5 * MOLLIFIER_EPSILON]
    probe = np.concatenate([subsample(pts, PROBES), subsample(near, PROBES)])
    return probe, np.concatenate([pts, near]), None if sigma.smooth else _smoothed(sigma)


def _shallow_stage(sigma, prepared, tol):
    """Shallow verdict: "no" iff a polyharmonic order is found.

    Returns (report fields, evidence).
    """
    probe, _, mollifier = prepared
    found, order, residuals = detect_polyharmonic(sigma, MAX_ORDER, probe, tol, mollifier=mollifier)
    fields = {"polyharmonic_order": order, "shallow_universal": NO if found else YES}
    return fields, {"polyharmonic_residuals": [float(r) for r in residuals]}


def _deep_verdict(sigma, forbidden):
    """(deep verdict, ae flag), given whether sigma matched a forbidden class on the grid."""
    if not forbidden:
        return YES, False
    if all(c.kind == "points" for c in sigma.discontinuity_set):
        return NO, False
    return (YES if _is_exact_relu_composer(sigma) else INDETERMINATE), True


def _deep_stage(sigma, prepared, tol):
    """Deep verdict with the holomorphy flags, the polynomial degree and the ae flag.

    "no" iff a forbidden class (polynomial / holomorphic / antiholomorphic)
    is found and the activation is continuous up to isolated singular points;
    if it is discontinuous along a curve yet matches a forbidden class on the
    grid, the ae flag is set and the verdict is "yes" when sigma(sigma(z)) is
    exactly max(0, Re z) -- two layers then realize the real-part ReLU, which
    is deep universal -- and indeterminate otherwise.  Returns (report
    fields, evidence).
    """
    probe, fit_pts, mollifier = prepared
    d_res, dbar_res = _directional_residuals(_tested(sigma, mollifier), probe)
    holomorphic, antiholomorphic = _holomorphy_flags(d_res, dbar_res, tol)
    poly_found, poly_degree, fit_res, deriv_res = detect_polynomial(
        sigma, MAX_DEGREE, fit_pts, tol, mollifier=mollifier, deriv_points=subsample(probe, PROBES // 2)
    )
    deep, ae_flag = _deep_verdict(sigma, poly_found or holomorphic or antiholomorphic)
    fields = {
        "holomorphic": bool(holomorphic),
        "antiholomorphic": bool(antiholomorphic),
        "polynomial_degree": poly_degree,
        "ae_equal_but_discontinuous": ae_flag,
        "deep_universal": deep,
    }
    evidence = {
        "d_residual": d_res,
        "dbar_residual": dbar_res,
        "poly_fit_residuals": [float(r) for r in fit_res],
        "poly_deriv_residuals": [float(r) for r in deriv_res],
    }
    return fields, evidence


def _shallow_gate(sigma, prepared, tol):
    """:func:`_shallow_stage`'s verdict alone; a mollified sigma's stencil groups are screened at the first probe."""
    probe, _, mollifier = prepared
    groups = _polyharmonic_groups(MAX_ORDER)
    found, _, _ = _polyharmonic_search(_tested(sigma, mollifier), probe, groups, tol, screen=mollifier is not None)
    return NO if found else YES


def _deep_gate(sigma, prepared, tol):
    """:func:`_deep_stage`'s verdict alone, from the least evidence that decides whether sigma is forbidden.

    The holomorphy flags compare against the maximum over every probe, so
    they are computed in full, and a set flag decides.  Otherwise a degree
    needs a fit residual below tol, so the derivative jets run only when
    some fit residual is.
    """
    probe, fit_pts, mollifier = prepared
    f = _tested(sigma, mollifier)
    forbidden = any(_holomorphy_flags(*_directional_residuals(f, probe), tol))
    if not forbidden:
        fit_res, scale = _fit_residuals(f, fit_pts, MAX_DEGREE)
        if any(r < tol for r in fit_res):
            deriv_res = _derivative_residuals(f, subsample(probe, PROBES // 2), MAX_DEGREE, scale)
            forbidden = _least_degree(fit_res, deriv_res, tol) is not None
    return _deep_verdict(sigma, forbidden)[0]


def _verdict(sigma, field):
    """``classify(sigma)``'s verdict ``field``, decided from the least evidence by its gate.

    Each gate runs only the tests of its own verdict and stops as soon as
    the verdict is decided (:func:`_shallow_gate`, :func:`_deep_gate`).
    Every value it reads has the bits :func:`classify` reads -- a
    :class:`LatticeMollification` value and a stencil row do not depend on
    the batch they are formed in -- so the verdict is the one
    :func:`classify` reports; no evidence is formed.
    """
    if not sigma.locally_bounded:
        return INDETERMINATE
    gate = {"shallow_universal": _shallow_gate, "deep_universal": _deep_gate}[field]
    config = ClassifierConfig()
    return gate(sigma, _prepared_points(sigma, config), config.tol)


def classify(sigma, config=None):
    """Full universality classification of one activation.

    Runs the shallow stage (:func:`_shallow_stage`: "no" iff a polyharmonic
    order is found) and then the deep stage (:func:`_deep_stage`: polynomial,
    holomorphic and antiholomorphic tests, and the ae branch) on one shared
    preparation, so both read the same mollification.  An activation that is
    not locally bounded is indeterminate for both.  A synthesis gate that
    needs one verdict decides it alone, from less evidence (:func:`_verdict`).
    """
    config = config or ClassifierConfig()
    if not sigma.locally_bounded:
        return ClassificationReport(
            activation_name=sigma.name,
            polyharmonic_order=None,
            holomorphic=False,
            antiholomorphic=False,
            polynomial_degree=None,
            ae_equal_but_discontinuous=False,
            shallow_universal=INDETERMINATE,
            deep_universal=INDETERMINATE,
            evidence={"reason": "not locally bounded"},
            config_echo=config.echo(),
        )

    prepared = _prepared_points(sigma, config)
    shallow, shallow_evidence = _shallow_stage(sigma, prepared, config.tol)
    deep, deep_evidence = _deep_stage(sigma, prepared, config.tol)
    return ClassificationReport(
        activation_name=sigma.name,
        **shallow,
        **deep,
        evidence={**shallow_evidence, **deep_evidence, "scale_points": int(prepared[0].size)},
        config_echo=config.echo(),
    )
