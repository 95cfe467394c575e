"""Constructive approximation by shallow and deep complex networks.

The shallow pipeline takes its neurons from one lattice of dilated neurons
sigma(w z + theta) at one theta, the lattice on which every monomial
z^m zbar^l up to the degree is a divided-difference table in the dilation
parameter w, so polynomials lie in the neurons' span; the outer coefficients
are then fit to the target.  The deep
pipeline builds a two-layer surrogate of the real-part ReLU
rho(z) = max(0, Re z) by composing an approximate real polynomial with an
approximate real-part map, then reduces any target to ridges of rho via a
real one-hidden-layer fit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import math

import numpy as np

from . import __version__, targets, workers
from .classifier import YES, _is_exact_relu_composer, _verdict
from .errors import NoActivePointError, SynthesisRefusedError
from .grids import cut_distance, make_grid, points_of, random_points
from .network import (
    NetworkWeights,
    RidgeNetwork,
    ShallowNetwork,
    _cmul,
    compose,
    eval_network,
    eval_ridge,
    eval_shallow,
)
from .wirtinger import stencil_halfwidth, stencil_weights, wirtinger_terms

JET_LIMIT = 7
# fixed numerical policy; the certificate's version pins it
FIT_POINTS_PER_AXIS = 48
TEST_POINTS_PER_AXIS = 65
SEARCH_POINTS_PER_AXIS = 15
COEFF_THRESHOLD = 1e-8
REAL_STAGE_WIDTH = 320
PSI_WIDTH = 160
RIDGE_FIT_POINTS = 4000
DEEP_RELU_EPS = 0.15
# budget of the ReLU surrogate that deep synthesis of max(0, Re z) itself on C^1 deepens
PIVOT_RELU_EPS = 0.1
DEEP_RIDGE_WIDTH = 16


def fd_step_for(total_order):
    """Divided-difference step in the dilation parameter for a lattice of highest total order ``total_order``."""
    return 0.01 if total_order <= 4 else 0.015


@dataclasses.dataclass(frozen=True)
class ConstructorConfig:
    """Settable policy for the synthesis routines; echoed into every certificate."""

    seed: int = 0

    def echo(self):
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ApproximationCertificate:
    """Held-out-grid error report for one synthesized network."""

    target_name: str
    domain: dict
    test_grid_size: int
    sup_error: float
    l1_error: float
    network_size: tuple
    seed: int
    config_echo: dict = dataclasses.field(default_factory=dict)
    # part of the certificate format; every synthesis fits its outer layer, so none leaves a term out
    failures: tuple = ()
    stage_errors: dict = dataclasses.field(default_factory=dict)

    def to_json_dict(self):
        doc = dataclasses.asdict(self)
        doc["network_size"] = list(self.network_size)
        doc["failures"] = list(self.failures)
        doc["version"] = __version__
        return doc


def _domain_dict(center, radius, d):
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    return {
        "center": [[float(c.real), float(c.imag)] for c in center],
        "radius": float(radius),
        "d": int(d),
    }


def _wirtinger_tables(monomials):
    """(nodes, tables): one dilation lattice in w and the Wirtinger table of each monomial on it.

    The lattice has step ``fd_step_for(K)`` and half-width
    ``stencil_halfwidth(K)``, K being the highest total order of
    ``monomials``.  Row i of ``tables`` holds the divided-difference weights of
    d^m dbar^l for monomials[i] = (m, l), one per node.
    """
    K = max(m + ell for m, ell in monomials)
    step = fd_step_for(K)
    n = stencil_halfwidth(K)
    offs = np.arange(-n, n + 1)
    w = stencil_weights(n, step, K)
    tables = np.zeros((len(monomials), 2 * n + 1, 2 * n + 1), dtype=complex)
    for table, (m, ell) in zip(tables, monomials):
        # one outer product per expansion term, in expansion order: grouping equal (a, b) first rounds differently
        for a, b, lam in wirtinger_terms(m, ell):
            table += lam * np.outer(w[:, a], w[:, b])
    nodes = step * (offs[:, None] + 1j * offs[None, :])
    return nodes.ravel(), tables.reshape(len(monomials), -1)


def _cuts(sigma):
    """Where sigma is not smooth: stencils on the raw activation keep clear of it."""
    return tuple(sigma.nonsmooth_set) + tuple(sigma.discontinuity_set) + tuple(sigma.singular_points)


def find_active_point(sigma, nodes, tables, search_grid):
    """(theta, rho, active): the point of ``search_grid`` where the most monomials are active.

    ``nodes`` and ``tables`` are a lattice of :func:`_wirtinger_tables`, and
    rho[i] = sum_j tables[i, j] sigma(nodes[j] + theta) is the lattice's
    estimate of (d^m dbar^l sigma)(theta) for monomial i.  Monomial i is
    active when |rho[i]| clears the noise floor max(1e-8, 100 * sum|tables[i]|
    * 2.3e-16 * max(1, max|samples|)).  The candidates are the points whose
    lattice footprint keeps clear of the non-smooth set (every point when
    sigma is smooth); they rank by how many monomials are active, then by the
    smallest |rho| / noise among those.  With no candidate, theta is 0 and
    every monomial is inactive.
    """
    pts = points_of(search_grid)
    reach = float(np.max(np.abs(nodes))) * 1.1 + 0.02
    cand = pts if sigma.smooth else pts[cut_distance(pts, _cuts(sigma)) > reach]
    if cand.size == 0:
        return 0j, np.zeros(len(tables), dtype=complex), np.zeros(len(tables), dtype=bool)
    samples = sigma.raw(cand[:, None] + nodes[None, :])
    rho = samples @ tables.T
    scale = np.maximum(1.0, np.max(np.abs(samples), axis=1))
    noise = 100.0 * np.sum(np.abs(tables), axis=1)[None, :] * 2.3e-16 * scale[:, None]
    active = np.abs(rho) >= np.maximum(1e-8, noise)
    count = np.sum(active, axis=1)
    margin = np.min(np.where(active, np.abs(rho) / noise, np.inf), axis=1)
    best = int(np.argmax(np.where(count == np.max(count), margin, -1.0)))
    return complex(cand[best]), rho[best], active[best]


def extract_monomial(sigma, coeffs, search):
    """(net, failures): a shallow network realizing the polynomial sum c[(m, l)] z^m zbar^l on the unit ball.

    ``coeffs`` maps (m, l) to c.  The constant term becomes the network's
    constant, and terms with |c| <= COEFF_THRESHOLD are dropped.  Every other
    monomial is a divided difference on one lattice (:func:`_wirtinger_tables`)
    at one theta (:func:`find_active_point`): neuron j is
    sigma(nodes[j] z + theta) with outer coefficient sum c * tables[j] / rho
    over the active monomials.  ``failures`` names each monomial that is
    inactive at theta and so left out.  Used for the exact polynomials of the
    ReLU surrogate and the identity padding; shallow synthesis fits its outer
    coefficients instead.
    """
    coeffs = dict(coeffs)
    if any(m < 0 or ell < 0 for m, ell in coeffs):
        raise ValueError("powers must be nonnegative")
    if any(m + ell > JET_LIMIT for m, ell in coeffs):
        raise ValueError(f"total order {max(m + ell for m, ell in coeffs)} exceeds the jet limit {JET_LIMIT}")
    constant = coeffs.pop((0, 0), 0.0)
    monomials = sorted(key for key, c in coeffs.items() if abs(c) > COEFF_THRESHOLD)
    if not monomials:
        return ShallowNetwork.constant(constant), []
    nodes, tables = _wirtinger_tables(monomials)
    theta, rho, active = find_active_point(sigma, nodes, tables, search)
    failures = [f"({m},{ell}): inactive expansion point" for (m, ell), ok in zip(monomials, active) if not ok]
    # one outer coefficient per node, summed monomial by monomial in sorted order with _cmul's rounding
    a = np.zeros(nodes.size, dtype=complex)
    for c, r, table in zip(np.array([coeffs[key] for key in monomials])[active], rho[active], tables[active]):
        a = a + _cmul(c / r, table)
    keep = a != 0
    return ShallowNetwork(constant, a[keep], nodes[keep, None], np.full(np.count_nonzero(keep), theta)), failures


def _extract_exactly(sigma, coeffs, search):
    """:func:`extract_monomial` of a polynomial that must be realized whole; raises ``NoActivePointError`` otherwise."""
    net, failures = extract_monomial(sigma, coeffs, search)
    if failures:
        raise NoActivePointError("no active point found: " + "; ".join(failures))
    return net


def _lawson(weighted_fit, residual, n, passes):
    """Lawson's sup-oriented reweighting: the best of ``passes`` weighted least-squares fits.

    The first pass weighs all ``n`` points equally; each later pass multiplies the weights by the previous absolute
    residuals.  Returns the solution with the smallest sup residual, and that residual.  In :func:`_refit_design` a
    pass is a Cholesky solve on the factors of a full-rank design; a rank-deficient design or rejected Gram takes lstsq.
    """
    w = np.ones(n)
    best, best_sup = None, np.inf
    for _ in range(passes):
        solution = weighted_fit(w)
        resid = residual(solution)
        sup = float(np.max(resid))
        if best is None or sup < best_sup:
            best, best_sup = solution, sup
        w = w * (resid + 1e-12)
        w = w / np.mean(w)
    return best, best_sup


def _rescale_shallow(net_u, center, radius):
    """Rewrite a unit-ball shallow net in u = (z - center)/radius as a net in z.

    The bias shift w * center / radius is rounded as Python's complex
    arithmetic rounds it: an unfused product, then a division of each part by
    the real radius (``(re + im * 0.0) / radius``, which keeps the sign of zero
    as Python does).  ``w / radius`` stays NumPy's complex division.
    """
    shift = _cmul(net_u.w[:, 0], complex(center))
    shift.real, shift.imag = (shift.real + shift.imag * 0.0) / radius, (shift.imag - shift.real * 0.0) / radius
    return ShallowNetwork(net_u.c, net_u.a, net_u.w / radius, net_u.b - shift)


def _certificate(net, sigma, target, center, radius, d, config, target_name, echo, stage_errors):
    """Errors of ``net`` against ``target`` on a held-out regular grid of the domain ball.

    The grid has ``TEST_POINTS_PER_AXIS`` points per axis on a disc and
    7 per real axis when d > 1.
    """
    shallow = isinstance(net, ShallowNetwork)
    evaluate = eval_shallow if shallow else eval_ridge if isinstance(net, RidgeNetwork) else eval_network
    test_grid = make_grid(center, radius, TEST_POINTS_PER_AXIS if d == 1 else 7)
    pts = test_grid.scalars if d == 1 else test_grid.points
    err = np.abs(np.asarray(target(pts)) - np.asarray(evaluate(net, sigma, pts)))
    return ApproximationCertificate(
        target_name=target_name,
        domain=_domain_dict(center, radius, d),
        test_grid_size=test_grid.size,
        sup_error=float(np.max(err)),
        l1_error=float(np.mean(err)),
        network_size=(1, net.width) if shallow else (net.hidden_layers, net.total_neurons),
        seed=config.seed,
        config_echo=echo,
        stage_errors=stage_errors,
    )


def _require_verdict(sigma, field):
    """Refuse synthesis unless sigma's ``field`` verdict is yes.

    Only the classifier tests of ``field`` run, and they stop once the
    verdict is decided: the shallow gate screens each polyharmonic stencil
    group at one probe point, the deep gate skips the polyharmonic search
    and forms derivative jets only after a passing polynomial fit.  The
    verdict is the one ``classify`` reports.
    """
    verdict = _verdict(sigma, field)
    if verdict != YES:
        raise SynthesisRefusedError(
            f"{sigma.name}: {field} verdict is {verdict!r}; pass --override (CLI) or gate=False (library) to force"
        )


def synthesize_shallow(sigma, target, domain, degree, config=None, target_name="custom", gate=True):
    """Shallow network approximating ``target`` on a disc, with certificate.

    Pipeline: the dilation lattice of every monomial z^m zbar^l of total
    degree 1..``degree`` (:func:`_wirtinger_tables`) at one theta
    (:func:`find_active_point`) supplies the neurons sigma(nodes[j] u +
    theta) in u = (z - center) / radius, keeping the nodes where some active
    monomial's table is nonzero; the constant and outer coefficients are then
    fit to the target on a staggered grid.  With no monomial or no active
    node the network is the fitted constant.  Certificate errors are
    measured on a held-out regular grid disjoint from the fit grid.
    """
    config = config or ConstructorConfig()
    center, radius = domain
    center = complex(center)
    radius = float(radius)
    if degree > JET_LIMIT:
        raise ValueError(f"degree {degree} exceeds the jet limit {JET_LIMIT}")
    if gate:
        _require_verdict(sigma, "shallow_universal")

    monomials = [(m, total - m) for total in range(1, degree + 1) for m in range(total + 1)]
    nodes, theta = np.zeros(0, dtype=complex), 0j
    if monomials:
        lattice, tables = _wirtinger_tables(monomials)
        theta, _, active = find_active_point(sigma, lattice, tables, _search_grid(sigma))
        nodes = lattice[np.any(tables[active] != 0, axis=0)]
    u = make_grid(0.0, 1.0, FIT_POINTS_PER_AXIS, staggered=True).scalars
    fvals = np.asarray(target(center + radius * u), dtype=complex)
    coef, fit_sup = _refit_design(_design(sigma.raw(u[:, None] * nodes[None, :] + theta)), fvals, lawson=4)
    net_u = ShallowNetwork(coef[0], coef[1:], nodes[:, None], np.full(nodes.size, theta))
    net = _rescale_shallow(net_u, center, radius)
    echo = {**config.echo(), "degree": degree}
    stage_errors = {"refit_sup_on_fit_points": fit_sup}
    return net, _certificate(net, sigma, target, center, radius, 1, config, target_name, echo, stage_errors)


def _search_grid(sigma):
    return make_grid(0.0, 1.0, SEARCH_POINTS_PER_AXIS, avoid=_cuts(sigma), guard=0.25)


def _chebyshev_relu(r, budget, max_degree=JET_LIMIT - 1):
    """Power-basis coefficients of a polynomial ~ max(0, x) on [-r, r].

    Picks the least degree whose interpolation error meets ``budget``; returns
    (coefficients, measured sup error).
    """
    mesh = np.linspace(-r, r, 2001)
    relu = np.maximum(0.0, mesh)
    best = None
    for deg in range(2, max_degree + 1):
        cheb = np.polynomial.chebyshev.Chebyshev.interpolate(
            lambda x: np.maximum(0.0, x), deg, domain=[-r, r]
        )
        err = float(np.max(np.abs(cheb(mesh) - relu)))
        if best is None or err < best[1]:
            best = (cheb, err)
        if err <= budget:
            break
    cheb, err = best
    power = np.polynomial.Polynomial.cast(cheb)
    return power.coef, err


def build_relu_c(sigma, r, eps, gate=True):
    """Depth-2 network approximating max(0, Re z) on the ball of radius ``r``.

    Composes an inner shallow approximation of Re z with an outer shallow
    realization of a real polynomial p with |max(0,x) - p(x)| <= 2*eps/3 on
    [-r, r]; the outer stage evaluates p(Re w), whose expansion in w, wbar is
    exact, through :func:`extract_monomial` on the ball of radius r + 1.
    """
    if gate:
        _require_verdict(sigma, "deep_universal")
    r = float(r)
    search = _search_grid(sigma)

    # inner stage: Psi ~ Re z on B_r, built on u = z / r as (u + conj u) / 2
    psi_u = _extract_exactly(sigma, {(1, 0): 0.5, (0, 1): 0.5}, search)
    psi = _rescale_shallow(psi_u.scaled(r), 0.0, r)

    # outer stage: Phi ~ p(Re w) on B_{r+1}, with Re w = R (u + conj u) / 2 for u = w / R expanded binomially
    coef, poly_err = _chebyshev_relu(r, 2.0 * eps / 3.0)
    outer_radius = r + 1.0
    poly = {(0, 0): complex(coef[0])}
    for k in range(1, len(coef)):
        for j in range(k + 1):
            poly[(j, k - j)] = complex(coef[k]) * math.comb(k, j) * 2.0 ** (-k) * outer_radius**k
    phi = _rescale_shallow(_extract_exactly(sigma, poly, search), 0.0, outer_radius)

    return compose(phi.to_network(), psi.to_network())


def _passthrough_net():
    return NetworkWeights((([[1.0]], [0.0]), ([[1.0]], [0.0])))


def _relu_surrogate(sigma, radius, eps):
    """Depth-2 approximation of max(0, Re z), exact for self-composing activations."""
    if _is_exact_relu_composer(sigma):
        return compose(_passthrough_net(), _passthrough_net()), True
    return build_relu_c(sigma, radius, eps, gate=False), False


def pad_with_identity(net, sigma, extra_layers, radius):
    """Deepen ``net`` by composing near-identity single layers onto its output.

    For activations whose self-composition is exactly max(0, Re z) the padding
    layer is sigma itself (exact on the real nonnegative range); otherwise a
    degree-1 monomial network approximating the identity on the ball covering
    the output range.
    """
    if extra_layers <= 0:
        return net
    if _is_exact_relu_composer(sigma):
        pad = _passthrough_net()
    else:
        ident_u = _extract_exactly(sigma, {(1, 0): 1.0}, _search_grid(sigma))
        pad = _rescale_shallow(ident_u.scaled(radius), 0.0, radius).to_network()
    for _ in range(extra_layers):
        net = compose(pad, net)
    return net


def _ridge_parameters(rng, count, d, radius):
    g = rng.standard_normal((count, 2 * d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    scales = rng.uniform(0.5, 2.0, size=count) / max(radius, 1e-9)
    beta = g * scales[:, None]
    gamma = rng.uniform(-1.0, 1.0, size=count)
    w = beta[:, :d] - 1j * beta[:, d:]
    return w, gamma


def _design(features):
    """A column of ones, then ``features``: the design of a fit whose first coefficient is the constant."""
    return np.concatenate([np.ones((features.shape[0], 1)), features], axis=1)


def _refit_design(design, fvals, lawson=0):
    """(coef, sup residual) of ``fvals`` fit on the columns of ``design``, with ``lawson`` sup-oriented passes.

    A real design is fit in real arithmetic, to Re f and Im f.  With Lawson passes, a full-rank design (no singular
    value within lstsq's cutoff eps * max(n, p) * s_max) is factored once, A = U S V^H by QR and an SVD of R, and each
    pass solves (U^H W U) y = U^H W f by Cholesky; a rank-deficient design and a pass Cholesky rejects take lstsq.
    """
    rhs = np.stack([fvals.real, fvals.imag], axis=1) if np.isrealobj(design) else fvals
    joined = (lambda x: x[:, 0] + 1j * x[:, 1]) if rhs.ndim == 2 else (lambda x: x)
    u = None
    if lawson:
        _, s, vh = np.linalg.svd(np.linalg.qr(design, mode="r"), full_matrices=False)
        if s[-1] > np.finfo(float).eps * max(design.shape) * s[0]:
            u = design @ (to_coef := vh.conj().T / s)

    def weighted_fit(w):
        if u is not None:
            with contextlib.suppress(np.linalg.LinAlgError):
                return to_coef @ _gram_solve(u, rhs, w)
        root = np.sqrt(w)
        coef, *_ = np.linalg.lstsq(design * root[:, None], (rhs.T * root).T, rcond=None)
        return coef

    coef, sup = _lawson(weighted_fit, lambda x: np.abs(fvals - joined(design @ x)), fvals.size, 1 + lawson)
    return joined(coef), sup


def _gram_solve(u, rhs, w):
    """y solving (U^H W U) y = U^H W rhs by Cholesky, the Gram summed in order over row blocks of U's real view."""
    step = max(workers.CHUNK_ENTRIES // u.shape[1], 2 * u.shape[1])  # no block shorter than the Gram is wide
    blocks = (u.view(float)[i : i + step] * np.sqrt(w[i : i + step, None]) for i in range(0, w.size, step))
    gram = sum(block.T @ block for block in blocks)
    if np.iscomplexobj(u):
        # u_j^H W u_k = (Re.Re + Im.Im) + i (Re.Im - Im.Re)
        gram = gram[::2, ::2] + gram[1::2, 1::2] + 1j * (gram[::2, 1::2] - gram[1::2, ::2])
    chol = np.linalg.cholesky(gram)
    # U^H W rhs as conj(conj(W rhs)^T U), which reads U in place
    return np.linalg.solve(chol.conj().T, np.linalg.solve(chol, ((w * rhs.T).conj() @ u).conj().T))


def _ball(domain, d):
    """(center in C^d, radius) of a ``(center, radius)`` domain; a scalar center repeats."""
    center, radius = domain
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    if center.shape[0] != d:
        center = np.full(d, complex(center[0]))
    return center, float(radius)


def _ridge_stage(sigma, trunk, target, center, radius, d, width, rng, lawson):
    """(RidgeNetwork, stage_errors): seeded ReLU ridges of ``target`` with ``trunk`` in place of the ReLU.

    The one ridge-substitution stage of deep and lifted synthesis.  A real
    one-hidden-layer ReLU fit on random points of the ball supplies ridge j,
    max(0, Re(w_j . (z - center)) + gamma_j); stage1_sup is its sup residual.
    Its pre-activation divided by s_j, which keeps it inside the unit disc on
    the fit points, is ``(w_j / s_j) . z + bias_j``, and ``trunk``, a 1-input
    network approximating max(0, Re zeta) there, takes the ReLU's place: the
    feature of ridge j is s_j trunk(...).  The constant and outer
    coefficients are refit on those features with ``lawson`` sup-oriented
    passes, which absorbs the trunk's error.
    """
    n_fit = max(RIDGE_FIT_POINTS, 5 * width)
    fit_pts = random_points(center, radius, n_fit, rng, d=d)
    fvals = np.asarray(target(fit_pts), dtype=complex)
    w, gamma = _ridge_parameters(rng, width, d, radius)
    pre = (fit_pts - center) @ w.T + gamma
    _, stage1_sup = _refit_design(_design(np.maximum(0.0, pre.real)), fvals)
    s = 1.05 * np.maximum(np.max(np.abs(pre), axis=0), 1e-9)
    bias = [gamma[j] / s[j] - (w[j] @ center) / s[j] for j in range(width)]
    # all ridges share the trunk: evaluate it once on the stacked scaled pre-activations;
    # each stack-sized array is released once the next exists, before the refit's solves
    stacked = (pre / s).T.reshape(-1)
    del pre
    flat = np.asarray(eval_network(trunk, sigma, stacked), dtype=complex)
    del stacked
    design = _design(flat.reshape(width, fvals.size).T * s)
    del flat
    coef, refit_sup = _refit_design(design, fvals, lawson=lawson)
    ridge = ShallowNetwork(coef[0], coef[1:] * s, w / s[:, None], bias)
    return RidgeNetwork(ridge, trunk), {"stage1_sup": stage1_sup, "refit_sup_on_fit_points": refit_sup}


def _is_pivot(target, d):
    """True when ``target`` on C^d is max(0, Re z) itself on C^1, which deep synthesis builds directly."""
    # a timed or traced target is a functools.wraps wrapper of the built-in one
    return d == 1 and inspect.unwrap(target) is targets.relu_c


def synthesize_deep(sigma, target, d, L, domain, config=None, target_name="custom", gate=True):
    """Network with exactly ``L`` hidden layers approximating ``target`` on a ball.

    The depth-2 real-ReLU surrogate (identity-padded up to depth L) is the
    trunk of :func:`_ridge_stage`, which substitutes it into the ridges of a
    real one-hidden-layer fit of the target and refits the output
    coefficients against the substituted features.  The result is a
    :class:`RidgeNetwork` whose trunk is that surrogate, or, when the target
    is max(0, Re z) itself on C^1, the deepened surrogate alone.
    """
    config = config or ConstructorConfig()
    if L < 2:
        raise ValueError("deep synthesis needs at least two hidden layers")
    if gate:
        _require_verdict(sigma, "deep_universal")
    center, radius = _ball(domain, d)
    stage_errors = {}

    if _is_pivot(target, d):
        # the target is the pivot function itself: deepen the surrogate only
        rho_hat, _ = _relu_surrogate(sigma, radius, PIVOT_RELU_EPS)
        net = pad_with_identity(rho_hat, sigma, L - 2, radius + 1.0)
    else:
        rho_hat, exact = _relu_surrogate(sigma, 1.3, DEEP_RELU_EPS)
        rho_deep = pad_with_identity(rho_hat, sigma, L - 2, 1.3)
        width = DEEP_RIDGE_WIDTH if not exact else REAL_STAGE_WIDTH
        rng = np.random.default_rng(config.seed)
        net, stage_errors = _ridge_stage(sigma, rho_deep, target, center, radius, d, width, rng, lawson=4)

    echo = {**config.echo(), "layers": L}
    return net, _certificate(net, sigma, target, center, radius, d, config, target_name, echo, stage_errors)


def lift_dimension(sigma, target, domain, d, config=None, target_name="custom", gate=True):
    """Shallow d-input network via ridge reduction to the real-part ReLU.

    A seeded random-feature fit psi(zeta) = alpha_0 + sum_k alpha_k
    sigma(u_k zeta + c_k) of max(0, Re zeta) on the unit disc is the trunk of
    :func:`_ridge_stage`, which substitutes it into the ridges of a real
    one-hidden-layer ReLU fit of the target and refits the outer layer.  The
    result is a :class:`RidgeNetwork` with a depth-1 trunk: a shallow network
    of ``REAL_STAGE_WIDTH * PSI_WIDTH`` neurons, kept by its structure.
    """
    config = config or ConstructorConfig()
    if d < 2:
        raise ValueError("dimension lifting targets d >= 2")
    if gate:
        _require_verdict(sigma, "shallow_universal")
    center, radius = _ball(domain, d)
    rng = np.random.default_rng(config.seed)

    psi_grid = make_grid(0.0, 1.1, 33, staggered=True)
    u_k = random_points(0.0, 2.0, PSI_WIDTH, rng)[:, 0]
    c_k = random_points(0.0, 2.0, PSI_WIDTH, rng)[:, 0]
    feats = sigma.raw(psi_grid.scalars[:, None] * u_k[None, :] + c_k[None, :])
    rho_vals = np.maximum(0.0, psi_grid.scalars.real) + 0j
    alpha, psi_sup = _refit_design(_design(feats), rho_vals)
    psi = ShallowNetwork(alpha[0], alpha[1:], u_k[:, None], c_k).to_network()

    net, stage_errors = _ridge_stage(sigma, psi, target, center, radius, d, REAL_STAGE_WIDTH, rng, lawson=8)
    stage_errors["psi_sup"] = psi_sup
    cert = _certificate(net, sigma, target, center, radius, d, config, target_name, config.echo(), stage_errors)
    return net, cert
