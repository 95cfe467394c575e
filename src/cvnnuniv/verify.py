"""Empirical verification of the non-universality obstructions.

Random networks built from a forbidden-class activation inherit a structural
differential identity: holomorphic activations give dbar == 0 at any depth
(antiholomorphic ones alternate with parity), and polynomial activations of
degree N at depth L are annihilated by the (N^L + 1)-th Laplacian power.
The error-floor experiment exhibits the approximation obstruction itself:
fixed random features with a holomorphic activation cannot drive the error
to a non-smooth target below a positive floor, while a universal activation
can.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from . import __version__, workers
from .activations import avoid_set
from .classifier import ClassifierConfig, detect_holomorphy
from .errors import ActivationSingularityError
from .grids import Grid, make_grid, points_of
from .network import NetworkWeights
from .wirtinger import jet_entries_at

_LAP_RE = re.compile(r"laplacian:([0-9]+)|laplacian_power_vanishes\(([0-9]+)\)")
# largest Laplacian power the stencils resolve: with the default steps a vanishing Delta^5 (of z^5 zbar^4) reads
# 4e-4 at 0.3 + 0.2i and 8e-3 at 1.2 - 0.7i, a vanishing Delta^6 (of z^6 zbar^5) 0.65 and 19
MAX_LAPLACIAN_POWER = 5
VALUE_CAP = 1e6


def parse_kind(kind):
    """(canonical name, jet entry, factor) of an invariant kind.

    ``kind`` is ``dbar``, ``d``, ``laplacian:<m>`` or a canonical name
    (``dbar_vanishes``, ``d_vanishes``, ``laplacian_power_vanishes(<m>)``),
    with 1 <= m <= ``MAX_LAPLACIAN_POWER``; the residual is ``factor`` times the jet entry.  Raises
    ``ValueError`` for anything else.
    """
    if kind in ("dbar", "dbar_vanishes"):
        return "dbar_vanishes", (0, 1), 1.0
    if kind in ("d", "d_vanishes"):
        return "d_vanishes", (1, 0), 1.0
    match = _LAP_RE.fullmatch(kind)
    if not match:
        raise ValueError(f"unknown invariant kind {kind!r}")
    m = int(match.group(1) or match.group(2))
    if m < 1:
        raise ValueError(f"invariant kind {kind!r}: the Laplacian power must be at least 1")
    if m > MAX_LAPLACIAN_POWER:
        raise ValueError(f"invariant kind {kind!r}: the stencils resolve Laplacian powers up to {MAX_LAPLACIAN_POWER}")
    return f"laplacian_power_vanishes({m})", (m, m), 4.0**m


@dataclasses.dataclass(frozen=True)
class InvariantReport:
    invariant_kind: str
    max_residual: float
    grid: dict
    networks_tested: int
    seed: int
    skipped_points: int = 0

    def to_json_dict(self):
        doc = dataclasses.asdict(self)
        doc["version"] = __version__
        return doc


@dataclasses.dataclass(frozen=True)
class FloorTable:
    """Best fixed-feature least-squares error per width."""

    rows: tuple
    activation_name: str
    target_name: str
    fit_method: str

    def __post_init__(self):
        widths = [r[0] for r in self.rows]
        if widths != sorted(set(widths)):
            raise ValueError("widths must be strictly increasing")

    def to_json_dict(self):
        return {
            "rows": [
                {"width": int(w), "sup_error": float(s), "l1_error": float(l)} for w, s, l in self.rows
            ],
            "activation_name": self.activation_name,
            "target_name": self.target_name,
            "fit_method": self.fit_method,
            "version": __version__,
        }

    def to_csv(self):
        lines = ["width,sup_error,l1_error"]
        for w, s, l in self.rows:
            lines.append(f"{int(w)},{s!r},{l!r}")
        return "\n".join(lines) + "\n"


def _disc_uniform(rng, shape, radius=2.0):
    r = radius * np.sqrt(rng.random(shape))
    phi = 2.0 * np.pi * rng.random(shape)
    return r * np.exp(1j * phi)


def _random_network(rng, d, depth):
    widths = [int(v) for v in rng.integers(2, 4, size=depth)]
    dims = [d] + widths + [1]
    layers = []
    for j in range(len(dims) - 1):
        a = _disc_uniform(rng, (dims[j + 1], dims[j]))
        b = _disc_uniform(rng, (dims[j + 1],))
        layers.append((a, b))
    return NetworkWeights(tuple(layers))


def _raw_network_fn(net, sigma):
    """Network evaluation that propagates non-finite values instead of raising."""

    def f(z):
        z = np.asarray(z, dtype=complex)
        cur = z.ravel()[:, None]
        with np.errstate(all="ignore"):
            for a, b in net.layers[:-1]:
                cur = sigma.raw(cur @ a.T + b)
            out = (cur @ net.layers[-1][0].T + net.layers[-1][1])[:, 0]
        return out.reshape(z.shape)

    return f


_FREQ_CAP = 3e4


def _first_order_residuals(f, pts, base):
    """|d f| and |dbar f| with per-point steps adapted to the local scale.

    A first pass at a moderate step estimates the local derivative-to-value
    ratio; the second pass measures at step ~ 0.02 / ratio, which pins the
    relative truncation error independently of how wildly the composition
    oscillates.  A step-halving consistency check drops points where finite
    differences alias (essential-singularity neighborhoods of compositions):
    a genuine derivative is step-stable, aliased garbage is not.
    """
    h1 = 1e-3 * (1.0 + np.abs(pts))
    with np.errstate(all="ignore"):
        jets = jet_entries_at(f, pts, [(1, 0), (0, 1)], step=h1)
    mag = np.abs(jets[(1, 0)]) + np.abs(jets[(0, 1)])
    omega = mag / np.maximum(np.abs(base), 1.0)
    good = np.isfinite(omega) & (omega <= _FREQ_CAP)
    h2 = 0.02 / np.maximum(omega, 20.0)
    h2 = np.exp2(np.round(np.log2(np.maximum(h2, 1e-9))))
    with np.errstate(all="ignore"):
        coarse = jet_entries_at(f, pts, [(1, 0), (0, 1)], step=h2)
        fine = jet_entries_at(f, pts, [(1, 0), (0, 1)], step=h2 / 2.0)
    d_vals, dbar_vals = fine[(1, 0)], fine[(0, 1)]
    good &= np.isfinite(d_vals) & np.isfinite(dbar_vals)
    local = np.maximum(np.abs(d_vals) + np.abs(dbar_vals), 1.0)
    for e in ((1, 0), (0, 1)):
        good &= np.abs(fine[e] - coarse[e]) <= 0.05 * local
    return d_vals, dbar_vals, good


def _stencil_footprint_ok(f, pts, reach):
    """Where f is finite and within VALUE_CAP at the four corners ``reach * (+-1 +- i)`` off each point.

    The point itself is not evaluated: every caller masks ``f(pts)`` the same way first.
    """
    ok = np.ones(pts.size, dtype=bool)
    for off in (reach * (1 + 1j), reach * (1 - 1j), reach * (-1 + 1j), reach * (-1 - 1j)):
        vals = f(pts + off)
        ok &= np.isfinite(vals) & (np.abs(vals) <= VALUE_CAP)
    return ok


def _trial(net, sigma, pts, entry, factor):
    """(residual, skipped points) of one random network on ``pts``."""
    f = _raw_network_fn(net, sigma)
    base = f(pts)
    ok = np.isfinite(base) & (np.abs(base) <= VALUE_CAP)
    if entry in ((0, 1), (1, 0)):
        ok &= _stencil_footprint_ok(f, pts, 0.02)
        use = pts[ok]
        if use.size == 0:
            return 0.0, pts.size
        d_vals, dbar_vals, good = _first_order_residuals(f, use, base[ok])
        # pointwise Cauchy-Riemann measure: the vanishing derivative is
        # compared against the local magnitude of the other one, which
        # stays meaningful arbitrarily close to poles of the composition
        if entry == (0, 1):
            vals, denom = dbar_vals, np.abs(d_vals)
        else:
            vals, denom = d_vals, np.abs(dbar_vals)
        skipped = int(np.sum(~ok)) + int(np.sum(~good))
        if not np.any(good):
            return 0.0, skipped
        return float(np.max(np.abs(vals[good]) / np.maximum(denom[good], 1.0))), skipped
    # polynomial-class networks: stencils are exact on polynomials,
    # so a wide step only suppresses roundoff
    step_scale = 0.12 * np.sqrt(entry[0])
    ok &= _stencil_footprint_ok(f, pts, step_scale * 3.0 * 8)
    use = pts[ok]
    if use.size == 0:
        return 0.0, pts.size
    with np.errstate(all="ignore"):
        vals = jet_entries_at(f, use, [entry], step_scale=step_scale)[entry]
    keep = np.isfinite(vals)
    skipped = int(np.sum(~ok)) + int(np.sum(~keep))
    if not np.any(keep):
        return 0.0, skipped
    scale = max(1.0, float(np.max(np.abs(base[ok][keep]))))
    return float(np.max(np.abs(factor * vals[keep])) / scale), skipped


def check_network_invariant(sigma, depth, kind, grid, trials=20, seed=0):
    """Max differential residual of ``trials`` random depth-``depth`` networks.

    Weights are uniform on the radius-2 disc.  Residuals are relative to
    max(1, sup |network|) per network; points where the composition blows up
    (activation poles, overflowing towers) are skipped and counted.  All
    networks are drawn from the ``seed``'s generator first; the trials then
    run on the package's thread pool (:mod:`cvnnuniv.workers`), so ``sigma``
    may be called from several threads at once.  The report is a maximum and
    a sum over the trials, the same at any number of workers; a call made
    inside a worker runs its trials serially.  Raises ``ValueError`` for an
    unknown kind or ``trials`` below 1.
    """
    kind, entry, factor = parse_kind(kind)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    pts = points_of(grid)
    rng = np.random.default_rng(seed)
    nets = [_random_network(rng, 1, depth) for _ in range(trials)]
    results = workers.map(lambda net: _trial(net, sigma, pts, entry, factor), nets)
    worst = max(residual for residual, _ in results)
    skipped = sum(count for _, count in results)
    grid_echo = {
        "radius": float(grid.radius) if isinstance(grid, Grid) else None,
        "points_per_axis": int(grid.points_per_axis) if isinstance(grid, Grid) else None,
        "size": int(pts.size),
    }
    return InvariantReport(
        invariant_kind=kind,
        max_residual=worst,
        grid=grid_echo,
        networks_tested=trials,
        seed=seed,
        skipped_points=skipped,
    )


def _feature_column(sigma, w, b, pts):
    """sigma(b + w * pts), or None where a singular pre-activation calls for a redraw; any other error propagates."""
    try:
        col = sigma.raw(b + w * pts)
    except (ArithmeticError, ActivationSingularityError):
        return None
    if not np.all(np.isfinite(col)) or np.max(np.abs(col)) > VALUE_CAP:
        return None
    return col


def _draw_features(sigma, width, pts, rng, max_retries=100):
    """Admissible random inner weights: singular pre-activations are redrawn.

    Returns the (n, width + 1) C-order design matrix, whose column 0 is ones
    and column k the k-th feature, filled column by column, and the (w, b)
    of each feature.  A block of its rows is itself a C-order design.
    """
    feats = np.empty((pts.size, width + 1), dtype=complex)
    feats[:, 0] = 1.0
    params = []
    while len(params) < width:
        for _ in range(max_retries):
            w = complex(_disc_uniform(rng, ()))
            b = complex(_disc_uniform(rng, ()))
            col = _feature_column(sigma, w, b, pts)
            if col is not None:
                feats[:, len(params) + 1] = col
                params.append((w, b))
                break
        else:
            raise ActivationSingularityError(f"{sigma.name}: could not draw an admissible feature")
    return feats, params


def error_floor_experiment(sigma, target, widths, domain, seed=0, keep_best=False):
    """Fixed-feature least-squares error table over increasing widths.

    For each width, inner weights are drawn uniformly from the radius-2 disc
    (resampling singular draws), outer coefficients solve least squares on a
    staggered fit grid, and errors are measured on a held-out regular grid.
    """
    center, radius = domain
    widths = tuple(int(w) for w in widths)
    if not widths:
        raise ValueError("widths must be nonempty")
    fit_grid = make_grid(center, radius, 33, staggered=True)
    test_grid = make_grid(center, radius, 65)
    both = np.concatenate([fit_grid.scalars, test_grid.scalars])
    fvals_fit = np.asarray(target(fit_grid.scalars), dtype=complex)
    fvals_test = np.asarray(target(test_grid.scalars), dtype=complex)
    rng = np.random.default_rng(seed)
    rows = []
    best = None
    for width in widths:
        feats_all, params = _draw_features(sigma, width, both, rng)
        design, test_design = feats_all[: fit_grid.size], feats_all[fit_grid.size :]
        # truncated SVD keeps the outer coefficients bounded: near-dependent
        # feature directions otherwise breed huge cancelling terms
        coef, *_ = np.linalg.lstsq(design, fvals_fit, rcond=1e-8)
        err = np.abs(test_design @ coef - fvals_test)
        sup, l1 = float(np.max(err)), float(np.mean(err))
        rows.append((width, sup, l1))
        if best is None or l1 < best[0]:
            best = (l1, coef, params)
        # this width's arrays go before the next width's are drawn, so two widths never hold memory at once
        del feats_all, design, test_design, err
    table = FloorTable(
        rows=tuple(rows),
        activation_name=sigma.name,
        target_name=getattr(target, "__name__", "custom"),
        fit_method="least-squares on fixed random features",
    )
    if keep_best:
        return table, best
    return table


def holomorphy_of_best_fit(sigma, target, widths, domain, seed=0):
    """Max pointwise |dbar|/max(1, |d|) of the best fixed-feature network.

    Only meaningful for holomorphic activations: every finite sum of
    holomorphic neurons is holomorphic, which is why the error floor exists.
    The features may carry poles inside the domain, so the derivative steps
    adapt pointwise exactly as in :func:`check_network_invariant`.
    """
    center, radius = domain
    guard_grid = make_grid(center, radius, 21, avoid=avoid_set(sigma), guard=0.5)
    verdict = detect_holomorphy(sigma, guard_grid, ClassifierConfig().tol)
    if verdict != "holomorphic":
        raise ValueError(f"{sigma.name} is not holomorphic ({verdict}); precondition rejected")
    _, best = error_floor_experiment(sigma, target, widths, domain, seed=seed, keep_best=True)
    _, coef, params = best

    def phi(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            out = np.full(z.shape, coef[0], dtype=complex)
            for c, (w, b) in zip(coef[1:], params):
                out = out + c * sigma.raw(b + w * z)
        return out

    pts = make_grid(center, radius, 33).scalars
    base = phi(pts)
    ok = np.isfinite(base) & (np.abs(base) <= VALUE_CAP)
    ok &= _stencil_footprint_ok(phi, pts, 0.02)
    d_vals, dbar_vals, good = _first_order_residuals(phi, pts[ok], base[ok])
    pointwise = np.abs(dbar_vals[good]) / np.maximum(np.abs(d_vals[good]), 1.0)
    return float(np.max(pointwise))
