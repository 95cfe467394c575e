"""Numerical Wirtinger calculus.

Mixed derivatives d^m dbar^l are assembled from central finite differences of
the real partials: with z = x + iy,

    d    = (d/dx - i d/dy) / 2,      dbar = (d/dx + i d/dy) / 2,

so d^m dbar^l expands binomially into mixed real partials of total order
m + l.  The Laplacian satisfies Delta = 4 d dbar, hence Delta^m comes from
the (m, m) jet entry.  Mollification smooths non-smooth activations by a
compactly supported bump kernel so the stencils above apply.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import StencilSingularityError


def fd_weights(order, offsets):
    """Finite-difference weights for the ``order``-th derivative at 0.

    Classic Fornberg recursion on arbitrary nodes; ``offsets`` are the node
    positions (already scaled by the step).
    """
    x = np.asarray(offsets, dtype=float)
    n = x.size
    m = int(order)
    if m >= n:
        raise ValueError("not enough stencil points for requested order")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def stencil_halfwidth(total_order):
    """Half-width of the symmetric stencil used for a given derivative order."""
    k = int(total_order)
    if k == 0:
        return 1
    extra = 3 if k <= 4 else 2
    return (k + 1) // 2 + extra


_STEP_SCALE = ((2, 0.01), (4, 0.02), (6, 0.035), (8, 0.05))


def default_step(total_order, z0=0.0):
    """Step balancing truncation against roundoff for the given order."""
    scale = 0.08
    for bound, s in _STEP_SCALE:
        if total_order <= bound:
            scale = s
            break
    return scale * (1.0 + abs(z0))


@dataclasses.dataclass(frozen=True)
class WirtingerJet:
    """Table of mixed Wirtinger derivatives of one function at one point."""

    base_point: complex
    max_dz: int
    max_dzbar: int
    values: dict
    step: float

    def __getitem__(self, key):
        return self.values[key]


def wirtinger_terms(m, ell):
    """Binomial expansion of d^m dbar^l into real partials, one term per (j, k).

    Returns [(a, b, coeff)] with d^m dbar^l = sum coeff * d^a/dx^a d^b/dy^b;
    terms may repeat an (a, b) pair.
    """
    pref = 2.0 ** (-(m + ell))
    terms = []
    for j in range(m + 1):
        for k in range(ell + 1):
            coeff = pref * math.comb(m, j) * math.comb(ell, k) * (-1j) ** (m - j) * (1j) ** (ell - k)
            terms.append((j + k, (m - j) + (ell - k), coeff))
    return terms


def _mixed_coefficients(m, ell):
    """Expansion of d^m dbar^l into real partials: {(a, b): coeff}."""
    out = {}
    for a, b, coeff in wirtinger_terms(m, ell):
        out[(a, b)] = out.get((a, b), 0.0) + coeff
    return out


def _stencil_samples(f, zs, n, h):
    """Samples f on the (2n+1)^2 square stencil around each point of ``zs``."""
    offs = np.arange(-n, n + 1)
    zs = np.asarray(zs, dtype=complex)
    pts = zs[..., None, None] + h * (offs[:, None] + 1j * offs[None, :])
    vals = np.asarray(f(pts), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise StencilSingularityError("stencil hit singularity")
    return vals


def wirtinger_jet(f, z0, max_dz, max_dzbar, step=None):
    """All entries (d^m dbar^l f)(z0) for m <= max_dz, l <= max_dzbar.

    ``f`` must accept complex ndarrays.  The error is O(step^4) for functions
    smooth on the stencil's footprint; the default step is
    ``default_step(max_dz + max_dzbar, z0)``.
    """
    z0 = complex(z0)
    h = default_step(max_dz + max_dzbar, z0) if step is None else float(step)
    entries = [(m, ell) for m in range(max_dz + 1) for ell in range(max_dzbar + 1)]
    vals = jet_entries_at(f, np.array([z0]), entries, step=h)
    table = {e: complex(v[0]) for e, v in vals.items()}
    return WirtingerJet(base_point=z0, max_dz=max_dz, max_dzbar=max_dzbar, values=table, step=h)


def jet_entries_at(f, zs, entries, step=None, step_scale=None):
    """Several jet entries (m, l) at every point of ``zs``, vectorized.

    All requested entries are assembled from one shared stencil sampling per
    point (sized for the largest total order).  ``step_scale`` overrides the
    per-order default; the actual step at each point is ``scale * (1 + |z|)``,
    quantized so nearby points share a stencil batch.
    """
    zs = np.asarray(zs, dtype=complex)
    entries = [tuple(e) for e in entries]
    K = max(m + ell for m, ell in entries)
    n = stencil_halfwidth(K)
    if step is not None:
        step = np.asarray(step, dtype=float)
        hs = np.broadcast_to(step, zs.shape).copy() if step.shape != zs.shape else step
    else:
        scale = step_scale if step_scale is not None else default_step(K, 0.0)
        levels = np.exp2(np.round(np.log2(1.0 + np.abs(zs)) * 2.0) / 2.0)
        hs = scale * levels
    out = {e: np.zeros(zs.shape, dtype=complex) for e in entries}
    coeffs = {e: _mixed_coefficients(*e) for e in entries}
    flat_z = zs.ravel()
    flat_h = hs.ravel()
    order = np.argsort(flat_h, kind="stable")
    idx = 0
    offs = np.arange(-n, n + 1)
    while idx < flat_z.size:
        h = flat_h[order[idx]]
        j = idx
        while j < flat_z.size and flat_h[order[j]] == h:
            j += 1
        sel = order[idx:j]
        vals = _stencil_samples(f, flat_z[sel], n, h)
        w = [fd_weights(a, offs * h) for a in range(K + 1)]
        partial_cache = {}
        for e in entries:
            acc = np.zeros(sel.shape, dtype=complex)
            for (a, b), coeff in coeffs[e].items():
                if (a, b) not in partial_cache:
                    partial_cache[(a, b)] = np.einsum("i,nij,j->n", w[a], vals, w[b])
                acc += coeff * partial_cache[(a, b)]
            out[e].ravel()[sel] = acc
        idx = j
    return out


def laplacian_power(f, m, z0, step=None):
    """(Delta^m f)(z0) via the identity Delta^m = 4^m d^m dbar^m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    jet = wirtinger_jet(f, z0, m, m, step=step)
    return (4.0**m) * jet[(m, m)]


@dataclasses.dataclass(frozen=True)
class MollifierSpec:
    """Midpoint-rule discretization of the bump kernel of support ``epsilon``.

    ``offsets``/``weights`` give the discrete convolution nodes; the weights
    sum to 1 by construction (the normalization constant is computed with the
    same quadrature).
    """

    epsilon: float
    quadrature_points_per_axis: int
    normalization: float
    offsets: np.ndarray
    weights: np.ndarray


def _bump_values(u):
    r2 = np.abs(u) ** 2
    out = np.zeros(u.shape)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    return out


def make_mollifier(epsilon, quadrature_points_per_axis=64):
    """Build a :class:`MollifierSpec` for the given support radius."""
    eps = float(epsilon)
    q = int(quadrature_points_per_axis)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    t = -1.0 + (np.arange(q) + 0.5) * (2.0 / q)
    uu = t[:, None] + 1j * t[None, :]
    vals = _bump_values(uu)
    cell = (2.0 / q) ** 2
    norm = 1.0 / (vals.sum() * cell)
    mask = vals > 0.0
    weights = (norm * cell) * vals[mask]
    offsets = eps * uu[mask]
    return MollifierSpec(
        epsilon=eps,
        quadrature_points_per_axis=q,
        normalization=norm,
        offsets=offsets,
        weights=weights,
    )


_CHUNK = 4_000_000


def mollify(sigma, spec):
    """Smooth ``sigma`` by discrete convolution with the bump kernel.

    Returns a vectorized function ``z -> (eta_eps * sigma)(z)`` evaluated by
    the spec's quadrature.  Non-finite samples of ``sigma`` (declared
    singularities form a null set) are skipped.  The result may be fed to
    ``wirtinger_jet`` with ``step`` well below ``spec.epsilon``.
    """
    offsets = spec.offsets
    weights = spec.weights

    def smoothed(z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.zeros(flat.shape, dtype=complex)
        block = max(1, _CHUNK // max(1, offsets.size))
        for start in range(0, flat.size, block):
            zz = flat[start : start + block]
            samples = sigma.raw(zz[:, None] - offsets[None, :])
            bad = ~np.isfinite(samples)
            if bad.any():
                samples = np.where(bad, 0.0, samples)
            out[start : start + block] = samples @ weights
        return out.reshape(z.shape)

    return smoothed
