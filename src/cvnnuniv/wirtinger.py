"""Numerical Wirtinger calculus.

Mixed derivatives d^m dbar^l are assembled from central finite differences of
the real partials: with z = x + iy,

    d    = (d/dx - i d/dy) / 2,      dbar = (d/dx + i d/dy) / 2,

so d^m dbar^l expands binomially into mixed real partials of total order
m + l.  The Laplacian satisfies Delta = 4 d dbar, hence Delta^m comes from
the (m, m) jet entry.  Mollification smooths non-smooth activations by a
compactly supported bump kernel so the stencils above apply; it is evaluated
at the points of the mollifier's lattice only (:class:`LatticeMollification`).
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
import mmap

import numpy as np

from . import workers
from .errors import StencilSingularityError
from .workers import CHUNK_ENTRIES


def fd_weights(order, offsets):
    """Finite-difference weights at 0 for every derivative order up to ``order``.

    Classic Fornberg recursion on arbitrary nodes; ``offsets`` are the node
    positions (already scaled by the step).  Column a of the returned
    (nodes, order + 1) table holds the weights of the a-th derivative.
    Column k is computed from columns k and k - 1 alone, so it has the same
    bits for any ``order`` >= k.
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
    return c


@functools.lru_cache(maxsize=1024)
def stencil_weights(halfwidth, step, order):
    """Read-only :func:`fd_weights` table on the nodes ``step * (-halfwidth .. halfwidth)``.

    Memoized, so each (halfwidth, step, order) runs the recursion once; the
    bound only keeps callers with ever new steps from growing the memo.
    """
    table = fd_weights(order, np.arange(-halfwidth, halfwidth + 1) * step)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=1024)
def _stencil_support(halfwidth, step, order, partials):
    """Read-only mask of the square stencil's nodes that some real partial reads.

    Node (i, j) enters d^a/dx^a d^b/dy^b with weight ``w[i, a] * w[j, b]``
    (``w`` the :func:`stencil_weights` table), so a node outside the mask
    has weight 0 in every partial (a, b) of ``partials``.  Memoized beside
    the weights.
    """
    nonzero = stencil_weights(halfwidth, step, order) != 0.0
    mask = np.zeros((nonzero.shape[0], nonzero.shape[0]), dtype=bool)
    for a, b in partials:
        mask |= nonzero[:, a, None] & nonzero[None, :, b]
    mask.flags.writeable = False
    return mask


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


def _stencil_samples(f, zs, n, h, support):
    """Samples f at the ``support`` nodes of the (2n+1)^2 square stencil around each point of ``zs``, 0 at the others."""
    offs = np.arange(-n, n + 1)
    zs = np.asarray(zs, dtype=complex)
    nodes = (h * (offs[:, None] + 1j * offs[None, :]))[support]
    read = np.asarray(f(zs[..., None] + nodes), dtype=complex)
    if not np.all(np.isfinite(read)):
        raise StencilSingularityError("stencil hit singularity")
    vals = np.zeros(zs.shape + support.shape, dtype=complex)
    vals[..., support] = read
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


def stencil_steps(zs, scale):
    """Default per-point steps ``scale * (1 + |z|)``, with 1 + |z| rounded to a power of sqrt(2)."""
    levels = np.exp2(np.round(np.log2(1.0 + np.abs(zs)) * 2.0) / 2.0)
    return scale * levels


def jet_entries_at(f, zs, entries, step=None, step_scale=None):
    """Several jet entries (m, l) at every point of ``zs``, vectorized.

    Points are grouped by step.  Each group's entries are assembled from one
    square stencil sized for the largest total order, and f is sampled only
    at the nodes some requested real partial weighs (:func:`_stencil_support`):
    the cross through the point (17 of 81 nodes) for first-order entries,
    whose 0th-order weights are a delta, and the whole square once a mixed
    partial is requested.  The other nodes hold 0 and add only zeros to the
    sums, so every entry is the full square's.  ``step`` gives the steps
    (one, or one per point); otherwise they are :func:`stencil_steps` of
    ``step_scale``, which overrides the per-order default scale.  Raises
    :class:`StencilSingularityError` when f is not finite at a sampled node.
    """
    zs = np.asarray(zs, dtype=complex)
    entries = [tuple(e) for e in entries]
    K = max(m + ell for m, ell in entries)
    n = stencil_halfwidth(K)
    if step is not None:
        step = np.asarray(step, dtype=float)
        hs = np.broadcast_to(step, zs.shape).copy() if step.shape != zs.shape else step
    else:
        hs = stencil_steps(zs, step_scale if step_scale is not None else default_step(K, 0.0))
    out = {e: np.zeros(zs.shape, dtype=complex) for e in entries}
    coeffs = {e: _mixed_coefficients(*e) for e in entries}
    partials = tuple(sorted({ab for c in coeffs.values() for ab in c}))
    flat_z = zs.ravel()
    flat_h = hs.ravel()
    order = np.argsort(flat_h, kind="stable")
    idx = 0
    while idx < flat_z.size:
        h = flat_h[order[idx]]
        j = idx
        while j < flat_z.size and flat_h[order[j]] == h:
            j += 1
        sel = order[idx:j]
        vals = _stencil_samples(f, flat_z[sel], n, h, _stencil_support(n, float(h), K, partials))
        w = stencil_weights(n, float(h), K)
        partial_cache = {}
        for e in entries:
            acc = np.zeros(sel.shape, dtype=complex)
            for (a, b), coeff in coeffs[e].items():
                if (a, b) not in partial_cache:
                    partial_cache[(a, b)] = np.einsum("i,nij,j->n", w[:, a], vals, w[:, b])
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
    sum to 1 by construction (the kernel is normalized with the same
    quadrature).
    """

    epsilon: float
    quadrature_points_per_axis: int
    offsets: np.ndarray
    weights: np.ndarray

    @property
    def spacing(self):
        """Distance between neighbouring quadrature nodes, ``2 epsilon / q``."""
        return 2.0 * self.epsilon / self.quadrature_points_per_axis

    @property
    def reach(self):
        """Largest |coordinate| of a computed lattice point that is still taken for it.

        The roundings that form a point or stencil node x, and divide it by
        the spacing, add up to at most ``2 eps |x| / spacing``, which must stay
        within ``_ON_LATTICE``.
        """
        return _ON_LATTICE * self.spacing / (2.0 * math.ulp(1.0))


def _bump_values(u):
    r2 = np.abs(u) ** 2
    out = np.zeros(u.shape)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    return out


def make_mollifier(epsilon, quadrature_points_per_axis):
    """Build a :class:`MollifierSpec`: support radius ``epsilon`` (finite, > 0), an integer >= 1 of nodes per axis."""
    eps, q = float(epsilon), quadrature_points_per_axis
    if not (math.isfinite(eps) and eps > 0 and isinstance(q, (int, np.integer)) and q >= 1):
        raise ValueError("epsilon must be finite and positive, and quadrature_points_per_axis an integer >= 1")
    t = -1.0 + (np.arange(q) + 0.5) * (2.0 / q)
    uu = t[:, None] + 1j * t[None, :]
    vals = _bump_values(uu)
    cell = (2.0 / q) ** 2
    norm = 1.0 / (vals.sum() * cell)
    mask = vals > 0.0
    weights = (norm * cell) * vals[mask]
    offsets = eps * uu[mask]
    return MollifierSpec(epsilon=eps, quadrature_points_per_axis=int(q), offsets=offsets, weights=weights)


# side of a lattice's persistent sample canvas, centred on the lattice origin: on the classifier's lattice every
# sample (u, v) the catalog reads lies in [-530, 530)^2 at the default radius and in [-1050, 1050)^2 at radius 4
_CANVAS = 2120
# entries one LatticeMollification may hold: its canvas (2120^2 = 4,494,400 samples) and 305,600 values
_HELD = 4_800_000
# points are processed in _GROUP x _GROUP cells of window corners
_GROUP = 512
# sigma is evaluated for whole _BLOCK x _BLOCK blocks of samples, and a canvas marks which blocks it holds
_BLOCK = 4
# sigma sees canonical arguments only in pieces of exactly _PIECE entries: NumPy may round a complex
# product differently in long arrays than in short ones (NumPy 2.4 on AVX-512: z * conj(z) flips the
# sign of its ~1e-17 imaginary part between 1e4 and 1.6e4 entries), and a sample must not depend on how many were
# evaluated with it
_PIECE = 4096
# largest |z / spacing - round(z / spacing)|, per axis, of a point taken as a lattice point
_ON_LATTICE = 1e-9
# largest |z / spacing| of a lattice point
_LATTICE_REACH = 2.0**31
# the held keys and values of a cell that holds none
_NONE_HELD = (np.empty(0, dtype=np.int64), np.empty(0, dtype=complex))


def _lattice_index(x, spacing):
    """(on, index): whether each coordinate in ``x`` sits on the lattice ``spacing * Z``, and where."""
    a = np.asarray(x, dtype=float) / spacing
    with np.errstate(invalid="ignore"):
        idx = np.rint(a)
        on = (np.abs(a - idx) <= _ON_LATTICE) & (np.abs(idx) <= _LATTICE_REACH)
    return on, np.where(on, idx, 0.0).astype(np.int64)


class _Canvas:
    """Samples of sigma over a block-aligned rectangle of samples from ``(u0, v0)``, and which blocks hold them."""

    def __init__(self, u0, v0, samples):
        self.u0, self.v0, self.samples = u0, v0, samples
        self.have = np.zeros((samples.shape[0] // _BLOCK, samples.shape[1] // _BLOCK), dtype=bool)


def _weighted_sums(flat, corners, window, weights):
    """``flat[corner + window] @ weights`` per corner, each one fixed-length sum (a gemv may round a row otherwise).

    Rows are summed in blocks of about ``CHUNK_ENTRIES`` samples; a row's sum
    does not depend on the block it is in.
    """
    out = np.empty(corners.size, dtype=complex)
    chunk = max(1, CHUNK_ENTRIES // weights.size)
    for s in range(0, corners.size, chunk):
        samples = flat[corners[s : s + chunk, None] + window]
        samples *= weights
        out[s : s + chunk] = samples.sum(axis=1)
    return out


def mollify(sigma, spec):
    """Smooth ``sigma`` by discrete convolution with the bump kernel.

    Returns the vectorized function ``z -> (eta_eps * sigma)(z)`` evaluated
    by the spec's quadrature, a :class:`LatticeMollification`: it takes
    lattice points only and raises ``ValueError`` at any other finite point.
    Non-finite samples of ``sigma`` (declared singularities form a null set)
    are skipped; the value at a non-finite point is NaN.
    """
    return LatticeMollification(sigma, spec)


class LatticeMollification:
    """The spec's quadrature of the convolution of sigma, with sigma evaluated once per argument of its lattice.

    Lattice contract: the quadrature nodes of :func:`make_mollifier` sit half
    a spacing off the lattice ``spacing * Z^2`` (on it for odd q), with
    ``spacing = 2 epsilon / q``.  At a point of that lattice every argument
    ``z - offset`` is a canonical argument ``((u + frac) + i (v + frac)) *
    spacing``, ``frac`` being 1/2 or 0.  Node (k, l) sits at ``(k - c) + i (l
    - c)`` spacings from 0, with ``c = (q - 1) / 2``, so the value at ``(A + i
    B) * spacing`` is the weighted sum of the samples ``(u, v) = (A +
    floor(c) - k, B + floor(c) - l)``.  sigma is evaluated once per canonical
    argument that the points need, and each value is formed once per lattice
    point: a point asked for twice in one call, or again in a later call, is
    read back from the held values (sorted keys and values per cell of
    points).  Samples are held in one canvas, a dense array over the
    ``_CANVAS``-wide square of samples around the lattice origin with a
    bitmap of the ``_BLOCK`` x ``_BLOCK`` blocks it holds; a cell of points
    whose windows reach past it samples into a transient canvas of its own.
    The canvas area and the held values stay within ``_HELD`` entries: no
    value is dropped, and none is added once the budget is full.  Every
    sample is a pure function of (u, v) and every value one fixed-length sum,
    so a value has the same bits alone, in any batch, and whether or not it
    or its samples were held before.  Only lattice points are evaluated: a
    finite point off the lattice or past ``_LATTICE_REACH`` spacings raises
    ``ValueError`` (rounding it would turn a jet at a sub-spacing step into
    differences of equal values), and a non-finite point is NaN.  A spec
    whose nodes are off the lattice (a hand-built :class:`MollifierSpec`)
    raises ``ValueError`` here.

    Order rule: the calling thread takes the cells of points in order,
    samples each cell's missing blocks into its canvas and holds values
    against the budget exactly as a serial pass would; only the weighted sums
    run on the package's worker pool (:mod:`cvnnuniv.workers`), which calls
    no activation.  A block is written before any sum that reads it is
    submitted and marked held only once its cell's sampling returns, so sums
    read the canvas while it grows.  At most ``_WORKERS + 1`` cells are in
    flight, which bounds the transient canvases alive at once.  So sigma sees
    the same arguments in the same order, the same samples and values are
    held, and every value has the same bits, for any number of workers.

    Step rule: stencils on lattice points stay on the lattice when each step
    is a whole number of spacings, which :meth:`snap_steps` rounds to.  On
    the classifier's default steps (:func:`stencil_steps`) that leaves the
    levels 1, 2 and 4 unchanged and moves the sqrt(2) levels by at most 6%.
    The steps are not held below epsilon: the classifier's Delta^3 / Delta^4
    stencils step by up to 0.035 * 2 sqrt(2), snapped to 0.1 = 2 epsilon, on
    the radius-2 grid.
    """

    def __init__(self, sigma, spec):
        q = spec.quadrature_points_per_axis
        c = (q - 1) / 2.0
        self.sigma = sigma
        self.spec = spec
        self.spacing = spec.spacing
        self.lead = math.floor(c)
        self.frac = c - self.lead
        on_k, k = _lattice_index(spec.offsets.real + c * self.spacing, self.spacing)
        on_l, l = _lattice_index(spec.offsets.imag + c * self.spacing, self.spacing)
        if k.size == 0 or not np.all(on_k & on_l):
            raise ValueError("the spec's nodes are not on its lattice")
        self.k, self.l = k, l
        self.weights = spec.weights
        # each node row k covers the columns l in [lo, hi] (a superset when the kernel has holes)
        self.rows = np.unique(k)
        self.row_lo = np.array([l[k == r].min() for r in self.rows])
        self.row_hi = np.array([l[k == r].max() for r in self.rows])
        side = min(_CANVAS, math.isqrt(_HELD) // (2 * _BLOCK) * 2 * _BLOCK)
        # an anonymous map: untouched pages cost no memory, and NumPy gives it no huge-page advice
        samples = np.frombuffer(mmap.mmap(-1, np.dtype(complex).itemsize * side**2), dtype=complex).reshape(side, side)
        self.canvas = _Canvas(-side // 2, -side // 2, samples)
        # held values per cell: sorted corner keys and their values
        self.values = {}
        self.held_values = 0

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        on_re, a = _lattice_index(flat.real, self.spacing)
        on_im, b = _lattice_index(flat.imag, self.spacing)
        on = on_re & on_im
        if np.any(~on & np.isfinite(flat)):
            raise ValueError("a point is off the mollifier's lattice spacing * Z^2, or past its reach")
        out = np.full(flat.shape, complex(np.nan, np.nan))
        if on.any():
            out[on] = self._values(a[on] + self.lead, b[on] + self.lead)
        return out.reshape(z.shape)

    def snap_steps(self, steps):
        """``steps`` rounded to whole numbers of spacings, at least one."""
        return self.spacing * np.maximum(1.0, np.round(np.asarray(steps, dtype=float) / self.spacing))

    def _values(self, u, v):
        """Values at the sample-space window corners ``(u, v)`` (int64 arrays), one _GROUP x _GROUP cell at a time.

        Each distinct corner is formed once: a held value is read back, and
        only new corners go to :meth:`_cell_values`, whose sums are collected
        in cell order.
        """
        cu, cv = u // _GROUP, v // _GROUP
        # corners within a cell are keyed by their offset from its first corner, so no key overflows
        local = (u - cu * _GROUP) * _GROUP + (v - cv * _GROUP)
        cell = cu * 2**32 + cv
        order = np.argsort(cell, kind="stable")
        bounds = np.flatnonzero(np.diff(cell[order])) + 1
        out = np.empty(u.shape, dtype=complex)
        # cells whose sums are being formed on the pool: with the one being sampled, at most _WORKERS + 1
        pending = collections.deque()
        ahead = workers._WORKERS if workers.pooled() else 0

        def collect(sel, inverse, values, new, sums, at, where, keys):
            formed = values[new] = sums.result()
            if keys.size:
                held_keys, held_values = self.values.get(at, _NONE_HELD)
                self.values[at] = (np.insert(held_keys, where, keys), np.insert(held_values, where, formed[: keys.size]))
            out[sel] = values[inverse]

        try:
            for sel in np.split(order, bounds):
                at = (int(cu[sel[0]]), int(cv[sel[0]]))
                keys, inverse = np.unique(local[sel], return_inverse=True)
                held_keys, held_values = self.values.get(at, _NONE_HELD)
                pos = np.searchsorted(held_keys, keys)
                found = pos < held_keys.size
                found[found] = held_keys[pos[found]] == keys[found]
                values = np.empty(keys.size, dtype=complex)
                values[found] = held_values[pos[found]]
                new = ~found
                if not new.any():
                    out[sel] = values[inverse]
                    continue
                fresh = keys[new]
                sums = self._cell_values(fresh // _GROUP + at[0] * _GROUP, fresh % _GROUP + at[1] * _GROUP)
                take = self._reserve_values(fresh.size)
                pending.append((sel, inverse, values, new, sums, at, pos[new][:take], fresh[:take]))
                if len(pending) > ahead:
                    collect(*pending.popleft())
        finally:
            # a cell whose sampling raised leaves the cells before it formed and held, as in a serial pass
            while pending:
                collect(*pending.popleft())
        return out

    def _cell_values(self, u, v):
        """Values at the window corners ``(u, v)`` of one cell, read from a canvas of samples, as a future.

        The cell's missing blocks are sampled into the lattice's canvas, or into
        a transient one when the cell reaches past it, on the calling thread;
        the weighted sums go to the worker pool, and the returned object's
        ``result()`` is their array.
        """
        B = _BLOCK
        # the cell's range of blocks, from (bu, bv), in sample indices / B
        bu, bv = int(u.min() - self.k.max()) // B, int(v.min() - self.l.max()) // B
        height, width = int(u.max() - self.k.min()) // B + 1 - bu, int(v.max() - self.l.min()) // B + 1 - bv
        canvas = self.canvas
        i0, j0 = bu - canvas.u0 // B, bv - canvas.v0 // B
        if min(i0, j0) < 0 or i0 + height > canvas.have.shape[0] or j0 + width > canvas.have.shape[1]:
            # a cell's own canvas: heap memory that earlier cells mapped in, unzeroed, as only sampled blocks are read
            canvas, i0, j0 = _Canvas(bu * B, bv * B, np.empty((height * B, width * B), dtype=complex)), 0, 0
        # the blocks the windows need: each node row is one interval of blocks, marked by a running sum
        rows = (u[:, None] - self.rows) // B - bu
        first = (v[:, None] - self.row_hi) // B - bv
        last = (v[:, None] - self.row_lo) // B - bv
        stride = width + 1
        marks = np.bincount((rows * stride + first).ravel(), minlength=height * stride)
        marks -= np.bincount((rows * stride + last + 1).ravel(), minlength=height * stride)
        have = canvas.have[i0 : i0 + height, j0 : j0 + width]
        missing = (np.cumsum(marks.reshape(height, stride), axis=1)[:, :-1] > 0) & ~have
        if missing.any():
            mu, mv = np.nonzero(missing)
            args = np.empty((mu.size, B, B), dtype=complex)
            args.real = (((mu + bu) * B)[:, None, None] + np.arange(B)[:, None] + self.frac) * self.spacing
            args.imag = (((mv + bv) * B)[:, None, None] + np.arange(B)[None, :] + self.frac) * self.spacing
            blocks = canvas.samples.reshape(canvas.have.shape[0], B, canvas.have.shape[1], B)
            blocks[mu + i0, :, mv + j0, :] = self._sample(args)
            # written before any sum that reads them is submitted, and marked only once sampled
            have |= missing
        span = canvas.samples.shape[1]
        corners = (u - canvas.u0) * span + (v - canvas.v0)
        window = -(self.k * span + self.l)
        return workers.submit(_weighted_sums, canvas.samples.ravel(), corners, window, self.weights)

    def _sample(self, args):
        """sigma at canonical ``args``, non-finite values set to 0, evaluated in pieces of exactly _PIECE entries."""
        flat = args.ravel()
        out = np.empty(flat.shape, dtype=complex)
        for s in range(0, flat.size, _PIECE):
            piece = flat[s : s + _PIECE]
            # the last piece is padded with copies of its own arguments
            full = piece if piece.size == _PIECE else np.resize(piece, _PIECE)
            out[s : s + _PIECE] = self.sigma.raw(full)[: piece.size]
        out[~np.isfinite(out)] = 0.0
        return out.reshape(args.shape)

    def _reserve_values(self, count):
        """How many of a cell's ``count`` new values, first keys first, the budget holds; they count as held at once."""
        take = max(0, min(count, _HELD - self.canvas.samples.size - self.held_values))
        self.held_values += take
        return take
