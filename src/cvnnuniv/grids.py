"""Deterministic complex grids and planar exclusion sets.

A :class:`Cut` describes a subset of the plane (isolated points, a ray, or a
full line) that grids must keep a guard distance from, e.g. branch cuts or
poles of an activation function.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import GridError


@dataclasses.dataclass(frozen=True)
class Cut:
    """One primitive piece of an exclusion set in the complex plane.

    kind "points": ``anchors`` lists the points.
    kind "ray":    {anchor + t*direction : t >= 0}.
    kind "line":   {anchor + t*direction : t real}.
    """

    kind: str
    anchors: tuple
    direction: complex = 1.0 + 0j

    def __post_init__(self):
        if self.kind not in ("points", "ray", "line"):
            raise ValueError(f"unknown cut kind {self.kind!r}")
        if self.kind != "points" and abs(self.direction) == 0:
            raise ValueError("ray/line cuts need a nonzero direction")

    def distance(self, z):
        """Euclidean distance from each entry of ``z`` to this set."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "points":
            pts = np.asarray(self.anchors, dtype=complex)
            return np.min(np.abs(z[..., None] - pts), axis=-1)
        u = self.direction / abs(self.direction)
        w = (z - self.anchors[0]) * np.conj(u)
        if self.kind == "line":
            return np.abs(w.imag)
        # ray: project onto [0, inf)
        t = np.clip(w.real, 0.0, None)
        return np.abs(w - t)


def points_cut(*anchors):
    return Cut("points", tuple(complex(a) for a in anchors))


def ray_cut(anchor, direction):
    return Cut("ray", (complex(anchor),), complex(direction))


def line_cut(anchor, direction):
    return Cut("line", (complex(anchor),), complex(direction))


def cut_distance(z, cuts):
    """Distance from ``z`` to the union of ``cuts`` (inf for no cuts)."""
    z = np.asarray(z, dtype=complex)
    if not cuts:
        return np.full(z.shape, np.inf)
    return np.min(np.stack([c.distance(z) for c in cuts]), axis=0)


@dataclasses.dataclass(frozen=True)
class Grid:
    """A finite point set inside a closed ball of ``C^d``.

    ``points`` has shape (n, d); all points lie within ``radius`` of
    ``center`` in the Euclidean norm.
    """

    center: np.ndarray
    radius: float
    points_per_axis: int
    points: np.ndarray

    @property
    def d(self):
        return self.points.shape[1]

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def scalars(self):
        """The points as a flat complex array; only valid for d = 1."""
        if self.d != 1:
            raise ValueError("scalars is only defined for 1-D grids")
        return self.points[:, 0]


def points_of(grid):
    """The points of a 1-D :class:`Grid`, or of any array of complex points, as a flat complex array."""
    if isinstance(grid, Grid):
        return grid.scalars
    return np.asarray(grid, dtype=complex).ravel()


def make_grid(center, radius, points_per_axis, avoid=(), guard=None, staggered=False):
    """Regular tensor grid on the bounding box of a ball, filtered to the ball.

    Points closer than ``guard`` (default ``radius / (10 * points_per_axis)``)
    to any cut in ``avoid`` are dropped; dropping everything raises
    ``GridError("grid exhausted")``.  ``staggered=True`` uses cell-centered
    nodes, which never touch the bounding box boundary and share no point
    with the regular grid of any resolution.
    """
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    radius = float(radius)
    p = int(points_per_axis)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if p < 2:
        raise ValueError("points_per_axis must be at least 2")
    if guard is None:
        guard = radius / (10.0 * p)

    d = center.shape[0]
    # golden-ratio cell offset: staggered nodes never align with any regular grid
    frac = 0.3819660112501051
    axes = []
    for j in range(d):
        for c in (center[j].real, center[j].imag):
            if staggered:
                axes.append(c - radius + (np.arange(p) + frac) * (2.0 * radius / p))
            else:
                axes.append(np.linspace(c - radius, c + radius, p))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.empty((mesh[0].size, d), dtype=complex)
    for j in range(d):
        pts[:, j] = mesh[2 * j].ravel() + 1j * mesh[2 * j + 1].ravel()

    inside = np.linalg.norm(pts - center, axis=1) <= radius * (1 + 1e-12)
    pts = pts[inside]
    if avoid:
        # the cut lives in C; keep a point only if every component clears it
        dist = np.min(np.stack([cut_distance(pts[:, j], tuple(avoid)) for j in range(d)]), axis=0)
        pts = pts[dist >= guard]
    if pts.shape[0] == 0:
        raise GridError("grid exhausted")
    return Grid(center=center, radius=radius, points_per_axis=p, points=pts)


def random_points(center, radius, n, rng, d=None):
    """``n`` points drawn uniformly from the closed ball (seeded by ``rng``)."""
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    if d is None:
        d = center.shape[0]
    dirs = rng.standard_normal((n, 2 * d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.random(n) ** (1.0 / (2 * d))
    real = dirs * radii[:, None]
    return center + real[:, :d] + 1j * real[:, d:]


def subsample(points, max_points):
    """Deterministic stride-subsample of a point array down to ``max_points``."""
    n = points.shape[0]
    if n <= max_points:
        return points
    stride = math.ceil(n / max_points)
    return points[::stride]
