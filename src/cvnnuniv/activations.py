"""Catalog of complex activation functions with continuity/smoothness metadata.

Every activation is vectorized over complex ndarrays.  The metadata drives the
rest of the library: grids avoid ``discontinuity_set``, the classifier
mollifies whenever ``nonsmooth_set`` is declared and the constructor keeps its
stencils clear of that set, and ``singular_points`` marks arguments where
evaluation is an error (poles).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ActivationSingularityError
from .grids import Cut, cut_distance, line_cut, points_cut, ray_cut


@dataclasses.dataclass(frozen=True)
class ActivationSpec:
    """A named activation ``C -> C`` plus the metadata the theory needs.

    ``discontinuity_set`` -- where sigma is not continuous; empty for an
                             activation continuous on all of C.
    ``locally_bounded``   -- locally bounded away from declared singular points.
    ``nonsmooth_set``     -- where derivatives of any order may fail to exist;
                             expansion points for divided differences keep a
                             margin from this set.  A non-smooth activation
                             declares it, and ``smooth`` follows from it.
    """

    name: str
    fn: dataclasses.InitVar = None
    discontinuity_set: tuple = ()
    locally_bounded: bool = True
    nonsmooth_set: tuple = ()
    singular_points: tuple = ()

    def __post_init__(self, fn):
        if fn is None:
            raise ValueError("an activation needs an eval function")
        object.__setattr__(self, "_fn", fn)

    @property
    def smooth(self):
        """C-infinity away from the declared singular points; the classifier mollifies non-smooth ones."""
        return not self.nonsmooth_set

    def raw(self, z):
        """Evaluate without singularity checks; may return non-finite values."""
        return np.asarray(self._fn(np.asarray(z, dtype=complex)), dtype=complex)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.singular_points:
            if np.min(cut_distance(z, self.singular_points)) < 1e-9:
                raise ActivationSingularityError(f"{self.name}: evaluation at a declared singularity")
        out = self.raw(z)
        if not np.all(np.isfinite(out)):
            raise ActivationSingularityError(f"{self.name}: non-finite value produced")
        return out


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def _ratio(z):
    return z / (1.0 + np.abs(z))


def _sigmoid_split(z):
    return _logistic(z.real) + 1j * _logistic(z.imag)


def _zlog(z):
    on_cut = (z.real <= 0) & (z.imag == 0)
    safe = np.where(on_cut, 1.0, z)
    return np.where(on_cut, 0.0, safe * np.log(safe))


def _relu_re(z):
    return np.maximum(0.0, z.real) + 0j


def _re_or_relu(z):
    # real part off the real axis, real ReLU on it; composing this with
    # itself (twice or more) gives exactly z -> max(0, Re z)
    return np.where(z.imag == 0, np.maximum(0.0, z.real), z.real) + 0j


def _tanh_poles(limit=64.0):
    kmax = int(limit / math.pi) + 1
    return tuple(1j * (math.pi / 2.0) * (2 * k + 1) for k in range(-kmax, kmax + 1))


_TANH_POLES = points_cut(*_tanh_poles())


def activation_catalog():
    """All built-in activations, in a stable order."""
    neg_real = ray_cut(0.0, -1.0)
    return (
        ActivationSpec(
            name="ratio",
            fn=_ratio,
            nonsmooth_set=(points_cut(0.0),),
        ),
        ActivationSpec(
            name="sigmoid_split",
            fn=_sigmoid_split,
        ),
        ActivationSpec(
            name="zlog",
            fn=_zlog,
            discontinuity_set=(neg_real,),
            nonsmooth_set=(neg_real,),
        ),
        ActivationSpec(
            name="rho_c",
            fn=_relu_re,
            nonsmooth_set=(line_cut(0.0, 1j),),
        ),
        ActivationSpec(
            name="example_4_8",
            fn=_re_or_relu,
            discontinuity_set=(neg_real,),
            nonsmooth_set=(line_cut(0.0, 1.0),),
        ),
        ActivationSpec(
            name="tanh",
            fn=np.tanh,
            discontinuity_set=(_TANH_POLES,),
            singular_points=(_TANH_POLES,),
        ),
        ActivationSpec(name="sin", fn=np.sin),
        ActivationSpec(name="sinh", fn=np.sinh),
        ActivationSpec(name="conj_sin", fn=lambda z: np.conj(np.sin(z))),
        ActivationSpec(name="poly_zzbar", fn=lambda z: z + np.conj(z)),
        ActivationSpec(name="abs2", fn=lambda z: z * np.conj(z)),
        ActivationSpec(
            name="arcsin_principal",
            fn=np.arcsin,
            discontinuity_set=(ray_cut(-1.0, -1.0), ray_cut(1.0, 1.0)),
            nonsmooth_set=(ray_cut(-1.0, -1.0), ray_cut(1.0, 1.0)),
        ),
    )


_CATALOG = {spec.name: spec for spec in activation_catalog()}


def activation_names():
    return tuple(_CATALOG)


def by_name(name):
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(_CATALOG)
        raise KeyError(f"unknown activation {name!r}; known: {known}") from None


def avoid_set(spec):
    """Cuts that grids evaluating ``spec`` raw should keep away from."""
    return tuple(spec.discontinuity_set) + tuple(spec.singular_points)
