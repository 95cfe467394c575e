"""Complex feedforward networks: representation, evaluation, exact algebra.

A depth-L network is the weight list ((A_0, b_0), ..., (A_L, b_L)) with
N_0 = d inputs and N_{L+1} = 1 output; the activation is applied
componentwise after every layer except the last.  The block constructions
below (sums, compositions, affine reparametrizations) are exact at the level
of network functions, no approximation involved.  A shallow (depth-1)
network is also kept as its own arrays, :class:`ShallowNetwork`, and a
network of ridges of one shared 1-input trunk as :class:`RidgeNetwork`.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import workers
from .activations import ActivationSpec
from .errors import ActivationSingularityError
from .workers import CHUNK_ENTRIES

FORMAT_TAG = "cvnn-network/1"
RIDGE_FORMAT_TAG = "cvnn-network/2"


@dataclasses.dataclass(frozen=True)
class NetworkWeights:
    """Weights ((A_0, b_0), ..., (A_L, b_L)); layers[j] = (matrix, bias)."""

    layers: tuple

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ValueError("a network needs at least one hidden layer")
        norm = []
        prev = None
        for j, (a, b) in enumerate(self.layers):
            a = np.atleast_2d(np.asarray(a, dtype=complex))
            b = np.atleast_1d(np.asarray(b, dtype=complex))
            if a.shape[0] != b.shape[0]:
                raise ValueError(f"layer {j}: matrix rows and bias length differ")
            if prev is not None and a.shape[1] != prev:
                raise ValueError(f"layer {j}: expected {prev} inputs, got {a.shape[1]}")
            prev = a.shape[0]
            norm.append((a, b))
        if norm[-1][0].shape[0] != 1:
            raise ValueError("output dimension must be 1")
        object.__setattr__(self, "layers", tuple(norm))

    @property
    def input_dim(self):
        return self.layers[0][0].shape[1]

    @property
    def hidden_layers(self):
        return len(self.layers) - 1

    @property
    def widths(self):
        return tuple(a.shape[0] for a, _ in self.layers[:-1])

    @property
    def total_neurons(self):
        return int(sum(self.widths))


def _batch(z, d):
    """(batch of shape (n, d), whether ``z`` was one point) for the inputs ``z`` of a d-input network."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        return z.reshape(1, 1), True
    if z.ndim == 1:
        if d == 1:
            return z.reshape(-1, 1), False
        if z.shape[0] != d:
            raise ValueError(f"point has dimension {z.shape[0]}, network expects {d}")
        return z.reshape(1, d), True
    if z.shape[1] != d:
        raise ValueError(f"batch has dimension {z.shape[1]}, network expects {d}")
    return z, False


def _activate(sigma, pre):
    """sigma(pre); raises ``ActivationSingularityError`` on a declared singularity or a non-finite value.

    An :class:`ActivationSpec` checks its own values for finiteness; any
    other callable, such as a trunk network, is checked here.
    """
    try:
        vals = sigma(pre)
    except ActivationSingularityError:
        raise ActivationSingularityError("activation singularity hit") from None
    if not isinstance(sigma, ActivationSpec) and not np.all(np.isfinite(vals)):
        raise ActivationSingularityError("activation singularity hit")
    return vals


def _row_chunks(n, width):
    """Row slices of an n-row batch, each about ``CHUNK_ENTRIES`` entries of a ``width``-wide layer.

    No slice has one row when n > 1: NumPy sends a one-row product to gemv or
    dot, which sum in another order than the gemm of a taller block.  Blocks
    of two rows or more leave every row's K-loop, and so every bit, as is.
    """
    step = max(2, CHUNK_ENTRIES // max(width, 1))
    stops = [*range(step, n - 1, step), n]
    return [slice(lo, hi) for lo, hi in zip([0, *stops], stops)]


def _blockwise(z, d, width, evaluate):
    """``evaluate`` on row blocks of the inputs ``z`` of a d-input network, into one output.

    A lone point is evaluated as a two-row block of itself, so that it gets
    the value it would get inside a batch.  The blocks of a call with several
    go to the package's thread pool (:mod:`cvnnuniv.workers`), each writing
    its own slice of the output; every value is the one the serial loop
    computes.  A call made inside a worker, such as a ridge's trunk, runs its
    blocks serially.
    """
    batch, point = _batch(z, d)
    n = batch.shape[0]
    if n == 1:
        batch = np.repeat(batch, 2, axis=0)
    out = np.empty(batch.shape[0], dtype=complex)
    chunks = _row_chunks(batch.shape[0], width)

    def fill(rows):
        out[rows] = evaluate(batch[rows])

    if len(chunks) == 1:
        fill(chunks[0])
    else:
        workers.map(fill, chunks)
    return complex(out[0]) if point else out[:n]


def eval_network(theta, sigma, z):
    """The network function at ``z`` (a point or an (n, d) batch), in row blocks.

    Raises ``ActivationSingularityError`` if a pre-activation hits a declared
    singularity of ``sigma``.
    """

    def evaluate(cur):
        for a, b in theta.layers[:-1]:
            pre = cur @ a.T
            pre += b
            cur = _activate(sigma, pre)
        a, b = theta.layers[-1]
        return (cur @ a.T + b)[:, 0]

    return _blockwise(z, theta.input_dim, max(theta.input_dim, *theta.widths), evaluate)


def _cmul(x, y):
    """Elementwise complex product rounded like Python's ``complex * complex``.

    NumPy's array multiply may fuse a product and a sum into one FMA; this
    rounds each of the four real products and both sums separately.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


@dataclasses.dataclass(frozen=True)
class ShallowNetwork:
    """One-hidden-layer network z -> c + sum_j a[j] sigma(b[j] + w[j] . z).

    ``a`` and ``b`` have shape (n,) and ``w`` has shape (n, d): neuron j has
    outer coefficient a[j], inner weights w[j] and bias b[j].  ``c`` is the
    constant.
    """

    c: complex
    a: np.ndarray
    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.a, dtype=complex)
        w = np.ascontiguousarray(self.w, dtype=complex)
        b = np.ascontiguousarray(self.b, dtype=complex)
        if a.ndim != 1 or w.ndim != 2 or w.shape[0] != a.shape[0] or b.shape != a.shape:
            raise ValueError(f"need a (n,), w (n, d) and b (n,); got {a.shape}, {w.shape} and {b.shape}")
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)

    @classmethod
    def constant(cls, c):
        """The one-input network with no neurons that computes ``c``."""
        return cls(c, np.zeros(0), np.zeros((0, 1)), np.zeros(0))

    @property
    def width(self):
        return self.a.shape[0]

    @property
    def input_dim(self):
        return self.w.shape[1]

    def scaled(self, factor):
        factor = complex(factor)
        return ShallowNetwork(factor * self.c, _cmul(factor, self.a), self.w, self.b)

    def to_network(self):
        """The equivalent depth-1 :class:`NetworkWeights` (c goes into the output bias)."""
        if not self.width:
            # one zero neuron: the JSON reader cannot tell the shape of an empty matrix
            return NetworkWeights(((np.zeros((1, self.input_dim)), np.zeros(1)), (np.zeros((1, 1)), [self.c])))
        return NetworkWeights(((self.w, self.b), (self.a[None, :], np.array([self.c]))))


@dataclasses.dataclass(frozen=True)
class RidgeNetwork:
    """Ridges of one shared 1-input trunk: z -> ridge.c + sum_j ridge.a[j] trunk(ridge.b[j] + ridge.w[j] . z).

    It is the shallow network ``ridge`` with the network function of
    ``trunk`` as its activation; its depth and neuron count are those of the
    dense network that copies the trunk once per ridge.
    """

    ridge: ShallowNetwork
    trunk: NetworkWeights

    def __post_init__(self):
        if self.trunk.input_dim != 1:
            raise ValueError(f"the trunk must take one input, got {self.trunk.input_dim}")

    @property
    def input_dim(self):
        return self.ridge.input_dim

    @property
    def hidden_layers(self):
        return self.trunk.hidden_layers

    @property
    def total_neurons(self):
        return self.ridge.width * self.trunk.total_neurons


def eval_shallow(s, sigma, z):
    """Evaluate a shallow network directly from its arrays, in row blocks, without building layers."""

    def evaluate(batch):
        out = np.full(batch.shape[0], s.c, dtype=complex)
        if s.width:
            out = out + _activate(sigma, batch @ s.w.T + s.b) @ s.a
        return out

    return _blockwise(z, s.input_dim, max(s.input_dim, s.width), evaluate)


def eval_ridge(net, sigma, z):
    """Evaluate a :class:`RidgeNetwork`: :func:`eval_shallow` of its ridges, the trunk as activation."""

    def trunk(pre):
        return eval_network(net.trunk, sigma, pre.reshape(-1)).reshape(pre.shape)

    return eval_shallow(net.ridge, trunk, z)


def linear_combine(t1, t2, alpha, beta):
    """Network computing alpha*Phi + beta*Psi exactly (equal depth and d).

    The two networks sit side by side: stacked first layers, block-diagonal
    middle layers and the scaled output rows next to each other.
    """
    if t1.input_dim != t2.input_dim or t1.hidden_layers != t2.hidden_layers:
        raise ValueError("networks must share input dimension and depth")
    (a1, b1), (a2, b2) = t1.layers[0], t2.layers[0]
    layers = [(np.vstack([a1, a2]), np.concatenate([b1, b2]))]
    for (a1, b1), (a2, b2) in zip(t1.layers[1:-1], t2.layers[1:-1]):
        a = np.zeros((a1.shape[0] + a2.shape[0], a1.shape[1] + a2.shape[1]), dtype=complex)
        a[: a1.shape[0], : a1.shape[1]] = a1
        a[a1.shape[0] :, a1.shape[1] :] = a2
        layers.append((a, np.concatenate([b1, b2])))
    (a1, b1), (a2, b2) = t1.layers[-1], t2.layers[-1]
    layers.append((np.hstack([alpha * a1, beta * a2]), alpha * b1 + beta * b2))
    return NetworkWeights(tuple(layers))


def compose(outer, inner):
    """Network computing outer(inner(z)); outer must take a single input."""
    if outer.input_dim != 1:
        raise ValueError("outer network must have input dimension 1")
    a_in, b_in = inner.layers[-1]
    a_out, b_out = outer.layers[0]
    merged = (a_out @ a_in, b_out + (a_out @ b_in))
    layers = inner.layers[:-1] + (merged,) + outer.layers[1:]
    return NetworkWeights(layers)


def lift_affine(t, a, b):
    """From a 1-input network Phi, the d-input network z -> Phi(b + a . z)."""
    if t.input_dim != 1:
        raise ValueError("lift_affine needs a 1-input network")
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    a0, b0 = t.layers[0]
    new0 = (a0 @ a.reshape(1, -1), b0 + a0[:, 0] * complex(b))
    return NetworkWeights((new0,) + t.layers[1:])


def restrict_line(t, a, b):
    """From a d-input network Phi, the 1-input network z -> Phi(b + z a)."""
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    if a.shape[0] != t.input_dim or b.shape[0] != t.input_dim:
        raise ValueError("direction/offset dimension mismatch")
    a0, b0 = t.layers[0]
    new0 = ((a0 @ a).reshape(-1, 1), b0 + a0 @ b)
    return NetworkWeights((new0,) + t.layers[1:])


def _pairs(x):
    return np.ascontiguousarray(x).view(np.float64).reshape(*x.shape, 2).tolist()


def _complex_array(pairs, ndim):
    arr = np.asarray(pairs)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2 or arr.dtype.kind not in "iuf":
        raise ValueError(f"expected depth-{ndim} lists of [re, im] numbers, got shape {arr.shape} of {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def network_to_json_dict(theta):
    """Versioned JSON document of :class:`NetworkWeights`; doubles survive a round trip bit-exactly."""
    return {
        "format": FORMAT_TAG,
        "d": theta.input_dim,
        "L": theta.hidden_layers,
        "layers": [{"A": _pairs(a), "b": _pairs(b)} for a, b in theta.layers],
    }


def _weights_from_json_dict(doc):
    if doc["format"] != FORMAT_TAG:
        raise ValueError(f"unsupported network format {doc['format']!r}")
    theta = NetworkWeights(tuple((_complex_array(ly["A"], 2), _complex_array(ly["b"], 1)) for ly in doc["layers"]))
    if (theta.input_dim, theta.hidden_layers) != (doc["d"], doc["L"]):
        raise ValueError("declared dimensions disagree with the layer shapes")
    return theta


def network_from_json_dict(doc):
    """The network of a ``cvnn-network/1`` document, or the :class:`RidgeNetwork` of a ``/2`` one."""
    try:
        if doc["format"] == RIDGE_FORMAT_TAG:
            ridge = _weights_from_json_dict(doc["ridge"])
            if ridge.hidden_layers != 1:
                raise ValueError(f"the ridge layer must have one hidden layer, got {ridge.hidden_layers}")
            (w, b), (a, c) = ridge.layers
            return RidgeNetwork(ShallowNetwork(c[0], a[0], w, b), _weights_from_json_dict(doc["trunk"]))
        return _weights_from_json_dict(doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed network document: {exc!r}") from None


def save_network(net, path):
    """Write ``net`` as one JSON document.

    :class:`NetworkWeights` is a ``cvnn-network/1`` document, and so is a
    :class:`ShallowNetwork`, by its ``to_network()``; a :class:`RidgeNetwork`
    is a ``cvnn-network/2`` document nesting the ``/1`` documents of its ridge
    layer and of its trunk.
    """
    if isinstance(net, ShallowNetwork):
        net = net.to_network()
    if isinstance(net, RidgeNetwork):
        doc = {
            "format": RIDGE_FORMAT_TAG,
            "ridge": network_to_json_dict(net.ridge.to_network()),
            "trunk": network_to_json_dict(net.trunk),
        }
    else:
        doc = network_to_json_dict(net)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_network(path):
    with open(path) as fh:
        return network_from_json_dict(json.load(fh))
