"""Minimal dense-network toolkit in double precision.

Small fully-connected networks with hand-rolled forward/backward passes,
adaptive-moment (Adam) parameter updates, and Polyak target blending. Hidden
layers use a rectifier; the output layer is either linear or tanh-squashed.

Each network keeps its parameters in one contiguous float64 vector,
``Mlp.flat``, layer by layer (row-major weight matrix, then bias);
``weights[l]`` and ``biases[l]`` are views into it. Gradients and Adam
moments share that layout, so an update or a copy is a few whole-vector
operations, applied in a fixed order, so results are bit-for-bit reproducible.

Training allocates no large array once warm (and nothing here is thread-safe).
Each ``Mlp`` owns one activation buffer per layer, grown to the largest batch
seen, and keeps its latest ``mlp_forward``'s activations, input included;
``mlp_gradients`` and ``mlp_input_gradient`` backpropagate that forward (they
raise ``ValueError`` on a network that has had none). ``mlp_predict`` runs the
same layers and leaves the network's buffers alone; callers get copies of
outputs. All networks share three vectors, so memory does not grow with their
count: [0] holds ``mlp_gradients``' result, valid until its next call; [1] and
[2] are scratch for backprop's deltas, ``mlp_predict``'s layers and the
``BLOCK``-element slices that ``adam_step``/``soft_update`` walk, so that the
scratch does not grow with the parameter count either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

OUTPUT_ACTIVATIONS = ("linear", "tanh")


def _flat_size(sizes: tuple[int, ...]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _layer_views(flat: Array, sizes: tuple[int, ...]) -> tuple[list[Array], list[Array]]:
    """Per-layer weight and bias views into a vector laid out like ``Mlp.flat``."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = offset + fan_out * fan_in
        weights.append(flat[offset:end].reshape(fan_out, fan_in))
        biases.append(flat[end : end + fan_out])
        offset = end + fan_out
    return weights, biases


class Mlp:
    """Parameters of a fully-connected network, stored in ``flat``.

    ``weights[l]`` has shape ``(layer_sizes[l+1], layer_sizes[l])`` and acts on
    column ``l`` activations from the left; ``biases[l]`` has length
    ``layer_sizes[l+1]``. Both are views into ``flat``, which the network
    adopts as is (no copy).
    """

    def __init__(
        self, layer_sizes: tuple[int, ...], flat: Array, output_activation: str = "linear"
    ):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        n = _flat_size(self.layer_sizes)
        if flat.dtype != np.float64 or flat.shape != (n,):
            raise ValueError(f"layer sizes {self.layer_sizes} need {n} floats, got {flat.shape}")
        self.flat = flat
        self.output_activation = output_activation
        self.weights, self.biases = _layer_views(flat, self.layer_sizes)
        self._acts: list[Array] = []  # activation buffers; see the module docstring
        self._forward: list[Array] = []  # the latest mlp_forward's activations, input first

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def parameter_count(self) -> int:
        return self.flat.size

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self.flat.copy(), self.output_activation)


@dataclass
class Gradients:
    """Loss gradients w.r.t. the parameters, summed over the batch.

    Laid out like ``Mlp.flat``; ``weights[l]`` and ``biases[l]`` are views into
    ``flat``, a vector shared by all networks. The input gradient is
    :func:`mlp_input_gradient`'s.
    """

    flat: Array
    weights: list[Array]
    biases: list[Array]


def mlp_init(
    layer_sizes: tuple[int, ...] | list[int],
    output_activation: str = "linear",
    *,
    rng: np.random.Generator | int,
) -> Mlp:
    """Create a network with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights.

    Biases start at zero. ``rng`` may be a Generator or an integer seed; the
    same seed yields bit-identical parameters.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError(f"need at least input and output sizes, got {sizes}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    if output_activation not in OUTPUT_ACTIVATIONS:
        raise ValueError(
            f"output_activation must be one of {OUTPUT_ACTIVATIONS}, got {output_activation!r}"
        )
    gen = np.random.default_rng(rng)
    mlp = Mlp(sizes, np.zeros(_flat_size(sizes)), output_activation)
    for w in mlp.weights:
        bound = 1.0 / math.sqrt(w.shape[1])
        w[...] = gen.uniform(-bound, bound, size=w.shape)
    return mlp


def _as_batch(x: Array, dim: int, what: str) -> tuple[Array, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
        squeeze = True
    elif arr.ndim == 2:
        squeeze = False
    else:
        raise ValueError(f"{what} must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[1] != dim:
        raise ValueError(f"{what} has width {arr.shape[1]}, expected {dim}")
    return arr, squeeze


def _layers(mlp: Mlp, a: Array, out) -> list[Array]:
    """Every layer's activation on batch ``a``; layer ``l`` writes into ``out(l, n)``."""
    activations, n, last = [a], a.shape[0], mlp.n_layers - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = np.matmul(activations[-1], w.T, out=out(l, n))
        z += b
        if l < last:
            np.maximum(z, 0.0, out=z)
        elif mlp.output_activation == "tanh":
            np.tanh(z, out=z)
        activations.append(z)
    return activations


def mlp_forward(mlp: Mlp, x: Array) -> Array:
    """Evaluate the network on ``x`` (a vector or a batch of rows).

    Returns a copy of the output, matching the input's dimensionality. The network keeps
    every layer's activation, 2-D and input first, for :func:`mlp_gradients`.
    """
    a, squeeze = _as_batch(x, mlp.in_dim, "input")
    if not mlp._acts or mlp._acts[0].shape[0] < a.shape[0]:
        mlp._acts = [np.empty((a.shape[0], size)) for size in mlp.layer_sizes[1:]]
    mlp._forward = _layers(mlp, a, lambda l, n: mlp._acts[l][:n])
    y = mlp._forward[-1]
    return (y[0] if squeeze else y).copy()


def mlp_predict(mlp: Mlp, x: Array) -> Array:
    """:func:`mlp_forward`'s output alone; the network's buffers are left as they were."""
    a, squeeze = _as_batch(x, mlp.in_dim, "input")
    y = _layers(mlp, a, lambda l, n: _work(l, n, mlp.layer_sizes[l + 1]))[-1]
    return (y[0] if squeeze else y).copy()


def _backprop(mlp: Mlp, grad_output: Array, w_grads, b_grads):
    """Fill ``w_grads``/``b_grads`` down to layer 0, or if None, return the input gradient."""
    acts = mlp._forward
    if not acts:
        raise ValueError("the network has had no mlp_forward to backpropagate")
    gy, squeeze = _as_batch(grad_output, mlp.out_dim, "grad_output")
    n = acts[0].shape[0]
    if gy.shape[0] != n:
        raise ValueError(f"grad_output batch {gy.shape[0]} != forward batch {n}")
    g = gy
    if mlp.output_activation == "tanh":
        g = np.multiply(acts[-1], acts[-1], out=_work(mlp.n_layers, n, mlp.out_dim))
        np.subtract(1.0, g, out=g)
        g *= gy
    for l in range(mlp.n_layers - 1, -1, -1):
        if w_grads is not None:
            np.matmul(g.T, acts[l], out=w_grads[l])
            np.sum(g, axis=0, out=b_grads[l])
            if l == 0:
                return None
        g = np.matmul(g, mlp.weights[l], out=_work(l, n, mlp.layer_sizes[l]))
        if l > 0:
            g *= acts[l] > 0.0
    return (g[0] if squeeze else g).copy()


def mlp_gradients(mlp: Mlp, grad_output: Array) -> Gradients:
    """Backpropagate ``grad_output`` (dLoss/dOutput) through the network's latest forward pass."""
    flat = _shared(0, mlp.flat.size)
    w_grads, b_grads = _layer_views(flat, mlp.layer_sizes)
    _backprop(mlp, grad_output, w_grads, b_grads)
    return Gradients(flat, w_grads, b_grads)


def mlp_input_gradient(mlp: Mlp, grad_output: Array) -> Array:
    """A copy of dLoss/dInput through the latest forward, one row per batch element."""
    return _backprop(mlp, grad_output, None, None)


@dataclass
class AdamState:
    """First/second-moment accumulators for one network, laid out like ``Mlp.flat``."""

    learning_rate: float
    m: Array
    v: Array
    step_count: int = 0


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator floor


def adam_init(mlp: Mlp, learning_rate: float) -> AdamState:
    if not (learning_rate > 0.0 and math.isfinite(learning_rate)):
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    return AdamState(learning_rate, np.zeros_like(mlp.flat), np.zeros_like(mlp.flat))


_vectors = [np.empty(0)] * 3  # shared by all networks; see the module docstring
BLOCK = 16384  # elements per adam_step/soft_update pass: one batch-64 x 256 activation


def _shared(i: int, n: int) -> Array:
    if _vectors[i].size < n:
        _vectors[i] = np.empty(n)
    return _vectors[i][:n]


def _work(l: int, n: int, width: int) -> Array:  # layer l's delta or output, apart from l+1's
    return _shared(1 + l % 2, n * width).reshape(n, width)


def adam_step(mlp: Mlp, grads: Gradients, state: AdamState) -> None:
    """Apply one Adam update in place (Kingma & Ba, Algorithm 1: bias-corrected moments)."""
    g, p, m, v = grads.flat, mlp.flat, state.m, state.v
    if not g.shape == p.shape == m.shape == v.shape:
        raise ValueError(f"shape mismatch: gradients {g.shape}, parameters {p.shape}")
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient passed to adam_step")
    state.step_count += 1
    t = state.step_count
    b1, b2, lr = BETA1, BETA2, state.learning_rate
    correction1, correction2 = 1.0 - b1**t, 1.0 - b2**t
    for lo in range(0, p.size, BLOCK):
        gb, pb, mb, vb = (a[lo : lo + BLOCK] for a in (g, p, m, v))
        s1, s2 = _shared(1, gb.size), _shared(2, gb.size)
        mb *= b1
        np.multiply(gb, 1.0 - b1, out=s1)
        mb += s1
        vb *= b2
        np.square(gb, out=s1)
        s1 *= 1.0 - b2
        vb += s1
        if correction1 == 1.0:  # from t = 356 at beta1 = 0.9; m / 1.0 is m, so skip that pass
            np.multiply(mb, lr, out=s1)
        else:
            np.divide(mb, correction1, out=s1)
            s1 *= lr
        np.divide(vb, correction2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += EPSILON
        s1 /= s2
        pb -= s1


def soft_update(target: Mlp, online: Mlp, tau: float) -> None:
    """Blend ``target <- tau*online + (1-tau)*target`` in place.

    ``tau=1`` reproduces a hard copy; ``tau=0`` leaves the target unchanged.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if target.layer_sizes != online.layer_sizes:
        raise ValueError(
            f"shape mismatch: target {target.layer_sizes} vs online {online.layer_sizes}"
        )
    for lo in range(0, online.flat.size, BLOCK):
        tb, ob = target.flat[lo : lo + BLOCK], online.flat[lo : lo + BLOCK]
        s = np.multiply(ob, tau, out=_shared(1, ob.size))
        tb *= 1.0 - tau
        tb += s

