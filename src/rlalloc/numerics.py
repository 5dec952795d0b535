"""Minimal dense-network toolkit in double precision.

Small fully-connected networks with hand-rolled forward/backward passes,
adaptive-moment (Adam) parameter updates, and Polyak target blending. Hidden
layers use a rectifier; the output layer is either linear or tanh-squashed.

Each network keeps its parameters in one contiguous float64 vector,
``Mlp.flat``, layer by layer (row-major weight matrix, then bias);
``weights[l]`` and ``biases[l]`` are views into it. Gradients and Adam
moments share that layout, so an update, a copy or a checkpoint is a few
whole-vector operations. ``adam_step`` and ``soft_update`` work in two
scratch vectors shared by all networks (sized to the largest seen, reused
across calls; not thread-safe), and apply their elementwise operations in a
fixed order, so results are bit-for-bit reproducible.
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
class ForwardCache:
    """Per-layer activations retained by :func:`mlp_forward` for backprop.

    ``activations[0]`` is the network input; ``activations[l]`` for l >= 1 is
    the post-nonlinearity output of layer l. All entries are 2-D (batch-major)
    regardless of how the input was passed.
    """

    layer_sizes: tuple[int, ...]
    activations: list[Array]
    squeeze: bool


@dataclass
class Gradients:
    """Loss gradients w.r.t. parameters and the network input.

    Parameter gradients are summed over the batch and laid out like
    ``Mlp.flat``; ``weights[l]`` and ``biases[l]`` are views into ``flat``.
    ``wrt_input`` keeps one row per batch element (needed to push a critic's
    action-gradient into an actor).
    """

    flat: Array
    weights: list[Array]
    biases: list[Array]
    wrt_input: Array


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


def mlp_forward(mlp: Mlp, x: Array) -> tuple[Array, ForwardCache]:
    """Evaluate the network on ``x`` (a vector or a batch of rows).

    Returns the output (matching the input's dimensionality) and a cache of
    per-layer activations for :func:`mlp_gradients`.
    """
    a, squeeze = _as_batch(x, mlp.in_dim, "input")
    activations = [a]
    last = mlp.n_layers - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = activations[-1] @ w.T + b
        if l < last:
            a_next = np.maximum(z, 0.0)
        elif mlp.output_activation == "tanh":
            a_next = np.tanh(z)
        else:
            a_next = z
        activations.append(a_next)
    y = activations[-1][0] if squeeze else activations[-1]
    return y, ForwardCache(mlp.layer_sizes, activations, squeeze)


def mlp_gradients(mlp: Mlp, cache: ForwardCache, grad_output: Array) -> Gradients:
    """Backpropagate ``grad_output`` (dLoss/dOutput) through a cached forward pass."""
    if cache.layer_sizes != mlp.layer_sizes:
        raise ValueError(
            f"cache built for layer sizes {cache.layer_sizes}, network has {mlp.layer_sizes}"
        )
    if len(cache.activations) != mlp.n_layers + 1:
        raise ValueError("cache does not match this network's depth")
    gy, squeeze = _as_batch(grad_output, mlp.out_dim, "grad_output")
    n = cache.activations[0].shape[0]
    if gy.shape[0] != n:
        raise ValueError(f"grad_output batch {gy.shape[0]} != cached batch {n}")

    out = cache.activations[-1]
    if mlp.output_activation == "tanh":
        g = gy * (1.0 - out * out)
    else:
        g = gy
    flat = np.empty(mlp.flat.size)
    w_grads, b_grads = _layer_views(flat, mlp.layer_sizes)
    for l in range(mlp.n_layers - 1, -1, -1):
        np.matmul(g.T, cache.activations[l], out=w_grads[l])
        np.sum(g, axis=0, out=b_grads[l])
        g = g @ mlp.weights[l]
        if l > 0:
            g = g * (cache.activations[l] > 0.0)
    wrt_input = g[0] if squeeze else g
    return Gradients(flat, w_grads, b_grads, wrt_input)


@dataclass
class AdamState:
    """First/second-moment accumulators for one network, laid out like ``Mlp.flat``."""

    learning_rate: float
    m: Array
    v: Array
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0


def adam_init(mlp: Mlp, learning_rate: float) -> AdamState:
    if not (learning_rate > 0.0 and math.isfinite(learning_rate)):
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    return AdamState(learning_rate, np.zeros_like(mlp.flat), np.zeros_like(mlp.flat))


# The two work vectors of adam_step and soft_update. Shared by all networks rather
# than kept per optimizer, so resident memory does not grow with the network count.
_scratch = [np.empty(0), np.empty(0)]


def _scratch_pair(n: int) -> tuple[Array, Array]:
    if _scratch[0].size < n:
        _scratch[:] = [np.empty(n), np.empty(n)]
    return _scratch[0][:n], _scratch[1][:n]


def adam_step(mlp: Mlp, grads: Gradients, state: AdamState) -> None:
    """Apply one Adam update in place (Kingma & Ba, Algorithm 1: bias-corrected moments)."""
    g, p, m, v = grads.flat, mlp.flat, state.m, state.v
    if not g.shape == p.shape == m.shape == v.shape:
        raise ValueError(f"shape mismatch: gradients {g.shape}, parameters {p.shape}")
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient passed to adam_step")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    s1, s2 = _scratch_pair(p.size)
    m *= b1
    np.multiply(g, 1.0 - b1, out=s1)
    m += s1
    v *= b2
    np.multiply(g, g, out=s1)
    s1 *= 1.0 - b2
    v += s1
    np.divide(m, 1.0 - b1**t, out=s1)
    s1 *= state.learning_rate
    np.divide(v, 1.0 - b2**t, out=s2)
    np.sqrt(s2, out=s2)
    s2 += state.epsilon
    s1 /= s2
    p -= s1


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
    s, _ = _scratch_pair(online.flat.size)
    np.multiply(online.flat, tau, out=s)
    target.flat *= 1.0 - tau
    target.flat += s


def mlp_to_payload(mlp: Mlp) -> dict:
    """JSON-safe snapshot: layer sizes, output activation, the flat parameters."""
    return {
        "layer_sizes": list(mlp.layer_sizes),
        "output_activation": mlp.output_activation,
        "params": mlp.flat.tolist(),
    }


def mlp_from_payload(payload: dict) -> Mlp:
    """Rebuild a network from :func:`mlp_to_payload` output."""
    act = payload["output_activation"]
    if act not in OUTPUT_ACTIVATIONS:
        raise ValueError(f"unknown output activation {act!r}")
    return Mlp(payload["layer_sizes"], np.asarray(payload["params"], dtype=float), act)


def adam_to_payload(state: AdamState) -> dict:
    return dict(vars(state), m=state.m.tolist(), v=state.v.tolist())


def adam_from_payload(payload: dict, mlp: Mlp) -> AdamState:
    m, v = (np.asarray(payload[key], dtype=float) for key in ("m", "v"))
    if not m.shape == v.shape == mlp.flat.shape:
        raise ValueError(f"moments must hold {mlp.flat.size} values each")
    state = adam_init(mlp, payload["learning_rate"])
    state.beta1, state.beta2 = payload["beta1"], payload["beta2"]
    state.epsilon, state.step_count = payload["epsilon"], int(payload["step_count"])
    state.m, state.v = m, v
    return state
