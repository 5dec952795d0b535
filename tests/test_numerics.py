"""Unit tests for the hand-rolled MLP, Adam, and soft-update numerics."""

import numpy as np
import pytest

from rlalloc.numerics import (
    Mlp,
    adam_from_payload,
    adam_init,
    adam_step,
    adam_to_payload,
    mlp_forward,
    mlp_from_payload,
    mlp_gradients,
    mlp_init,
    mlp_to_payload,
    soft_update,
)


def random_mlp(rng, output_activation="linear", max_hidden_layers=3, max_width=8):
    n_hidden = int(rng.integers(0, max_hidden_layers + 1))
    sizes = [int(rng.integers(1, max_width + 1)) for _ in range(n_hidden + 2)]
    return mlp_init(sizes, output_activation, rng=rng)


def scalar_loss(mlp, x, grad_output):
    """L = sum_{b,o} G[b,o] * y[b,o]; grad_output is dL/dy by construction."""
    y, _ = mlp_forward(mlp, x)
    return float(np.sum(grad_output * y))


def kink_clearance(mlp, x):
    """Smallest |pre-activation| over all hidden ReLU units and batch rows.

    Finite differences are only valid where the network is differentiable, so
    test points must keep every ReLU argument clear of zero by more than the
    probe step.
    """
    a = np.atleast_2d(np.asarray(x, dtype=float))
    clearance = np.inf
    for layer in range(mlp.n_layers - 1):
        z = a @ mlp.weights[layer].T + mlp.biases[layer]
        clearance = min(clearance, float(np.min(np.abs(z))) if z.size else np.inf)
        a = np.maximum(z, 0.0)
    return clearance


def draw_testable_instance(rng, output_activation, margin=1e-3, attempts=50):
    """A random net plus an input clear of every ReLU kink.

    Nets whose dead units pin later pre-activations to exactly zero (possible
    with zero-initialized biases) are resampled: central differences are
    undefined at a kink.
    """
    while True:
        mlp = random_mlp(rng, output_activation)
        batch = int(rng.integers(1, 5))
        for _ in range(attempts):
            x = rng.normal(size=(batch, mlp.in_dim))
            if kink_clearance(mlp, x) > margin:
                return mlp, x


def finite_difference_check(mlp, x, rng, step=1e-5):
    batch = x.shape[0]
    grad_output = rng.normal(size=(batch, mlp.out_dim))
    _, cache = mlp_forward(mlp, x)
    grads = mlp_gradients(mlp, cache, grad_output)

    worst = 0.0
    for layer in range(mlp.n_layers):
        for arrays, analytic in (
            (mlp.weights, grads.weights),
            (mlp.biases, grads.biases),
        ):
            arr = arrays[layer]
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = scalar_loss(mlp, x, grad_output)
                flat[idx] = orig - step
                down = scalar_loss(mlp, x, grad_output)
                flat[idx] = orig
                numeric = (up - down) / (2 * step)
                expected = analytic[layer].ravel()[idx]
                denom = max(abs(numeric), abs(expected), 1e-8)
                worst = max(worst, abs(numeric - expected) / denom)
    # Input gradient, perturbing each input coordinate.
    for b in range(batch):
        for j in range(mlp.in_dim):
            orig = x[b, j]
            x[b, j] = orig + step
            up = scalar_loss(mlp, x, grad_output)
            x[b, j] = orig - step
            down = scalar_loss(mlp, x, grad_output)
            x[b, j] = orig
            numeric = (up - down) / (2 * step)
            expected = grads.wrt_input[b, j]
            denom = max(abs(numeric), abs(expected), 1e-8)
            worst = max(worst, abs(numeric - expected) / denom)
    return worst


def test_forward_matches_hand_computation():
    # 2-3-1 network with fixed weights, checked against an explicit computation.
    w0 = np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]])
    b0 = np.array([0.01, -0.02, 0.03])
    w1 = np.array([[0.7, -0.8, 0.9]])
    b1 = np.array([0.05])
    flat = np.concatenate([w0.ravel(), b0, w1.ravel(), b1])
    mlp = Mlp(layer_sizes=(2, 3, 1), flat=flat, output_activation="tanh")
    x = np.array([0.5, -1.5])
    hidden = np.maximum(w0 @ x + b0, 0.0)
    expected = np.tanh(w1 @ hidden + b1)
    y, cache = mlp_forward(mlp, x)
    assert y.shape == (1,)
    np.testing.assert_allclose(y, expected, rtol=0, atol=1e-15)
    assert cache.activations[0].shape == (1, 2)


def test_forward_shapes_1d_and_2d():
    rng = np.random.default_rng(0)
    mlp = mlp_init([4, 5, 2], "linear", rng=rng)
    y1, _ = mlp_forward(mlp, np.zeros(4))
    assert y1.shape == (2,)
    y2, _ = mlp_forward(mlp, np.zeros((7, 4)))
    assert y2.shape == (7, 2)
    # A single-row batch stays 2-D.
    y3, _ = mlp_forward(mlp, np.zeros((1, 4)))
    assert y3.shape == (1, 2)


def test_tanh_output_is_bounded():
    rng = np.random.default_rng(1)
    mlp = mlp_init([3, 16, 2], "tanh", rng=rng)
    y, _ = mlp_forward(mlp, rng.normal(size=(100, 3)) * 50)
    assert np.all(np.abs(y) <= 1.0)


def test_init_bounds_and_zero_biases():
    rng = np.random.default_rng(2)
    mlp = mlp_init([10, 20, 5], "linear", rng=rng)
    for layer, w in enumerate(mlp.weights):
        fan_in = mlp.layer_sizes[layer]
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))
    for b in mlp.biases:
        assert np.all(b == 0.0)


def test_init_is_deterministic_per_seed():
    a = mlp_init([3, 4, 2], "linear", rng=np.random.default_rng(7))
    b = mlp_init([3, 4, 2], "linear", rng=np.random.default_rng(7))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        mlp_init([4], "linear", rng=rng)
    with pytest.raises(ValueError):
        mlp_init([4, 0, 2], "linear", rng=rng)
    with pytest.raises(ValueError):
        mlp_init([4, 3, 2], "sigmoid", rng=rng)


def test_parameter_count():
    rng = np.random.default_rng(0)
    mlp = mlp_init([3, 256, 256, 4], "linear", rng=rng)
    expected = (3 * 256 + 256) + (256 * 256 + 256) + (256 * 4 + 4)
    assert expected == 67_844
    assert mlp.parameter_count() == expected
    tiny = mlp_init([2, 1], "linear", rng=rng)
    assert tiny.parameter_count() == 3


@pytest.mark.parametrize("activation", ["linear", "tanh"])
def test_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(42 if activation == "linear" else 43)
    for _ in range(10):
        mlp, x = draw_testable_instance(rng, activation)
        worst = finite_difference_check(mlp, x, rng)
        assert worst < 1e-4, f"finite-difference mismatch {worst:.2e}"


def test_gradients_reject_mismatched_cache():
    rng = np.random.default_rng(3)
    a = mlp_init([2, 3, 1], "linear", rng=rng)
    b = mlp_init([2, 4, 1], "linear", rng=rng)
    _, cache = mlp_forward(a, np.zeros(2))
    with pytest.raises(ValueError):
        mlp_gradients(b, cache, np.ones((1, 1)))


def test_adam_first_step_is_signed_learning_rate():
    # With fresh moments, the first Adam update is lr * g / (|g| + eps) per entry.
    rng = np.random.default_rng(4)
    mlp = mlp_init([3, 4, 2], "linear", rng=rng)
    before = [w.copy() for w in mlp.weights]
    state = adam_init(mlp, learning_rate=0.01)
    x = rng.normal(size=(5, 3))
    grad_output = rng.normal(size=(5, 2))
    _, cache = mlp_forward(mlp, x)
    grads = mlp_gradients(mlp, cache, grad_output)
    adam_step(mlp, grads, state)
    for layer in range(mlp.n_layers):
        g = grads.weights[layer]
        delta = mlp.weights[layer] - before[layer]
        expected = -0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(delta, expected, rtol=1e-6, atol=1e-12)
    assert state.step_count == 1


def test_adam_converges_on_quadratic():
    # Minimise ||y(x0) - target||^2 for a fixed input; loss must drop a lot.
    rng = np.random.default_rng(5)
    mlp = mlp_init([2, 8, 1], "linear", rng=rng)
    state = adam_init(mlp, learning_rate=0.05)
    x = np.array([[0.3, -0.7]])
    target = np.array([[2.5]])

    def loss():
        y, _ = mlp_forward(mlp, x)
        return float(((y - target) ** 2).sum())

    first = loss()
    for _ in range(200):
        y, cache = mlp_forward(mlp, x)
        grads = mlp_gradients(mlp, cache, 2.0 * (y - target))
        adam_step(mlp, grads, state)
    assert loss() < 1e-3 < first


def test_adam_rejects_non_finite_gradients():
    rng = np.random.default_rng(6)
    mlp = mlp_init([2, 3, 1], "linear", rng=rng)
    state = adam_init(mlp, learning_rate=0.01)
    _, cache = mlp_forward(mlp, np.zeros((1, 2)))
    grads = mlp_gradients(mlp, cache, np.array([[np.nan]]))
    with pytest.raises(ValueError):
        adam_step(mlp, grads, state)


def test_soft_update_blend_and_bounds():
    rng = np.random.default_rng(7)
    online = mlp_init([2, 3, 1], "linear", rng=rng)
    target = mlp_init([2, 3, 1], "linear", rng=rng)
    target_before = [w.copy() for w in target.weights]

    soft_update(target, online, 0.25)
    for layer in range(online.n_layers):
        expected = 0.75 * target_before[layer] + 0.25 * online.weights[layer]
        np.testing.assert_allclose(target.weights[layer], expected, rtol=0, atol=1e-15)

    # tau = 1 is a hard copy; tau = 0 is a no-op.
    soft_update(target, online, 1.0)
    for layer in range(online.n_layers):
        np.testing.assert_array_equal(target.weights[layer], online.weights[layer])
    frozen = [w.copy() for w in target.weights]
    soft_update(target, online, 0.0)
    for layer in range(online.n_layers):
        np.testing.assert_array_equal(target.weights[layer], frozen[layer])

    with pytest.raises(ValueError):
        soft_update(target, online, 1.5)
    mismatched = mlp_init([2, 4, 1], "linear", rng=rng)
    with pytest.raises(ValueError):
        soft_update(target, mismatched, 0.5)


def test_mlp_payload_round_trip():
    rng = np.random.default_rng(8)
    mlp = mlp_init([3, 5, 2], "tanh", rng=rng)
    clone = mlp_from_payload(mlp_to_payload(mlp))
    assert clone.layer_sizes == mlp.layer_sizes
    assert clone.output_activation == mlp.output_activation
    x = rng.normal(size=(4, 3))
    y0, _ = mlp_forward(mlp, x)
    y1, _ = mlp_forward(clone, x)
    np.testing.assert_array_equal(y0, y1)


def test_adam_payload_round_trip():
    rng = np.random.default_rng(9)
    mlp = mlp_init([2, 4, 1], "linear", rng=rng)
    state = adam_init(mlp, learning_rate=0.02)
    x = rng.normal(size=(3, 2))
    for _ in range(3):
        y, cache = mlp_forward(mlp, x)
        adam_step(mlp, mlp_gradients(mlp, cache, 2 * y), state)
    restored = adam_from_payload(adam_to_payload(state), mlp)
    assert restored.step_count == state.step_count
    assert restored.learning_rate == state.learning_rate
    np.testing.assert_array_equal(restored.m, state.m)
    np.testing.assert_array_equal(restored.v, state.v)
    assert restored.m.shape == restored.v.shape == (mlp.parameter_count(),)


def test_payloads_reject_wrong_lengths():
    rng = np.random.default_rng(13)
    mlp = mlp_init([2, 4, 1], "linear", rng=rng)
    payload = mlp_to_payload(mlp)
    payload["params"] = payload["params"][:-1]
    with pytest.raises(ValueError):
        mlp_from_payload(payload)
    state_payload = adam_to_payload(adam_init(mlp, learning_rate=0.02))
    state_payload["v"] = [0.0]
    with pytest.raises(ValueError):
        adam_from_payload(state_payload, mlp)


def test_copy_is_deep():
    rng = np.random.default_rng(10)
    mlp = mlp_init([2, 3, 1], "linear", rng=rng)
    clone = mlp.copy()
    clone.weights[0][0, 0] += 100.0
    assert mlp.weights[0][0, 0] != clone.weights[0][0, 0]


def layers(net):
    """A network's (or gradient's) arrays in flat-layout order: w0, b0, w1, b1, ..."""
    return [a for pair in zip(net.weights, net.biases) for a in pair]


def test_flat_layout_and_whole_vector_updates_match_per_layer_formulas():
    rng = np.random.default_rng(12)
    mlp = mlp_init([5, 7, 6, 3], "tanh", rng=rng)
    # One vector, layer by layer (weights row-major, then bias), seen through views.
    assert mlp.flat.shape == (mlp.parameter_count(),)
    assert all(np.shares_memory(a, mlp.flat) for a in layers(mlp))
    np.testing.assert_array_equal(mlp.flat, np.concatenate([a.ravel() for a in layers(mlp)]))
    clone = mlp.copy()
    assert not np.shares_memory(clone.flat, mlp.flat)
    assert all(np.shares_memory(a, clone.flat) for a in layers(clone))

    # Reference: Adam applied layer by layer, element by element.
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    state = adam_init(mlp, learning_rate=lr)
    ref = [a.copy() for a in layers(mlp)]
    ref_m = [np.zeros_like(a) for a in ref]
    ref_v = [np.zeros_like(a) for a in ref]
    x = rng.normal(size=(4, 5))
    for t in range(1, 4):
        y, cache = mlp_forward(mlp, x)
        grads = mlp_gradients(mlp, cache, y - 0.5)
        assert all(np.shares_memory(g, grads.flat) for g in layers(grads))
        for p, g, m, v in zip(ref, layers(grads), ref_m, ref_v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        adam_step(mlp, grads, state)
        assert all(np.array_equal(p, q) for p, q in zip(ref, layers(mlp)))

    # Polyak blend, per layer.
    tau = 0.3
    ref = [a.copy() for a in layers(clone)]
    for tp, op in zip(ref, layers(mlp)):
        tp *= 1.0 - tau
        tp += tau * op
    soft_update(clone, mlp, tau)
    assert all(np.array_equal(p, q) for p, q in zip(ref, layers(clone)))
