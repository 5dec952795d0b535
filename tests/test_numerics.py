"""Unit tests for the hand-rolled MLP, Adam, and soft-update numerics."""

import numpy as np
import pytest

from rlalloc.numerics import (
    BLOCK,
    OUTPUT_ACTIVATIONS,
    Gradients,
    Mlp,
    adam_init,
    adam_step,
    mlp_forward,
    mlp_gradients,
    mlp_init,
    mlp_input_gradient,
    mlp_predict,
    soft_update,
)


def random_mlp(rng, output_activation="linear", max_hidden_layers=3, max_width=8):
    n_hidden = int(rng.integers(0, max_hidden_layers + 1))
    sizes = [int(rng.integers(1, max_width + 1)) for _ in range(n_hidden + 2)]
    return mlp_init(sizes, output_activation, rng=rng)


def scalar_loss(mlp, x, grad_output):
    """L = sum_{b,o} G[b,o] * y[b,o]; grad_output is dL/dy by construction."""
    y = mlp_forward(mlp, x)
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
    mlp_forward(mlp, x)
    grads = mlp_gradients(mlp, grad_output)
    wrt_input = mlp_input_gradient(mlp, grad_output)

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
            expected = wrt_input[b, j]
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
    y = mlp_forward(mlp, x)
    assert y.shape == (1,)
    np.testing.assert_allclose(y, expected, rtol=0, atol=1e-15)
    assert mlp._forward[0].shape == (1, 2)


def test_forward_shapes_1d_and_2d():
    rng = np.random.default_rng(0)
    mlp = mlp_init([4, 5, 2], "linear", rng=rng)
    y1 = mlp_forward(mlp, np.zeros(4))
    assert y1.shape == (2,)
    y2 = mlp_forward(mlp, np.zeros((7, 4)))
    assert y2.shape == (7, 2)
    # A single-row batch stays 2-D.
    y3 = mlp_forward(mlp, np.zeros((1, 4)))
    assert y3.shape == (1, 2)


def test_tanh_output_is_bounded():
    rng = np.random.default_rng(1)
    mlp = mlp_init([3, 16, 2], "tanh", rng=rng)
    y = mlp_forward(mlp, rng.normal(size=(100, 3)) * 50)
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


def test_gradients_need_a_forward():
    rng = np.random.default_rng(3)
    fresh = mlp_init([2, 3, 1], "linear", rng=rng)
    predicted = mlp_init([2, 4, 1], "linear", rng=rng)
    mlp_predict(predicted, np.zeros(2))
    forwarded = mlp_init([2, 5, 1], "linear", rng=rng)
    mlp_forward(forwarded, np.zeros(2))
    for mlp in (fresh, predicted, forwarded.copy()):
        with pytest.raises(ValueError, match="no mlp_forward"):
            mlp_gradients(mlp, np.ones((1, 1)))
        with pytest.raises(ValueError, match="no mlp_forward"):
            mlp_input_gradient(mlp, np.ones((1, 1)))
    mlp_gradients(forwarded, np.ones((1, 1)))


def test_adam_first_step_is_signed_learning_rate():
    # With fresh moments, the first Adam update is lr * g / (|g| + eps) per entry.
    rng = np.random.default_rng(4)
    mlp = mlp_init([3, 4, 2], "linear", rng=rng)
    before = [w.copy() for w in mlp.weights]
    state = adam_init(mlp, learning_rate=0.01)
    x = rng.normal(size=(5, 3))
    grad_output = rng.normal(size=(5, 2))
    mlp_forward(mlp, x)
    grads = mlp_gradients(mlp, grad_output)
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
        y = mlp_forward(mlp, x)
        return float(((y - target) ** 2).sum())

    first = loss()
    for _ in range(200):
        y = mlp_forward(mlp, x)
        grads = mlp_gradients(mlp, 2.0 * (y - target))
        adam_step(mlp, grads, state)
    assert loss() < 1e-3 < first


def test_adam_rejects_non_finite_gradients():
    rng = np.random.default_rng(6)
    mlp = mlp_init([2, 3, 1], "linear", rng=rng)
    state = adam_init(mlp, learning_rate=0.01)
    mlp_forward(mlp, np.zeros((1, 2)))
    grads = mlp_gradients(mlp, np.array([[np.nan]]))
    with pytest.raises(ValueError):
        adam_step(mlp, grads, state)


def test_adam_bits_equal_the_bias_corrected_formula_on_both_sides_of_exact_correction():
    # From some step on, 1 - beta1**t rounds to exactly 1.0 and adam_step skips dividing by it.
    lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
    exact = next(t for t in range(1, 10_000) if 1.0 - b1**t == 1.0)
    assert 300 < exact < 400
    rng = np.random.default_rng(13)
    mlp = mlp_init([4, 9, 3], "linear", rng=rng)
    state = adam_init(mlp, learning_rate=lr)
    mlp_forward(mlp, rng.normal(size=(6, 4)))
    grads = mlp_gradients(mlp, rng.normal(size=(6, 3)))
    g = grads.flat.copy()
    for t in (1, exact - 2, exact - 1, exact, exact + 1, 5000):
        state.step_count = t - 1
        state.m[:] = rng.normal(size=g.size)
        state.v[:] = rng.random(g.size)
        m = state.m * b1 + g * (1.0 - b1)
        v = state.v * b2 + (g * g) * (1.0 - b2)
        p = mlp.flat - m / (1.0 - b1**t) * lr / (np.sqrt(v / (1.0 - b2**t)) + eps)
        adam_step(mlp, grads, state)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert np.array_equal(mlp.flat, p), t


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
        y = mlp_forward(mlp, x)
        grads = mlp_gradients(mlp, y - 0.5)
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


def reference_passes(mlp, x, grad_output):
    """Allocating forward and backward, one fresh array per step, written inline.

    Returns the per-layer activations, the weight and bias gradients and the
    input gradient.
    """
    acts = [x]
    for layer, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = acts[-1] @ w.T + b
        if layer < mlp.n_layers - 1:
            z = np.maximum(z, 0.0)
        elif mlp.output_activation == "tanh":
            z = np.tanh(z)
        acts.append(z)
    g = grad_output
    if mlp.output_activation == "tanh":
        g = grad_output * (1.0 - acts[-1] * acts[-1])
    w_grads, b_grads = [None] * mlp.n_layers, [None] * mlp.n_layers
    for layer in range(mlp.n_layers - 1, -1, -1):
        w_grads[layer] = g.T @ acts[layer]
        b_grads[layer] = g.sum(axis=0)
        g = g @ mlp.weights[layer]
        if layer > 0:
            g = g * (acts[layer] > 0.0)
    return acts, w_grads, b_grads, g


def test_buffered_passes_equal_allocating_reference_bit_for_bit():
    rng = np.random.default_rng(60)
    for i in range(50):
        mlp = random_mlp(rng, OUTPUT_ACTIVATIONS[i % 2], max_width=40)
        # A large batch first, so later batches use the first rows of grown buffers.
        for batch in (64, int(rng.integers(1, 6)), 1):
            x = rng.normal(size=(batch, mlp.in_dim))
            grad_output = rng.normal(size=(batch, mlp.out_dim))
            acts, w_grads, b_grads, wrt_input = reference_passes(mlp, x, grad_output)
            y = mlp_forward(mlp, x)
            assert np.array_equal(y, acts[-1])
            assert all(np.array_equal(a, b) for a, b in zip(mlp._forward, acts))
            assert np.array_equal(mlp_input_gradient(mlp, grad_output), wrt_input)
            grads = mlp_gradients(mlp, grad_output)
            assert all(np.array_equal(a, b) for a, b in zip(grads.weights, w_grads))
            assert all(np.array_equal(a, b) for a, b in zip(grads.biases, b_grads))
            # The parameter backward leaves the forward current for the input gradient.
            assert np.array_equal(mlp_input_gradient(mlp, grad_output), wrt_input)
        # A vector input takes the batch-1 path and returns vectors.
        y = mlp_forward(mlp, x[0])
        assert np.array_equal(y, acts[-1][0])
        grads = mlp_gradients(mlp, grad_output[0])
        assert all(np.array_equal(a, b) for a, b in zip(grads.weights, w_grads))
        assert np.array_equal(mlp_input_gradient(mlp, grad_output[0]), wrt_input[0])


def test_gradients_follow_the_latest_forward():
    rng = np.random.default_rng(61)
    mlp = mlp_init([3, 5, 2], "tanh", rng=rng)
    clone = mlp.copy()
    # The second batch is smaller, so it reuses the first rows of the first forward's buffers.
    first, second = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
    grad_output = rng.normal(size=(4, 2))
    mlp_forward(mlp, first)
    mlp_forward(mlp, second)
    mlp_forward(clone, second)
    expected = mlp_gradients(clone, grad_output).flat.copy()
    expected_input = mlp_input_gradient(clone, grad_output)
    assert np.array_equal(mlp_gradients(mlp, grad_output).flat, expected)
    assert np.array_equal(mlp_input_gradient(mlp, grad_output), expected_input)


def test_returned_output_survives_later_forwards():
    rng = np.random.default_rng(62)
    mlp = mlp_init([3, 5, 2], "linear", rng=rng)
    y = mlp_forward(mlp, rng.normal(size=(4, 3)))
    v = mlp_forward(mlp, rng.normal(size=3))
    kept_y, kept_v = y.copy(), v.copy()
    mlp_forward(mlp, rng.normal(size=(4, 3)))
    mlp_forward(mlp, rng.normal(size=3))
    assert np.array_equal(y, kept_y) and np.array_equal(v, kept_v)


def test_copy_shares_no_buffer_with_its_source():
    rng = np.random.default_rng(63)
    mlp = mlp_init([3, 6, 6, 2], "tanh", rng=rng)
    x, grad_output = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
    mlp_forward(mlp, x)
    clone = mlp.copy()
    mlp_forward(clone, x)
    for ours, theirs in zip(mlp._forward[1:], clone._forward[1:]):
        assert not np.shares_memory(ours, theirs)
    assert not np.shares_memory(clone.flat, mlp.flat)
    # The clone's forward left the source's own forward current.
    mlp_gradients(mlp, grad_output)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, 3 * BLOCK + 7])
def test_blocked_adam_and_soft_update_equal_the_whole_vector_formulas(n):
    # A network with n parameters: one layer from n - 1 inputs to one output.
    rng = np.random.default_rng(n)
    lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
    mlp = Mlp((n - 1, 1), rng.normal(size=n))
    state = adam_init(mlp, learning_rate=lr)
    grads = Gradients(rng.normal(size=n), [], [])
    g = grads.flat
    exact = next(t for t in range(1, 10_000) if 1.0 - b1**t == 1.0)  # t = 356
    for t in (1, exact - 1, exact, 5000):
        state.step_count = t - 1
        state.m[:] = rng.normal(size=n)
        state.v[:] = rng.random(n)
        m = state.m * b1 + g * (1.0 - b1)
        v = state.v * b2 + (g * g) * (1.0 - b2)
        p = mlp.flat - m / (1.0 - b1**t) * lr / (np.sqrt(v / (1.0 - b2**t)) + eps)
        adam_step(mlp, grads, state)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert np.array_equal(mlp.flat, p), t
        assert state.step_count == t

    target, tau = Mlp((n - 1, 1), rng.normal(size=n)), 0.005
    expected = target.flat * (1.0 - tau) + mlp.flat * tau
    soft_update(target, mlp, tau)
    assert np.array_equal(target.flat, expected)


def test_non_finite_gradient_in_the_last_block_changes_nothing():
    n = 3 * BLOCK + 7
    rng = np.random.default_rng(70)
    mlp = Mlp((n - 1, 1), rng.normal(size=n))
    state = adam_init(mlp, learning_rate=0.01)
    state.m[:], state.v[:], state.step_count = rng.normal(size=n), rng.random(n), 4
    grads = Gradients(rng.normal(size=n), [], [])
    grads.flat[-1] = np.inf
    before = mlp.flat.copy(), state.m.copy(), state.v.copy()
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(mlp, grads, state)
    assert all(np.array_equal(a, b) for a, b in zip(before, (mlp.flat, state.m, state.v)))
    assert state.step_count == 4


@pytest.mark.parametrize("sizes, activation", [((9, 256, 256, 256, 3), "tanh"),
                                               ((12, 256, 256, 1), "linear")])
def test_predict_equals_forward_bit_for_bit(sizes, activation):
    rng = np.random.default_rng(71)
    mlp = mlp_init(sizes, activation, rng=rng)
    mlp.flat[:] += rng.normal(scale=0.01, size=mlp.flat.size)  # non-zero biases
    for x in (rng.normal(size=(64, sizes[0])), rng.normal(size=(1, sizes[0])),
              rng.normal(size=sizes[0])):
        y = mlp_forward(mlp, x)
        predicted = mlp_predict(mlp, x)
        assert predicted.shape == y.shape and np.array_equal(predicted, y)


def test_predict_leaves_the_forward_cache_valid():
    rng = np.random.default_rng(72)
    mlp = mlp_init((6, 32, 32, 2), "tanh", rng=rng)
    x, grad_output = rng.normal(size=(64, 6)), rng.normal(size=(64, 2))
    mlp_forward(mlp, x)
    expected = mlp_gradients(mlp, grad_output).flat.copy()
    expected_input = mlp_input_gradient(mlp, grad_output)

    mlp_forward(mlp, x)
    mlp_predict(mlp, rng.normal(size=(64, 6)))
    mlp_predict(mlp, rng.normal(size=6))
    assert np.array_equal(mlp_gradients(mlp, grad_output).flat, expected)
    assert np.array_equal(mlp_input_gradient(mlp, grad_output), expected_input)
