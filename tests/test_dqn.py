"""Unit tests for the cost-minimizing Q-learner."""

import numpy as np
import pytest

from rlalloc.dqn import DqnAgent, DqnHyperparams
from rlalloc.exceptions import TrainingDiverged
from rlalloc.numerics import mlp_forward
from rlalloc.replay import Batch


def tiny_hp(**overrides):
    defaults = dict(
        hidden=(8,),
        batch_size=4,
        buffer_capacity=16,
        exploration_steps=2,
        target_sync_period=3,
    )
    defaults.update(overrides)
    return DqnHyperparams(**defaults)


def make_batch(rng, n, state_dim, num_actions):
    return Batch(
        states=rng.normal(size=(n, state_dim)),
        actions=rng.integers(0, num_actions, size=n),
        rewards=rng.uniform(0.1, 1.0, size=n),
        next_states=rng.normal(size=(n, state_dim)),
    )


def replicate_loss(agent, batch, discount):
    """Expected squared Bellman error from the agent's current weights."""
    q_next = mlp_forward(agent.target, batch.next_states)
    y = batch.rewards + discount * q_next.min(axis=1)
    q = mlp_forward(agent.online, batch.states)
    taken = q[np.arange(len(batch)), batch.actions]
    return float(np.mean((taken - y) ** 2))


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        DqnHyperparams(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        DqnHyperparams(epsilon=1.5).validate()
    with pytest.raises(ValueError):
        DqnHyperparams(target_sync_period=0).validate()


def test_network_shape_and_q_values():
    agent = DqnAgent(state_dim=5, num_actions=7, hyperparams=tiny_hp(), rng=0)
    assert agent.online.layer_sizes == (5, 8, 7)
    q = agent.q_values(np.zeros(5))
    assert q.shape == (7,)


def test_eval_picks_minimum_cost_action():
    agent = DqnAgent(3, 4, tiny_hp(), rng=0)
    s = np.array([0.5, -0.5, 0.25])
    q = agent.q_values(s)
    assert agent.select_action(s, "eval") == int(np.argmin(q))


def test_greedy_choice_invariant_to_shared_bias():
    agent = DqnAgent(3, 4, tiny_hp(), rng=1)
    s = np.array([0.1, 0.9, -0.3])
    before = agent.select_action(s, "eval")
    agent.online.biases[-1] += 123.0  # shift every action's value equally
    assert agent.select_action(s, "eval") == before


def test_explore_covers_all_actions_uniformly():
    agent = DqnAgent(3, 5, tiny_hp(), rng=0)
    rng = np.random.default_rng(2)
    picks = [agent.select_action(np.zeros(3), "explore", rng) for _ in range(5000)]
    counts = np.bincount(picks, minlength=5)
    assert np.all(counts > 0)
    assert counts.max() / counts.min() < 1.25


def test_epsilon_zero_and_one_extremes():
    greedy = DqnAgent(3, 4, tiny_hp(epsilon=0.0), rng=3)
    s = np.array([0.4, 0.4, 0.4])
    rng = np.random.default_rng(4)
    expected = greedy.select_action(s, "eval")
    assert all(greedy.select_action(s, "train", rng) == expected for _ in range(50))

    random_agent = DqnAgent(3, 4, tiny_hp(epsilon=1.0), rng=3)
    picks = {random_agent.select_action(s, "train", rng) for _ in range(200)}
    assert picks == {0, 1, 2, 3}


def test_epsilon_mixture_rate():
    agent = DqnAgent(3, 4, tiny_hp(epsilon=0.3), rng=5)
    s = np.array([1.0, 2.0, 3.0])
    greedy = agent.select_action(s, "eval")
    rng = np.random.default_rng(6)
    picks = np.array([agent.select_action(s, "train", rng) for _ in range(10_000)])
    # Non-greedy picks happen at rate eps * (1 - 1/A) = 0.3 * 0.75.
    assert np.mean(picks != greedy) == pytest.approx(0.225, abs=0.02)


def test_mode_and_rng_guards():
    agent = DqnAgent(3, 4, tiny_hp(), rng=0)
    with pytest.raises(ValueError):
        agent.select_action(np.zeros(3), "best")
    with pytest.raises(ValueError):
        agent.select_action(np.zeros(3), "explore")
    with pytest.raises(ValueError):
        agent.select_action(np.zeros(3), "train")


def test_train_loss_matches_external_replication():
    hp = tiny_hp()
    agent = DqnAgent(3, 4, hp, rng=7)
    batch = make_batch(np.random.default_rng(8), hp.batch_size, 3, 4)
    expected = replicate_loss(agent, batch, hp.discount)
    loss = agent.train_step(batch)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_zero_discount_fits_reward_only():
    hp = tiny_hp(discount=0.0)
    agent = DqnAgent(3, 4, hp, rng=9)
    batch = make_batch(np.random.default_rng(10), hp.batch_size, 3, 4)
    q = mlp_forward(agent.online, batch.states)
    taken = q[np.arange(len(batch)), batch.actions]
    expected = float(np.mean((taken - batch.rewards) ** 2))
    assert agent.train_step(batch) == pytest.approx(expected, rel=1e-12)


def test_training_reduces_loss_on_fixed_batch():
    hp = tiny_hp(learning_rate=5e-3)
    agent = DqnAgent(3, 4, hp, rng=11)
    batch = make_batch(np.random.default_rng(12), hp.batch_size, 3, 4)
    first = replicate_loss(agent, batch, hp.discount)
    for _ in range(300):
        agent.train_step(batch)
    # The target net is frozen here (no sync), so the fit should tighten.
    assert replicate_loss(agent, batch, hp.discount) < first * 0.05


def test_target_only_moves_on_sync():
    hp = tiny_hp()
    agent = DqnAgent(3, 4, hp, rng=13)
    frozen = [w.copy() for w in agent.target.weights]
    agent.train_step(make_batch(np.random.default_rng(14), hp.batch_size, 3, 4))
    for layer, w in enumerate(agent.target.weights):
        np.testing.assert_array_equal(w, frozen[layer])
    agent.sync_target()
    for wt, wo in zip(agent.target.weights, agent.online.weights):
        np.testing.assert_array_equal(wt, wo)


def test_training_diverged_on_huge_rewards():
    hp = tiny_hp()
    agent = DqnAgent(3, 4, hp, rng=15)
    batch = make_batch(np.random.default_rng(16), hp.batch_size, 3, 4)
    batch = Batch(batch.states, batch.actions, batch.rewards + 1e200, batch.next_states)
    with pytest.raises(TrainingDiverged):
        agent.train_step(batch)


def test_acting_on_overflowing_weights_diverges():
    # Every hidden unit overflows to inf; mixed output weights make the values NaN or inf.
    agent = DqnAgent(3, 4, tiny_hp(), rng=15)
    agent.online.weights[0][...] = 1e308
    with pytest.raises(TrainingDiverged, match="action values are not finite"):
        agent.select_action(np.ones(3), "eval")


def test_agent_init_is_deterministic():
    a = DqnAgent(3, 4, tiny_hp(), rng=20)
    b = DqnAgent(3, 4, tiny_hp(), rng=20)
    for wa, wb in zip(a.online.weights, b.online.weights):
        np.testing.assert_array_equal(wa, wb)
