"""Unit tests for the twin-critic actor-critic learner."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rlalloc import numerics
from rlalloc.exceptions import TrainingDiverged
from rlalloc.numerics import BLOCK, mlp_forward
from rlalloc.replay import Batch
from rlalloc.td3 import Td3Agent, Td3Hyperparams


def tiny_hp(**overrides):
    defaults = dict(
        actor_hidden=(8,),
        critic_hidden=(8,),
        batch_size=4,
        buffer_capacity=16,
        exploration_steps=2,
    )
    defaults.update(overrides)
    return Td3Hyperparams(**defaults)


def make_batch(rng, n, state_dim, action_dim):
    return Batch(
        states=rng.normal(size=(n, state_dim)),
        actions=rng.uniform(-1, 1, size=(n, action_dim)),
        rewards=rng.normal(size=n),
        next_states=rng.normal(size=(n, state_dim)),
    )


def replicate_critic_loss(agent, batch, noise, discount):
    """Recompute the expected critic loss from the agent's current weights."""
    next_pi = mlp_forward(agent.actor_target, batch.next_states)
    next_actions = np.clip(next_pi + noise, -1.0, 1.0)
    target_in = np.hstack([batch.next_states, next_actions])
    q1 = mlp_forward(agent.critic1_target, target_in)
    q2 = mlp_forward(agent.critic2_target, target_in)
    y = batch.rewards[:, None] + discount * np.minimum(q1, q2)
    critic_in = np.hstack([batch.states, batch.actions])
    q1_now = mlp_forward(agent.critic1, critic_in)
    q2_now = mlp_forward(agent.critic2, critic_in)
    return 0.5 * (float(np.mean((q1_now - y) ** 2)) + float(np.mean((q2_now - y) ** 2)))


def expected_smoothing_noise(seed, n, action_dim, hp):
    """Reproduce the agent's first smoothing-noise draw from its seed."""
    _, noise_rng = np.random.default_rng(seed).spawn(2)
    return np.clip(
        noise_rng.normal(0.0, hp.smoothing_sigma, size=(n, action_dim)),
        -hp.smoothing_clip,
        hp.smoothing_clip,
    )


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        Td3Hyperparams(discount=1.5).validate()
    with pytest.raises(ValueError):
        Td3Hyperparams(soft_tau=0.0).validate()
    with pytest.raises(ValueError):
        Td3Hyperparams(policy_delay=0).validate()
    with pytest.raises(ValueError):
        Td3Hyperparams(batch_size=128, buffer_capacity=64).validate()


def test_network_shapes():
    hp = tiny_hp(actor_hidden=(32, 16), critic_hidden=(24,))
    agent = Td3Agent(state_dim=9, action_dim=3, hyperparams=hp, rng=0)
    assert agent.actor.layer_sizes == (9, 32, 16, 3)
    assert agent.critic1.layer_sizes == (12, 24, 1)
    assert agent.actor.output_activation == "tanh"
    assert agent.critic1.output_activation == "linear"


def test_explore_actions_are_uniform():
    agent = Td3Agent(3, 2, tiny_hp(), rng=0)
    rng = np.random.default_rng(1)
    actions = np.array(
        [agent.select_action(np.zeros(3), "explore", rng) for _ in range(2000)]
    )
    assert np.all(np.abs(actions) <= 1.0)
    assert abs(actions.mean()) < 0.05
    assert actions.std() == pytest.approx(1 / np.sqrt(3), rel=0.1)


def test_eval_action_is_deterministic_and_bounded():
    agent = Td3Agent(3, 2, tiny_hp(), rng=0)
    s = np.array([0.2, -0.4, 0.9])
    a1 = agent.select_action(s, "eval")
    a2 = agent.select_action(s, "eval")
    np.testing.assert_array_equal(a1, a2)
    assert np.all(np.abs(a1) <= 1.0)


def test_zero_sigma_train_equals_eval():
    agent = Td3Agent(3, 2, tiny_hp(exploration_sigma=0.0), rng=0)
    s = np.array([0.1, 0.2, 0.3])
    train = agent.select_action(s, "train", np.random.default_rng(0))
    evaluation = agent.select_action(s, "eval")
    np.testing.assert_allclose(train, evaluation, atol=1e-15)


def test_train_noise_is_added_and_clipped():
    agent = Td3Agent(3, 2, tiny_hp(exploration_sigma=50.0), rng=0)
    s = np.zeros(3)
    rng = np.random.default_rng(2)
    actions = np.array([agent.select_action(s, "train", rng) for _ in range(100)])
    assert np.all(np.abs(actions) <= 1.0)
    assert np.mean(np.abs(np.abs(actions) - 1.0) < 1e-9) > 0.9  # mostly railed


def test_select_action_mode_and_rng_guards():
    agent = Td3Agent(3, 2, tiny_hp(), rng=0)
    with pytest.raises(ValueError):
        agent.select_action(np.zeros(3), "greedy")
    with pytest.raises(ValueError):
        agent.select_action(np.zeros(3), "explore")
    with pytest.raises(ValueError):
        agent.select_action(np.zeros(3), "train")


def test_critic_loss_matches_external_replication():
    hp = tiny_hp()
    seed = 123
    agent = Td3Agent(3, 2, hp, rng=seed)
    batch = make_batch(np.random.default_rng(9), hp.batch_size, 3, 2)
    noise = expected_smoothing_noise(seed, hp.batch_size, 2, hp)
    expected = replicate_critic_loss(agent, batch, noise, hp.discount)
    critic_loss, actor_loss = agent.train_step(batch)
    assert critic_loss == pytest.approx(expected, rel=1e-12)
    assert actor_loss is None
    assert agent.critic1_opt.step_count == 1


def test_target_uses_min_of_both_critics():
    hp = tiny_hp()
    seed = 321
    agent = Td3Agent(3, 2, hp, rng=seed)
    batch = make_batch(np.random.default_rng(10), hp.batch_size, 3, 2)
    noise = expected_smoothing_noise(seed, hp.batch_size, 2, hp)

    # Replicate with min() and with critic1 alone; they must differ, and the
    # agent must match the min() version.
    next_pi = mlp_forward(agent.actor_target, batch.next_states)
    next_actions = np.clip(next_pi + noise, -1.0, 1.0)
    target_in = np.hstack([batch.next_states, next_actions])
    q1 = mlp_forward(agent.critic1_target, target_in)
    q2 = mlp_forward(agent.critic2_target, target_in)
    assert not np.allclose(np.minimum(q1, q2), q1)

    expected = replicate_critic_loss(agent, batch, noise, hp.discount)
    critic_loss, _ = agent.train_step(batch)
    assert critic_loss == pytest.approx(expected, rel=1e-12)


def test_smoothing_noise_is_clipped():
    hp = tiny_hp(smoothing_sigma=100.0, smoothing_clip=0.5)
    seed = 77
    agent = Td3Agent(3, 2, hp, rng=seed)
    batch = make_batch(np.random.default_rng(11), hp.batch_size, 3, 2)
    noise = expected_smoothing_noise(seed, hp.batch_size, 2, hp)
    assert np.all(np.abs(noise) <= 0.5)
    expected = replicate_critic_loss(agent, batch, noise, hp.discount)
    critic_loss, _ = agent.train_step(batch)
    assert critic_loss == pytest.approx(expected, rel=1e-12)


def test_zero_discount_fits_reward_only():
    hp = tiny_hp(discount=0.0)
    seed = 5
    agent = Td3Agent(3, 2, hp, rng=seed)
    batch = make_batch(np.random.default_rng(12), hp.batch_size, 3, 2)
    critic_in = np.hstack([batch.states, batch.actions])
    q1 = mlp_forward(agent.critic1, critic_in)
    q2 = mlp_forward(agent.critic2, critic_in)
    y = batch.rewards[:, None]
    expected = 0.5 * (float(np.mean((q1 - y) ** 2)) + float(np.mean((q2 - y) ** 2)))
    critic_loss, _ = agent.train_step(batch)
    assert critic_loss == pytest.approx(expected, rel=1e-12)


def test_actor_updates_are_delayed():
    hp = tiny_hp(policy_delay=3)
    agent = Td3Agent(3, 2, hp, rng=0)
    rng = np.random.default_rng(13)
    actor_before = agent.actor.copy()
    losses = []
    for _ in range(6):
        _, actor_loss = agent.train_step(make_batch(rng, hp.batch_size, 3, 2))
        losses.append(actor_loss)
    assert [l is None for l in losses] == [True, True, False, True, True, False]
    # The actor changed only on the delayed calls.
    assert not all(
        np.array_equal(a, b) for a, b in zip(actor_before.weights, agent.actor.weights)
    )


def test_target_networks_blend_with_soft_tau():
    hp = tiny_hp(policy_delay=1, soft_tau=0.25)
    agent = Td3Agent(3, 2, hp, rng=0)
    old_targets = [
        [w.copy() for w in net.weights]
        for net in (agent.actor_target, agent.critic1_target, agent.critic2_target)
    ]
    agent.train_step(make_batch(np.random.default_rng(14), hp.batch_size, 3, 2))
    new_online = (agent.actor, agent.critic1, agent.critic2)
    new_targets = (agent.actor_target, agent.critic1_target, agent.critic2_target)
    for old_t, online, target in zip(old_targets, new_online, new_targets):
        for layer in range(online.n_layers):
            expected = 0.75 * old_t[layer] + 0.25 * online.weights[layer]
            np.testing.assert_allclose(target.weights[layer], expected, atol=1e-15)


def test_targets_frozen_between_policy_updates():
    hp = tiny_hp(policy_delay=2)
    agent = Td3Agent(3, 2, hp, rng=0)
    frozen = [w.copy() for w in agent.critic1_target.weights]
    agent.train_step(make_batch(np.random.default_rng(15), hp.batch_size, 3, 2))
    for layer, w in enumerate(agent.critic1_target.weights):
        np.testing.assert_array_equal(w, frozen[layer])


def test_training_diverged_on_huge_rewards():
    hp = tiny_hp()
    agent = Td3Agent(3, 2, hp, rng=0)
    batch = make_batch(np.random.default_rng(16), hp.batch_size, 3, 2)
    batch = Batch(batch.states, batch.actions, batch.rewards + 1e200, batch.next_states)
    with pytest.raises(TrainingDiverged):
        agent.train_step(batch)


def test_acting_on_overflowing_weights_diverges():
    # Every hidden unit overflows to inf; mixed output weights make tanh's input NaN.
    agent = Td3Agent(3, 2, tiny_hp(), rng=0)
    agent.actor.weights[0][...] = 1e308
    with pytest.raises(TrainingDiverged, match="action is not finite"):
        agent.select_action(np.ones(3), "eval")


def test_agent_init_is_deterministic():
    a = Td3Agent(3, 2, tiny_hp(), rng=42)
    b = Td3Agent(3, 2, tiny_hp(), rng=42)
    for wa, wb in zip(a.actor.weights, b.actor.weights):
        np.testing.assert_array_equal(wa, wb)
    for wa, wb in zip(a.critic2.weights, b.critic2.weights):
        np.testing.assert_array_equal(wa, wb)


def test_warm_train_steps_allocate_no_large_arrays():
    # Default networks (actor 9-256-256-256-3, twin critics 12-256-256-1, batch 64):
    # once the buffers have grown, a train step allocates only small temporaries.
    agent = Td3Agent(9, 3, rng=0)
    batch = make_batch(np.random.default_rng(17), agent.hp.batch_size, 9, 3)
    for _ in range(4):
        agent.train_step(batch)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for _ in range(20):
            agent.train_step(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 512 * 1024, f"train steps peaked {peak - start} bytes above the start"


# Default networks, batch 64: the first actor update grows the shared gradient vector from
# critic size to actor size; VmHWM - VmRSS counts what the old vector added to the peak.
RSS_CHILD = """
import numpy as np
from rlalloc.replay import Batch
from rlalloc.td3 import Td3Agent

agent = Td3Agent(9, 3, rng=0)
rng = np.random.default_rng(19)
batch = Batch(rng.normal(size=(64, 9)), rng.uniform(-1, 1, size=(64, 3)), rng.normal(size=64),
              rng.normal(size=(64, 9)))
for _ in range(2 * agent.hp.policy_delay):
    agent.train_step(batch)
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
print(int(status["VmHWM"].split()[0]) - int(status["VmRSS"].split()[0]))
"""


def test_train_steps_peak_at_their_steady_rss():
    # Resident memory, not tracemalloc: the grown vector is allocated before the old one is
    # released, and that overlap is allocated, not resident.
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", RSS_CHILD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    excess_kib = int(proc.stdout.split()[-1])
    assert excess_kib < 128, f"train steps peaked {excess_kib} KiB above their steady RSS"


def test_targets_and_acting_keep_no_activation_buffers(monkeypatch):
    # Default networks, batch 64: target forwards and acting run through the shared scratch,
    # and Adam and the soft update walk the parameters BLOCK elements at a time.
    monkeypatch.setattr(numerics, "_vectors", [np.empty(0)] * 3)
    agent = Td3Agent(9, 3, rng=0)
    batch = make_batch(np.random.default_rng(18), agent.hp.batch_size, 9, 3)
    agent.select_action(np.zeros(9), "eval")
    for _ in range(2):
        agent.train_step(batch)
    assert agent.critic1_opt.step_count == agent.hp.policy_delay  # the actor and the targets were updated
    for target in (agent.actor_target, agent.critic1_target, agent.critic2_target):
        assert target._acts == []
    widest = max(agent.hp.actor_hidden + agent.hp.critic_hidden)
    bound = max(BLOCK, agent.hp.batch_size * widest)
    assert numerics._vectors[1].size <= bound and numerics._vectors[2].size <= bound
