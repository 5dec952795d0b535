"""Unit tests for the ring-buffer replay memory."""

import numpy as np
import pytest

from rlalloc.replay import ReplayBuffer


def make_transition(i, state_dim=3, action_dim=2):
    return (
        np.full(state_dim, float(i)),
        np.full(action_dim, float(i)) if action_dim else i,
        float(i),
        np.full(state_dim, float(i) + 0.5),
    )


def test_push_and_len():
    buf = ReplayBuffer(capacity=10, state_dim=3, action_dim=2)
    assert len(buf) == 0
    for i in range(4):
        buf.push(*make_transition(i))
    assert len(buf) == 4


def test_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=4, state_dim=3, action_dim=2)
    for i in range(6):
        buf.push(*make_transition(i))
    assert len(buf) == 4
    rng = np.random.default_rng(0)
    rewards = set()
    for _ in range(50):
        rewards.update(buf.sample(4, rng).rewards.tolist())
    # Only the last four transitions (2..5) remain.
    assert rewards <= {2.0, 3.0, 4.0, 5.0}
    assert rewards == {2.0, 3.0, 4.0, 5.0}


def test_sample_shapes_vector_actions():
    buf = ReplayBuffer(capacity=10, state_dim=3, action_dim=2)
    for i in range(5):
        buf.push(*make_transition(i))
    batch = buf.sample(4, np.random.default_rng(1))
    assert len(batch) == 4
    assert batch.states.shape == (4, 3)
    assert batch.actions.shape == (4, 2)
    assert batch.rewards.shape == (4,)
    assert batch.next_states.shape == (4, 3)


def test_mutating_a_sample_leaves_the_buffer_unchanged():
    buf = ReplayBuffer(capacity=6, state_dim=3, action_dim=2)
    for i in range(6):
        buf.push(*make_transition(i))
    stored = [a.copy() for a in (buf._states, buf._actions, buf._rewards, buf._next_states)]
    batch = buf.sample(6, np.random.default_rng(4))
    for arr in (batch.states, batch.actions, batch.rewards, batch.next_states):
        arr += 100.0
    for before, after in zip(stored, (buf._states, buf._actions, buf._rewards, buf._next_states)):
        np.testing.assert_array_equal(before, after)


def test_scalar_actions_are_integer():
    buf = ReplayBuffer(capacity=10, state_dim=2)
    for i in range(5):
        buf.push(np.zeros(2), i, float(i), np.ones(2))
    batch = buf.sample(3, np.random.default_rng(2))
    assert batch.actions.shape == (3,)
    assert batch.actions.dtype == np.int64


def test_sample_is_with_replacement_and_uniform():
    buf = ReplayBuffer(capacity=10, state_dim=1, action_dim=1)
    for i in range(10):
        buf.push(np.array([float(i)]), np.zeros(1), float(i), np.zeros(1))
    rng = np.random.default_rng(3)
    counts = np.zeros(10, dtype=int)
    saw_duplicate = False
    for _ in range(2000):
        rewards = buf.sample(10, rng).rewards
        counts += np.bincount(rewards.astype(int), minlength=10)
        saw_duplicate = saw_duplicate or len(set(rewards.tolist())) < 10
    # With replacement, a size-10 draw from 10 items almost surely repeats.
    assert saw_duplicate
    assert np.all(counts > 0)
    assert counts.max() / counts.min() < 1.3


def test_sample_refuses_more_than_stored():
    buf = ReplayBuffer(capacity=4, state_dim=1, action_dim=1)
    with pytest.raises(ValueError):
        buf.sample(1, np.random.default_rng(0))
    buf.push(np.zeros(1), np.zeros(1), 0.0, np.zeros(1))
    buf.sample(1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        buf.sample(2, np.random.default_rng(0))


def test_push_validates_shapes_and_values():
    buf = ReplayBuffer(capacity=4, state_dim=3, action_dim=2)
    with pytest.raises(ValueError):
        buf.push(np.zeros(2), np.zeros(2), 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        buf.push(np.zeros(3), np.zeros(1), 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        buf.push(np.zeros(3), np.zeros(2), float("nan"), np.zeros(3))


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=0, state_dim=1, action_dim=1)
