"""Unit tests for the ring-buffer replay memory."""

import numpy as np
import pytest

from rlalloc.replay import ReplayBuffer


def observation(i, state_dim=3, one_hot=()):
    """Observation i of one chained stream: i everywhere, i mod 2 in the one-hot entries."""
    obs = np.full(state_dim, float(i))
    obs[list(one_hot)] = i % 2
    return obs


def make_transition(i, state_dim=3, action_dim=2, one_hot=()):
    """Transition i of one chained stream: state i, next state i + 1."""
    return (
        observation(i, state_dim, one_hot),
        np.full(action_dim, float(i)) if action_dim else i,
        float(i),
        observation(i + 1, state_dim, one_hot),
    )


STORAGE = ("_obs", "_bits", "_actions", "_rewards")


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
    stored = [getattr(buf, name).copy() for name in STORAGE]
    batch = buf.sample(6, np.random.default_rng(4))
    for arr in (batch.states, batch.actions, batch.rewards, batch.next_states):
        arr += 100.0
    for before, name in zip(stored, STORAGE):
        np.testing.assert_array_equal(before, getattr(buf, name))


def test_scalar_actions_are_integer():
    buf = ReplayBuffer(capacity=10, state_dim=2)
    for i in range(5):
        buf.push(np.full(2, float(i)), i, float(i), np.full(2, float(i + 1)))
    batch = buf.sample(3, np.random.default_rng(2))
    assert batch.actions.shape == (3,)
    assert batch.actions.dtype == np.int64


def test_sample_is_with_replacement_and_uniform():
    buf = ReplayBuffer(capacity=10, state_dim=1, action_dim=1)
    for i in range(10):
        buf.push(np.array([float(i)]), np.zeros(1), float(i), np.array([float(i + 1)]))
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


PAYLOAD_NAN = np.frombuffer(np.uint64(0x7FF8_0000_0000_0123).tobytes())[0]


class TwoArrayReplay:
    """Reference layout: every transition's state and next state in their own rows."""

    def __init__(self, capacity, state_dim, action_dim):
        self.capacity, self.cursor, self.size = capacity, 0, 0
        self.states = np.zeros((capacity, state_dim))
        self.next_states = np.zeros((capacity, state_dim))
        shape = capacity if action_dim is None else (capacity, action_dim)
        self.actions = np.zeros(shape, dtype=np.int64 if action_dim is None else float)
        self.rewards = np.zeros(capacity)

    def push(self, state, action, reward, next_state):
        i = self.cursor
        self.states[i], self.actions[i], self.rewards[i], self.next_states[i] = (
            state, action, reward, next_state)
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, n, rng):
        idx = rng.integers(0, self.size, size=n)
        return self.states[idx], self.actions[idx], self.rewards[idx], self.next_states[idx]


@pytest.mark.parametrize("action_dim, one_hot", [(2, ()), (None, ()), (None, (0, 2, 3))],
                         ids=["2", "None", "None-one-hot"])
def test_batches_equal_the_two_array_layout_across_three_wraps(action_dim, one_hot):
    capacity, state_dim = 7, 5
    buf = ReplayBuffer(capacity, state_dim, action_dim, one_hot=one_hot)
    ref = TwoArrayReplay(capacity, state_dim, action_dim)
    rng = np.random.default_rng(5)

    def draw():  # the float64 entries: normals, 1.0, -0.0 and a NaN with a payload
        obs = rng.choice([rng.normal(), 1.0, -0.0, PAYLOAD_NAN], size=state_dim)
        obs[list(one_hot)] = rng.integers(0, 2, size=len(one_hot))
        return obs

    obs = draw()
    for k in range(3 * capacity):
        action = rng.normal(size=action_dim) if action_dim else int(rng.integers(0, 9))
        reward, next_obs = float(rng.normal()), draw()
        ref.push(obs, action, reward, next_obs)
        # The same array, an equal copy, or a list: all one stream.
        state = (obs, obs.copy(), obs.tolist())[k % 3]
        buf.push(state, action, reward, next_obs)
        obs = next_obs
        assert len(buf) == ref.size
        n = min(len(buf), 5)
        batch = buf.sample(n, np.random.default_rng(k))
        expected = ref.sample(n, np.random.default_rng(k))
        got = (batch.states, batch.actions, batch.rewards, batch.next_states)
        for want, have in zip(expected, got):
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes()


def with_entry(obs, pos, value):
    obs = obs.copy()
    obs[pos] = value
    return obs


@pytest.mark.parametrize("action_dim, one_hot", [(2, ()), (None, ()), (None, (0, 2))],
                         ids=["2", "None", "None-one-hot"])
def test_a_break_in_the_stream_raises_and_writes_nothing(action_dim, one_hot):
    buf = ReplayBuffer(capacity=4, state_dim=3, action_dim=action_dim, one_hot=one_hot)
    for i in range(6):  # past one wrap
        buf.push(*make_transition(i, action_dim=action_dim, one_hot=one_hot))
    stored = {name: getattr(buf, name).copy() for name in STORAGE}
    counters = (len(buf), buf._count)
    state, action, reward, next_state = make_transition(6, action_dim=action_dim, one_hot=one_hot)
    stream, exact = "previous push's next_state", "one-hot entries must be exactly 0.0 or 1.0"
    broken = [(state + 0.5, next_state, stream), (np.zeros(3), next_state, stream)]
    if one_hot:  # only a one-hot entry differs; then values no byte can hold, either side
        broken = [(with_entry(state, 2, 1.0 - state[2]), next_state, stream),
                  *((with_entry(state, 0, bad), next_state, exact) for bad in (-0.0, 0.5, np.nan)),
                  *((state, with_entry(next_state, 2, bad), exact) for bad in (-0.0, 0.5, np.nan))]
    for bad_state, bad_next, message in broken:
        with pytest.raises(ValueError, match=message):
            buf.push(bad_state, action, reward, bad_next)
        assert (len(buf), buf._count) == counters
        for name, before in stored.items():
            assert getattr(buf, name).tobytes() == before.tobytes()
    buf.push(state.copy(), action, reward, next_state)  # by value, the stream goes on
    assert (len(buf), buf._count) == (4, 7)


def test_a_state_equal_in_value_but_not_in_bits_breaks_the_stream():
    buf = ReplayBuffer(capacity=4, state_dim=2, action_dim=1)
    buf.push(np.ones(2), np.zeros(1), 0.0, np.zeros(2))
    with pytest.raises(ValueError):  # a sample would return the stored +0.0, not -0.0
        buf.push(-np.zeros(2), np.zeros(1), 0.0, np.ones(2))
    assert len(buf) == 1
