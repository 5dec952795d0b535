"""Fixed-capacity experience replay over preallocated numpy storage."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass
class Batch:
    """Column-stacked sample of transitions."""

    states: Array
    actions: Array
    rewards: Array
    next_states: Array

    def __len__(self) -> int:
        return self.states.shape[0]


class ReplayBuffer:
    """Ring buffer: overwrites the oldest entry once ``capacity`` is reached.

    The transitions are one unbroken stream, so each observation is stored once: transition
    k's state is row k mod (capacity + 1) of ``_obs`` and its next state the row after it.
    A slot keeps its action, its reward and its state's row. ``action_dim=None`` stores
    scalar integer actions (discrete agents); otherwise float vectors of that width.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if state_dim < 1:
            raise ValueError(f"state_dim must be >= 1, got {state_dim}")
        self.capacity = int(capacity)
        self.state_dim = int(state_dim)
        self.action_dim = None if action_dim is None else int(action_dim)
        self._obs = np.zeros((capacity + 1, state_dim))
        if self.action_dim is None:
            self._actions = np.zeros(capacity, dtype=np.int64)
        else:
            self._actions = np.zeros((capacity, self.action_dim))
        self._rewards = np.zeros(capacity)
        self._rows = np.zeros(capacity, dtype=np.int64)
        self._cursor = 0
        self._size = 0
        self._row, self._last = 0, None  # the latest next state's row, and its array

    def __len__(self) -> int:
        return self._size

    def push(self, state: Array, action: Array | int, reward: float, next_state: Array) -> None:
        """Store one step of experience. ``action`` is a float vector or an int index.

        After the first push, ``state`` must equal the previous push's ``next_state``, bit
        for bit; passing that same array, unchanged, is the fast path. An error writes nothing.
        """
        state = np.asarray(state, dtype=float)
        next_state = np.asarray(next_state, dtype=float)
        if state.shape != (self.state_dim,) or next_state.shape != (self.state_dim,):
            raise ValueError(
                f"states must have shape ({self.state_dim},), "
                f"got {state.shape} and {next_state.shape}"
            )
        reward = float(reward)
        if not np.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        action = int(action) if self.action_dim is None else np.asarray(action, dtype=float)
        if self.action_dim is not None and action.shape != (self.action_dim,):
            raise ValueError(f"action must have shape ({self.action_dim},), got {action.shape}")
        row = self._row
        if self._size == 0:
            self._obs[row] = state
        elif state is not self._last and state.tobytes() != self._obs[row].tobytes():
            raise ValueError("state must equal the previous push's next_state")
        i = self._cursor
        self._row = (row + 1) % (self.capacity + 1)
        self._obs[self._row] = self._last = next_state
        self._actions[i] = action
        self._rewards[i] = reward
        self._rows[i] = row
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        """Uniform sample of ``n`` transitions, with replacement."""
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        if n > self._size:
            raise ValueError(f"asked for {n} transitions but buffer holds {self._size}")
        idx = rng.integers(0, self._size, size=n)
        rows = self._rows[idx]
        # Integer-array indexing copies, so the batch never aliases the storage.
        return Batch(
            states=self._obs[rows],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_states=self._obs.take(rows + 1, axis=0, mode="wrap"),
        )
