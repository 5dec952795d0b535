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

    ``action_dim=None`` stores scalar integer actions (discrete agents);
    otherwise actions are float vectors of that width.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if state_dim < 1:
            raise ValueError(f"state_dim must be >= 1, got {state_dim}")
        self.capacity = int(capacity)
        self.state_dim = int(state_dim)
        self.action_dim = None if action_dim is None else int(action_dim)
        self._states = np.zeros((capacity, state_dim))
        self._next_states = np.zeros((capacity, state_dim))
        if self.action_dim is None:
            self._actions = np.zeros(capacity, dtype=np.int64)
        else:
            self._actions = np.zeros((capacity, self.action_dim))
        self._rewards = np.zeros(capacity)
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state: Array, action: Array | int, reward: float, next_state: Array) -> None:
        """Store one step of experience. ``action`` is a float vector or an int index."""
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
        i = self._cursor
        if self.action_dim is None:
            self._actions[i] = int(action)
        else:
            action = np.asarray(action, dtype=float)
            if action.shape != (self.action_dim,):
                raise ValueError(
                    f"action must have shape ({self.action_dim},), got {action.shape}"
                )
            self._actions[i] = action
        self._states[i] = state
        self._next_states[i] = next_state
        self._rewards[i] = reward
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        """Uniform sample of ``n`` transitions, with replacement."""
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        if n > self._size:
            raise ValueError(f"asked for {n} transitions but buffer holds {self._size}")
        idx = rng.integers(0, self._size, size=n)
        # Integer-array indexing copies, so the batch never aliases the storage.
        return Batch(
            states=self._states[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_states=self._next_states[idx],
        )
