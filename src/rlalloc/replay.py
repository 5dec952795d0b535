"""Fixed-capacity experience replay over preallocated numpy storage.

Observation entries named ``one_hot`` only ever hold +0.0 or 1.0 (a MEC observation's
previous choices). Each row keeps them as bytes in the uint8 ring ``_bits``, which spans the
row with 0 elsewhere, and its other entries in the float64 ring ``_obs``: 97 bytes for a
``mec-seven`` row, not 41 float64s' 328. A row is rebuilt by casting its bytes to float64 and
writing its float64 entries over their columns. The casts are exact for +0.0 and 1.0, and
``push`` rejects any other one-hot value, so samples return the observations bit for bit.
Without ``one_hot``, ``_obs`` holds whole rows and ``_bits`` has no columns.
"""

from __future__ import annotations

import math
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
    k goes to slot k mod capacity, its state is row k mod (capacity + 1) of the rings and its
    next state the row after it. The push count ``_count`` is the whole bookkeeping: the
    size, the next slot and every slot's state row follow from it. ``action_dim=None``
    stores scalar integer actions (discrete agents); otherwise float vectors of that width.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int | None = None,
                 one_hot: tuple[int, ...] | list[int] = ()):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if state_dim < 1:
            raise ValueError(f"state_dim must be >= 1, got {state_dim}")
        self.capacity = int(capacity)
        self.state_dim = int(state_dim)
        self.action_dim = None if action_dim is None else int(action_dim)
        hot = np.isin(np.arange(state_dim), one_hot)
        # Row-width constants, none of them storage: the one-hot mask, 1.0 there (NaN, which
        # equals nothing, elsewhere) and the float64 columns.
        self._columns = (hot, np.where(hot, 1.0, np.nan), np.flatnonzero(~hot)) if one_hot else None
        self._obs = np.zeros((capacity + 1, state_dim - int(hot.sum())))
        self._bits = np.zeros((capacity + 1, state_dim if one_hot else 0), dtype=np.uint8)
        if self.action_dim is None:
            self._actions = np.zeros(capacity, dtype=np.int64)
        else:
            self._actions = np.zeros((capacity, self.action_dim))
        self._rewards = np.zeros(capacity)
        self._count = 0  # transitions pushed

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    def _split(self, obs: Array) -> tuple[Array, Array]:
        """Observation rows as rows of ``_obs`` and ``_bits``; raises unless they round-trip."""
        if self._columns is None:
            return obs, self._bits[: len(obs)]
        hot, ones, dense = self._columns
        bits = obs == ones
        if np.where(hot, bits, obs).tobytes() != obs.tobytes():
            raise ValueError("one-hot entries must be exactly 0.0 or 1.0")
        return obs.take(dense, axis=1), bits

    def push(self, state: Array, action: Array | int, reward: float, next_state: Array) -> None:
        """Store one step of experience. ``action`` is a float vector or an int index.

        After the first push, ``state`` must equal the previous push's ``next_state``, bit
        for bit. An error writes nothing.
        """
        state = np.asarray(state, dtype=float)
        next_state = np.asarray(next_state, dtype=float)
        if state.shape != (self.state_dim,) or next_state.shape != (self.state_dim,):
            raise ValueError(
                f"states must have shape ({self.state_dim},), "
                f"got {state.shape} and {next_state.shape}"
            )
        reward = float(reward)
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        action = int(action) if self.action_dim is None else np.asarray(action, dtype=float)
        if self.action_dim is not None and action.shape != (self.action_dim,):
            raise ValueError(f"action must have shape ({self.action_dim},), got {action.shape}")
        k, c = self._count, self.capacity
        row = k % (c + 1)
        obs, bits = self._split(np.array((state, next_state)))
        o, b = self._obs, self._bits
        if k == 0:
            o[row], b[row] = obs[0], bits[0]
        elif obs[0].tobytes() + bits[0].tobytes() != o[row].tobytes() + b[row].tobytes():
            raise ValueError("state must equal the previous push's next_state")
        o[(row + 1) % (c + 1)], b[(row + 1) % (c + 1)] = obs[1], bits[1]
        self._actions[k % c] = action
        self._rewards[k % c] = reward
        self._count = k + 1

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        """Uniform sample of ``n`` transitions, with replacement."""
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        size, c = len(self), self.capacity
        if n > size:
            raise ValueError(f"asked for {n} transitions but buffer holds {size}")
        idx = rng.integers(0, size, size=n)
        # Slot i holds the latest transition k = i (mod c), whose state is row k mod (c + 1)
        # and whose next state the row after: take's mode="wrap" takes the mod.
        k = (self._count - 1) - (self._count - 1 - idx) % c
        rows = np.concatenate((k, k + 1))
        # Integer-array take copies, so the batch never aliases the storage.
        obs = self._obs.take(rows, axis=0, mode="wrap")
        if self._columns is not None:  # cast the bytes, then write the float64 entries over
            obs, floats = self._bits.take(rows, axis=0, mode="wrap").astype(float), obs
            obs[:, self._columns[2]] = floats
        return Batch(obs[:n], self._actions[idx], self._rewards[idx], obs[n:])
