"""Value learner over a fixed catalog of joint discrete actions.

Latencies are costs, so action selection is an arg-min and the bootstrap
target uses the minimum over next-slot action values:

    y = r + gamma * min_a Q'(s', a)

(rewards are *not* negated anywhere). The target network is refreshed by a
periodic hard copy, driven by the training loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rlalloc.exceptions import (
    FINITE, HIDDEN, UNIT, TrainingDiverged, check_learner, check_mode, count, spec,
)
from rlalloc.numerics import (
    adam_init,
    adam_step,
    mlp_forward,
    mlp_gradients,
    mlp_init,
    mlp_predict,
    soft_update,
)
from rlalloc.replay import Batch

Array = np.ndarray


@dataclass
class DqnHyperparams:
    """Training constants; defaults are the offloading-benchmark settings."""

    learning_rate: float = spec(FINITE, 1e-3)
    discount: float = spec(UNIT, 0.99)
    epsilon: float = spec(UNIT, 0.1)
    target_sync_period: int = spec(count(1), 100)
    batch_size: int = spec(count(1), 64)
    buffer_capacity: int = spec(count(1), 10_000)
    exploration_steps: int = spec(count(0), 500)  # the run caps it at its length
    hidden: tuple[int, ...] = spec(HIDDEN, (256, 256))

    validate = __post_init__ = check_learner


class DqnAgent:
    """Cost-minimizing Q-learner: Q(s, a) estimates discounted future latency."""

    def __init__(
        self,
        state_dim: int,
        num_actions: int,
        hyperparams: DqnHyperparams | None = None,
        *,
        rng: np.random.Generator | int,
    ):
        hp = hyperparams if hyperparams is not None else DqnHyperparams()
        hp.validate()
        if num_actions < 1:
            raise ValueError(f"num_actions must be >= 1, got {num_actions}")
        self.hp = hp
        self.state_dim = int(state_dim)
        self.num_actions = int(num_actions)
        init_rng = np.random.default_rng(rng)
        sizes = (self.state_dim, *hp.hidden, self.num_actions)
        self.online = mlp_init(sizes, "linear", rng=init_rng)
        self.target = self.online.copy()
        self.opt = adam_init(self.online, hp.learning_rate)

    def q_values(self, state: Array) -> Array:
        with np.errstate(over="ignore", invalid="ignore"):  # select_action checks the values
            return mlp_predict(self.online, np.asarray(state, dtype=float))

    def select_action(
        self, state: Array, mode: str, rng: np.random.Generator | None = None
    ) -> int:
        """Pick an action index: uniform (explore), epsilon-greedy (train), greedy (eval)."""
        check_mode(mode, rng)
        if mode == "explore":
            return int(rng.integers(0, self.num_actions))
        if mode == "train" and rng.uniform() < self.hp.epsilon:
            return int(rng.integers(0, self.num_actions))
        q = self.q_values(state)
        if not np.isfinite(q).all():
            raise TrainingDiverged("action values are not finite")
        return int(np.argmin(q))

    def train_step(self, batch: Batch) -> float:
        """One gradient step on the squared Bellman error; returns the loss."""
        n = len(batch)
        taken = batch.actions.astype(int)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
            q_next = mlp_predict(self.target, batch.next_states)
            q_all = mlp_forward(self.online, batch.states)
            y = batch.rewards + self.hp.discount * q_next.min(axis=1)
            err = q_all[np.arange(n), taken] - y
            loss = float(np.mean(err**2))
        if not np.isfinite(loss):
            raise TrainingDiverged(f"value loss is not finite: {loss}")
        grad_out = np.zeros_like(q_all)
        grad_out[np.arange(n), taken] = 2.0 * err / n
        adam_step(self.online, mlp_gradients(self.online, grad_out), self.opt)
        return loss

    def sync_target(self) -> None:
        """Hard-copy online weights into the target network."""
        soft_update(self.target, self.online, 1.0)
