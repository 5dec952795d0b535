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

from rlalloc.exceptions import TrainingDiverged, check_learner, check_mode, hidden_tuples, is_real
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

    learning_rate: float = 1e-3
    discount: float = 0.99
    epsilon: float = 0.1
    target_sync_period: int = 100
    batch_size: int = 64
    buffer_capacity: int = 10_000
    exploration_steps: int = 500
    hidden: tuple[int, ...] = (256, 256)

    def __post_init__(self) -> None:
        hidden_tuples(self, "hidden")

    def validate(self) -> None:
        # Written as "not (good)" so that NaN, which fails every comparison, fails too.
        lr = self.learning_rate
        if not (is_real(lr) and 0 < lr < np.inf):
            raise ValueError(f"learning_rate must be positive and finite, got {lr!r}")
        for name in ("discount", "epsilon"):
            value = getattr(self, name)
            if not (is_real(value) and 0 <= value <= 1):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        check_learner(self, "target_sync_period", "hidden")


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
        return int(np.argmin(self.q_values(state)))

    def train_step(self, batch: Batch) -> float:
        """One gradient step on the squared Bellman error; returns the loss."""
        n = len(batch)
        q_next = mlp_predict(self.target, batch.next_states)
        y = batch.rewards + self.hp.discount * q_next.min(axis=1)
        q_all = mlp_forward(self.online, batch.states)
        taken = batch.actions.astype(int)
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
