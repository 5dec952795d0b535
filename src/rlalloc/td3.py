"""Twin-critic delayed policy-gradient agent for continuous allocation actions.

The agent keeps two critics trained against the same clipped-double target

    y = r + gamma * min(Q1'(s', a~), Q2'(s', a~)),
    a~ = clip(actor'(s') + clip(noise, +-smoothing_clip), -1, 1),

and an actor updated every ``policy_delay``-th training call by ascending the
first critic's value at the actor's own action (gradient flows through the
critic's action input). Target networks trail the online ones by Polyak
blending with rate ``soft_tau`` on the same delayed cadence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rlalloc.exceptions import (
    FINITE, HIDDEN, NON_NEGATIVE, UNIT, TrainingDiverged, check_learner, check_mode,
    count, real, spec,
)
from rlalloc.numerics import (
    adam_init,
    adam_step,
    mlp_forward,
    mlp_gradients,
    mlp_init,
    mlp_input_gradient,
    mlp_predict,
    soft_update,
)
from rlalloc.replay import Batch

Array = np.ndarray


@dataclass
class Td3Hyperparams:
    """Training constants; defaults are the slicing-benchmark settings."""

    critic_lr: float = spec(FINITE, 1e-4)
    actor_lr: float = spec(FINITE, 2e-4)
    exploration_sigma: float = spec(NON_NEGATIVE, 0.1)
    smoothing_sigma: float = spec(NON_NEGATIVE, 0.1)
    smoothing_clip: float = spec(FINITE, 0.5)
    discount: float = spec(UNIT, 0.99)
    soft_tau: float = spec(real(lambda v: 0 < v <= 1, "lie in (0, 1]"), 0.005)
    policy_delay: int = spec(count(1), 2)
    batch_size: int = spec(count(1), 64)
    buffer_capacity: int = spec(count(1), 100_000)
    exploration_steps: int = spec(count(0), 40)  # the run caps it at its length
    actor_hidden: tuple[int, ...] = spec(HIDDEN, (256, 256, 256))
    critic_hidden: tuple[int, ...] = spec(HIDDEN, (256, 256))

    validate = __post_init__ = check_learner


class Td3Agent:
    """Actor-critic learner over states in R^S and actions in [-1, 1]^A."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hyperparams: Td3Hyperparams | None = None,
        *,
        rng: np.random.Generator | int,
    ):
        hp = hyperparams if hyperparams is not None else Td3Hyperparams()
        hp.validate()
        self.hp = hp
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        gen = np.random.default_rng(rng)
        init_rng, self._noise_rng = gen.spawn(2)
        actor_sizes = (self.state_dim, *hp.actor_hidden, self.action_dim)
        critic_sizes = (self.state_dim + self.action_dim, *hp.critic_hidden, 1)
        self.actor = mlp_init(actor_sizes, "tanh", rng=init_rng)
        self.critic1 = mlp_init(critic_sizes, "linear", rng=init_rng)
        self.critic2 = mlp_init(critic_sizes, "linear", rng=init_rng)
        self.actor_target = self.actor.copy()
        self.critic1_target = self.critic1.copy()
        self.critic2_target = self.critic2.copy()
        self.actor_opt = adam_init(self.actor, hp.actor_lr)
        self.critic1_opt = adam_init(self.critic1, hp.critic_lr)
        self.critic2_opt = adam_init(self.critic2, hp.critic_lr)

    def select_action(
        self, state: Array, mode: str, rng: np.random.Generator | None = None
    ) -> Array:
        """Pick an action: uniform (explore), noisy policy (train), or policy (eval)."""
        check_mode(mode, rng)
        if mode == "explore":
            return rng.uniform(-1.0, 1.0, size=self.action_dim)
        with np.errstate(over="ignore", invalid="ignore"):  # acting raises below instead
            action = mlp_predict(self.actor, np.asarray(state, dtype=float))
        if not np.isfinite(action).all():
            raise TrainingDiverged(f"action is not finite: {action.tolist()}")
        if mode == "train":
            action = action + rng.normal(0.0, self.hp.exploration_sigma, size=self.action_dim)
        return np.clip(action, -1.0, 1.0)

    def train_step(self, batch: Batch) -> tuple[float, float | None]:
        """One gradient step on both critics, every d-th call also on the actor.

        Returns (mean critic loss, actor loss or None when skipped). Raises
        :class:`TrainingDiverged` on a non-finite loss.
        """
        hp, n = self.hp, len(batch)
        states, rewards, next_states = batch.states, batch.rewards[:, None], batch.next_states

        noise = np.clip(
            self._noise_rng.normal(0.0, hp.smoothing_sigma, size=(n, self.action_dim)),
            -hp.smoothing_clip,
            hp.smoothing_clip,
        )
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite losses raise below
            next_actions = np.clip(mlp_predict(self.actor_target, next_states) + noise, -1.0, 1.0)
            target_in = np.hstack([next_states, next_actions])
            q1_t = mlp_predict(self.critic1_target, target_in)
            q2_t = mlp_predict(self.critic2_target, target_in)
            y = rewards + hp.discount * np.minimum(q1_t, q2_t)

        critic_in = np.hstack([states, batch.actions])
        losses = []
        for critic, opt in ((self.critic1, self.critic1_opt), (self.critic2, self.critic2_opt)):
            with np.errstate(over="ignore", invalid="ignore"):
                q = mlp_forward(critic, critic_in)
                err = q - y
                loss = float(np.mean(err**2))
            if not np.isfinite(loss):
                raise TrainingDiverged(f"critic loss is not finite: {loss}")
            adam_step(critic, mlp_gradients(critic, (2.0 / n) * err), opt)
            losses.append(loss)
        critic_loss = 0.5 * (losses[0] + losses[1])

        actor_loss: float | None = None
        if self.critic1_opt.step_count % hp.policy_delay == 0:  # critic 1 steps once a call
            with np.errstate(over="ignore", invalid="ignore"):
                pi = mlp_forward(self.actor, states)
                q = mlp_forward(self.critic1, np.hstack([states, pi]))
                actor_loss = float(-np.mean(q))
            if not np.isfinite(actor_loss):
                raise TrainingDiverged(f"actor loss is not finite: {actor_loss}")
            q_grad = mlp_input_gradient(self.critic1, np.full((n, 1), -1.0 / n))
            action_grad = q_grad[:, self.state_dim :]
            adam_step(self.actor, mlp_gradients(self.actor, action_grad), self.actor_opt)
            soft_update(self.actor_target, self.actor, hp.soft_tau)
            soft_update(self.critic1_target, self.critic1, hp.soft_tau)
            soft_update(self.critic2_target, self.critic2, hp.soft_tau)
        return critic_loss, actor_loss
