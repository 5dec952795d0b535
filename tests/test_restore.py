"""The stored fields of each stateful part are its whole state.

Each test runs a part for a while, builds a fresh one, copies in only the fields
that make up its state, and checks that both then produce the same bytes. Each
omission case leaves one of those fields out of the copy and checks that the
futures part, so that no listed field is dead weight either.
"""

import copy

import numpy as np
import pytest

from rlalloc.dqn import DqnAgent, DqnHyperparams
from rlalloc.mec import MecEnv, default_mec_config, random_routing
from rlalloc.replay import Batch, ReplayBuffer
from rlalloc.slicing import SlicingEnv, default_analytic_config, default_emulated_config
from rlalloc.td3 import Td3Agent, Td3Hyperparams


def assert_futures(original, restored, run, omit):
    """``run`` gives equal results on both objects; with a field omitted, it does not."""
    if omit is None:
        assert run(restored) == run(original)
    else:
        with pytest.raises((AssertionError, ValueError)):
            assert run(restored) == run(original)


def copy_rng(source, target):
    target.bit_generator.state = source.bit_generator.state


@pytest.mark.parametrize("one_hot, omit", [((), None), ((), "_count"), ((0, 2), None),
                                           ((0, 2), "_bits")],
                         ids=["None", "_count", "one-hot-None", "one-hot-_bits"])
def test_replay_state_is_its_arrays_and_push_count(one_hot, omit):
    def observation(rng):  # 0.0 or 1.0 in the one-hot entries
        obs = rng.normal(size=3)
        obs[list(one_hot)] = rng.integers(0, 2, size=len(one_hot))
        return obs

    rng = np.random.default_rng(0)
    buf, obs = ReplayBuffer(7, 3, 2, one_hot=one_hot), observation(rng)
    for _ in range(10):  # past one wrap
        next_obs = observation(rng)
        buf.push(obs, rng.normal(size=2), float(rng.normal()), next_obs)
        obs = next_obs
    fresh = ReplayBuffer(7, 3, 2, one_hot=one_hot)
    for name in ("_obs", "_bits", "_actions", "_rewards"):
        if name != omit:
            getattr(fresh, name)[...] = getattr(buf, name)
    if omit != "_count":
        fresh._count = buf._count

    def run(b):
        draw, state, out = np.random.default_rng(1), obs.copy(), []
        for _ in range(50):
            next_state = observation(draw)
            b.push(state, draw.normal(size=2), float(draw.normal()), next_state)
            batch = b.sample(5, draw)
            out.append(b"".join(a.tobytes() for a in vars(batch).values()))
            state = next_state
        return out

    assert_futures(buf, fresh, run, omit)


def shifted_analytic_config():
    config = default_analytic_config()
    config.demand_changes = {30: np.array([0.5, 1.5, 0.1])}  # inside the restored steps
    config.validate()
    return config


@pytest.mark.parametrize("mode, omit", [
    ("emulated", None), ("emulated", "_step_count"), ("emulated", "_traffic"),
    ("emulated", "_rng"), ("analytic", None), ("analytic", "_step_count"),
])
def test_slicing_env_state_is_its_step_count_traffic_and_rng(mode, omit):
    config = default_emulated_config() if mode == "emulated" else shifted_analytic_config()
    env, actions = SlicingEnv(config, rng=2), np.random.default_rng(3)
    env.reset()
    for _ in range(23):  # mid video cycle (10 steps): a fresh cycle would part from it
        env.step(actions.uniform(-1.0, 1.0, size=3))
    fresh = SlicingEnv(config, rng=4)
    fresh.reset()
    if omit != "_step_count":
        fresh._step_count = env._step_count
    if mode == "emulated" and omit != "_traffic":  # a slice's traffic state is its queue
        for mine, theirs in zip(fresh._traffic, env._traffic):
            mine.queue = copy.deepcopy(theirs.queue)
    if omit != "_rng":
        copy_rng(env._rng, fresh._rng)

    def run(e):
        draw, out = np.random.default_rng(5), []
        for _ in range(50):
            obs, reward, _ = e.step(draw.uniform(-1.0, 1.0, size=3))
            out.append((obs.tobytes(), reward))
        return out

    assert_futures(env, fresh, run, omit)


@pytest.mark.parametrize("omit", [None, "_arrivals", "_rng"])
def test_mec_env_state_is_its_arrivals_and_rng(omit):
    config = default_mec_config()
    env, choices = MecEnv(config, rng=6), np.random.default_rng(7)
    env.reset()
    for _ in range(20):
        env.step(random_routing(config.topology, env.current_arrivals, choices))
    fresh = MecEnv(config, rng=8)
    fresh.reset()
    if omit != "_arrivals":
        fresh._arrivals = env._arrivals.copy()
    if omit != "_rng":
        copy_rng(env._rng, fresh._rng)

    def run(e):
        draw, out = np.random.default_rng(9), []
        for _ in range(50):
            obs, latencies, l_max, _ = e.step(
                random_routing(config.topology, e.current_arrivals, draw))
            out.append((obs.tobytes(), latencies.tobytes(), l_max))
        return out

    assert_futures(env, fresh, run, omit)


NETWORKS = ("actor", "critic1", "critic2", "actor_target", "critic1_target", "critic2_target")
OPTIMIZERS = ("actor_opt", "critic1_opt", "critic2_opt")


def tiny_batch(rng):
    return Batch(states=rng.normal(size=(4, 3)), actions=rng.uniform(-1, 1, size=(4, 2)),
                 rewards=rng.normal(size=4), next_states=rng.normal(size=(4, 3)))


@pytest.mark.parametrize("omit", [None, "step_count", "_noise_rng"])
def test_td3_state_is_its_networks_adam_states_and_noise_rng(omit):
    hp = Td3Hyperparams(actor_hidden=(8,), critic_hidden=(8,), batch_size=4, buffer_capacity=16)
    agent, batches = Td3Agent(3, 2, hp, rng=10), np.random.default_rng(11)
    for _ in range(3):  # odd, so the restored agent resumes mid-delay
        agent.train_step(tiny_batch(batches))
    fresh = Td3Agent(3, 2, hp, rng=12)
    for name in NETWORKS:
        getattr(fresh, name).flat[:] = getattr(agent, name).flat
    for name in OPTIMIZERS:
        source, target = getattr(agent, name), getattr(fresh, name)
        target.m[:], target.v[:] = source.m, source.v
        if omit != "step_count":
            target.step_count = source.step_count
    if omit != "_noise_rng":
        copy_rng(agent._noise_rng, fresh._noise_rng)

    def run(a):
        draw = np.random.default_rng(13)
        out = [a.train_step(tiny_batch(draw)) for _ in range(2 * hp.policy_delay)]
        return out + [getattr(a, name).flat.tobytes() for name in NETWORKS]

    assert_futures(agent, fresh, run, omit)


@pytest.mark.parametrize("omit", [None, "target", "step_count"])
def test_dqn_state_is_its_networks_and_adam_state(omit):
    hp = DqnHyperparams(hidden=(8,), batch_size=4, buffer_capacity=16)
    agent, batches = DqnAgent(3, 5, hp, rng=14), np.random.default_rng(15)

    def dqn_batch(rng):
        return Batch(states=rng.normal(size=(4, 3)), actions=rng.integers(0, 5, size=4),
                     rewards=rng.normal(size=4), next_states=rng.normal(size=(4, 3)))

    for _ in range(3):
        agent.train_step(dqn_batch(batches))
    agent.sync_target()
    agent.train_step(dqn_batch(batches))  # the online network moves away from the target
    fresh = DqnAgent(3, 5, hp, rng=16)
    fresh.online.flat[:] = agent.online.flat
    if omit != "target":
        fresh.target.flat[:] = agent.target.flat
    fresh.opt.m[:], fresh.opt.v[:] = agent.opt.m, agent.opt.v
    if omit != "step_count":
        fresh.opt.step_count = agent.opt.step_count

    def run(a):
        draw, out = np.random.default_rng(17), []
        for k in range(50):
            out.append(a.train_step(dqn_batch(draw)))
            if k % 10 == 9:  # the harness syncs every target_sync_period slots
                a.sync_target()
        return out + [a.online.flat.tobytes(), a.target.flat.tobytes()]

    assert_futures(agent, fresh, run, omit)
