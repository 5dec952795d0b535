"""The rules both learners share, and the JSON form every env config shares."""

import numpy as np
import pytest

from rlalloc.dqn import DqnAgent, DqnHyperparams
from rlalloc.harness import ENV_PRESETS
from rlalloc.td3 import Td3Agent, Td3Hyperparams

# Learner -> its hyperparameters, its own cadence field, its hidden-size fields, and a tiny agent.
LEARNERS = {
    "td3": (Td3Hyperparams, "policy_delay", ("actor_hidden", "critic_hidden"),
            lambda hp: Td3Agent(3, 2, hp, rng=0)),
    "dqn": (DqnHyperparams, "target_sync_period", ("hidden",),
            lambda hp: DqnAgent(3, 4, hp, rng=0)),
}


def tiny(cls, hidden_fields, overrides=None):
    fields = dict({name: [4] for name in hidden_fields}, batch_size=2, buffer_capacity=8,
                  exploration_steps=1)
    return cls(**dict(fields, **(overrides or {})))


@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_shared_hyperparameter_rules_and_mode_guard(learner):
    cls, count, hidden, agent_of = LEARNERS[learner]
    cases = [
        ({count: 0}, f"{count} must be an integer >= 1, got 0"),
        ({count: 0, "batch_size": 0}, f"{count} must be an integer >= 1, got 0"),
        ({"discount": 2, count: 0}, "discount must lie in [0, 1], got 2"),
        ({"batch_size": 0}, "batch_size must be an integer >= 1, got 0"),
        ({"buffer_capacity": 1.5}, "buffer_capacity must be an integer >= 1, got 1.5"),
        ({"exploration_steps": -1}, "exploration_steps must be an integer >= 0, got -1"),
        ({"batch_size": 16}, "need buffer_capacity >= batch_size"),
        ({"batch_size": 16, "exploration_steps": 9}, "need buffer_capacity >= batch_size"),
        ({hidden[-1]: [0]}, "hidden layer sizes must be positive integers"),
        ({hidden[0]: [4, 2.0]}, "hidden layer sizes must be positive integers"),
    ]
    for overrides, message in cases:
        with pytest.raises(ValueError) as exc:
            tiny(cls, hidden, overrides).validate()
        assert str(exc.value) == message, overrides
    tiny(cls, hidden, {"exploration_steps": 10**9}).validate()  # the run caps it at its length
    with pytest.raises(TypeError, match="total_steps"):  # the run length is the run's alone
        tiny(cls, hidden, {"total_steps": 4})
    for name in hidden:  # the constructor turns a list into a tuple and rejects anything else
        assert getattr(tiny(cls, hidden, {name: [5, 6]}), name) == (5, 6)
        with pytest.raises(ValueError, match=rf"^{name} must be a list of layer sizes, got 'abc'$"):
            tiny(cls, hidden, {name: "abc"})

    agent = agent_of(tiny(cls, hidden))
    state = np.zeros(3)
    for mode, message in [
        ("greedy", "mode must be one of ('explore', 'train', 'eval'), got 'greedy'"),
        (None, "mode must be one of ('explore', 'train', 'eval'), got None"),
        ("explore", "explore mode needs an rng"),
        ("train", "train mode needs an rng"),
    ]:
        with pytest.raises(ValueError) as exc:
            agent.select_action(state, mode)
        assert str(exc.value) == message
    agent.select_action(state, "eval")  # greedy needs no rng


PRESET_DICTS = {
    "slicing-analytic": {
        "total_bandwidth": 1.5,
        "k_min": [0.075, 0.075, 0.075],
        "k_max": [1.5, 1.5, 1.5],
        "ideal_scores": [0.5, 0.5, 1.0],
        "demands": [1.0, 1.0, 0.1],
        "demand_changes": {"4000": [0.5, 1.5, 0.1]},
        "mode": "analytic",
        "step_duration": 1.0,
    },
    "slicing-emulated": {
        "total_bandwidth": 1.5,
        "k_min": [0.075, 0.075, 0.075],
        "k_max": [1.5, 1.5, 1.5],
        "ideal_scores": [2.0, 2.0, 2.0],
        "mode": "emulated",
        "services": [
            {"kind": "video", "file_size": 4.0, "cycle_length": 10, "chunk_count": 4},
            {"kind": "voice", "packet_size": 0.3},
            {"kind": "chat", "mean_arrivals": 2.0, "size_min": 0.05, "size_max": 0.15},
        ],
        "latency_weights": [2.0, 1.0, 1.0],
        "step_duration": 1.0,
    },
    "mec-seven": {
        "topology": {
            "capacities": [1000.0, 1000.0, 3000.0, 1000.0, 3000.0, 1000.0, 3000.0],
            "neighbors": [[2, 3, 6], [4, 5], [0, 3, 4, 6], [0, 2, 6], [1, 2, 5], [1, 4], [0, 2, 3]],
            "link_rates": [
                [0.0, 0.0, 150.0, 150.0, 0.0, 0.0, 150.0],
                [0.0, 0.0, 0.0, 0.0, 150.0, 150.0, 0.0],
                [150.0, 0.0, 0.0, 150.0, 150.0, 0.0, 150.0],
                [150.0, 0.0, 150.0, 0.0, 0.0, 0.0, 150.0],
                [0.0, 150.0, 150.0, 0.0, 0.0, 150.0, 0.0],
                [0.0, 150.0, 0.0, 0.0, 150.0, 0.0, 0.0],
                [150.0, 0.0, 150.0, 150.0, 0.0, 0.0, 0.0],
            ],
            "core_rate": 150.0,
            "tau": 0.1,
            "cycles_per_bit": 10.0,
        },
        "arrivals": {
            "kind": "uniform",
            "low": [8.0, 2.0, 8.0, 8.0, 2.0, 2.0, 8.0],
            "high": [30.0, 10.0, 30.0, 30.0, 10.0, 10.0, 30.0],
        },
    },
    "mec-small": {
        "topology": {
            "capacities": [1000.0, 1000.0, 2000.0, 3000.0],
            "neighbors": [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
            "link_rates": [
                [0.0, 500.0, 500.0, 500.0],
                [500.0, 0.0, 500.0, 500.0],
                [500.0, 500.0, 0.0, 500.0],
                [500.0, 500.0, 500.0, 0.0],
            ],
            "core_rate": 100.0,
            "tau": 0.1,
            "cycles_per_bit": 10.0,
        },
        "arrivals": {"kind": "fixed", "sizes": [24.0, 18.0, 8.0, 6.0]},
    },
}


@pytest.mark.parametrize("preset", sorted(PRESET_DICTS))
def test_preset_to_dict_is_pinned(preset):
    assert ENV_PRESETS[preset]().to_dict() == PRESET_DICTS[preset]
