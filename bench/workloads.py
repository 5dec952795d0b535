"""The benchmark's workloads, built from a seed with the standard library only.

A workload is a list of parts; each part is one ``ExperimentConfig`` payload
that ``run_experiment`` executes. The parent process builds the same inputs
as the child, for its checks, without importing the program. Every env is
inline, so the inputs stay fixed whatever the program's presets become:
``SLICING_ANALYTIC`` and ``MEC_SEVEN`` mirror the ``slicing-analytic`` and
``mec-seven`` presets, ``SLICING_EMULATED`` the ``slicing-emulated`` one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("td3-slicing", "dqn-mec", "baselines")

SLICING_ANALYTIC = {
    "total_bandwidth": 1.5,
    "k_min": [0.075, 0.075, 0.075],
    "k_max": [1.5, 1.5, 1.5],
    "ideal_scores": [0.5, 0.5, 1.0],
    "mode": "analytic",
}
TD3_REGIMES = ([1.0, 1.0, 0.1], [0.5, 1.5, 0.1])

SLICING_EMULATED = {
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
}

MEC_SEVEN = {
    "topology": {
        "capacities": [1000.0, 1000.0, 3000.0, 1000.0, 3000.0, 1000.0, 3000.0],
        "neighbors": [[2, 3, 6], [4, 5], [0, 3, 4, 6], [0, 2, 6], [1, 2, 5], [1, 4], [0, 2, 3]],
        "link_rate": 150.0,
        "core_rate": 150.0,
        "tau": 0.1,
        "cycles_per_bit": 10.0,
    },
    "arrivals": {
        "kind": "uniform",
        "low": [8.0, 2.0, 8.0, 8.0, 2.0, 2.0, 8.0],
        "high": [30.0, 10.0, 30.0, 30.0, 10.0, 10.0, 30.0],
    },
}

TD3_STEPS = 1000  # the demand shift falls after step TD3_STEPS // 2
TD3_AGENT = {"critic_lr": 1e-3, "actor_lr": 1e-3}  # Adam rates of Fujimoto et al.
DQN_STEPS, DQN_EVAL = 4000, 1000
DQN_AGENT = {"hidden": [128, 128]}
WATERFILL_STEPS, SHIFT_GAP, DEMAND_RANGE = 4000, (40, 160), (0.05, 1.2)
SRA_STEPS = 6000
MEC_OPTIMAL_STEPS = 2000

# Span names (see trace.py) that record calls on each workload; every other
# traced boundary must record none.
LAYERS_RUN = {
    "td3-slicing": {
        "numerics.mlp_forward", "numerics.mlp_gradients", "numerics.adam_step",
        "numerics.soft_update", "replay.push", "replay.sample", "td3.select_action",
        "td3.train_step", "slicing.demands_at", "slicing.env_step", "harness.run_experiment",
    },
    "dqn-mec": {
        "numerics.mlp_forward", "numerics.mlp_gradients", "numerics.adam_step",
        "numerics.soft_update", "replay.push", "replay.sample", "dqn.select_action",
        "dqn.train_step", "dqn.sync_target", "mec.evaluate_action",
        "mec.brute_force_optimal", "mec.random_routing", "mec.env_step",
        "harness.run_experiment",
    },
    "baselines": {
        "slicing.demands_at", "slicing.water_fill_optimal", "slicing.env_step",
        "traffic.advance", "mec.evaluate_action", "mec.brute_force_optimal", "mec.env_step",
        "harness.run_experiment",
    },
}


@dataclass(frozen=True)
class Part:
    name: str  # stem of the part's metrics file
    config: dict  # ExperimentConfig payload
    steps: int  # environment steps the run makes, train and eval


def demand_schedule(seed: int) -> tuple[list[float], dict[int, list[float]]]:
    """Initial demands and shifts for the water-fill part: a new draw every 40-160 steps."""
    rng = random.Random(seed)

    def draw() -> list[float]:
        return [round(rng.uniform(*DEMAND_RANGE), 3) for _ in range(3)]

    initial, changes = draw(), {}
    step = rng.randint(*SHIFT_GAP)
    while step < WATERFILL_STEPS:
        changes[step] = draw()
        step += rng.randint(*SHIFT_GAP)
    return initial, changes


def build(workload: str, seed: int) -> list[Part]:
    if workload == "td3-slicing":
        env = dict(
            SLICING_ANALYTIC,
            demands=TD3_REGIMES[0],
            demand_changes={str(TD3_STEPS // 2): TD3_REGIMES[1]},
        )
        return [Part("td3", _payload("slicing", "td3", seed, env, TD3_STEPS, TD3_AGENT), TD3_STEPS)]
    if workload == "dqn-mec":
        payload = _payload("mec", "dqn", seed, MEC_SEVEN, DQN_STEPS, DQN_AGENT)
        payload["eval_slots"] = DQN_EVAL
        return [Part("dqn", payload, DQN_STEPS + DQN_EVAL)]
    if workload == "baselines":
        initial, changes = demand_schedule(seed)
        env = dict(
            SLICING_ANALYTIC,
            demands=initial,
            demand_changes={str(step): vec for step, vec in changes.items()},
        )
        return [
            Part("waterfill", _payload("slicing", "optimal", seed, env, WATERFILL_STEPS), WATERFILL_STEPS),
            Part("sra", _payload("slicing", "sra", seed, SLICING_EMULATED, SRA_STEPS), SRA_STEPS),
            Part("mec-optimal", _payload("mec", "optimal", seed, MEC_SEVEN, MEC_OPTIMAL_STEPS), MEC_OPTIMAL_STEPS),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _payload(scenario: str, policy: str, seed: int, env: dict, steps: int, agent: dict | None = None) -> dict:
    return {
        "scenario": scenario,
        "policy": policy,
        "seed": seed,
        "env": env,
        "agent": dict(agent or {}),
        "total_steps": steps,
    }
