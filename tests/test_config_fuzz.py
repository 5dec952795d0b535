"""Seeded config fuzzer: no single mutation of a valid config reaches a traceback or runs silently.

Each case mutates one starting config once: it drops a key, adds an unknown key, wraps a
scalar in a list, or sets a value from a palette of bad values. The case goes through
``ExperimentConfig.from_dict``, then builds the run object (every check that can reject a
config), ``oracle_report``, and steps the run in memory for up to ``STEPS`` steps; every
record must be valid JSON, with no infinite or NaN figure, and pass the per-record check that
reading a metrics file makes (``harness._record_problem``). The case must either pass, raise
``TrainingDiverged``, or raise a ``ConfigError`` whose message names the mutated key, or, for
a rule that reads several fields, one of them. The suite turns every warning into an error,
so an overflow that only warns fails too.
"""

import json
import random
from pathlib import Path

import pytest

from rlalloc import harness
from rlalloc.exceptions import ConfigError, TrainingDiverged
from rlalloc.harness import ENV_PRESETS, ExperimentConfig, oracle_report

REPO = Path(__file__).resolve().parents[1]
CASES_PER_START = 24
PALETTE = ("abc", True, None, [], {}, [[1.0]], float("nan"), float("inf"), -float("inf"),
           1e308, -1, 0, 10**15, 1e-308)
EXTREMES = (1e308, 1e-308)
UNKNOWN = "bogus_key"
STEPS = 100  # past step 64, where the default learners (batch 64) take their first train step

# Fields that rules reading several fields tie together: a message may name any of them.
_GROUPS = (
    {"total_bandwidth", "k_min", "k_max"},  # k_min <= k_max <= B, sum(k_min) <= B, SRA's share
    {"k_min", "k_max", "ideal_scores", "demands", "latency_weights", "services",
     "demand_changes"},  # one entry per slice
    {"cycle_length", "chunk_count"},
    {"size_min", "size_max"},
    {"capacities", "neighbors", "link_rates", "link_rate", "sizes", "low", "high"},  # servers
    {"low", "high"},
    {"capacities", "tau", "cycles_per_bit", "core_rate", "link_rates", "link_rate", "sizes",
     "high"},  # slot capacity and the latency bound
    {"batch_size", "buffer_capacity"},
    {"scenario", "policy", "env", "agent", "eval_slots"},  # what a scenario and policy read
    {"mean_arrivals", "total_steps", "eval_slots"},  # a chat slice's backlog ceiling
)
TINY_AGENTS = {
    "td3": {"critic_lr": 1e-4, "actor_lr": 2e-4, "exploration_sigma": 0.1,
            "smoothing_sigma": 0.1, "smoothing_clip": 0.5, "discount": 0.99, "soft_tau": 0.005,
            "policy_delay": 2, "batch_size": 4, "buffer_capacity": 64, "exploration_steps": 5,
            "actor_hidden": [8, 8], "critic_hidden": [8]},
    "dqn": {"learning_rate": 1e-3, "discount": 0.99, "epsilon": 0.1, "target_sync_period": 10,
            "batch_size": 4, "buffer_capacity": 64, "exploration_steps": 5, "hidden": [8]},
}


def _starts() -> dict[str, dict]:
    starts = {p.stem: json.loads(p.read_text()) for p in sorted((REPO / "configs").glob("*.json"))}
    policies = {"slicing-analytic": "optimal", "slicing-emulated": "sra", "mec-seven": "rra",
                "mec-small": "optimal"}
    for name, preset in ENV_PRESETS.items():
        scenario = name.split("-")[0]
        starts[f"inline-{name}"] = {"scenario": scenario, "policy": policies[name],
                                    "env": preset().to_dict()}
    starts["agent-td3"] = {"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
                           "total_steps": 50, "eval_slots": 5, "agent": TINY_AGENTS["td3"]}
    starts["agent-dqn"] = {"scenario": "mec", "policy": "dqn", "env": "mec-small",
                           "total_steps": 50, "eval_slots": 5, "agent": TINY_AGENTS["dqn"]}
    return starts


STARTS = _starts()


def _paths(node, path=()):
    """Every (path, value) below ``node``; a path is a tuple of dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _cases(payload: dict, rng: random.Random):
    """(kind, path, value) mutations: every number set to each extreme, then random ones.

    Only a list's first entry stands for the list in the sweep of extremes, where overflow
    and underflow live; the random draws cover the other entries, keys and types.
    """
    paths = list(_paths(payload))
    for path, value in paths:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if number and not any(isinstance(k, int) and k for k in path):
            yield from (("set", path, extreme) for extreme in EXTREMES)
    dict_paths = [()] + [p for p, v in paths if isinstance(v, dict)]
    keyed = [p for p, _ in paths if isinstance(p[-1], str)]
    scalars = [p for p, v in paths if not isinstance(v, (dict, list))]
    for _ in range(CASES_PER_START):
        kind = rng.choice(("drop", "add", "wrap", "set", "set"))
        if kind == "add":
            yield kind, rng.choice(dict_paths) + (UNKNOWN,), 1.0
        elif kind == "set":
            yield kind, rng.choice(paths)[0], rng.choice(PALETTE)
        else:
            yield kind, rng.choice(keyed if kind == "drop" else scalars), None


def _apply(payload: dict, kind: str, path: tuple, value) -> tuple[dict, str]:
    """A mutated deep copy of ``payload`` and the key the mutation names."""
    copy = json.loads(json.dumps(payload))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = [parent[path[-1]]] if kind == "wrap" else value
    return copy, next(k for k in reversed(path) if isinstance(k, str))


def _names(key: str) -> set[str]:
    """The names a message about ``key`` may give: the key, or a field a shared rule reads."""
    if key.isdigit():  # a demand_changes step
        return {key, "demand_changes"}
    return {key}.union(*(group for group in _GROUPS if key in group))


def _outcome(payload: dict, oracle: bool, steps: int = STEPS) -> str | None:
    """None if the config passes every check and ``steps`` steps, or diverges; the
    ConfigError's message otherwise.

    An infinite or NaN figure in the oracle's report or in a record is an error: ``run``
    would write it too. So is a record that ``compare`` and ``plot`` would reject.
    """
    try:
        config = ExperimentConfig.from_dict(payload)
        run = harness._SCENARIOS[config.scenario](config)
        if oracle:
            json.dumps(oracle_report(config, slots=3), allow_nan=False)
        for _ in range(min(run.steps, steps)):
            record = json.loads(json.dumps(run.step(), allow_nan=False))
            problem = harness._record_problem(record, config.scenario)
            assert problem is None, f"record {run.t}: {problem}"
    except ConfigError as exc:
        return str(exc)
    except TrainingDiverged:
        pass
    return None


@pytest.mark.parametrize("start", sorted(STARTS))
def test_single_mutations_pass_or_name_their_key(start):
    payload = STARTS[start]
    # The slicing oracle rejects emulated demands whatever the mutation; skip it there.
    oracle = _outcome(payload, oracle=True, steps=0) is None
    assert _outcome(payload, oracle=False) is None, start
    failures = []
    for kind, path, value in _cases(payload, random.Random(f"{start}-fuzz")):
        mutated, key = _apply(payload, kind, path, value)
        what = f"{kind} {path}" + (f" -> {value!r}" if kind == "set" else "")
        try:
            message = _outcome(mutated, oracle)
        except Exception as exc:  # noqa: BLE001 - every escape is a finding to report
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        if message is not None and not any(name in message for name in _names(key)):
            failures.append(f"{what}: message names no mutated key: {message}")
    assert not failures, "\n".join(failures)
