"""Experiment orchestration: seeded runs, metrics files, and comparisons.

A run is described by a JSON document; any other key is rejected::

    {
      "scenario": "slicing" | "mec",
      "policy":   "td3" | "sra" | "optimal"   (slicing)
                  "dqn" | "rra" | "optimal"   (mec),
      "seed":     0,
      "env":      { ... scenario config ... } | "<preset name>",
      "agent":    { ... hyperparameter overrides ... },   # optional, td3/dqn only
      "total_steps": 8000,                                 # optional: the only run length
      "eval_slots": 0                                      # optional, td3/dqn only
    }

Env presets: ``slicing-analytic``, ``slicing-emulated``, ``mec-seven``,
``mec-small``.

Without ``total_steps`` a run takes ``RUN_STEPS[scenario]`` steps, and a learner's
``exploration_steps`` is capped at the run length.

Metrics are one JSON object per line, built from plain JSON values. The first
``total_steps`` records have ``phase: "train"``; a learner's greedy
``eval_slots`` follow with ``phase: "eval"``, no training and null losses.

- Slicing: ``step, phase, k, c, U, mode, policy, B, action, U_greedy,
  critic_loss, actor_loss``. ``action`` is TD3's raw action (null for SRA and
  water-filling). ``U_greedy`` is what TD3's greedy action scores on the
  step's demands; it is null on emulated TD3 train steps and ``U`` otherwise.
- Offloading: ``slot, phase, action, L, L_max, policy, effective, arrivals,
  loss``; DQN adds ``action_index, epsilon``, and eval slots add ``L_rra,
  L_opt``: random routing and the brute-force optimum on the same arrivals.

A run is one object (``_Slicing`` or ``_Mec``) holding its whole state; building it runs
every check that can reject the config, and each ``step()`` returns one record. Only
``run_experiment`` creates, removes, opens or renames the metrics file.

The master seed is split into independent streams (environment, agent init,
action noise, replay sampling, baseline) via ``SeedSequence.spawn``, so a
longer run reproduces a shorter run's records as a byte-identical prefix.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from rlalloc import mec as mec_mod
from rlalloc import slicing as slicing_mod
from rlalloc.dqn import DqnAgent, DqnHyperparams
from rlalloc.exceptions import (
    OBJECT, ConfigError, check_fields, config_from_dict, count, is_real, one_of, spec,
)
from rlalloc.mec import MecConfig, MecEnv
from rlalloc.numerics import _flat_size
from rlalloc.replay import ReplayBuffer
from rlalloc.slicing import SliceConfig, SlicingEnv
from rlalloc.td3 import Td3Agent, Td3Hyperparams

SLICING_POLICIES = ("td3", "sra", "optimal")
MEC_POLICIES = ("dqn", "rra", "optimal")
RUN_STEPS = {"slicing": 8000, "mec": 5000}  # a run's length when the config sets no total_steps
SIZE_CEILING = 10**8  # floats in one network's parameters, or in one replay buffer
# traffic.ARRIVALS_CEILING bounds a chat slice's mean arrivals at 10**6 packets a step: one step's
# Poisson draw (standard deviation 10**3) stays about 100x below SIZE_CEILING floats.
BACKLOG_CEILING = 10**7  # chat packets one emulated run may queue, about 115 B each (1.15 GB)

ENV_PRESETS: dict[str, Callable[[], SliceConfig | MecConfig]] = {
    "slicing-analytic": slicing_mod.default_analytic_config,
    "slicing-emulated": slicing_mod.default_emulated_config,
    "mec-seven": mec_mod.default_mec_config,
    "mec-small": mec_mod.small_contention_config,
}


@dataclass
class ExperimentConfig:
    scenario: str = spec(one_of(("slicing", "mec")))
    policy: str = spec(one_of(("td3", "sra", "optimal", "dqn", "rra")))  # see validate
    env: SliceConfig | MecConfig = spec()  # or, until validate, a preset name or a dict
    seed: int = spec(count(0), 0)
    agent_overrides: dict = spec(OBJECT, factory=dict, reads=("td3", "dqn"), key="agent")
    total_steps: int | None = spec(count(1), None)
    eval_slots: int = spec(count(0), 0, reads=("td3", "dqn"))

    def validate(self) -> None:
        """Check each field's rule and the scenario's policies, then build and check the env."""
        check_fields(self, "policy")
        policies = SLICING_POLICIES if self.scenario == "slicing" else MEC_POLICIES
        if self.policy not in policies:
            raise ConfigError(
                f"{self.scenario} policy must be one of {policies}, got {self.policy!r}"
            )
        env_class = SliceConfig if self.scenario == "slicing" else MecConfig
        if isinstance(self.env, str) and self.env in ENV_PRESETS:
            self.env = ENV_PRESETS[self.env]()
        if not isinstance(self.env, (dict, SliceConfig, MecConfig)):
            raise ConfigError(f"env must be a preset name in {sorted(ENV_PRESETS)} or a config "
                              f"object, got {self.env!r}")
        try:
            self.env = env_class.from_dict(self.env) if isinstance(self.env, dict) else self.env
            self.env.validate()
        except ValueError as exc:
            raise ConfigError(f"invalid env config: {exc}") from exc
        if not isinstance(self.env, env_class):
            raise ConfigError(f"scenario {self.scenario!r} needs a {self.scenario} env config")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigError("experiment config must be a JSON object")
        config = config_from_dict(cls, payload)
        config.validate()
        return config

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        p = Path(path)
        try:
            payload = json.loads(p.read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {p}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


def _hyperparams(config: ExperimentConfig) -> Td3Hyperparams | DqnHyperparams:
    cls = Td3Hyperparams if config.scenario == "slicing" else DqnHyperparams
    try:
        hp = config_from_dict(cls, config.agent_overrides)
    except ValueError as exc:
        text, key = str(exc), getattr(exc, "field", None)
        if key is not None:  # name the agent key, as _check_sizes does
            text = f"agent.{text}" if text.startswith(f"{key} must") else f"agent.{key}: {text}"
        raise ConfigError(f"invalid agent hyperparameters: {text}") from exc
    return hp


def _check_sizes(
    hp: Td3Hyperparams | DqnHyperparams, state_dim: int, action_width: int, networks: dict
) -> None:
    """Reject a network or a replay buffer above ``SIZE_CEILING`` floats before allocating it.

    ``networks`` maps each hidden-size key to that network's layer sizes.
    """
    sizes = {f"agent.{key}": _flat_size(layers) for key, layers in networks.items()}
    c = hp.buffer_capacity  # c + 1 observations; per slot an action, a reward and a row
    sizes["agent.buffer_capacity"] = (c + 1) * state_dim + c * (action_width + 2)
    for key, floats in sizes.items():
        if floats > SIZE_CEILING:
            raise ConfigError(f"{key} needs {floats} floats, above the ceiling of {SIZE_CEILING}")


def _seed_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(5)
    names = ("env", "init", "action", "sample", "baseline")
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


class _Run:
    """One run's whole state: seed streams, hyperparameters, env, agent, replay buffer and ``t``.

    The run owns its schedule (``total`` steps, the first ``explore`` uniform); ``hp`` is None
    for a baseline. The constructor builds all that can reject the config and touches no file;
    ``step()`` runs the next ``t`` and returns its record. Subclasses add ``_build``,
    ``_outcome`` and ``after_train``.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.streams = _seed_streams(config.seed)
        self.total = total = config.total_steps or RUN_STEPS[config.scenario]  # validated: >= 1
        self.steps = total + config.eval_slots
        self.hp = _hyperparams(config) if config.policy in ("td3", "dqn") else None
        self.explore = 0 if self.hp is None else min(self.hp.exploration_steps, total)
        self.policy = config.policy
        self.agent = None
        self._build(config)
        self.obs = self.env.reset()
        self.t = 0

    def step(self) -> dict:
        hp, agent, obs, streams = self.hp, self.agent, self.obs, self.streams
        self.t = t = self.t + 1
        mode = "eval" if t > self.total else "explore" if t <= self.explore else "train"
        action = None if agent is None else agent.select_action(obs, mode, streams["action"])
        reward, self.obs, record = self._outcome(t, obs, mode, action)
        if not math.isfinite(reward):
            raise ConfigError(f"ideal_scores and latency_weights make step {t}'s reward {reward}")
        if agent is not None and mode != "eval":
            self.buffer.push(obs, action, reward, self.obs)
            trained = None
            if len(self.buffer) >= hp.batch_size:
                trained = agent.train_step(self.buffer.sample(hp.batch_size, streams["sample"]))
            self.after_train(t, record, trained)
        return record


class _Slicing(_Run):
    """TD3's action goes through ``map_action``; SRA and water-filling set ``k`` directly."""

    def _build(self, config: ExperimentConfig) -> None:
        hp = self.hp
        self.cfg: SliceConfig = config.env  # type: ignore[assignment]
        for p in self.cfg.services if self.cfg.mode == "emulated" else ():
            if p.kind == "chat" and p.mean_arrivals * self.steps > BACKLOG_CEILING:
                raise ConfigError(f"chat mean_arrivals {p.mean_arrivals!r} over {self.steps} steps "
                                  f"may queue above the ceiling of {BACKLOG_CEILING} packets")
        env = self.env = SlicingEnv(self.cfg, rng=self.streams["env"])
        if config.policy == "td3":
            s, a = env.observation_dim, env.num_slices
            _check_sizes(hp, s, a, {"actor_hidden": (s, *hp.actor_hidden, a),
                                    "critic_hidden": (s + a, *hp.critic_hidden, 1)})
            self.agent = Td3Agent(s, a, hp, rng=self.streams["init"])
            self.buffer = ReplayBuffer(hp.buffer_capacity, s, a)
        elif config.policy == "optimal" and self.cfg.mode != "analytic":
            raise ConfigError("the water-filling policy needs analytic demands")
        self.sra = slicing_mod.sra(self.cfg) if config.policy == "sra" else None
        self._regime: tuple = (None, None)  # last (demands, water-fill k): demands rarely change

    def _outcome(self, t: int, obs: np.ndarray, mode: str, action: np.ndarray | None) -> tuple:
        cfg = self.cfg
        if action is None:
            k = self.sra
            if k is None:
                demands = cfg.demands_at(t)
                if demands is not self._regime[0]:  # demands_at returns each regime's own vector
                    self._regime = (demands, slicing_mod.water_fill_optimal(demands, cfg))
                k = self._regime[1]
            next_obs, reward, info = self.env.step_allocation(k)
        else:
            next_obs, reward, info = self.env.step(action)
        if action is None or mode == "eval":
            u_greedy = reward  # this step was greedy already
        elif cfg.mode == "analytic":  # score the greedy action on this step's demands
            greedy = slicing_mod.map_action(self.agent.select_action(obs, "eval"), cfg)
            scores = slicing_mod.score_analytic(greedy, cfg.demands_at(t), cfg.ideal_scores)
            u_greedy = slicing_mod.utility(scores)
        else:
            u_greedy = None  # emulated traffic cannot be replayed for a probe
        record = {
            "step": t,
            "phase": "eval" if mode == "eval" else "train",
            "k": info["k"].tolist(),
            "c": info["scores"],
            "U": reward,
            "mode": cfg.mode,
            "policy": self.policy,
            "B": cfg.total_bandwidth,
            "action": None if action is None else action.tolist(),
            "U_greedy": u_greedy,
            "critic_loss": None,
            "actor_loss": None,
        }
        return reward, next_obs, record

    def after_train(self, t: int, record: dict, losses: tuple | None) -> None:
        if losses is not None:
            record["critic_loss"], record["actor_loss"] = losses


class _Mec(_Run):
    """DQN's action indexes the action catalog; RRA and brute force route directly."""

    def _build(self, config: ExperimentConfig) -> None:
        hp = self.hp
        env_cfg: MecConfig = config.env  # type: ignore[assignment]
        env = self.env = MecEnv(env_cfg, rng=self.streams["env"])
        if config.policy != "rra":  # brute force (optimal, DQN's eval) searches within it
            self.catalog = mec_mod.action_catalog(env_cfg)
        if config.policy == "dqn":
            s = env.observation_dim
            _check_sizes(hp, s, 1, {"hidden": (s, *hp.hidden, len(self.catalog))})
            self.agent = DqnAgent(s, len(self.catalog), hp, rng=self.streams["init"])
            self.buffer = ReplayBuffer(hp.buffer_capacity, s)
        self.baseline_rng = self.streams["baseline"]

    def _outcome(self, t: int, obs: np.ndarray, mode: str, action: int | None) -> tuple:
        topology, arrivals = self.env.topology, self.env.current_arrivals
        if action is not None:
            choices = self.catalog[action]
        elif self.policy == "rra":
            choices = mec_mod.random_routing(topology, arrivals, self.baseline_rng)
        else:
            choices, _ = mec_mod.brute_force_optimal(topology, arrivals)
        if mode == "eval":  # grade against both baselines on the same arrivals
            rra_choice = mec_mod.random_routing(topology, arrivals, self.baseline_rng)
            l_rra = mec_mod.evaluate_action(topology, arrivals, rra_choice).l_max
            _, opt_outcome = mec_mod.brute_force_optimal(topology, arrivals)
        next_obs, latencies, l_max, info = self.env.step(choices)
        record = {
            "slot": t,
            "phase": "eval" if mode == "eval" else "train",
            "action": list(info["requested"]),
            "L": latencies.tolist(),
            "L_max": l_max,
            "policy": self.policy,
            "effective": list(info["effective"]),
            "arrivals": info["arrivals"].tolist(),
            "loss": None,
        }
        if action is not None:
            record["action_index"] = action
            record["epsilon"] = self.hp.epsilon
        if mode == "eval":
            record["L_rra"] = l_rra
            record["L_opt"] = opt_outcome.l_max
        return l_max, next_obs, record

    def after_train(self, t: int, record: dict, loss: float | None) -> None:
        record["loss"] = loss
        if t % self.hp.target_sync_period == 0:
            self.agent.sync_target()


_SCENARIOS = {"slicing": _Slicing, "mec": _Mec}


def run_experiment(config: ExperimentConfig, out_path: str | Path | None = None) -> Path:
    """Train for ``total_steps``, then act greedily for ``eval_slots``; one record per step.

    The run, with every check that can reject the config, is built before any file is
    touched. Records go to ``<path>.partial``, renamed to the returned path after the last
    one, so a diverged or killed run leaves only the ``.partial`` file.
    """
    config.validate()
    if out_path is None:
        out_path = Path(f"metrics-{config.scenario}-{config.policy}-seed{config.seed}.jsonl")
    path = Path(out_path)
    run = _SCENARIOS[config.scenario](config)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)  # a stale file must not pass for this run's output
    partial = path.with_name(path.name + ".partial")
    with partial.open("w") as out:
        for _ in range(run.steps):
            out.write(json.dumps(run.step()) + "\n")
    partial.replace(path)
    return path


def load_metrics(path: str | Path) -> list[dict]:
    """Read a JSONL metrics file into a list of records.

    An unreadable file or a line that is not JSON, such as a killed run's cut last line, is a
    ``ConfigError`` that names the file.
    """
    records, n = [], 0
    try:
        with Path(path).open() as fh:
            for n, line in enumerate(fh, 1):
                if line.strip():
                    records.append(json.loads(line))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read metrics file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"metrics file {path}, line {n}: not valid JSON ({exc.msg})") from exc
    return records


# Scenario -> its objective key and the keys that compare, plot and the run summary read.
_SCHEMAS = {"slicing": ("U", {"step", "k", "c", "U", "B"}),
            "mec": ("L_max", {"slot", "phase", "L_max"})}
# Key -> a check that its value, where present, must pass, and what the check asks for.
_number, _string = (is_real, "a number"), (lambda v: isinstance(v, str), "a string")
_numbers = (lambda v: isinstance(v, list) and all(map(is_real, v)), "a list of numbers")
_VALUES = {"step": _number, "slot": _number, "U": _number, "L_max": _number, "B": _number,
           "k": _numbers, "c": _numbers, "phase": _string, "policy": _string}


def _read_metrics(path: str | Path) -> tuple[list[dict], str | None, str | None]:
    """A metrics file's records, scenario and objective key (None and None if it is empty).

    The first record's ``step`` or ``slot`` key names the scenario, and every record must
    hold that scenario's keys, each value of the type in ``_VALUES``.
    """
    records = load_metrics(path)
    first = records[0] if records and isinstance(records[0], dict) else {}
    scenario = "slicing" if "step" in first else "mec" if "slot" in first else None
    if scenario is not None:
        objective, keys = _SCHEMAS[scenario]
        for n, record in enumerate(records, 1):
            if not (isinstance(record, dict) and keys <= record.keys()):
                raise ConfigError(f"metrics file {path}, record {n}: not a {scenario} record "
                                  f"(needs keys {sorted(keys)})")
            for key, (ok, kind) in _VALUES.items():
                if key in record and not ok(record[key]):
                    raise ConfigError(f"metrics file {path}, record {n}: {key!r} must be {kind}, "
                                      f"got {record[key]!r}")
        return records, scenario, objective
    if records:
        raise ConfigError(f"metrics file {path} has an unknown schema (no 'step' or 'slot' key)")
    return records, None, None


def final_window(values: list[float], fraction: float = 0.05) -> list[float]:
    """The last ``fraction`` of a series (at least one element)."""
    n = max(1, round(len(values) * fraction))
    return values[-n:]


def compare(paths: list[str | Path]) -> dict:
    """Summarize runs side by side: per-run means and final-window ratios.

    The final window is the last 5% of each run. For slicing runs the
    objective is the utility ``U`` (higher is better); for offloading runs it
    is ``L_max`` (lower is better). Each run is named by its policy, with
    ``#2``, ``#3``, ... on repeats, and the ratios use these names.
    """
    if len(paths) < 2:
        raise ConfigError("compare needs at least two metrics files")
    rows: list[dict] = []
    scenarios = set()
    for path in paths:
        records, scenario, objective = _read_metrics(path)
        if not records:
            raise ConfigError(f"metrics file is empty: {path}")
        scenarios.add(scenario)
        policy = records[0].get("policy", "unknown")
        name, k = policy, 2
        while any(row["name"] == name for row in rows):
            name, k = f"{policy}#{k}", k + 1
        series = [r[objective] for r in records]
        rows.append({"path": str(path), "policy": policy, "name": name, "records": len(records),
                     "objective": objective, "mean": float(np.mean(series)),
                     "final_window_mean": float(np.mean(final_window(series)))})
    if len(scenarios) > 1:
        raise ConfigError(f"cannot compare across scenarios: {sorted(scenarios)}")
    ratios = {
        f"{a['name']}/{b['name']}": a["final_window_mean"] / b["final_window_mean"]
        for a in rows for b in rows if a is not b and b["final_window_mean"] != 0
    }
    return {"scenario": scenarios.pop(), "runs": rows, "final_window_ratios": ratios}


# Single-file plot kind -> the scenario it reads, its CSV header from the first record
# (None for an empty file), and one record's row.
_PLOTS: dict[str, tuple[str, Callable, Callable]] = {
    "allocation": (
        "slicing",
        lambda r: ["step", *(f"share_{i + 1}" for i in range(len(r["k"]) if r else 0))],
        lambda r: [r["step"], *(k / r["B"] for k in r["k"])],
    ),
    "scores": (
        "slicing",
        lambda r: ["step", *(f"c_{i + 1}" for i in range(len(r["c"]))), "U"] if r else ["step"],
        lambda r: [r["step"], *r["c"], r["U"]],
    ),
    "latency": ("mec", lambda r: ["slot", "L_max"], lambda r: [r["slot"], r["L_max"]]),
}
PLOT_KINDS = (*_PLOTS, "epsilon-sweep")


def _write_plot(out: Path, kind: str, files: list[list[dict]], paths: list[str | Path]) -> None:
    """Build every row of a ``kind`` CSV, then write it: a record that fails leaves no CSV."""
    if kind == "epsilon-sweep":  # aligned train-slot L_max columns, one per file
        runs = [[r for r in records if r["phase"] == "train"] for records in files]
        if len({len(run) for run in runs}) > 1:
            counts = ", ".join(f"{path}: {len(run)}" for run, path in zip(runs, paths))
            raise ConfigError(f"epsilon-sweep runs differ in length; train slots {counts}")
        labels = [f"eps_{run[0]['epsilon']}" if run and run[0].get("epsilon") is not None
                  else Path(path).stem for run, path in zip(runs, paths)]
        header = ["slot"] + [f"L_max_{label}" for label in labels]
        rows = [[recs[0]["slot"]] + [r["L_max"] for r in recs] for recs in zip(*runs)]
    else:
        _, header_of, row_of = _PLOTS[kind]
        header = header_of(files[0][0] if files[0] else None)
        rows = [row_of(r) for r in files[0]]
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def emit_plot_data(
    paths: list[str | Path], kind: str, out_path: str | Path | None = None
) -> Path:
    """Write plot-ready CSV for one or more metrics files.

    Kinds: ``allocation`` (per-slice bandwidth shares), ``scores`` (per-slice
    scores plus utility), ``latency`` (worst-case latency per slot), and
    ``epsilon-sweep`` (aligned training-slot latency columns, one per input
    file).
    An empty metrics file yields a header-only CSV.
    """
    if kind not in PLOT_KINDS:
        raise ConfigError(f"plot kind must be one of {PLOT_KINDS}, got {kind!r}")
    if kind != "epsilon-sweep" and len(paths) != 1:
        raise ConfigError(f"plot kind {kind!r} takes exactly one metrics file")
    need = _PLOTS[kind][0] if kind in _PLOTS else "mec"
    files = []
    for path in paths:
        records, scenario, _ = _read_metrics(path)
        if records and scenario != need:
            raise ConfigError(f"{kind} plots need {need} metrics; {path} holds {scenario} metrics")
        files.append(records)
    out = Path(out_path) if out_path is not None else Path(f"{Path(paths[0]).stem}-{kind}.csv")
    _write_plot(out, kind, files, paths)
    return out


def sweep_epsilon(
    config: ExperimentConfig,
    values: list[float],
    out_dir: str | Path | None = None,
) -> dict:
    """Run the same seeded offloading experiment at several exploration rates.

    Every run uses the identical master seed, so the arrival sequence is
    shared across epsilon values and differences are purely behavioral.
    Returns summary stats and writes one metrics file per epsilon plus an
    aligned-latency CSV; both cover the training slots only, while each
    metrics file also holds the config's greedy eval slots.
    """
    if config.scenario != "mec" or config.policy != "dqn":
        raise ConfigError("the epsilon sweep applies to mec runs with the dqn policy")
    if not values:
        raise ConfigError("need at least one epsilon value")
    seen: set[float] = set()
    for eps in map(float, values):  # equal values would run one experiment into one file
        if eps in seen:
            raise ConfigError(f"epsilon {eps} is given more than once; give each value once")
        seen.add(eps)
    configs = [replace(config, agent_overrides=dict(config.agent_overrides, epsilon=float(eps)))
               for eps in values]
    for run_cfg in configs:  # a bad value is rejected before the first run writes anything
        _hyperparams(run_cfg)
    base_dir = Path(out_dir) if out_dir is not None else Path(".")
    base_dir.mkdir(parents=True, exist_ok=True)
    paths, files, summaries = [], [], []
    for eps, run_cfg in zip(values, configs):
        path = base_dir / f"metrics-mec-dqn-eps{eps}-seed{config.seed}.jsonl"
        run_experiment(run_cfg, path)
        records = load_metrics(path)
        series = [r["L_max"] for r in records if r["phase"] == "train"]
        summaries.append(
            {
                "epsilon": float(eps),
                "mean_L_max": float(np.mean(series)),
                "final_window_mean_L_max": float(np.mean(final_window(series))),
            }
        )
        paths.append(path)
        files.append(records)
    csv_path = base_dir / f"epsilon-sweep-seed{config.seed}.csv"
    _write_plot(csv_path, "epsilon-sweep", files, paths)
    return {"runs": summaries, "metrics_paths": [str(p) for p in paths], "csv_path": str(csv_path)}


def oracle_report(config: ExperimentConfig, slots: int = 100) -> dict:
    """Closed-form / exhaustive baselines for a config, without any learning.

    Slicing: water-filling allocation, its utility, and the even-split utility
    for every demand regime. Offloading: per-slot brute-force optimum
    aggregated over ``slots`` seeded arrival draws (a single slot when
    arrivals are fixed).
    """
    config.validate()
    _SCENARIOS[config.scenario](config)  # rejects what run_experiment rejects; takes no step
    if config.scenario == "slicing":
        env_cfg: SliceConfig = config.env  # type: ignore[assignment]
        if env_cfg.mode != "analytic":
            raise ConfigError("the slicing oracle needs analytic demands")
        regimes = [(1, env_cfg.demands_at(1))]
        for change_step in sorted(env_cfg.demand_changes):
            regimes.append((change_step + 1, env_cfg.demands_at(change_step + 1)))
        report = {"scenario": "slicing", "regimes": []}
        for start, demands in regimes:
            k_opt = slicing_mod.water_fill_optimal(demands, env_cfg)
            u_opt = slicing_mod.utility(
                slicing_mod.score_analytic(k_opt, demands, env_cfg.ideal_scores)
            )
            k_sra = slicing_mod.sra(env_cfg)
            u_sra = slicing_mod.utility(
                slicing_mod.score_analytic(k_sra, demands, env_cfg.ideal_scores)
            )
            report["regimes"].append(
                {
                    "from_step": start,
                    "demands": demands.tolist(),
                    "optimal_k": k_opt.tolist(),
                    "optimal_utility": u_opt,
                    "sra_k": k_sra.tolist(),
                    "sra_utility": u_sra,
                    "ratio": u_opt / u_sra,
                }
            )
        return report
    env_cfg_m: MecConfig = config.env  # type: ignore[assignment]
    catalog = mec_mod.action_catalog(env_cfg_m)  # above the enumeration ceiling: ConfigError
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n_slots = 1 if env_cfg_m.arrivals.kind == "fixed" else slots
    optima = []
    actions = []
    for _ in range(n_slots):
        arrivals = env_cfg_m.arrivals.draw(rng)
        action, outcome = mec_mod.brute_force_optimal(env_cfg_m.topology, arrivals)
        optima.append(outcome.l_max)
        actions.append(action)
    report = {
        "scenario": "mec",
        "slots": n_slots,
        "optimal_L_max_mean": float(np.mean(optima)),
        "optimal_L_max_min": float(np.min(optima)),
        "optimal_L_max_max": float(np.max(optima)),
    }
    if n_slots == 1:
        report["optimal_action"] = list(actions[0])
        report["action_catalog_size"] = len(catalog)
    return report
