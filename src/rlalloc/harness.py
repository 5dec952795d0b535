"""Experiment orchestration: seeded runs, metrics files, and comparisons.

A run is described by a JSON document::

    {
      "scenario": "slicing" | "mec",
      "policy":   "td3" | "sra" | "optimal"   (slicing)
                  "dqn" | "rra" | "optimal"   (mec),
      "seed":     0,
      "env":      { ... scenario config ... } | "<preset name>",
      "agent":    { ... hyperparameter overrides ... },   # optional
      "total_steps": 8000                                  # optional override
    }

Env presets: ``slicing-analytic``, ``slicing-emulated``, ``mec-seven``,
``mec-small``.

Metrics are one JSON object per line. Slicing records carry
``{step, k, c, U, mode, ...}``; offloading records carry
``{slot, action, L, L_max, policy, ...}``. The master seed is split into
independent streams (environment, agent init, action noise, replay sampling,
baseline) via ``SeedSequence.spawn``, so a longer run reproduces a shorter
run's records as a byte-identical prefix.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from rlalloc import mec as mec_mod
from rlalloc import slicing as slicing_mod
from rlalloc.dqn import DqnAgent, DqnHyperparams
from rlalloc.exceptions import ConfigError
from rlalloc.mec import MecConfig, MecEnv
from rlalloc.replay import ReplayBuffer, Transition
from rlalloc.slicing import SliceConfig, SlicingEnv
from rlalloc.td3 import Td3Agent, Td3Hyperparams

SLICING_POLICIES = ("td3", "sra", "optimal")
MEC_POLICIES = ("dqn", "rra", "optimal")

ENV_PRESETS: dict[str, Callable[[], SliceConfig | MecConfig]] = {
    "slicing-analytic": slicing_mod.default_analytic_config,
    "slicing-emulated": slicing_mod.default_emulated_config,
    "mec-seven": mec_mod.default_mec_config,
    "mec-small": mec_mod.small_contention_config,
}


@dataclass
class ExperimentConfig:
    scenario: str
    policy: str
    seed: int
    env: SliceConfig | MecConfig
    agent_overrides: dict
    total_steps: int | None = None
    eval_slots: int = 0

    def validate(self) -> None:
        if self.eval_slots < 0:
            raise ConfigError("eval_slots must be >= 0")
        if self.eval_slots and self.policy not in ("td3", "dqn"):
            raise ConfigError("eval_slots only applies to learning policies (td3/dqn)")
        if self.scenario == "slicing":
            if self.policy not in SLICING_POLICIES:
                raise ConfigError(
                    f"slicing policy must be one of {SLICING_POLICIES}, got {self.policy!r}"
                )
            if not isinstance(self.env, SliceConfig):
                raise ConfigError("scenario 'slicing' needs a slicing env config")
        elif self.scenario == "mec":
            if self.policy not in MEC_POLICIES:
                raise ConfigError(
                    f"mec policy must be one of {MEC_POLICIES}, got {self.policy!r}"
                )
            if not isinstance(self.env, MecConfig):
                raise ConfigError("scenario 'mec' needs a mec env config")
        else:
            raise ConfigError(f"scenario must be 'slicing' or 'mec', got {self.scenario!r}")
        if self.total_steps is not None and self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        try:
            self.env.validate()
        except ValueError as exc:
            raise ConfigError(f"invalid env config: {exc}") from exc

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigError("experiment config must be a JSON object")
        try:
            scenario = payload["scenario"]
            policy = payload["policy"]
        except KeyError as exc:
            raise ConfigError(f"missing required key {exc.args[0]!r}") from exc
        env_spec = payload.get("env")
        if isinstance(env_spec, str):
            if env_spec not in ENV_PRESETS:
                raise ConfigError(
                    f"unknown env preset {env_spec!r}; available: {sorted(ENV_PRESETS)}"
                )
            env: SliceConfig | MecConfig = ENV_PRESETS[env_spec]()
        elif isinstance(env_spec, dict):
            try:
                if scenario == "slicing":
                    env = SliceConfig.from_dict(env_spec)
                elif scenario == "mec":
                    env = MecConfig.from_dict(env_spec)
                else:
                    raise ConfigError(f"unknown scenario {scenario!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"invalid env config: {exc}") from exc
        else:
            raise ConfigError("'env' must be a preset name or a config object")
        overrides = payload.get("agent", {})
        if not isinstance(overrides, dict):
            raise ConfigError("'agent' must be an object of hyperparameter overrides")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"'seed' must be a non-negative integer, got {seed!r}")
        eval_slots = payload.get("eval_slots", 0)
        if not isinstance(eval_slots, int) or isinstance(eval_slots, bool):
            raise ConfigError(f"'eval_slots' must be an integer, got {eval_slots!r}")
        config = cls(
            scenario=scenario,
            policy=policy,
            seed=seed,
            env=env,
            agent_overrides=dict(overrides),
            total_steps=payload.get("total_steps"),
            eval_slots=eval_slots,
        )
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
        hp = cls(**config.agent_overrides)
    except TypeError as exc:
        raise ConfigError(f"unknown agent hyperparameter: {exc}") from exc
    if config.total_steps is not None:
        hp.total_steps = int(config.total_steps)
        hp.exploration_steps = min(hp.exploration_steps, hp.total_steps)
    try:
        hp.validate()
    except ValueError as exc:
        raise ConfigError(f"invalid agent hyperparameters: {exc}") from exc
    return hp


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


class _MetricsWriter:
    def __init__(self, path: Path):
        self.path = path
        self._fh = path.open("w")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(_jsonable(record)) + "\n")

    def close(self) -> None:
        self._fh.close()


def _seed_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(5)
    names = ("env", "init", "action", "sample", "baseline")
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


def _run_slicing(config: ExperimentConfig, writer: _MetricsWriter) -> None:
    env_cfg: SliceConfig = config.env  # type: ignore[assignment]
    streams = _seed_streams(config.seed)
    env = SlicingEnv(env_cfg, rng=streams["env"])
    hp = _hyperparams(config)
    total = hp.total_steps
    analytic = env_cfg.mode == "analytic"

    agent = None
    buffer = None
    if config.policy == "td3":
        agent = Td3Agent(env.observation_dim, env.num_slices, hp, rng=streams["init"])
        buffer = ReplayBuffer(hp.buffer_capacity, env.observation_dim, env.num_slices)
    elif config.policy == "optimal" and not analytic:
        raise ConfigError("the water-filling policy needs analytic demands")

    obs = env.reset()
    sra_alloc = slicing_mod.sra(env_cfg) if config.policy == "sra" else None
    for t in range(1, total + 1):
        critic_loss = actor_loss = None
        action_list = None
        if config.policy == "td3":
            mode = "explore" if t <= hp.exploration_steps else "train"
            action = agent.select_action(obs, mode, streams["action"])
            if analytic:
                greedy = agent.select_action(obs, "eval")
                k_greedy = slicing_mod.map_action(greedy, env_cfg)
                u_greedy = slicing_mod.utility(
                    slicing_mod.score_analytic(
                        k_greedy, env_cfg.demands_at(t), env_cfg.ideal_scores
                    )
                )
            else:
                u_greedy = None
            next_obs, reward, info = env.step(action)
            buffer.push(Transition(obs, action, reward, next_obs))
            if len(buffer) >= hp.batch_size:
                critic_loss, actor_loss = agent.train_step(
                    buffer.sample(hp.batch_size, streams["sample"])
                )
            action_list = action
        else:
            if config.policy == "sra":
                k = sra_alloc
            else:
                k = slicing_mod.water_fill_optimal(env_cfg.demands_at(t), env_cfg)
            next_obs, reward, info = env.step_allocation(k)
            u_greedy = reward
        writer.write(
            {
                "step": t,
                "phase": "train",
                "k": info["k"],
                "c": info["scores"],
                "U": reward,
                "mode": env_cfg.mode,
                "policy": config.policy,
                "B": env_cfg.total_bandwidth,
                "action": action_list,
                "U_greedy": u_greedy,
                "critic_loss": critic_loss,
                "actor_loss": actor_loss,
            }
        )
        obs = next_obs

    for e in range(1, config.eval_slots + 1):
        action = agent.select_action(obs, "eval")
        next_obs, reward, info = env.step(action)
        writer.write(
            {
                "step": total + e,
                "phase": "eval",
                "k": info["k"],
                "c": info["scores"],
                "U": reward,
                "mode": env_cfg.mode,
                "policy": config.policy,
                "B": env_cfg.total_bandwidth,
                "action": action,
                "U_greedy": reward,
                "critic_loss": None,
                "actor_loss": None,
            }
        )
        obs = next_obs


def _run_mec(config: ExperimentConfig, writer: _MetricsWriter) -> None:
    env_cfg: MecConfig = config.env  # type: ignore[assignment]
    streams = _seed_streams(config.seed)
    env = MecEnv(env_cfg, rng=streams["env"])
    hp = _hyperparams(config)
    total = hp.total_steps

    agent = None
    buffer = None
    catalog = None
    if config.policy == "dqn":
        catalog = mec_mod.action_catalog(env_cfg)
        agent = DqnAgent(env.observation_dim, len(catalog), hp, rng=streams["init"])
        buffer = ReplayBuffer(hp.buffer_capacity, env.observation_dim, None)

    obs = env.reset()
    for t in range(1, total + 1):
        loss = None
        action_index = None
        if config.policy == "dqn":
            mode = "explore" if t <= hp.exploration_steps else "train"
            action_index = agent.select_action(obs, mode, streams["action"])
            choices = catalog[action_index]
        elif config.policy == "rra":
            choices = mec_mod.random_routing(
                env.topology, env.current_arrivals, streams["baseline"]
            )
        else:
            choices, _ = mec_mod.brute_force_optimal(env.topology, env.current_arrivals)
        next_obs, latencies, l_max, info = env.step(choices)
        if config.policy == "dqn":
            buffer.push(Transition(obs, action_index, l_max, next_obs))
            if len(buffer) >= hp.batch_size:
                loss = agent.train_step(buffer.sample(hp.batch_size, streams["sample"]))
            if t % hp.target_sync_period == 0:
                agent.sync_target()
        record = {
            "slot": t,
            "phase": "train",
            "action": list(info["requested"]),
            "L": latencies,
            "L_max": l_max,
            "policy": config.policy,
            "effective": list(info["effective"]),
            "arrivals": info["arrivals"],
            "loss": loss,
        }
        if config.policy == "dqn":
            record["action_index"] = action_index
            record["epsilon"] = hp.epsilon
        writer.write(record)
        obs = next_obs

    # Evaluation phase: greedy actions, no training; each slot also records the
    # random baseline and the exhaustive optimum on the same arrivals.
    for e in range(1, config.eval_slots + 1):
        action_index = agent.select_action(obs, "eval")
        arrivals = env.current_arrivals.copy()
        rra_choice = mec_mod.random_routing(env.topology, arrivals, streams["baseline"])
        l_rra = mec_mod.evaluate_action(env.topology, arrivals, rra_choice).l_max
        _, opt_outcome = mec_mod.brute_force_optimal(env.topology, arrivals)
        next_obs, latencies, l_max, info = env.step(catalog[action_index])
        writer.write(
            {
                "slot": total + e,
                "phase": "eval",
                "action": list(info["requested"]),
                "L": latencies,
                "L_max": l_max,
                "policy": config.policy,
                "effective": list(info["effective"]),
                "arrivals": info["arrivals"],
                "loss": None,
                "action_index": action_index,
                "epsilon": hp.epsilon,
                "L_rra": l_rra,
                "L_opt": opt_outcome.l_max,
            }
        )
        obs = next_obs


def run_experiment(config: ExperimentConfig, out_path: str | Path | None = None) -> Path:
    """Execute one seeded run and write its metrics file; returns the path."""
    config.validate()
    if out_path is None:
        out_path = Path(f"metrics-{config.scenario}-{config.policy}-seed{config.seed}.jsonl")
    path = Path(out_path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    writer = _MetricsWriter(path)
    try:
        if config.scenario == "slicing":
            _run_slicing(config, writer)
        else:
            _run_mec(config, writer)
    finally:
        writer.close()
    return path


def load_metrics(path: str | Path) -> list[dict]:
    """Read a JSONL metrics file into a list of records."""
    records = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _objective_series(records: list[dict]) -> tuple[str, list[float]]:
    if not records:
        raise ConfigError("metrics file is empty")
    if "step" in records[0]:
        return "slicing", [r["U"] for r in records]
    if "slot" in records[0]:
        return "mec", [r["L_max"] for r in records]
    raise ConfigError("unrecognized metrics schema (no 'step' or 'slot' key)")


def final_window(values: list[float], fraction: float = 0.05) -> list[float]:
    """The last ``fraction`` of a series (at least one element)."""
    n = max(1, round(len(values) * fraction))
    return values[-n:]


def compare(paths: list[str | Path]) -> dict:
    """Summarize runs side by side: per-run means and final-window ratios.

    The final window is the last 5% of each run. For slicing runs the
    objective is the utility ``U`` (higher is better); for offloading runs it
    is ``L_max`` (lower is better).
    """
    if len(paths) < 2:
        raise ConfigError("compare needs at least two metrics files")
    rows = []
    scenario_seen = set()
    for path in paths:
        records = load_metrics(path)
        scenario, series = _objective_series(records)
        scenario_seen.add(scenario)
        window = final_window(series)
        rows.append(
            {
                "path": str(path),
                "policy": records[0].get("policy", "unknown"),
                "records": len(records),
                "objective": "U" if scenario == "slicing" else "L_max",
                "mean": float(np.mean(series)),
                "final_window_mean": float(np.mean(window)),
            }
        )
    if len(scenario_seen) > 1:
        raise ConfigError(f"cannot compare across scenarios: {sorted(scenario_seen)}")
    names = []
    for row in rows:
        base = row["policy"]
        name = base
        k = 2
        while name in names:
            name = f"{base}#{k}"
            k += 1
        names.append(name)
    ratios = {}
    for i, row_i in enumerate(rows):
        for j, row_j in enumerate(rows):
            if i == j:
                continue
            denom = row_j["final_window_mean"]
            if denom != 0:
                ratios[f"{names[i]}/{names[j]}"] = row_i["final_window_mean"] / denom
    return {
        "scenario": scenario_seen.pop(),
        "runs": rows,
        "final_window_ratios": ratios,
    }


PLOT_KINDS = ("allocation", "scores", "latency", "epsilon-sweep")


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
    if out_path is None:
        stem = Path(paths[0]).stem
        out_path = Path(f"{stem}-{kind}.csv")
    out = Path(out_path)

    def rows_for_single(records: list[dict]) -> tuple[list[str], list[list]]:
        if kind == "allocation":
            if not records:
                return ["step"], []
            n = len(records[0]["k"])
            header = ["step"] + [f"share_{i+1}" for i in range(n)]
            body = [
                [r["step"]] + [k / r["B"] for k in r["k"]]
                for r in records
            ]
            return header, body
        if kind == "scores":
            if not records:
                return ["step"], []
            n = len(records[0]["c"])
            header = ["step"] + [f"c_{i+1}" for i in range(n)] + ["U"]
            body = [[r["step"]] + list(r["c"]) + [r["U"]] for r in records]
            return header, body
        # latency
        header = ["slot", "L_max"]
        body = [[r["slot"], r["L_max"]] for r in records]
        return header, body

    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if kind == "epsilon-sweep":
            runs = [[r for r in load_metrics(p) if r["phase"] == "train"] for p in paths]
            labels = []
            for run, path in zip(runs, paths):
                eps = run[0].get("epsilon") if run else None
                labels.append(f"eps_{eps}" if eps is not None else Path(path).stem)
            writer.writerow(["slot"] + [f"L_max_{lab}" for lab in labels])
            length = min((len(r) for r in runs), default=0)
            for i in range(length):
                writer.writerow([runs[0][i]["slot"]] + [run[i]["L_max"] for run in runs])
        else:
            records = load_metrics(paths[0])
            if records and kind == "latency" and "slot" not in records[0]:
                raise ConfigError("latency plots need offloading metrics")
            if records and kind in ("allocation", "scores") and "step" not in records[0]:
                raise ConfigError(f"{kind} plots need slicing metrics")
            header, body = rows_for_single(records)
            writer.writerow(header)
            writer.writerows(body)
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
    base_dir = Path(out_dir) if out_dir is not None else Path(".")
    base_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    summaries = []
    for eps in values:
        overrides = dict(config.agent_overrides)
        overrides["epsilon"] = float(eps)
        run_cfg = ExperimentConfig(
            scenario=config.scenario,
            policy=config.policy,
            seed=config.seed,
            env=config.env,
            agent_overrides=overrides,
            total_steps=config.total_steps,
            eval_slots=config.eval_slots,
        )
        path = base_dir / f"metrics-mec-dqn-eps{eps}-seed{config.seed}.jsonl"
        run_experiment(run_cfg, path)
        series = [r["L_max"] for r in load_metrics(path) if r["phase"] == "train"]
        summaries.append(
            {
                "epsilon": float(eps),
                "mean_L_max": float(np.mean(series)),
                "final_window_mean_L_max": float(np.mean(final_window(series))),
            }
        )
        paths.append(path)
    csv_path = base_dir / f"epsilon-sweep-seed{config.seed}.csv"
    emit_plot_data(paths, "epsilon-sweep", csv_path)
    return {"runs": summaries, "metrics_paths": [str(p) for p in paths], "csv_path": str(csv_path)}


def oracle_report(config: ExperimentConfig, slots: int = 100) -> dict:
    """Closed-form / exhaustive baselines for a config, without any learning.

    Slicing: water-filling allocation, its utility, and the even-split utility
    for every demand regime. Offloading: per-slot brute-force optimum
    aggregated over ``slots`` seeded arrival draws (a single slot when
    arrivals are fixed).
    """
    config.validate()
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
                    "demands": _jsonable(demands),
                    "optimal_k": _jsonable(k_opt),
                    "optimal_utility": u_opt,
                    "sra_k": _jsonable(k_sra),
                    "sra_utility": u_sra,
                    "ratio": u_opt / u_sra,
                }
            )
        return report
    env_cfg_m: MecConfig = config.env  # type: ignore[assignment]
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
        catalog = mec_mod.action_catalog(env_cfg_m)
        report["action_catalog_size"] = len(catalog)
    return report
