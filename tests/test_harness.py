"""Unit tests for experiment configs, runs, metrics, comparisons, and sweeps."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rlalloc.harness as harness_mod
import rlalloc.slicing as slicing_mod
from rlalloc.exceptions import ConfigError
from rlalloc.harness import (
    ENV_PRESETS,
    ExperimentConfig,
    _hyperparams,
    _seed_streams,
    compare,
    emit_plot_data,
    final_window,
    load_metrics,
    oracle_report,
    run_experiment,
    sweep_epsilon,
)
from rlalloc.mec import default_mec_config, small_contention_config
from rlalloc.slicing import default_analytic_config, default_emulated_config

REPO = Path(__file__).resolve().parents[1]

U_OPT_PRE = 1.8250538335858812
U_SRA_PRE = 0.8705505632961239

TINY_TD3 = {
    "actor_hidden": [8],
    "critic_hidden": [8],
    "batch_size": 4,
    "exploration_steps": 5,
    "buffer_capacity": 64,
}
TINY_DQN = {
    "hidden": [8],
    "batch_size": 4,
    "exploration_steps": 5,
    "buffer_capacity": 64,
    "target_sync_period": 10,
}


def slicing_config(policy="sra", seed=0, total_steps=20, **kwargs):
    overrides = dict(TINY_TD3) if policy == "td3" else {}
    return ExperimentConfig(
        scenario="slicing",
        policy=policy,
        seed=seed,
        env=default_analytic_config(),
        agent_overrides=overrides,
        total_steps=total_steps,
        **kwargs,
    )


def mec_config(policy="dqn", seed=0, total_steps=20, **kwargs):
    overrides = dict(TINY_DQN) if policy == "dqn" else {}
    return ExperimentConfig(
        scenario="mec",
        policy=policy,
        seed=seed,
        env=small_contention_config(),
        agent_overrides=overrides,
        total_steps=total_steps,
        **kwargs,
    )


def inline(scenario, env):
    """A baseline-policy config around an inline env object."""
    policy = "sra" if scenario == "slicing" else "optimal"
    return {"scenario": scenario, "policy": policy, "env": env}


ANALYTIC = default_analytic_config().to_dict()
EMULATED = default_emulated_config().to_dict()
VIDEO, VOICE, CHAT = EMULATED["services"]
MEC = small_contention_config().to_dict()
NAN = float("nan")


# ---------------------------------------------------------------------------
# Config parsing and validation


def test_presets_resolve():
    for name in ("slicing-analytic", "slicing-emulated"):
        cfg = ExperimentConfig.from_dict(
            {"scenario": "slicing", "policy": "sra", "env": name}
        )
        assert cfg.env.num_slices == 3
    for name in ("mec-seven", "mec-small"):
        cfg = ExperimentConfig.from_dict(
            {"scenario": "mec", "policy": "rra", "env": name}
        )
        assert cfg.env.topology.num_servers in (4, 7)
    # An empty agent object is no override, so baselines accept it.
    cfg = ExperimentConfig.from_dict(
        {"scenario": "mec", "policy": "optimal", "env": "mec-small", "agent": {}}
    )
    assert cfg.agent_overrides == {}
    assert set(ENV_PRESETS) == {
        "slicing-analytic",
        "slicing-emulated",
        "mec-seven",
        "mec-small",
    }


def test_env_dict_round_trip():
    payload = {
        "scenario": "slicing",
        "policy": "optimal",
        "env": default_analytic_config().to_dict(),
        "seed": 3,
    }
    cfg = ExperimentConfig.from_dict(payload)
    assert cfg.seed == 3
    np.testing.assert_allclose(cfg.env.demands, [1.0, 1.0, 0.1])


@pytest.mark.parametrize(
    "payload",
    [
        {"policy": "sra", "env": "slicing-analytic"},  # missing scenario
        {"scenario": "parking", "policy": "sra", "env": "slicing-analytic"},
        {"scenario": "slicing", "policy": "dqn", "env": "slicing-analytic"},
        {"scenario": "mec", "policy": "td3", "env": "mec-small"},
        {"scenario": "slicing", "policy": "sra", "env": "mec-small"},
        {"scenario": "slicing", "policy": "sra", "env": "nope"},
        {"scenario": "slicing", "policy": "sra", "env": 7},
        {"scenario": "slicing", "policy": "sra", "env": "slicing-analytic", "seed": -1},
        {"scenario": "slicing", "policy": "sra", "env": "slicing-analytic", "seed": True},
        {
            "scenario": "slicing",
            "policy": "sra",
            "env": "slicing-analytic",
            "eval_slots": 5,
        },  # eval phase needs a learning policy
        {
            "scenario": "slicing",
            "policy": "td3",
            "env": "slicing-analytic",
            "eval_slots": "many",
        },
        {
            "scenario": "slicing",
            "policy": "sra",
            "env": "slicing-analytic",
            "total_steps": 0,
        },
        {"scenario": "slicing", "policy": "sra", "env": "slicing-analytic", "agent": 5},
        {"scenario": "slicing", "policy": "sra", "env": "slicing-analytic", "total_steps": "10"},
        {"scenario": "slicing", "policy": "sra", "env": "slicing-analytic", "total_steps": 2.5},
        {"scenario": "slicing", "policy": "sra", "env": "slicing-analytic", "total_steps": True},
        {"scenario": "slicing", "policy": "sra", "env": "slicing-analytic", "total_step": 3},
        {"scenario": "mec", "policy": "rra", "env": "mec-small", "agent": {"epsilon": 0.5}},
        {
            "scenario": "slicing",
            "policy": "sra",
            "env": "slicing-analytic",
            "agent": {"batch_size": 8},
        },  # agent overrides need a learning policy
        # Unknown keys, at every level of an inline env.
        inline("slicing", {**ANALYTIC, "demand_change": {"10": [0.5, 1.5, 0.1]}}),
        inline("mec", {**MEC, "latency_ref": 1.0}),
        inline("slicing", {**EMULATED, "services": [{**VIDEO, "bitrate": 2.0}, VOICE, CHAT]}),
        inline("slicing", {**EMULATED, "services": [VIDEO, {**VOICE, "file_size": 1.0}, CHAT]}),
        inline("mec", {**MEC, "topology": {**MEC["topology"], "latency": 1.0}}),
        inline("mec", {**MEC, "arrivals": {**MEC["arrivals"], "mean": 10.0}}),
        inline("mec", {**MEC, "topology": {**MEC["topology"], "link_rate": 500.0}}),
        # A derived topology value is not a key.
        inline("mec", {**MEC, "topology": {**MEC["topology"], "routing_choices": [[-1]] * 4}}),
        # Values a constructor must not truncate or let through.
        inline("slicing", {**EMULATED, "services": [{**VIDEO, "cycle_length": 10.5}, VOICE, CHAT]}),
        inline("mec", {**MEC, "arrivals": {"kind": "fixed", "sizes": [NAN, 18.0, 8.0, 6.0]}}),
        inline("slicing", {**ANALYTIC, "demands": [NAN, 1.0, 0.1]}),
        inline("mec", {**MEC, "topology": {**MEC["topology"], "tau": float("inf")}}),
        inline("mec", {**MEC, "topology": {**MEC["topology"], "neighbors": [[1.5], [0], [], []]}}),
        # Fields the env's mode never reads.
        inline("slicing", {**EMULATED, "demands": [1.0, 1.0, 0.1]}),
        inline("slicing", {**EMULATED, "demand_changes": {"10": [0.5, 1.5, 0.1]}}),
        inline("slicing", {**ANALYTIC, "services": EMULATED["services"]}),
        inline("slicing", {**ANALYTIC, "latency_weights": [2.0, 1.0, 1.0]}),
        inline("slicing", {**ANALYTIC, "step_duration": 0.5}),
    ],
)
def test_bad_configs_raise_config_error(payload):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(payload)


def test_configs_built_in_code_meet_the_load_checks():
    for cfg in (
        slicing_config(seed=-1),
        slicing_config(seed=True),
        mec_config(eval_slots=-1),
        mec_config(eval_slots=2.5),
    ):
        with pytest.raises(ConfigError):
            cfg.validate()


def test_env_from_dict_inverts_to_dict():
    for scenario, env in (("slicing", ANALYTIC), ("slicing", EMULATED), ("mec", MEC)):
        assert ExperimentConfig.from_dict(inline(scenario, env)).env.to_dict() == env
    shorthand = {**MEC["topology"], "link_rate": 500.0}
    del shorthand["link_rates"]  # mec-small links every pair at 500
    assert ExperimentConfig.from_dict(
        inline("mec", {**MEC, "topology": shorthand})
    ).env.to_dict() == MEC


@pytest.mark.parametrize(
    "path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.stem
)
def test_shipped_configs_load_and_run(path, tmp_path):
    config = replace(ExperimentConfig.from_json(path), total_steps=3)
    records = load_metrics(run_experiment(config, tmp_path / "metrics.jsonl"))
    assert len(records) == 3 + config.eval_slots


def test_unknown_agent_override_raises():
    cfg = slicing_config(policy="td3")
    cfg.agent_overrides["momentum"] = 0.9
    with pytest.raises(ConfigError):
        _hyperparams(cfg)


def test_total_steps_caps_exploration():
    cfg = slicing_config(policy="td3", total_steps=3)  # TINY_TD3 explores for 5 steps
    run = harness_mod._Slicing(cfg)
    assert (run.total, run.explore, run.hp.exploration_steps) == (3, 3, 5)
    explicit = replace(cfg, agent_overrides=dict(TINY_TD3, exploration_steps=10**6))
    assert harness_mod._Slicing(explicit).explore == 3
    assert harness_mod._Slicing(replace(explicit, total_steps=None)).explore == 8000
    dqn = replace(mec_config("dqn"), agent_overrides={"hidden": [8]})  # DQN's default: 500
    run = harness_mod._Mec(dqn)
    assert (run.total, run.steps, run.explore, run.hp.exploration_steps) == (20, 20, 20, 500)


@pytest.mark.parametrize("config", [slicing_config("td3"), mec_config("dqn")], ids=["td3", "dqn"])
def test_the_buffer_ceiling_counts_what_the_buffer_allocates(config, monkeypatch):
    buffer = harness_mod._SCENARIOS[config.scenario](config).buffer
    floats = sum(a.nbytes for a in vars(buffer).values() if isinstance(a, np.ndarray)) // 8
    monkeypatch.setattr(harness_mod, "SIZE_CEILING", floats - 1)  # the networks are smaller
    with pytest.raises(ConfigError, match=f"agent.buffer_capacity needs {floats} floats"):
        harness_mod._SCENARIOS[config.scenario](config)
    monkeypatch.setattr(harness_mod, "SIZE_CEILING", floats)
    harness_mod._SCENARIOS[config.scenario](config)


@pytest.mark.parametrize("name, steps", [("slicing-sra", 8000), ("mec-rra", 5000)])
def test_baseline_run_takes_the_default_length_and_builds_no_hyperparameters(
    name, steps, tmp_path
):
    config = ExperimentConfig.from_json(REPO / "configs" / f"{name}.json")
    assert config.total_steps is None
    run = harness_mod._SCENARIOS[config.scenario](config)
    assert (run.hp, run.agent, run.total, run.explore, run.steps) == (None, None, steps, 0, steps)
    assert harness_mod.RUN_STEPS[config.scenario] == steps
    assert len(load_metrics(run_experiment(config, tmp_path / "m.jsonl"))) == steps


def test_from_json_errors(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)


def test_seed_streams_are_deterministic_and_distinct():
    a = _seed_streams(11)
    b = _seed_streams(11)
    assert set(a) == {"env", "init", "action", "sample", "baseline"}
    draws_a = {k: g.uniform(size=3).tolist() for k, g in a.items()}
    draws_b = {k: g.uniform(size=3).tolist() for k, g in b.items()}
    assert draws_a == draws_b
    values = [tuple(v) for v in draws_a.values()]
    assert len(set(values)) == len(values)


# ---------------------------------------------------------------------------
# Runs and metrics


def test_sra_run_matches_reference_utility(tmp_path):
    path = run_experiment(slicing_config("sra"), tmp_path / "sra.jsonl")
    records = load_metrics(path)
    assert len(records) == 20
    for r in records:
        assert r["policy"] == "sra"
        assert r["phase"] == "train"
        assert r["U"] == pytest.approx(U_SRA_PRE, abs=1e-9)
        assert r["B"] == pytest.approx(1.5)
        assert len(r["k"]) == len(r["c"]) == 3


def test_optimal_run_matches_reference_utility(tmp_path):
    path = run_experiment(slicing_config("optimal"), tmp_path / "opt.jsonl")
    for r in load_metrics(path):
        assert r["U"] == pytest.approx(U_OPT_PRE, abs=1e-9)


def test_optimal_run_water_fills_once_per_demand_regime(tmp_path, monkeypatch):
    demands_a, demands_b = [1.0, 1.0, 0.1], [0.5, 1.5, 0.1]
    env = replace(default_analytic_config(), demands=np.array(demands_a),
                  demand_changes={10: np.array(demands_b), 20: np.array(demands_a)})
    water_fill = slicing_mod.water_fill_optimal
    calls = []

    def counting(demands, config):
        calls.append(np.asarray(demands).tolist())
        return water_fill(demands, config)

    monkeypatch.setattr(slicing_mod, "water_fill_optimal", counting)
    config = replace(slicing_config("optimal", total_steps=30), env=env)
    path = run_experiment(config, tmp_path / "opt.jsonl")
    assert calls == [demands_a, demands_b, demands_a]
    records = load_metrics(path)
    assert len(records) == 30
    for t, r in enumerate(records, start=1):
        assert r["k"] == water_fill(env.demands_at(t), env).tolist()


def test_default_output_path_naming(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = run_experiment(slicing_config("sra", seed=5))
    assert path.name == "metrics-slicing-sra-seed5.jsonl"
    assert path.exists()


def test_td3_run_schema_and_training_kicks_in(tmp_path):
    path = run_experiment(slicing_config("td3", total_steps=30), tmp_path / "td3.jsonl")
    records = load_metrics(path)
    assert len(records) == 30
    first, last = records[0], records[-1]
    assert first["critic_loss"] is None  # warm-up: buffer below batch size
    assert last["critic_loss"] is not None
    assert last["U_greedy"] is not None
    assert len(last["action"]) == 3
    total = sum(last["k"])
    assert total <= 1.5 + 1e-9


def test_td3_eval_phase_records(tmp_path):
    cfg = slicing_config("td3", total_steps=25, eval_slots=4)
    records = load_metrics(run_experiment(cfg, tmp_path / "td3e.jsonl"))
    assert len(records) == 29
    eval_records = [r for r in records if r["phase"] == "eval"]
    assert [r["step"] for r in eval_records] == [26, 27, 28, 29]
    for r in eval_records:
        assert r["critic_loss"] is None
        assert r["U_greedy"] == pytest.approx(r["U"])


def test_dqn_run_schema(tmp_path):
    path = run_experiment(mec_config("dqn", total_steps=30), tmp_path / "dqn.jsonl")
    records = load_metrics(path)
    assert len(records) == 30
    for r in records:
        assert r["policy"] == "dqn"
        assert isinstance(r["action_index"], int)
        assert r["epsilon"] == pytest.approx(0.1)
        assert len(r["L"]) == 4
        assert r["L_max"] == pytest.approx(max(r["L"]))
    assert records[-1]["loss"] is not None


def test_dqn_eval_phase_has_baselines(tmp_path):
    cfg = mec_config("dqn", total_steps=25, eval_slots=6)
    records = load_metrics(run_experiment(cfg, tmp_path / "dqne.jsonl"))
    eval_records = [r for r in records if r["phase"] == "eval"]
    assert len(eval_records) == 6
    for r in eval_records:
        assert r["loss"] is None
        assert r["L_opt"] <= r["L_max"] + 1e-12
        assert r["L_rra"] >= r["L_opt"] - 1e-12


def test_rra_and_optimal_mec_runs(tmp_path):
    rra_records = load_metrics(
        run_experiment(mec_config("rra"), tmp_path / "rra.jsonl")
    )
    opt_records = load_metrics(
        run_experiment(mec_config("optimal"), tmp_path / "opt.jsonl")
    )
    assert len(rra_records) == len(opt_records) == 20
    # Same seed, same env stream: identical arrivals slot by slot.
    for a, b in zip(rra_records, opt_records):
        assert a["arrivals"] == b["arrivals"]
        assert b["L_max"] <= a["L_max"] + 1e-12


def test_reruns_are_byte_identical(tmp_path):
    for cfg_fn, name in ((slicing_config, "td3"), (mec_config, "dqn")):
        cfg = cfg_fn(name, total_steps=25)
        p1 = run_experiment(cfg, tmp_path / f"{name}-a.jsonl")
        p2 = run_experiment(cfg, tmp_path / f"{name}-b.jsonl")
        assert p1.read_bytes() == p2.read_bytes()


def test_longer_run_extends_shorter_one(tmp_path):
    short = run_experiment(
        slicing_config("td3", total_steps=20), tmp_path / "short.jsonl"
    )
    long = run_experiment(slicing_config("td3", total_steps=40), tmp_path / "long.jsonl")
    short_lines = short.read_text().splitlines()
    long_lines = long.read_text().splitlines()
    assert long_lines[: len(short_lines)] == short_lines


def test_different_seeds_differ(tmp_path):
    p1 = run_experiment(mec_config("rra", seed=0), tmp_path / "s0.jsonl")
    p2 = run_experiment(mec_config("rra", seed=1), tmp_path / "s1.jsonl")
    assert p1.read_bytes() != p2.read_bytes()


@pytest.mark.parametrize(
    "cls,cfg_fn,policy",
    [(harness_mod._Slicing, slicing_config, "td3"), (harness_mod._Mec, mec_config, "dqn")],
)
def test_run_object_steps_are_the_metrics_file_lines(cls, cfg_fn, policy, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = cfg_fn(policy, total_steps=25, eval_slots=5)
    run = cls(cfg)
    assert list(tmp_path.iterdir()) == []  # building a run touches no file
    k = 27  # exploration, training, and two eval steps
    records = [run.step() for _ in range(k)]
    assert run.t == k and run.steps == 30
    lines = run_experiment(cfg, tmp_path / "m.jsonl").read_text().splitlines()
    assert [json.dumps(r) for r in records] == lines[:k]


# ---------------------------------------------------------------------------
# Post-processing


def test_final_window():
    series = list(range(1, 101))
    assert final_window(series) == list(range(96, 101))
    assert final_window(series, fraction=0.5) == list(range(51, 101))
    assert final_window([7.0]) == [7.0]


def test_compare_ratios(tmp_path):
    p_sra = run_experiment(slicing_config("sra"), tmp_path / "sra.jsonl")
    p_opt = run_experiment(slicing_config("optimal"), tmp_path / "opt.jsonl")
    result = compare([p_opt, p_sra])
    assert result["scenario"] == "slicing"
    assert [r["policy"] for r in result["runs"]] == ["optimal", "sra"]
    assert result["final_window_ratios"]["optimal/sra"] == pytest.approx(
        U_OPT_PRE / U_SRA_PRE, abs=1e-9
    )


def test_compare_dedupes_policy_names(tmp_path):
    p1 = run_experiment(slicing_config("sra", seed=0), tmp_path / "a.jsonl")
    p2 = run_experiment(slicing_config("sra", seed=1), tmp_path / "b.jsonl")
    result = compare([p1, p2])
    assert set(result["final_window_ratios"]) == {"sra/sra#2", "sra#2/sra"}


def test_compare_guards(tmp_path):
    p1 = run_experiment(slicing_config("sra"), tmp_path / "a.jsonl")
    with pytest.raises(ConfigError):
        compare([p1])
    p2 = run_experiment(mec_config("rra"), tmp_path / "b.jsonl")
    with pytest.raises(ConfigError):
        compare([p1, p2])


def test_plot_allocation_csv(tmp_path):
    path = run_experiment(slicing_config("sra"), tmp_path / "sra.jsonl")
    out = emit_plot_data([path], "allocation", tmp_path / "alloc.csv")
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["step", "share_1", "share_2", "share_3"]
    assert len(rows) == 21
    shares = [float(v) for v in rows[1][1:]]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_plot_scores_csv(tmp_path):
    path = run_experiment(slicing_config("optimal"), tmp_path / "opt.jsonl")
    out = emit_plot_data([path], "scores", tmp_path / "scores.csv")
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["step", "c_1", "c_2", "c_3", "U"]
    assert float(rows[1][-1]) == pytest.approx(U_OPT_PRE, abs=1e-9)


def test_plot_latency_csv(tmp_path):
    path = run_experiment(mec_config("optimal"), tmp_path / "opt.jsonl")
    out = emit_plot_data([path], "latency", tmp_path / "lat.csv")
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["slot", "L_max"]
    assert len(rows) == 21


def test_plot_empty_metrics_yields_header_only(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = emit_plot_data([empty], "allocation", tmp_path / "empty.csv")
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows == [["step"]]


def test_plot_kind_guards(tmp_path):
    path = run_experiment(slicing_config("sra"), tmp_path / "sra.jsonl")
    with pytest.raises(ConfigError):
        emit_plot_data([path], "histogram", tmp_path / "x.csv")
    with pytest.raises(ConfigError):
        emit_plot_data([path, path], "allocation", tmp_path / "x.csv")
    with pytest.raises(ConfigError):
        emit_plot_data([path], "latency", tmp_path / "x.csv")


def test_plot_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = run_experiment(slicing_config("sra"), tmp_path / "myrun.jsonl")
    out = emit_plot_data([path], "allocation")
    assert out.name == "myrun-allocation.csv"


def test_sweep_epsilon_shares_arrivals(tmp_path):
    cfg = mec_config("dqn", total_steps=40)
    result = sweep_epsilon(cfg, [0.2, 0.8], out_dir=tmp_path / "sweep")
    assert [r["epsilon"] for r in result["runs"]] == [0.2, 0.8]
    runs = [load_metrics(p) for p in result["metrics_paths"]]
    for rec_a, rec_b in zip(*runs):
        assert rec_a["arrivals"] == rec_b["arrivals"]
    assert runs[0][-1]["epsilon"] == pytest.approx(0.2)
    assert runs[1][-1]["epsilon"] == pytest.approx(0.8)
    csv_rows = list(csv.reader(Path(result["csv_path"]).read_text().splitlines()))
    assert csv_rows[0] == ["slot", "L_max_eps_0.2", "L_max_eps_0.8"]
    assert len(csv_rows) == 41


def test_sweep_epsilon_keeps_eval_slots(tmp_path):
    cfg = mec_config("dqn", total_steps=40, eval_slots=50)
    result = sweep_epsilon(cfg, [0.2, 0.8], out_dir=tmp_path / "sweep")
    for path in result["metrics_paths"]:
        phases = [r["phase"] for r in load_metrics(path)]
        assert phases == ["train"] * 40 + ["eval"] * 50
    # The summary and the CSV cover the training slots only, as without eval slots.
    plain = sweep_epsilon(mec_config("dqn", total_steps=40), [0.2, 0.8], tmp_path / "plain")
    assert result["runs"] == plain["runs"]
    assert Path(result["csv_path"]).read_bytes() == Path(plain["csv_path"]).read_bytes()


def test_sweep_epsilon_reads_each_metrics_file_once(tmp_path, monkeypatch):
    reads = []

    def counting_load(path):
        reads.append(Path(path).name)
        return load_metrics(path)

    monkeypatch.setattr(harness_mod, "load_metrics", counting_load)
    result = sweep_epsilon(mec_config("dqn", total_steps=40), [0.2, 0.8], tmp_path / "sweep")
    assert reads == [Path(p).name for p in result["metrics_paths"]]


def test_sweep_epsilon_guards(tmp_path):
    with pytest.raises(ConfigError):
        sweep_epsilon(mec_config("rra"), [0.1], out_dir=tmp_path)
    with pytest.raises(ConfigError):
        sweep_epsilon(slicing_config("td3"), [0.1], out_dir=tmp_path)
    with pytest.raises(ConfigError):
        sweep_epsilon(mec_config("dqn"), [], out_dir=tmp_path)


# ---------------------------------------------------------------------------
# Oracle report


def test_oracle_report_slicing():
    report = oracle_report(slicing_config("optimal", total_steps=None))
    assert report["scenario"] == "slicing"
    regimes = report["regimes"]
    assert [r["from_step"] for r in regimes] == [1, 4001]
    np.testing.assert_allclose(regimes[0]["optimal_k"], [0.7, 0.7, 0.1], atol=1e-6)
    np.testing.assert_allclose(regimes[1]["optimal_k"], [0.5, 0.9, 0.1], atol=1e-6)
    assert regimes[0]["optimal_utility"] == pytest.approx(U_OPT_PRE, abs=1e-9)
    assert regimes[0]["ratio"] == pytest.approx(2.0964363, abs=1e-6)
    assert regimes[1]["ratio"] == pytest.approx(1.9089729, abs=1e-6)


def test_oracle_report_mec_fixed_arrivals():
    report = oracle_report(mec_config("optimal", total_steps=None))
    assert report["scenario"] == "mec"
    assert report["slots"] == 1
    assert report["optimal_action"] == [3, 2, -2, -2]
    assert report["action_catalog_size"] == 16
    assert report["optimal_L_max_mean"] == pytest.approx(0.174667, abs=1e-6)


def test_oracle_report_mec_random_arrivals():
    cfg = ExperimentConfig(
        scenario="mec",
        policy="optimal",
        seed=0,
        env=default_mec_config(),
        agent_overrides={},
    )
    report = oracle_report(cfg, slots=5)
    assert report["slots"] == 5
    assert report["optimal_L_max_min"] <= report["optimal_L_max_mean"]
    assert report["optimal_L_max_mean"] <= report["optimal_L_max_max"]
    assert "optimal_action" not in report
