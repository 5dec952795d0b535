"""End-to-end tests for the command-line interface."""

import csv
import errno
import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rlalloc.cli as cli
from rlalloc.exceptions import TrainingDiverged
from rlalloc.harness import load_metrics
from rlalloc.mec import default_mec_config, small_contention_config
from rlalloc.slicing import SlicingEnv, default_analytic_config, default_emulated_config
from rlalloc.td3 import Td3Agent


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def sra_config(tmp_path):
    return write_config(
        tmp_path,
        "sra.json",
        {"scenario": "slicing", "policy": "sra", "env": "slicing-analytic",
         "seed": 0, "total_steps": 20},
    )


@pytest.fixture
def dqn_config(tmp_path):
    return write_config(
        tmp_path,
        "dqn.json",
        {
            "scenario": "mec",
            "policy": "dqn",
            "env": "mec-small",
            "seed": 0,
            "total_steps": 30,
            "agent": {
                "hidden": [8],
                "batch_size": 4,
                "exploration_steps": 5,
                "buffer_capacity": 64,
                "target_sync_period": 10,
            },
        },
    )


def test_run_subcommand(sra_config, tmp_path, capsys):
    out = tmp_path / "metrics.jsonl"
    assert cli.main(["run", "--config", str(sra_config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "wrote 20 records" in stdout
    assert "final-window mean U" in stdout
    assert len(load_metrics(out)) == 20


def test_run_seed_override(sra_config, tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert cli.main(["run", "--config", str(sra_config), "--out", str(out1)]) == 0
    assert (
        cli.main(
            ["run", "--config", str(sra_config), "--seed", "0", "--out", str(out2)]
        )
        == 0
    )
    capsys.readouterr()
    # Seed 0 override matches the config's own seed 0 byte for byte.
    assert out1.read_bytes() == out2.read_bytes()


def test_run_bad_config_exits_2(tmp_path, capsys):
    bad = write_config(
        tmp_path, "bad.json", {"scenario": "slicing", "policy": "dqn", "env": "slicing-analytic"}
    )
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_misspelled_key_exits_2(tmp_path, capsys):
    bad = write_config(
        tmp_path,
        "typo.json",
        {"scenario": "slicing", "policy": "sra", "env": "slicing-analytic", "total_step": 3},
    )
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "m.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "total_step" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "m.jsonl").exists()


ANALYTIC_ENV = default_analytic_config().to_dict()
EMULATED_ENV = default_emulated_config().to_dict()
VIDEO, VOICE, CHAT = EMULATED_ENV["services"]
MEC_ENV = small_contention_config().to_dict()
SEVEN_ENV = default_mec_config().to_dict()
SHORTHAND = {k: v for k, v in MEC_ENV["topology"].items() if k != "link_rates"}
SHORTHAND["link_rate"] = 500.0  # mec-small links every pair at 500
UNIFORM = {"kind": "uniform", "low": [1.0] * 4, "high": [2.0] * 4}


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"scenario": "slicing", "policy": "optimal", "env": "slicing-emulated"}, "analytic"),
        (
            {"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
             "agent": {"momentum": 0.9}},
            "momentum",
        ),
        (
            {"scenario": "slicing", "policy": "sra",
             "env": dict(ANALYTIC_ENV, k_max=[0.4, 1.5, 1.5])},
            "even share",
        ),
        ({"scenario": "mec", "policy": "dqn", "env": "mec-small", "agent": {"hidden": "ab"}},
         "hidden"),
        (
            {"scenario": "slicing", "policy": "sra",
             "env": dict(ANALYTIC_ENV, demands=[float("nan"), 1.0, 0.1])},
            "demands",
        ),
        (
            {"scenario": "mec", "policy": "rra",
             "env": dict(small_contention_config().to_dict(), latency_ref=1.0)},
            "latency_ref",
        ),
        ({"scenario": "mec", "policy": "dqn", "env": "mec-small", "agent": {"hidden": 5}},
         "hidden must be a list of layer sizes, got 5"),
        ({"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
          "agent": {"actor_hidden": 5}}, "actor_hidden must be a list of layer sizes, got 5"),
        ({"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
          "agent": {"critic_hidden": 5}}, "critic_hidden must be a list of layer sizes, got 5"),
        (
            {"scenario": "slicing", "policy": "sra",
             "env": dict(ANALYTIC_ENV, demand_changes=[1, 2])},
            "demand_changes must be an object, got [1, 2]",
        ),
        *(
            ({"scenario": "mec", "policy": "dqn", "env": "mec-small", "agent": {key: value}}, key)
            for key, value in (("learning_rate", float("nan")), ("learning_rate", float("inf")),
                               ("batch_size", 2.5), ("target_sync_period", 2.5))
        ),
        *(
            ({"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
              "agent": {key: value}}, key)
            for key, value in (("critic_lr", float("inf")), ("exploration_sigma", float("nan")),
                               ("smoothing_clip", float("nan")), ("buffer_capacity", 64.5),
                               ("policy_delay", 1.5))
        ),
        *(
            ({"scenario": "slicing", "policy": "sra", "env": dict(ANALYTIC_ENV, **{key: value})},
             key)
            for key, value in (("demand_changes", {"abc": [0.3, 0.3, 0.3]}), ("k_min", "abc"),
                               ("demands", {"a": 1}))
        ),
        ({"scenario": "mec", "policy": "dqn", "env": "mec-small",
          "agent": {"learning_rate": "abc"}},
         "learning_rate must be positive and finite, got 'abc'"),
        ({"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
          "agent": {"soft_tau": "abc"}}, "soft_tau must lie in (0, 1], got 'abc'"),
        *(
            ({"scenario": "mec", "policy": "rra",
              "env": {**MEC_ENV, "topology": {**MEC_ENV["topology"], key: "abc"}}},
             f"{key} must be positive and finite, got 'abc'")
            for key in ("tau", "core_rate", "cycles_per_bit")
        ),
        *(
            ({"scenario": "slicing", "policy": "sra", "env": dict(ANALYTIC_ENV, **{key: value})},
             f"{key} must be positive, got {value!r}")
            for key, value in (("total_bandwidth", "abc"), ("total_bandwidth", True))
        ),
        *(
            ({"scenario": "slicing", "policy": "sra", "env": dict(EMULATED_ENV, services=services)},
             named)
            for services, named in (
                ([{**VIDEO, "file_size": "abc"}, VOICE, CHAT],
                 "file_size must be positive, got 'abc'"),
                ([VIDEO, {**VOICE, "packet_size": "abc"}, CHAT],
                 "packet_size must be positive, got 'abc'"),
                ([VIDEO, VOICE, {**CHAT, "size_max": "abc"}], "size_max, got (0.05, 'abc')"),
                ([VIDEO, VOICE, {**CHAT, "mean_arrivals": 1e300}],
                 "mean_arrivals must lie in [0, 1000000], got 1e+300"),
            )
        ),
        ({"scenario": "slicing", "policy": "sra", "env": dict(EMULATED_ENV, step_duration="abc")},
         "step_duration must be positive, got 'abc'"),
        *(
            ({"scenario": "mec", "policy": "rra", "env": {**MEC_ENV, part: {**base, key: value}}},
             named)
            for part, base, key, value, named in (
                ("topology", MEC_ENV["topology"], "capacities", "abc",
                 "capacities must be a list of numbers, got 'abc'"),
                ("topology", MEC_ENV["topology"], "link_rates", "abc",
                 "link_rates must be a matrix of numbers, got 'abc'"),
                ("topology", SHORTHAND, "capacities", "abc",
                 "capacities must be a list of numbers, got 'abc'"),
                ("topology", SHORTHAND, "capacities", [[1000, 1000]],
                 "capacities must be a list of numbers, got [[1000, 1000]]"),
                ("topology", SHORTHAND, "neighbors", "ab",
                 "neighbors must be lists of server ids, got 'ab'"),
                ("topology", SHORTHAND, "link_rate", "abc", "link_rate must be a number, got 'abc'"),
                ("arrivals", MEC_ENV["arrivals"], "sizes", ["a", 1, 1, 1],
                 "sizes must be a list of numbers, got ['a', 1, 1, 1]"),
                ("arrivals", UNIFORM, "low", "abc", "low must be a list of numbers, got 'abc'"),
                ("arrivals", UNIFORM, "high", [[2.0] * 4], "high must be a list of numbers"),
            )
        ),
        ({"scenario": "slicing", "policy": "sra", "env": dict(EMULATED_ENV, services="abc")},
         "services must be a list of service objects, got 'abc'"),
        ({"scenario": "slicing", "policy": "sra", "env": dict(EMULATED_ENV, services=[1, 2, 3])},
         "services must be a list of service objects, got [1, 2, 3]"),
        ({"scenario": "mec", "policy": "rra", "env": {**MEC_ENV, "arrivals": 5}},
         "arrivals must be an object, got 5"),
        ({"scenario": "mec", "policy": "rra", "env": {**MEC_ENV, "topology": [1]}},
         "topology must be an object, got [1]"),
        *(
            ({"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
              "agent": {key: value}}, f"agent.{key} needs")
            for key, value in (("critic_hidden", [10**12]), ("actor_hidden", [10**6, 10**6]),
                               ("buffer_capacity", 10**15))
        ),
        *(
            ({"scenario": "mec", "policy": "dqn", "env": "mec-small", "agent": {key: value}},
             f"agent.{key} needs")
            for key, value in (("hidden", [10**12]), ("buffer_capacity", 10**15))
        ),
        ({"scenario": "slicing", "policy": "sra",
          "env": dict(EMULATED_ENV, services=[VIDEO, VOICE, {k: v for k, v in CHAT.items()
                                                             if k != "kind"}])},
         "missing required key 'kind'"),
        *(
            ({"scenario": "mec", "policy": "rra",
              "env": {k: v for k, v in MEC_ENV.items() if k != key}},
             f"missing required key {key!r}")
            for key in ("topology", "arrivals")
        ),
        # Just above the ceiling, eval slots included: were the check gone, the run would
        # queue about 1.15 GB of chat packets, not the 9 GB of 8000 such steps.
        ({"scenario": "slicing", "policy": "td3", "total_steps": 1000, "eval_slots": 1,
          "env": dict(EMULATED_ENV, services=[VIDEO, VOICE, {**CHAT, "mean_arrivals": 1e4}])},
         "chat mean_arrivals 10000.0 over 1001 steps may queue above the ceiling of 10000000"),
        # The run length is the config's top-level total_steps alone; agent does not take one.
        ({"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
          "agent": {"total_steps": 0, "exploration_steps": 0}}, "total_steps"),
        ({"scenario": "mec", "policy": "dqn", "env": "mec-small", "total_steps": 3,
          "agent": {"total_steps": 600}}, "total_steps"),
        # Rates and sizes whose slot capacity or latency bound overflows float64.
        *(
            ({"scenario": "mec", "policy": "rra",
              "env": {**SEVEN_ENV, "topology": {**SEVEN_ENV["topology"], key: value}}}, key)
            for key, value in (("tau", 1e308), ("cycles_per_bit", 1e-308), ("core_rate", 1e-308))
        ),
        *(
            ({"scenario": "slicing", "policy": "sra",
              "env": dict(EMULATED_ENV, services=[VIDEO, {**VOICE, "kind": kind}, CHAT])},
             "kind must be one of ('video', 'voice', 'chat')")
            for kind in (["voice"], {"voice": 1}, "abc")
        ),
        ({"scenario": "slicing", "policy": "abc", "env": "slicing-analytic", "eval_slots": 5},
         "policy must be one of"),
        *(
            ({"scenario": "mec", "policy": "rra", "env": {**MEC_ENV, part: {**base, key: []}}}, key)
            for part, base, key in (("topology", MEC_ENV["topology"], "capacities"),
                                    ("topology", MEC_ENV["topology"], "neighbors"),
                                    ("arrivals", MEC_ENV["arrivals"], "sizes"))
        ),
        ({"scenario": "slicing", "policy": "sra", "env": dict(ANALYTIC_ENV, k_min=[])}, "k_min"),
        ({"scenario": "slicing", "policy": "sra", "env": dict(ANALYTIC_ENV, demands=[1e308, 1, 1])},
         "demands, k_min, k_max and ideal_scores give a utility outside (0, inf)"),
        (
            {"scenario": "slicing", "policy": "sra",
             "env": dict(ANALYTIC_ENV, k_max=[0.4, 1.5, 1.5])},
            "of total_bandwidth violates per-slice bounds k_min/k_max",
        ),
        ({"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
          "agent": {"actor_hidden": [0]}}, "agent.actor_hidden: hidden layer sizes"),
        ({"scenario": "mec", "policy": "dqn", "env": "mec-small", "agent": {"hidden": [4, 2.0]}},
         "agent.hidden: hidden layer sizes"),
        # An emulated score's latency term (w / step_duration) ** 1.1 / c0 outside (0, inf);
        # an underflow to 0 would score an idle slice, and so U, exactly 0.
        *(
            ({"scenario": "slicing", "policy": "sra", "env": dict(EMULATED_ENV, **{key: value})},
             "latency_weights, step_duration and ideal_scores give a latency term")
            for key, value in (("latency_weights", [1e308, 1.0, 1.0]),
                               ("ideal_scores", [1e-308, 2.0, 2.0]),
                               ("latency_weights", [1e-308, 1.0, 1.0]))
        ),
        # Every score positive, but their product, and so U, underflows to 0 on every step.
        ({"scenario": "slicing", "policy": "sra",
          "env": dict(EMULATED_ENV, ideal_scores=[1e200, 1e200, 1e200])},
         "latency_weights, step_duration and ideal_scores give a utility that underflows"),
    ],
    ids=["optimal-emulated", "td3-momentum", "sra-infeasible", "dqn-hidden", "nan-demand",
         "latency-ref", "dqn-hidden-int", "td3-actor-hidden-int", "td3-critic-hidden-int",
         "demand-changes-list", "dqn-lr-nan", "dqn-lr-inf", "dqn-batch-fraction",
         "dqn-sync-fraction", "td3-critic-lr-inf", "td3-sigma-nan", "td3-clip-nan",
         "td3-buffer-fraction", "td3-delay-fraction", "demand-changes-step-abc", "k-min-abc",
         "demands-object", "dqn-lr-abc", "td3-soft-tau-abc", "tau-abc", "core-rate-abc",
         "cycles-per-bit-abc", "total-bandwidth-abc", "total-bandwidth-true", "video-size-abc",
         "voice-size-abc", "chat-size-abc", "chat-arrivals-huge", "step-duration-abc",
         "capacities-abc", "link-rates-abc", "shorthand-capacities-abc",
         "shorthand-capacities-matrix", "shorthand-neighbors-abc", "link-rate-abc", "sizes-abc",
         "low-abc", "high-matrix",
         "services-string", "services-ints", "arrivals-int", "topology-list",
         "td3-critic-hidden-huge", "td3-actor-hidden-huge", "td3-buffer-huge",
         "dqn-hidden-huge", "dqn-buffer-huge", "service-without-kind", "mec-without-topology",
         "mec-without-arrivals", "chat-backlog-huge", "td3-agent-total-steps",
         "dqn-agent-total-steps", "tau-overflow", "cycles-per-bit-overflow", "core-rate-overflow",
         "kind-list", "kind-dict", "kind-abc", "policy-with-eval-slots", "capacities-empty",
         "neighbors-empty", "sizes-empty", "k-min-empty", "demand-underflow", "sra-names-keys",
         "td3-hidden-zero", "dqn-hidden-fraction", "latency-term-overflow",
         "emulated-ideal-score-underflow", "latency-term-underflow", "emulated-utility-underflow"],
)
def test_run_rejected_config_leaves_no_metrics_file(payload, named, tmp_path, capsys):
    config = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "out" / "m.jsonl"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
          "agent": {"momentum": 0.9}}, "momentum"),
        ({"scenario": "mec", "policy": "dqn", "env": "mec-small",
          "agent": {"learning_rate": float("nan")}}, "learning_rate must be positive and finite"),
        ({"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
          "agent": {"critic_hidden": [10**12]}}, "agent.critic_hidden needs"),
    ],
    ids=["td3-momentum", "dqn-lr-nan", "td3-critic-hidden-huge"],
)
def test_oracle_rejects_what_run_rejects(payload, named, tmp_path, capsys):
    config = write_config(tmp_path, "bad.json", payload)
    assert cli.main(["oracle", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "m.jsonl")]) == 2
    assert capsys.readouterr().err == captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_rejected_config_leaves_a_stale_out_untouched(tmp_path, capsys):
    config = write_config(
        tmp_path, "bad.json",
        {"scenario": "slicing", "policy": "td3", "env": "slicing-analytic",
         "agent": {"critic_hidden": [10**12]}},
    )
    out = tmp_path / "m.jsonl"
    out.write_text("stale\n")
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "agent.critic_hidden needs" in capsys.readouterr().err
    assert out.read_text() == "stale\n"
    assert not (tmp_path / "m.jsonl.partial").exists()


def test_interrupted_run_exits_130_and_keeps_whole_lines(sra_config, tmp_path, monkeypatch,
                                                         capsys):
    step_allocation = SlicingEnv.step_allocation
    calls = []

    def interrupt_on_fifth_step(self, k):
        calls.append(1)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return step_allocation(self, k)

    monkeypatch.setattr(SlicingEnv, "step_allocation", interrupt_on_fifth_step)
    out = tmp_path / "m.jsonl"
    assert cli.main(["run", "--config", str(sra_config), "--out", str(out)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not out.exists()
    lines = (tmp_path / "m.jsonl.partial").read_text().splitlines()
    assert [json.loads(line)["step"] for line in lines] == [1, 2, 3, 4]


def test_run_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_negative_seed_exits_2(sra_config, capsys):
    assert cli.main(["run", "--config", str(sra_config), "--seed", "-4"]) == 2
    capsys.readouterr()


def test_training_diverged_exits_3(sra_config, monkeypatch, capsys):
    def boom(config, out_path=None):
        raise TrainingDiverged("loss went non-finite")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["run", "--config", str(sra_config)]) == 3
    assert "training aborted" in capsys.readouterr().err


def test_diverged_run_leaves_only_partial_file(tmp_path, monkeypatch, capsys):
    train_step = Td3Agent.train_step
    calls = []

    def diverge_on_third_call(self, batch):
        calls.append(1)
        if len(calls) == 3:
            raise TrainingDiverged("critic loss is not finite: nan")
        return train_step(self, batch)

    monkeypatch.setattr(Td3Agent, "train_step", diverge_on_third_call)
    config = write_config(
        tmp_path,
        "td3.json",
        {"scenario": "slicing", "policy": "td3", "env": "slicing-analytic", "total_steps": 10,
         "agent": {"actor_hidden": [8], "critic_hidden": [8], "batch_size": 2,
                   "buffer_capacity": 16, "exploration_steps": 2}},
    )
    out = tmp_path / "m.jsonl"
    out.write_text("stale\n")
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "training aborted: critic loss is not finite: nan\n"
    assert not out.exists()
    partial = tmp_path / "m.jsonl.partial"
    text = partial.read_text()
    assert text.endswith("\n")
    # Training starts at step 2 (batch size 2), so the 3rd train call is step 4's.
    assert [json.loads(line)["step"] for line in text.splitlines()] == [1, 2, 3]


def test_failed_write_exits_4_and_leaves_partial(sra_config, tmp_path, monkeypatch, capsys):
    path_open = Path.open

    class FullDisk:
        """A records file whose third write finds the disk full."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(text)

    def open_full(self, *args, **kwargs):
        fh = path_open(self, *args, **kwargs)
        return FullDisk(fh) if self.name.endswith(".partial") else fh

    monkeypatch.setattr(Path, "open", open_full)
    out = tmp_path / "m.jsonl"
    assert cli.main(["run", "--config", str(sra_config), "--out", str(out)]) == 4
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err == f"output error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert not out.exists()
    lines = (tmp_path / "m.jsonl.partial").read_text().splitlines()
    assert [json.loads(line)["step"] for line in lines] == [1, 2]


@pytest.mark.parametrize("policy", ["sra", "td3"])
def test_non_finite_reward_exits_2_and_leaves_only_partial(policy, tmp_path, capsys):
    # Every score is about 1e102 times the preset's, so their product stays inside float64
    # until a step with enough completions: step 31 under SRA, 12 under TD3's exploration.
    payload = {"scenario": "slicing", "policy": policy, "total_steps": 40,
               "env": dict(EMULATED_ENV, ideal_scores=[5e-103] * 3)}
    if policy == "td3":  # explores throughout, so the step, not training, meets the overflow
        payload["agent"] = {"actor_hidden": [8], "critic_hidden": [8], "exploration_steps": 40,
                            "buffer_capacity": 64}
    config = write_config(tmp_path, "huge-scores.json", payload)
    out = tmp_path / "m.jsonl"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert not out.exists()
    text = (tmp_path / "m.jsonl.partial").read_text()
    assert text.endswith("\n") and "Infinity" not in text
    steps = [json.loads(line)["step"] for line in text.splitlines()]
    assert len(steps) > 1 and steps == list(range(1, len(steps) + 1))
    assert err == (f"config error: ideal_scores and latency_weights make step {len(steps) + 1}'s "
                   "reward inf\n")


def run_child(tmp_path, payload):
    """``rlalloc run`` in a child without -W error, so that a warning would reach stderr."""
    config = write_config(tmp_path, "config.json", payload)
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-m", "rlalloc.cli", "run", "--config", str(config),
         "--out", str(tmp_path / "m.jsonl")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True, text=True,
    )


def test_huge_rewards_abort_training_without_a_numpy_warning(tmp_path):
    # Rewards about 1e306: the critic loss overflows, and the run ends in exit 3 alone.
    child = run_child(tmp_path, {
        "scenario": "slicing", "policy": "td3", "total_steps": 40,
        "env": dict(EMULATED_ENV, ideal_scores=[2e-102] * 3),
        "agent": {"actor_hidden": [8], "critic_hidden": [8], "batch_size": 4,
                  "buffer_capacity": 64}})
    assert child.returncode == 3
    assert child.stderr == "training aborted: critic loss is not finite: inf\n"


@pytest.mark.parametrize("policy, agent, loss", [
    ("dqn", {"learning_rate": 1e308, "hidden": [8]}, "value"),
    ("td3", {"actor_lr": 1e308, "critic_lr": 1e308, "actor_hidden": [8], "critic_hidden": [8]},
     "critic"),
], ids=["dqn", "td3"])
def test_overflowing_forwards_abort_training_without_a_numpy_warning(policy, agent, loss,
                                                                    tmp_path):
    # The first Adam step leaves the weights finite but near +-1e308, so the next forward,
    # acting or training, overflows; the loss check reports it, and nothing else is printed.
    env = "mec-seven" if policy == "dqn" else "slicing-analytic"
    child = run_child(tmp_path, {
        "scenario": "mec" if policy == "dqn" else "slicing", "policy": policy, "env": env,
        "total_steps": 40, "agent": dict(agent, exploration_steps=10, batch_size=4)})
    assert child.returncode == 3
    assert child.stderr == f"training aborted: {loss} loss is not finite: inf\n"


def test_oracle_subcommand(sra_config, capsys):
    assert cli.main(["oracle", "--config", str(sra_config)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "slicing"
    assert len(report["regimes"]) == 2
    assert report["regimes"][0]["optimal_utility"] == pytest.approx(
        1.8250538, abs=1e-6
    )


def test_oracle_mec_subcommand(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "mec.json", {"scenario": "mec", "policy": "optimal", "env": "mec-small"}
    )
    assert cli.main(["oracle", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["optimal_action"] == [3, 2, -2, -2]


def test_compare_subcommand(sra_config, tmp_path, capsys):
    opt_cfg = write_config(
        tmp_path,
        "opt.json",
        {"scenario": "slicing", "policy": "optimal", "env": "slicing-analytic",
         "seed": 0, "total_steps": 20},
    )
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    cli.main(["run", "--config", str(opt_cfg), "--out", str(a)])
    cli.main(["run", "--config", str(sra_config), "--out", str(b)])
    capsys.readouterr()
    assert cli.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "scenario: slicing" in out
    assert "ratio optimal/sra = 2.0964" in out


def test_compare_one_file_exits_2(sra_config, tmp_path, capsys):
    out = tmp_path / "a.jsonl"
    cli.main(["run", "--config", str(sra_config), "--out", str(out)])
    capsys.readouterr()
    assert cli.main(["compare", str(out)]) == 2
    capsys.readouterr()


def test_compare_rows_use_their_deduplicated_names(sra_config, tmp_path, capsys):
    opt_cfg = write_config(
        tmp_path,
        "opt.json",
        {"scenario": "slicing", "policy": "optimal", "env": "slicing-analytic",
         "seed": 0, "total_steps": 20},
    )
    sra, opt = tmp_path / "sra.jsonl", tmp_path / "opt.jsonl"
    cli.main(["run", "--config", str(sra_config), "--out", str(sra)])
    cli.main(["run", "--config", str(opt_cfg), "--out", str(opt)])
    capsys.readouterr()
    assert cli.main(["compare", str(sra), str(opt), str(sra)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[0] for line in lines if "records=" in line] == ["sra", "optimal", "sra#2"]
    assert "  ratio sra#2/optimal = 0.4770" in lines


@pytest.fixture
def metrics_dir(sra_config, tmp_path, capsys, monkeypatch):
    """Good and bad metrics files in a scratch directory that is also the working directory."""
    rra = write_config(
        tmp_path, "rra.json", {"scenario": "mec", "policy": "rra", "env": "mec-small",
                               "total_steps": 20},
    )
    cli.main(["run", "--config", str(sra_config), "--out", str(tmp_path / "slicing.jsonl")])
    cli.main(["run", "--config", str(rra), "--out", str(tmp_path / "mec.jsonl")])
    capsys.readouterr()
    lines = (tmp_path / "slicing.jsonl").read_text().splitlines()
    (tmp_path / "cut.jsonl").write_text("\n".join(lines[:5] + [lines[5][:40]]))  # a killed run
    (tmp_path / "schema.jsonl").write_text('{"t": 1, "U": 0.5}\n')
    (tmp_path / "binary.jsonl").write_bytes(b"\xff\xfe\x00\x01\n")
    (tmp_path / "folder.jsonl").mkdir()
    (tmp_path / "empty.jsonl").write_text("")
    for name, key, value in [("null-U", "U", None), ("text-U", "U", "a"),
                             ("null-policy", "policy", None), ("text-k", "k", "zz")]:
        bad = json.dumps({**json.loads(lines[2]), key: value})
        (tmp_path / f"{name}.jsonl").write_text("\n".join(lines[:2] + [bad]) + "\n")
    mec_first = (tmp_path / "mec.jsonl").read_text().splitlines()[0]
    (tmp_path / "short-mec.jsonl").write_text(mec_first + "\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "argv, named",
    [
        (["compare", "slicing.jsonl", "missing.jsonl"], "missing.jsonl"),
        (["compare", "slicing.jsonl", "folder.jsonl"], "folder.jsonl"),
        (["compare", "slicing.jsonl", "binary.jsonl"], "binary.jsonl"),
        (["compare", "slicing.jsonl", "cut.jsonl"], "cut.jsonl, line 6"),
        (["compare", "slicing.jsonl", "schema.jsonl"], "schema.jsonl"),
        (["compare", "slicing.jsonl", "empty.jsonl"], "metrics file is empty: empty.jsonl"),
        (["plot", "--kind", "latency", "missing.jsonl"], "missing.jsonl"),
        (["plot", "--kind", "scores", "cut.jsonl"], "cut.jsonl, line 6"),
        (["plot", "--kind", "latency", "schema.jsonl"], "schema.jsonl"),
        (["plot", "--kind", "allocation", "mec.jsonl"], "mec.jsonl"),
        (["plot", "--kind", "latency", "slicing.jsonl"], "slicing.jsonl"),
        (["plot", "--kind", "epsilon-sweep", "mec.jsonl", "slicing.jsonl"], "slicing.jsonl"),
        (["compare", "slicing.jsonl", "null-U.jsonl"], "null-U.jsonl, record 3: 'U'"),
        (["compare", "slicing.jsonl", "text-U.jsonl"], "text-U.jsonl, record 3: 'U'"),
        (["compare", "slicing.jsonl", "null-policy.jsonl"],
         "null-policy.jsonl, record 3: 'policy'"),
        (["plot", "--kind", "allocation", "text-k.jsonl"], "text-k.jsonl, record 3: 'k'"),
        (["plot", "--kind", "epsilon-sweep", "mec.jsonl", "short-mec.jsonl"],
         "mec.jsonl: 20, short-mec.jsonl: 1"),
    ],
    ids=["compare-missing", "compare-directory", "compare-not-utf8", "compare-cut-line",
         "compare-unknown-schema", "compare-empty", "plot-missing", "plot-cut-line",
         "plot-unknown-schema", "allocation-of-mec", "latency-of-slicing", "sweep-of-slicing",
         "compare-null-number", "compare-text-number", "compare-null-policy",
         "allocation-text-shares", "sweep-of-unequal-runs"],
)
def test_bad_metrics_file_exits_2_and_writes_nothing(argv, named, metrics_dir, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert err.count("\n") == 1
    assert list(metrics_dir.glob("*.csv")) == []


DEEP = "[" * 100_000 + "]" * 100_000  # past the JSON reader's recursion limit


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--config", "cfgdir"], "cfgdir"),
        (["oracle", "--config", "cfgdir"], "cfgdir"),
        (["run", "--config", "binary.json"], "binary.json"),
        (["run", "--config", "deep.json"], "deep.json"),
        (["compare", "slicing.jsonl", "deep.jsonl"], "deep.jsonl, line 1"),
        (["run", "--config", "sra.json", "--out", "outdir"], "outdir"),
        (["run", "--config", "sra.json", "--out", "afile/x.jsonl"], "afile/x.jsonl"),
        (["plot", "--kind", "scores", "slicing.jsonl", "--out", "outdir"], "outdir"),
        (["plot", "--kind", "scores", "slicing.jsonl", "--out", "afile/x.csv"], "afile/x.csv"),
        (["sweep-epsilon", "--config", "dqn.json", "--values", "0.1", "--out-dir", "afile"],
         "afile"),
    ],
    ids=["run-config-directory", "oracle-config-directory", "config-not-utf8",
         "config-too-deep", "compare-metrics-too-deep", "run-out-directory",
         "run-out-under-a-file", "plot-out-directory", "plot-out-under-a-file",
         "sweep-out-dir-a-file"],
)
def test_unusable_input_or_output_path_exits_2_and_touches_nothing(argv, named, metrics_dir,
                                                                    dqn_config, capsys):
    (metrics_dir / "cfgdir").mkdir()
    (metrics_dir / "outdir").mkdir()
    (metrics_dir / "afile").write_text("")
    (metrics_dir / "binary.json").write_bytes(b"\xff\xfe")
    (metrics_dir / "deep.json").write_text(DEEP)
    (metrics_dir / "deep.jsonl").write_text(DEEP + "\n")
    listing = sorted(metrics_dir.rglob("*"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert sorted(metrics_dir.rglob("*")) == listing


def test_plot_empty_metrics_file_writes_header_only(metrics_dir, capsys):
    for kind, header in [("allocation", ["step"]), ("scores", ["step"]),
                         ("latency", ["slot", "L_max"])]:
        assert cli.main(["plot", "--kind", kind, "empty.jsonl"]) == 0
        assert list(csv.reader(Path(f"empty-{kind}.csv").read_text().splitlines())) == [header]
    capsys.readouterr()


def test_plot_subcommand(sra_config, tmp_path, capsys):
    metrics = tmp_path / "m.jsonl"
    cli.main(["run", "--config", str(sra_config), "--out", str(metrics)])
    out = tmp_path / "alloc.csv"
    assert cli.main(["plot", "--kind", "allocation", str(metrics), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["step", "share_1", "share_2", "share_3"]
    assert len(rows) == 21


def test_plot_rejects_unknown_kind(sra_config, tmp_path, capsys):
    metrics = tmp_path / "m.jsonl"
    cli.main(["run", "--config", str(sra_config), "--out", str(metrics)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["plot", "--kind", "pie", str(metrics)])
    assert exc.value.code == 2


def test_sweep_epsilon_subcommand(dqn_config, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert (
        cli.main(
            [
                "sweep-epsilon",
                "--config",
                str(dqn_config),
                "--values",
                "0.2,0.8",
                "--out-dir",
                str(out_dir),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "epsilon=0.2" in out and "epsilon=0.8" in out
    assert (out_dir / "epsilon-sweep-seed0.csv").exists()
    assert (out_dir / "metrics-mec-dqn-eps0.2-seed0.jsonl").exists()


def test_sweep_epsilon_checks_every_value_before_the_first_run(dqn_config, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    argv = ["sweep-epsilon", "--config", str(dqn_config), "--values", "0.1,1.5",
            "--out-dir", str(out_dir)]
    assert cli.main(argv) == 2
    assert "epsilon must lie in [0, 1], got 1.5" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_epsilon_rejects_a_repeated_value_before_any_run(dqn_config, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    argv = ["sweep-epsilon", "--config", str(dqn_config), "--values", "0.2,0.1,0.10,1e-1",
            "--out-dir", str(out_dir)]
    assert cli.main(argv) == 2
    assert "epsilon 0.1 is given more than once" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_epsilon_bad_values_exits_2(dqn_config, capsys):
    assert (
        cli.main(["sweep-epsilon", "--config", str(dqn_config), "--values", "a,b"]) == 2
    )
    assert "config error" in capsys.readouterr().err


def test_no_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_entry_point_is_installed(tmp_path):
    """Installing rlalloc registers an ``rlalloc`` console script for ``cli.main``.

    The suite also runs straight from ``src/`` without an install, where no
    ``rlalloc`` distribution exists to inspect. So the test has the declared
    build backend generate the package metadata from ``pyproject.toml`` into
    ``tmp_path`` and checks the console script recorded there: its target
    string, and that it loads ``rlalloc.cli.main``. When an ``rlalloc``
    distribution is installed, the environment's own ``console_scripts``
    entry is checked as well.
    """
    pytest.importorskip("setuptools")
    repo_root = Path(__file__).resolve().parents[1]
    build = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(tmp_path)],
        cwd=repo_root,
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr

    packaged = importlib.metadata.PathDistribution(tmp_path / "rlalloc.egg-info")
    scripts = packaged.entry_points.select(group="console_scripts")
    assert "rlalloc" in scripts.names
    assert scripts["rlalloc"].value == "rlalloc.cli:main"
    assert scripts["rlalloc"].load() is cli.main

    try:
        importlib.metadata.distribution("rlalloc")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = importlib.metadata.entry_points(group="console_scripts")
    assert "rlalloc" in installed.names
    assert installed["rlalloc"].value == "rlalloc.cli:main"


# 11 servers, each overflowing into the core or any of its 10 neighbors: 11**11 joint actions.
OVERSIZE_MEC = {
    "topology": {
        "capacities": [1000.0] * 11,
        "neighbors": [[j for j in range(11) if j != i] for i in range(11)],
        "link_rate": 150.0,
        "core_rate": 150.0,
        "tau": 0.1,
        "cycles_per_bit": 10.0,
    },
    "arrivals": {"kind": "fixed", "sizes": [30.0] * 11},
}


@pytest.mark.parametrize(
    "command, policy", [("run", "dqn"), ("run", "optimal"), ("oracle", "optimal")]
)
def test_oversize_joint_action_space_exits_2_before_writing(command, policy, tmp_path, capsys):
    config = write_config(tmp_path, "big.json", {"scenario": "mec", "policy": policy,
                                                 "env": OVERSIZE_MEC, "total_steps": 3})
    out = tmp_path / "m.jsonl"
    argv = [command, "--config", str(config)] + (["--out", str(out)] if command == "run" else [])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: joint action space has 285311670611 entries (> 1000000); this instance "
        "is too large to enumerate — reduce servers or neighbors\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


def test_oversize_joint_action_space_still_runs_random_routing(tmp_path, capsys):
    config = write_config(tmp_path, "big.json", {"scenario": "mec", "policy": "rra",
                                                 "env": OVERSIZE_MEC, "total_steps": 3})
    out = tmp_path / "m.jsonl"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert len(load_metrics(out)) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["compare", "slicing.jsonl", "mixed.jsonl"], "mixed.jsonl, record 21: not a slicing record"),
        (["plot", "--kind", "allocation", "mixed.jsonl"], "mixed.jsonl, record 21"),
        (["plot", "--kind", "scores", "mixed.jsonl"], "mixed.jsonl, record 21"),
        (["plot", "--kind", "latency", "mixed-mec.jsonl"], "mixed-mec.jsonl, record 21: not a mec"),
        (["plot", "--kind", "epsilon-sweep", "mec.jsonl", "mixed-mec.jsonl"], "mixed-mec.jsonl"),
    ],
    ids=["compare", "allocation", "scores", "latency", "epsilon-sweep"],
)
def test_later_record_without_its_keys_exits_2(argv, named, metrics_dir, capsys):
    for name, other, extra in [("slicing", "mixed", '{"slot": 4, "L_max": 0.2}\n'),
                               ("mec", "mixed-mec", '{"step": 4, "U": 0.2}\n')]:
        text = (metrics_dir / f"{name}.jsonl").read_text()
        (metrics_dir / f"{other}.jsonl").write_text(text + extra)
    assert cli.main(argv + ["--out", "plots/x.csv"] if argv[0] == "plot" else argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: metrics file ") and named in err
    assert err.count("\n") == 1
    assert list(metrics_dir.rglob("*.csv")) == [] and not (metrics_dir / "plots").exists()


def test_plot_out_creates_its_directory(metrics_dir, capsys):
    assert cli.main(["plot", "--kind", "scores", "slicing.jsonl", "--out", "nodir/deep/x.csv"]) == 0
    rows = list(csv.reader(Path("nodir/deep/x.csv").read_text().splitlines()))
    assert rows[0] == ["step", "c_1", "c_2", "c_3", "U"] and len(rows) == 21
    assert cli.main(["plot", "--kind", "latency", "slicing.jsonl", "--out", "other/x.csv"]) == 2
    assert not (metrics_dir / "other").exists()
    capsys.readouterr()
