"""End-to-end tests for the command-line interface."""

import csv
import importlib.metadata
import json
import subprocess
import sys
from pathlib import Path

import pytest

import rlalloc.cli as cli
from rlalloc.exceptions import TrainingDiverged
from rlalloc.harness import load_metrics


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


def test_plot_subcommand(sra_config, tmp_path, capsys):
    metrics = tmp_path / "m.jsonl"
    cli.main(["run", "--config", str(sra_config), "--out", str(metrics)])
    out = tmp_path / "alloc.csv"
    assert cli.main(["plot", "--kind", "allocation", str(metrics), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader(out.open()))
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
