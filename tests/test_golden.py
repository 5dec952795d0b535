"""The committed demo traces are an executable regression check.

Demos 02, 03, 04 and 05 are rerun in a scratch directory, and every file they
write must equal, byte for byte, its committed copy under ``demo-output/``.
Demos 01 and 06 write nothing; they are run and their printed figures checked.
Any change to the numerics, the environments, the seeding or the metrics
writer that alters a single output bit fails here. Tiny seeded runs through
the branches the demos do not reach, and the oracle report, are pinned the
same way by the sha256 of what they write. Two default-size learner runs are
repeated in child processes with BLAS on one and on two threads, and must write
the bytes of the in-process run; every digest is recomputed in a child process
whose NumPy runs without its AVX-512 loops, and must not change.

``demo-output/PLATFORM.json`` records the platform that made the committed bytes
(``python tests/test_golden.py`` rewrites it for the running one); a mismatch
prints it next to the running platform.
"""

import ctypes
import hashlib
import json
import os
import platform
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rlalloc.harness import ExperimentConfig, oracle_report, run_experiment

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "demo-output"
PLATFORM = GOLDEN / "PLATFORM.json"


def running_platform() -> dict:
    """What the committed bytes may depend on: NumPy and its SIMD dispatch, the OpenBLAS
    kernel that runs (null where the library cannot name it) and glibc, whose ``pow``
    rounds the slice scores."""
    kernel = None
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            kernel = corename().decode()
    try:
        dispatch = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # NumPy before 1.26 has no dict form
        dispatch = None
    return {"numpy": np.__version__, "numpy_dispatch": dispatch, "openblas_kernel": kernel,
            "glibc": platform.libc_ver()[1] or None}


def platforms() -> str:
    """A golden mismatch's note: the recorded platform next to the running one."""
    return (f"goldens recorded on {json.dumps(json.loads(PLATFORM.read_text()))}, "
            f"running on {json.dumps(running_platform())}")


# Demo script -> the files it writes under demo-output/.
DEMOS = {
    "02_train_slicing": [
        "slicing-td3.jsonl",
        "slicing-sra.jsonl",
        "slicing-optimal.jsonl",
        "slicing-td3-allocation.csv",
        "slicing-td3-scores.csv",
    ],
    "03_train_offloading": ["mec-dqn-small.jsonl"],
    "04_epsilon_sweep": [
        "sweep/epsilon-sweep-seed0.csv",
        "sweep/metrics-mec-dqn-eps0.1-seed0.jsonl",
        "sweep/metrics-mec-dqn-eps0.3-seed0.jsonl",
        "sweep/metrics-mec-dqn-eps0.5-seed0.jsonl",
    ],
    "05_determinism": ["det-a.jsonl", "det-b.jsonl", "det-long.jsonl"],
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_reproduces_committed_outputs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(REPO / "demos" / f"{demo}.py"), run_name="__main__")
    out = tmp_path / "demo-output"
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == sorted(DEMOS[demo])
    for name in DEMOS[demo]:
        fresh = (out / name).read_bytes()
        assert fresh == (GOLDEN / name).read_bytes(), (
            f"{name} differs from demo-output/{name}; {platforms()}")


# Demo -> lines its stdout must contain.
PRINTING_DEMOS = {
    "01_closed_form_baselines": [
        "water-filling k = [0.7, 0.7, 0.1]",
        "improvement ratio = 2.0964",
        "water-filling k = [0.5, 0.9, 0.1]",
        "improvement ratio = 1.9090",
    ],
    "06_traffic_emulation": [
        "mean utility over 60 steps: 2.0400",
        "mean utility over 60 steps: 2.3528",
        "mean utility over 60 steps: 1.9111",
    ],
}


@pytest.mark.parametrize("demo", sorted(PRINTING_DEMOS))
def test_printing_demo_shows_its_figures(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(REPO / "demos" / f"{demo}.py"), run_name="__main__")
    printed = capsys.readouterr().out
    for line in PRINTING_DEMOS[demo]:
        assert line in printed
    assert not any(tmp_path.iterdir())


# Tiny runs through the branches the demos leave out: TD3 eval slots, emulated
# TD3 and SRA (once with every slice behind, so earlier files' last video
# chunks finish in later cycles), RRA and the optimum on both MEC presets and on
# mec-seven with fast links, DQN eval slots on mec-seven, a TD3 and a DQN run whose
# replay ring wraps, and the oracle report: 19 digests. Each is the
# sha256 of the metrics file, or of the sorted-key JSON of the oracle report,
# as recorded when its output last changed.
TINY_TD3 = {
    "actor_hidden": [16],
    "critic_hidden": [16],
    "batch_size": 8,
    "exploration_steps": 20,
    "buffer_capacity": 256,
}
TINY_DQN = {
    "hidden": [16],
    "batch_size": 8,
    "exploration_steps": 20,
    "buffer_capacity": 256,
    "target_sync_period": 10,
}
# A buffer far below the run length, so the replay ring wraps more than three times.
WRAP_TD3 = {**TINY_TD3, "buffer_capacity": 32}
WRAP_DQN = {**TINY_DQN, "buffer_capacity": 32}
SHIFTED = {  # the slicing-analytic preset with its demand shift after step 30
    "total_bandwidth": 1.5,
    "k_min": [0.075, 0.075, 0.075],
    "k_max": [1.5, 1.5, 1.5],
    "ideal_scores": [0.5, 0.5, 1.0],
    "demands": [1.0, 1.0, 0.1],
    "demand_changes": {"30": [0.5, 1.5, 0.1]},
}
BACKLOGGED = {  # slicing-emulated with every slice behind: late last chunks
    "total_bandwidth": 1.5,
    "k_min": [0.075, 0.075, 0.075],
    "k_max": [1.5, 1.5, 1.5],
    "ideal_scores": [2.0, 2.0, 2.0],
    "mode": "emulated",
    "step_duration": 0.3,
    "services": [
        {"kind": "video", "file_size": 2.0, "cycle_length": 10, "chunk_count": 4},
        {"kind": "voice", "packet_size": 0.3},
        {"kind": "chat", "mean_arrivals": 4.0, "size_min": 0.05, "size_max": 0.15},
    ],
    "latency_weights": [2.0, 1.0, 1.0],
}

FAST_LINKS = {  # mec-seven with links faster than the core: offloads win and contend
    "topology": {
        "capacities": [1000.0, 1000.0, 3000.0, 1000.0, 3000.0, 1000.0, 3000.0],
        "neighbors": [[2, 3, 6], [4, 5], [0, 3, 4, 6], [0, 2, 6], [1, 2, 5], [1, 4], [0, 2, 3]],
        "link_rate": 400.0,
        "core_rate": 100.0,
        "tau": 0.1,
        "cycles_per_bit": 10.0,
    },
    "arrivals": {
        "kind": "uniform",
        "low": [8.0, 2.0, 8.0, 8.0, 2.0, 2.0, 8.0],
        "high": [30.0, 10.0, 30.0, 30.0, 10.0, 10.0, 30.0],
    },
}


def _payload(scenario, policy, env, steps=None, eval_slots=0, agent=None):
    payload = {"scenario": scenario, "policy": policy, "seed": 1, "env": env}
    if steps is not None:
        payload["total_steps"] = steps
    if eval_slots:
        payload["eval_slots"] = eval_slots
    if agent is not None:
        payload["agent"] = agent
    return payload


RUNS = {
    "slicing-td3-analytic-eval": (
        _payload("slicing", "td3", SHIFTED, 60, 15, TINY_TD3),
        "18590b4fe8b31405ecb2535f2581e997f9111af1d4c4ce7400a87435fe522533",
    ),
    "slicing-td3-analytic-wrap": (
        _payload("slicing", "td3", SHIFTED, 120, 15, WRAP_TD3),
        "79527201f466efcd21ce5c95cc60821e85758afba31671247cc399a58a039aba",
    ),
    "slicing-td3-emulated-eval": (
        _payload("slicing", "td3", "slicing-emulated", 40, 15, TINY_TD3),
        "adb9c7cc106d3439e4c97f641427a1f0ebe67ad92dbf5883e3cbe2ef2cadd10d",
    ),
    "slicing-sra-analytic": (
        _payload("slicing", "sra", SHIFTED, 40),
        "d2e79ffb34e909e841016de5b1fbe42dc6ee34aecd5a36f5e28dcf04066345a1",
    ),
    "slicing-sra-emulated": (
        _payload("slicing", "sra", "slicing-emulated", 60),
        "d6e9a177cff5a92697ffd9d125893e99a131707ca9d1ffd6c32b22032bdf11b4",
    ),
    "slicing-sra-emulated-backlog": (
        _payload("slicing", "sra", BACKLOGGED, 200),
        "3ed51f3bbfab1cb2574794dbad624c79e33efd41ed2b4083063ac652ebe8f3c6",
    ),
    "slicing-optimal-analytic": (
        _payload("slicing", "optimal", SHIFTED, 40),
        "5304e839f4f9af9866c8312bd1e26f428291a4062aec8c302e6488842f6f2c73",
    ),
    "mec-rra-seven": (
        _payload("mec", "rra", "mec-seven", 60),
        "679d2373cceb86982510842c895db9155eee1dfb49fc335ffe134bd846cc4146",
    ),
    "mec-rra-small": (
        _payload("mec", "rra", "mec-small", 60),
        "eef104d8dc4e138855891ffe11ae1c79ff9f16443ecc6222296bbc4c1944fc8a",
    ),
    "mec-rra-fast-links": (  # 48 requests rejected by contention or headroom
        _payload("mec", "rra", FAST_LINKS, 60),
        "812d8d7cec87bb90072c2795df22ec1c46e969f9f4aec4c378ef2b8882fdfd72",
    ),
    "mec-optimal-fast-links": (  # offloads in 38 of 60 slots
        _payload("mec", "optimal", FAST_LINKS, 60),
        "5bd755a92d699bdf21223c99f97a89fb5e78becc2243b661ee6bec20cbb9e09a",
    ),
    "mec-optimal-seven": (
        _payload("mec", "optimal", "mec-seven", 40),
        "5472c8ce839a2581fd196980390f3e57f872b557a7a4e642d63e42ec822073f6",
    ),
    "mec-optimal-small": (
        _payload("mec", "optimal", "mec-small", 40),
        "21fb9b9487e9a1c3b0c4fb05541c72aecf3b24f893628e109183f8f586de342f",
    ),
    "mec-dqn-seven-eval": (
        _payload("mec", "dqn", "mec-seven", 60, 15, TINY_DQN),
        "784a9dd15ba75e9a4b8c3c1621e8b5464832201fb1a02174722e330e057d364a",
    ),
    "mec-dqn-seven-wrap": (
        _payload("mec", "dqn", "mec-seven", 120, 15, WRAP_DQN),
        "c36104a30e53b7df177c9638fbfb74ae8df790fded388ca713a26235e30300fc",
    ),
    "mec-dqn-small-eval": (
        _payload("mec", "dqn", "mec-small", 60, 15, TINY_DQN),
        "1c33ac61c84d5dc021b3f8c4e9e9bfb2fa0bf1694a8df8702695480cd741b939",
    ),
}
ORACLES = {
    "oracle-slicing": (
        _payload("slicing", "optimal", SHIFTED),
        "79c09ff753671350646ff9e90595d94b6dc980cbd1c2a34ceddf11a1d0ad7cee",
    ),
    "oracle-mec-small": (
        _payload("mec", "optimal", "mec-small"),
        "c248b29bd8d517e2ffe6fc1e68cb456c71b3e4f1db241bd0e45115cdee13c1b4",
    ),
    "oracle-mec-seven": (
        _payload("mec", "optimal", "mec-seven"),
        "167af4d1749177ff2b65a16ccfac7233a4f257a75f1987540079112975e9ebf0",
    ),
}


def run_digest(payload: dict, path: Path) -> str:
    path = run_experiment(ExperimentConfig.from_dict(payload), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def oracle_digest(payload: dict) -> str:
    report = oracle_report(ExperimentConfig.from_dict(payload), slots=20)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def all_digests(out_dir: str) -> dict[str, str]:
    """Every digest of ``RUNS`` and ``ORACLES``, as the running process computes it."""
    digests = {name: run_digest(payload, Path(out_dir) / f"{name}.jsonl")
               for name, (payload, _) in RUNS.items()}
    digests.update((name, oracle_digest(payload)) for name, (payload, _) in ORACLES.items())
    return digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_tiny_run_metrics_digest(name, tmp_path):
    payload, digest = RUNS[name]
    assert run_digest(payload, tmp_path / f"{name}.jsonl") == digest, platforms()


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_report_digest(name):
    payload, digest = ORACLES[name]
    assert oracle_digest(payload) == digest, platforms()


def _child_env(**variables: str) -> dict:
    """This process's environment with ``src/`` on the path and ``variables`` set."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


# NumPy without its AVX-512 loops, as on an AVX2 machine. Where the CPU lacks them, NumPy
# only warns, so the child runs without -W error and the test runs everywhere.
AVX2_DISPATCH = "X86_V4 AVX512_ICL AVX512_SPR"
DIGESTS_CHILD = ("import json, runpy, sys; "
                 "print(json.dumps(runpy.run_path(sys.argv[1])['all_digests'](sys.argv[2])))")


def test_digests_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    child = subprocess.run([sys.executable, "-c", DIGESTS_CHILD, __file__, str(tmp_path)],
                           env=_child_env(NPY_DISABLE_CPU_FEATURES=AVX2_DISPATCH),
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    committed = {name: digest for name, (_, digest) in {**RUNS, **ORACLES}.items()}
    assert json.loads(child.stdout.splitlines()[-1]) == committed, (
        f"with NPY_DISABLE_CPU_FEATURES={AVX2_DISPATCH!r}; {platforms()}")


# Default-size networks on batch-64 GEMMs: the bits must not depend on how many
# threads BLAS runs them on.
THREADED = {
    "td3-slicing-analytic": {"scenario": "slicing", "policy": "td3", "seed": 3,
                             "env": "slicing-analytic", "total_steps": 150, "eval_slots": 5},
    "dqn-mec-seven": {"scenario": "mec", "policy": "dqn", "seed": 3, "env": "mec-seven",
                      "total_steps": 300, "eval_slots": 5, "agent": {"exploration_steps": 100}},
}
CHILD = ("import json, sys; from rlalloc.harness import ExperimentConfig, run_experiment; "
         "run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[1])), sys.argv[2])")


@pytest.mark.parametrize("name", sorted(THREADED))
def test_bits_do_not_depend_on_the_blas_thread_count(name, tmp_path):
    payload = THREADED[name]
    expected = run_experiment(ExperimentConfig.from_dict(payload), tmp_path / "in-process.jsonl")
    digest = hashlib.sha256(expected.read_bytes()).hexdigest()
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.jsonl"
        env = _child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                         MKL_NUM_THREADS=threads)
        child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(payload), str(out)],
                               env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, f"{threads} thread(s)"


if __name__ == "__main__":  # record the running platform next to the goldens it made
    PLATFORM.write_text(json.dumps(running_platform(), indent=2) + "\n")
