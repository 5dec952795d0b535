"""The benchmark's layer contract: each workload runs exactly the spans it declares.

``bench/run.py --trace 1`` fails a workload whose traced spans differ from
``workloads.LAYERS_RUN``. This test checks the same contract on shortened
workloads, in a child process, because ``tracing.install`` rewraps the
program's functions and classes for the life of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Shortened copies of each workload: enough steps that every declared layer runs
# (TD3 trains from its 64th step; DQN trains, syncs its target every 100 slots,
# then grades eval slots against brute force and random routing).
SHORT = {
    "td3-slicing": {"td3": {"total_steps": 100}},
    "dqn-mec": {"dqn": {"total_steps": 600, "eval_slots": 10}},
    "baselines": {"waterfill": {"total_steps": 200}, "sra": {"total_steps": 200},
                  "mec-optimal": {"total_steps": 50}},
}

CHILD = """
import json, sys, tempfile
from pathlib import Path
import tracing, workloads
from rlalloc import ExperimentConfig, harness

workload, short = sys.argv[1], json.loads(sys.argv[2])
parts = workloads.build(workload, 1)
configs = [ExperimentConfig.from_dict(dict(p.config, **short[p.name])) for p in parts]
tracer = tracing.install()
with tempfile.TemporaryDirectory() as out:
    for part, config in zip(parts, configs):
        harness.run_experiment(config, Path(out) / f"{part.name}.jsonl")
print(json.dumps({
    "parts": [part.name for part in parts],
    "declared": sorted(workloads.LAYERS_RUN[workload]),
    "calls": {name: row["calls"] for name, row in tracer.summary().items()},
}))
"""


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_each_workload_records_calls_on_its_declared_spans_only(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, workload, json.dumps(SHORT[workload])],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["parts"] == list(SHORT[workload])  # every part is shortened
    declared, calls = set(result["declared"]), result["calls"]
    assert declared <= calls.keys()
    assert {name for name, n in calls.items() if n > 0} == declared
