"""The committed demo traces are an executable regression check.

Demos 02, 03 and 05 are rerun in a scratch directory, and every file they
write must equal, byte for byte, its committed copy under ``demo-output/``.
Any change to the numerics, the environments, the seeding or the metrics
writer that alters a single output bit fails here.
"""

import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "demo-output"
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
    "05_determinism": ["det-a.jsonl", "det-b.jsonl", "det-long.jsonl"],
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_reproduces_committed_outputs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(REPO / "demos" / f"{demo}.py"), run_name="__main__")
    written = sorted(p.name for p in (tmp_path / "demo-output").iterdir())
    assert written == sorted(DEMOS[demo])
    for name in DEMOS[demo]:
        fresh = (tmp_path / "demo-output" / name).read_bytes()
        assert fresh == (GOLDEN / name).read_bytes(), f"{name} differs from demo-output/{name}"
