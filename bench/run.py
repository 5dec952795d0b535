"""Benchmark of the rlalloc workbench: seeded workloads, checked outputs, metrics.

    python3 bench/run.py --workload td3-slicing --seed 0 --seconds 30 --trace 0

Run from the repository root (the program is imported from ``src/``). Each
round runs the workload once, through ``run_experiment``, in a fresh child
process (``child.py``) with one BLAS thread; rounds repeat until the time
budget is spent. With ``--trace 0`` the rounds are untraced and the last
stdout line carries the end-to-end metrics; with ``--trace 1`` untraced and
traced rounds alternate and it carries the per-layer metrics. Every round
must write the same bytes; the first is then checked against the
independent references. Exits 1 if a child fails, 2 without the program.
"""

from __future__ import annotations

import os

# Pin BLAS before NumPy loads, here and, through the environment, in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5  # extra launches per untraced run that stop where run_experiment starts
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "steps_per_s": "steps/s", "peak_rss_mb": "MB", "policy_quality": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.SPAN_NAMES:
        if name == "harness.run_experiment":
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if name in tracing.SELF_TIMED:
            units[f"{name}.self_s"] = "s"
    units.update({
        "numerics.adam_step.params": "count",
        "harness.run_experiment.s": "s",
        "harness.self_s": "s",
        "harness.bytes_written": "bytes",
        "trace.overhead_s": "s",
    })
    return units


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, out_dir: Path, *flags: str) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(out_dir), *flags]
    launched = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"child {' '.join(flags) or 'round'} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["t_enter"] - launched
    return result


def run_rounds(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> tuple[list[float], list[dict]]:
    """Set-up probes, then whole rounds while the next one fits in ``seconds``."""
    start = time.perf_counter()
    setups = [] if trace else [
        run_child(workload, seed, run_dir / "probe", "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)
    ]
    rounds_start = time.perf_counter()
    step = 2 if trace else 1  # a traced run measures untraced/traced pairs
    rounds: list[dict] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        out_dir = run_dir / f"round{len(rounds)}"
        result = run_child(workload, seed, out_dir, *(["--trace"] if traced else []))
        result.update(traced=traced, out_dir=out_dir, digest=digest(out_dir))
        rounds.append(result)
        now = time.perf_counter()
        per_round = (now - rounds_start) / len(rounds)
        if len(rounds) % step == 0 and now - start + step * per_round > seconds:
            return setups, rounds


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.jsonl")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_outputs(workload: str, seed: int, parts: list, rounds: list[dict]) -> float:
    from rlalloc import load_metrics

    first = rounds[0]
    for r in rounds[1:]:
        checks.expect(r["digest"] == first["digest"], f"round {r['out_dir'].name} wrote other bytes than round0")
    qualities = [
        checks.check(part, load_metrics(first["out_dir"] / f"{part.name}.jsonl"), seed) for part in parts
    ]
    return checks.quality(workload, qualities)


def end_to_end(setups: list[float], rounds: list[dict], steps: int, quality: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "steps_per_s": steps * len(rounds) / sum(r["run_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in rounds),
        "policy_quality": quality,
    }


def per_layer(workload: str, rounds: list[dict]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    spans = traced[0]["spans"]
    for r in traced[1:]:
        for name, row in r["spans"].items():
            checks.expect(row["calls"] == spans[name]["calls"], f"{name}: calls differ between traced rounds")
    expected = workloads.LAYERS_RUN[workload]
    for name, row in spans.items():
        runs = name in expected
        checks.expect(
            (row["calls"] > 0) == runs,
            f"{workload}: {name} recorded {row['calls']} calls, expected {'some' if runs else 'none'}",
        )
    values: dict[str, float] = {}
    for name, row in spans.items():
        values[f"{name}.calls"] = row["calls"]
        for field in ("s", "self_s"):
            values[f"{name}.{field}"] = statistics.median(r["spans"][name][field] for r in traced)
    values["numerics.adam_step.params"] = traced[0]["adam_params"]
    values["harness.self_s"] = values["harness.run_experiment.self_s"]
    values["harness.bytes_written"] = sum(p.stat().st_size for p in traced[0]["out_dir"].glob("*.jsonl"))
    values["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in traced) - statistics.median(r["run_s"] for r in plain)
    )
    return {name: values[name] for name in per_layer_units()}


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "rlalloc" / "__init__.py").is_file():
        print(f"error: the program is not there: {SRC / 'rlalloc'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    parts = workloads.build(args.workload, args.seed)
    steps = sum(part.steps for part in parts)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"{label}-{os.getpid()}"
    try:
        setups, rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        correct, problem = True, None
        try:
            quality = check_outputs(args.workload, args.seed, parts, rounds)
            plain = [r for r in rounds if not r["traced"]]
            metrics = per_layer(args.workload, rounds) if args.trace else end_to_end(setups, plain, steps, quality)
        except checks.CheckFailed as exc:
            correct, problem, metrics = False, str(exc), {}
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = per_layer_units() if args.trace else END_TO_END
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "rounds": [{k: r[k] for k in ("traced", "setup_s", "run_s", "maxrss_kb")} for r in rounds],
        "setup_probes_s": setups,
        "problem": problem,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{label}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("machine " + json.dumps(report["machine"]))
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {steps} steps, set-up probes {len(setups)}")
    if problem:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, entry in report["metrics"].items():
        print(f"  {name} {entry['value']} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": steps * len(rounds),
        "failed": 0,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
