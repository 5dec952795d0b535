"""One round of a benchmark workload, in a fresh process.

    python3 bench/child.py <workload> <seed> <out_dir> [--trace] [--setup-only]

Builds and validates the workload's configs, then runs each part through
``run_experiment``, writing ``<out_dir>/<part>.jsonl``. The last line of
stdout is a JSON object: ``t_enter`` (``perf_counter`` when the first
``run_experiment`` is entered, the end of set-up), ``run_s`` (time inside
``run_experiment``), ``maxrss_kb`` and, with ``--trace``, the span summary.
``--setup-only`` stops at ``t_enter``. ``run.py`` starts this script with
the BLAS thread variables already set.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    traced, setup_only = "--trace" in argv, "--setup-only" in argv

    # Untraced rounds import tracing too: TD3 speed moves about 5 % with the
    # process's memory layout, so traced and untraced rounds differ only in the wrapping.
    import tracing
    import workloads
    from rlalloc import ExperimentConfig, harness

    parts = workloads.build(workload, seed)
    configs = [ExperimentConfig.from_dict(part.config) for part in parts]
    tracer = tracing.install() if traced else None
    run_experiment = harness.run_experiment
    t_enter = time.perf_counter()
    result: dict = {"t_enter": t_enter}
    if not setup_only:
        run_s = 0.0
        for part, config in zip(parts, configs):
            start = time.perf_counter()
            run_experiment(config, out_dir / f"{part.name}.jsonl")
            run_s += time.perf_counter() - start
        result["run_s"] = run_s
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["spans"] = tracer.summary()
            result["adam_params"] = tracer.params
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
