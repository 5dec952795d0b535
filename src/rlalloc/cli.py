"""Command-line front end.

Exit codes: 0 on success, 2 for configuration problems (including bad
arguments), 3 when a training loss goes non-finite and the run aborts, 4 when
writing output fails mid-run (``run`` leaves its ``.partial`` file), 130 on Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from rlalloc.exceptions import ConfigError, TrainingDiverged
from rlalloc.harness import (
    PLOT_KINDS,
    ExperimentConfig,
    _read_metrics,
    compare,
    emit_plot_data,
    final_window,
    oracle_report,
    run_experiment,
    sweep_epsilon,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlalloc",
        description="Seeded slicing/offloading experiments with closed-form baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded experiment")
    p_run.add_argument("--config", required=True, help="experiment JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="metrics output path (JSONL)")

    p_oracle = sub.add_parser("oracle", help="print closed-form/exhaustive baselines")
    p_oracle.add_argument("--config", required=True, help="experiment JSON file")

    p_cmp = sub.add_parser("compare", help="summarize metrics files side by side")
    p_cmp.add_argument("files", nargs="+", help="metrics files (JSONL)")

    p_plot = sub.add_parser("plot", help="write plot-ready CSV data")
    p_plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p_plot.add_argument("files", nargs="+", help="metrics files (JSONL)")
    p_plot.add_argument("--out", default=None, help="CSV output path")

    p_sweep = sub.add_parser("sweep-epsilon", help="rerun one config at several epsilons")
    p_sweep.add_argument("--config", required=True, help="experiment JSON file")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated epsilon values, e.g. 0.1,0.3,0.5"
    )
    p_sweep.add_argument("--out-dir", default=None, help="directory for metrics/CSV output")
    return parser


def _run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config.seed = args.seed  # run_experiment validates it
    path = run_experiment(config, args.out)
    records, _, key = _read_metrics(path)
    tail = final_window([r[key] for r in records])
    print(f"wrote {len(records)} records to {path}")
    print(f"final-window mean {key}: {float(np.mean(tail)):.6f}")
    return 0


def _oracle(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    print(json.dumps(oracle_report(config), indent=2))
    return 0


def _compare(args: argparse.Namespace) -> int:
    summary = compare(args.files)
    obj = summary["runs"][0]["objective"]
    print(f"scenario: {summary['scenario']} (objective: {obj})")
    for row in summary["runs"]:
        print(
            f"  {row['name']:<8} records={row['records']:<6} "
            f"mean={row['mean']:.6f} final_window={row['final_window_mean']:.6f} "
            f"({row['path']})"
        )
    for pair, value in summary["final_window_ratios"].items():
        print(f"  ratio {pair} = {value:.4f}")
    return 0


def _plot(args: argparse.Namespace) -> int:
    out = emit_plot_data(args.files, args.kind, args.out)
    print(f"wrote {out}")
    return 0


def _sweep(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {exc}") from exc
    summary = sweep_epsilon(config, values, args.out_dir)
    for row in summary["runs"]:
        print(
            f"epsilon={row['epsilon']}: mean L_max={row['mean_L_max']:.6f} "
            f"final_window={row['final_window_mean_L_max']:.6f}"
        )
    print(f"wrote {summary['csv_path']}")
    return 0


_HANDLERS = {
    "run": _run,
    "oracle": _oracle,
    "compare": _compare,
    "plot": _plot,
    "sweep-epsilon": _sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # paths are checked before the run; this is, say, a full disk
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
