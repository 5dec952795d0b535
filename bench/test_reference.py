"""Tests of the benchmark's own references and of its declared metrics.

    python3 -m pytest -q bench

The expected values are derived by hand from the model (see reference.py),
not taken from the program.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import reference as ref
import workloads

BENCH = Path(__file__).resolve().parent
CORE, NOOP = ref.CORE, ref.NOOP

FLOORS, CAPS, IDEAL = [0.075] * 3, [1.5] * 3, [0.5, 0.5, 1.0]

# mec-small: slot capacities 10, 10, 20, 30; arrivals 24, 18, 8, 6 give
# overflows 14 and 8. Server 2 has spare 200 - 80 = 120 (takes up to 12),
# server 3 has spare 300 - 60 = 240 (takes either).
MEC_SMALL = {
    "capacities": [1000.0, 1000.0, 2000.0, 3000.0],
    "neighbors": [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
    "link_rate": 500.0,
    "core_rate": 100.0,
    "tau": 0.1,
    "cycles_per_bit": 10.0,
}
SMALL_SIZES = [24.0, 18.0, 8.0, 6.0]


@pytest.mark.parametrize(
    "demands, split, utility",
    [
        ([1.0, 1.0, 0.1], [0.7, 0.7, 0.1], 1.8250538),
        ([0.5, 1.5, 0.1], [0.5, 0.9, 0.1], 2.2804805),
        ([0.2, 0.3, 0.1], [0.2, 0.3, 0.1], 4.0),  # every demand fits: the rest stays idle
        ([0.01, 2.0, 2.0], [0.075, 0.7125, 0.7125], None),  # a floor above the demand
    ],
)
def test_water_fill_matches_hand_derived_splits(demands, split, utility):
    k = ref.water_fill(demands, 1.5, FLOORS, CAPS)
    assert k == pytest.approx(split, abs=1e-12)
    if utility is not None:
        assert ref.utility(k, demands, IDEAL) == pytest.approx(utility, abs=1e-7)


def test_water_fill_beats_every_split_on_a_grid():
    demands = [0.9, 0.4, 1.3]
    best = ref.utility(ref.water_fill(demands, 1.5, FLOORS, CAPS), demands, IDEAL)
    grid = [0.075 + 0.0125 * i for i in range(109)]
    for a in grid:
        for b in grid:
            c = 1.5 - a - b
            if c >= 0.075:
                assert ref.utility([a, b, c], demands, IDEAL) <= best * (1 + 1e-12)


def test_demands_switch_after_the_change_step():
    changes = {500: [0.5, 1.5, 0.1]}
    assert ref.demands_at([1.0, 1.0, 0.1], changes, 500) == [1.0, 1.0, 0.1]
    assert ref.demands_at([1.0, 1.0, 0.1], changes, 501) == [0.5, 1.5, 0.1]


@pytest.mark.parametrize(
    "requested, effective, latencies",
    [
        # 0 -> 3 accepted: 0.1 + 14/500 + 140/3000; 1 -> 2 accepted: 0.1 + 8/500 + 80/2000.
        ([3, 2, NOOP, NOOP], [3, 2, NOOP, NOOP], [0.1 + 0.028 + 140 / 3000, 0.156, 0.04, 0.02]),
        # both ask 3: the larger overflow (server 0) wins, server 1 goes to the core.
        ([3, 3, NOOP, NOOP], [3, CORE, NOOP, NOOP], [0.1 + 0.028 + 140 / 3000, 0.18, 0.04, 0.02]),
        # 140 > 120 spare on server 2: rejected, to the core (0.1 + 14/100).
        ([2, 3, NOOP, NOOP], [CORE, 3, NOOP, NOOP], [0.24, 0.1 + 0.016 + 80 / 3000, 0.04, 0.02]),
        # a target with overflow of its own takes nothing.
        ([1, 0, NOOP, NOOP], [CORE, CORE, NOOP, NOOP], [0.24, 0.18, 0.04, 0.02]),
    ],
)
def test_slot_contention_and_latency_by_hand(requested, effective, latencies):
    got_effective, got_latencies = ref.slot(MEC_SMALL, SMALL_SIZES, requested)
    assert got_effective == effective
    assert got_latencies == pytest.approx(latencies, abs=1e-12)


def test_optimum_by_hand():
    assert ref.valid_choices(MEC_SMALL, SMALL_SIZES) == [[CORE, 1, 2, 3], [CORE, 0, 2, 3], [NOOP], [NOOP]]
    best, action = ref.optimum(MEC_SMALL, SMALL_SIZES)
    assert action == (3, 2, NOOP, NOOP)
    assert best == pytest.approx(0.1 + 0.028 + 140 / 3000, abs=1e-12)


def test_optimum_on_mec_seven_by_hand():
    # Link rate equals core rate, so shipping overflow to a neighbour only adds
    # its compute time: the core is best. Server 0 overflows by 10 (0.1 + 10/150),
    # server 3 by 2; the worst local latency is server 6's 250/3000.
    topology = workloads.MEC_SEVEN["topology"]
    sizes = [20.0, 5.0, 15.0, 12.0, 6.0, 4.0, 25.0]
    best, action = ref.optimum(topology, sizes)
    assert action == (CORE, NOOP, NOOP, CORE, NOOP, NOOP, NOOP)
    assert best == pytest.approx(0.1 + 10 / 150, abs=1e-12)


def test_demand_schedule_is_seeded():
    assert workloads.demand_schedule(3) == workloads.demand_schedule(3)
    assert workloads.demand_schedule(3) != workloads.demand_schedule(4)
    initial, changes = workloads.demand_schedule(0)
    gaps = [b - a for a, b in zip([0, *sorted(changes)], sorted(changes))]
    assert len(changes) >= 20 and min(gaps) >= 40 and max(gaps) <= 160


def test_inline_envs_mirror_the_program_presets():
    sys.path.insert(0, str(BENCH.parent / "src"))
    from rlalloc import ExperimentConfig

    def env(scenario, spec):
        return ExperimentConfig.from_dict({"scenario": scenario, "policy": "optimal" if scenario == "mec" else "sra", "env": spec}).env.to_dict()

    analytic = dict(workloads.SLICING_ANALYTIC, demands=workloads.TD3_REGIMES[0],
                    demand_changes={"4000": workloads.TD3_REGIMES[1]})
    assert env("slicing", analytic) == env("slicing", "slicing-analytic")
    assert env("slicing", workloads.SLICING_EMULATED) == env("slicing", "slicing-emulated")
    assert env("mec", workloads.MEC_SEVEN) == env("mec", "mec-seven")


def test_benchmark_json_declares_what_run_prints():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    for layers in workloads.LAYERS_RUN.values():
        assert layers <= set(run.tracing.SPAN_NAMES)
