"""Unit tests for the bandwidth-slicing environment, scores, and baselines."""

import contextlib
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from rlalloc.slicing import (
    SCORE_EXPONENT,
    SliceConfig,
    SlicingEnv,
    default_analytic_config,
    default_emulated_config,
    map_action,
    score_analytic,
    score_emulated,
    sra,
    utility,
    water_fill_optimal,
)
from rlalloc.traffic import StepStats

# The benchmark's independent plain-Python reference, loaded by path.
_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).resolve().parents[1] / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

# Independently derived reference values for the default analytic benchmark
# (B = 1.5, floors 0.075, ideal-score costs (0.5, 0.5, 1.0)).
K_OPT_PRE = (0.7, 0.7, 0.1)
K_OPT_POST = (0.5, 0.9, 0.1)
U_OPT_PRE = 1.8250538335858812
U_SRA_PRE = 0.8705505632961239
U_OPT_POST = 2.280480519613623
U_SRA_POST = 1.1946112797876827


# ---------------------------------------------------------------------------
# Config


def test_default_config_round_trip():
    for config in (default_analytic_config(), default_emulated_config()):
        clone = SliceConfig.from_dict(config.to_dict())
        np.testing.assert_array_equal(clone.demands, config.demands)
        np.testing.assert_array_equal(clone.k_min, config.k_min)
        assert clone.mode == config.mode
        assert clone.demand_changes.keys() == config.demand_changes.keys()
        clone.validate()


def test_config_validation_catches_bad_values():
    base = default_analytic_config()
    bad = SliceConfig.from_dict(base.to_dict())
    bad.total_bandwidth = -1.0
    with pytest.raises(ValueError):
        bad.validate()
    bad = SliceConfig.from_dict(base.to_dict())
    bad.k_min = np.array([1.0, 1.0, 1.0])  # floors exceed the budget
    with pytest.raises(ValueError):
        bad.validate()
    bad = SliceConfig.from_dict(base.to_dict())
    bad.mode = "simulated"
    with pytest.raises(ValueError):
        bad.validate()


def test_demands_at_switches_after_change_step():
    config = default_analytic_config()
    np.testing.assert_allclose(config.demands_at(1), [1.0, 1.0, 0.1])
    np.testing.assert_allclose(config.demands_at(4000), [1.0, 1.0, 0.1])
    np.testing.assert_allclose(config.demands_at(4001), [0.5, 1.5, 0.1])
    np.testing.assert_allclose(config.demands_at(8000), [0.5, 1.5, 0.1])


def test_demands_at_picks_latest_change():
    config = default_analytic_config()
    config.demand_changes = {10: np.array([2.0, 2.0, 2.0]), 20: np.array([3.0, 3.0, 3.0])}
    np.testing.assert_allclose(config.demands_at(15), [2.0, 2.0, 2.0])
    np.testing.assert_allclose(config.demands_at(21), [3.0, 3.0, 3.0])


def test_demands_at_matches_a_step_by_step_reading_of_the_schedule():
    # Many shifts inserted in shuffled order; walking the steps and switching to
    # change c right after step c gives the demand in force at every step.
    rng = np.random.default_rng(11)
    config = default_analytic_config()
    steps = rng.choice(np.arange(1, 3000), size=300, replace=False)
    config.demand_changes = {int(c): rng.uniform(0.1, 2.0, size=3) for c in steps}
    current = config.demands
    for t in range(1, 3002):
        current = config.demand_changes.get(t - 1, current)
        np.testing.assert_array_equal(config.demands_at(t), current)


# ---------------------------------------------------------------------------
# Action mapping


def test_map_action_even_residual_split():
    config = default_analytic_config()
    # Equal raw actions share the residual evenly: 0.075 + (1.5 - 0.225)/3.
    k = map_action(np.array([0.5, 0.5, 0.5]), config)
    np.testing.assert_allclose(k, [0.5, 0.5, 0.5], atol=1e-12)
    # All -1 makes the share weights degenerate; fall back to an even split.
    k = map_action(np.array([-1.0, -1.0, -1.0]), config)
    np.testing.assert_allclose(k, [0.5, 0.5, 0.5], atol=1e-12)


def test_map_action_weighted_split():
    config = default_analytic_config()
    k = map_action(np.array([1.0, 0.0, -1.0]), config)
    residual = 1.5 - 0.225
    np.testing.assert_allclose(
        k, [0.075 + residual * 2 / 3, 0.075 + residual * 1 / 3, 0.075], atol=1e-12
    )


def test_map_action_respects_caps():
    config = default_analytic_config()
    config.k_max = np.array([0.4, 1.5, 1.5])
    k = map_action(np.array([1.0, -1.0, -1.0]), config)
    # Slice 0 wants the whole residual but is capped.
    assert k[0] == pytest.approx(0.4)
    assert np.all(k >= config.k_min - 1e-12)


def test_map_action_bounds_property():
    config = default_analytic_config()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a = rng.uniform(-1.0, 1.0, size=3)
        k = map_action(a, config)
        assert np.all(k >= config.k_min - 1e-9)
        assert np.all(k <= config.k_max + 1e-9)
        assert k.sum() <= config.total_bandwidth + 1e-9


def test_map_action_rejects_out_of_range():
    config = default_analytic_config()
    with pytest.raises(ValueError):
        map_action(np.array([2.0, 0.0, 0.0]), config)
    with pytest.raises(ValueError):
        map_action(np.array([0.0, 0.0]), config)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):  # NaN fails every comparison
        map_action(np.array([np.nan, 0.0, 0.0]), config)
    env = SlicingEnv(config)
    env.reset()
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        env.step(np.array([np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("mode", ["analytic", "emulated"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5], ids=["nan", "inf", "negative"])
def test_step_allocation_rejects_a_bad_entry_before_any_state_changes(mode, bad):
    config = default_analytic_config() if mode == "analytic" else default_emulated_config()
    config.demand_changes = {1: np.array([0.5, 1.5, 0.1])} if mode == "analytic" else {}
    env, fresh = SlicingEnv(config, rng=5), SlicingEnv(config, rng=5)
    env.reset(), fresh.reset()
    with pytest.raises(ValueError, match="^allocations must be non-negative and finite$"):
        env.step_allocation(np.array([0.5, bad, 0.5]))  # the first slice is valid
    # Had the step been counted, the next one would see the changed demands.
    obs, reward, _ = env.step_allocation(np.full(3, 0.5))
    fresh_obs, fresh_reward, _ = fresh.step_allocation(np.full(3, 0.5))
    assert obs.tobytes() == fresh_obs.tobytes() and reward == fresh_reward


def test_score_analytic_rejects_a_nan_allocation():
    config = default_analytic_config()
    with pytest.raises(ValueError, match="^allocations must be non-negative$"):
        score_analytic(np.array([np.nan, 0.5, 0.5]), config.demands, config.ideal_scores)


# ---------------------------------------------------------------------------
# Scores and utility


def test_score_analytic_formula():
    demands = np.array([1.0, 1.0, 0.1])
    ideal = np.array([0.5, 0.5, 1.0])
    # Fully served slice scores 1/c0; half served scores 0.5**1.1 / c0.
    s = score_analytic(np.array([1.0, 0.5, 0.1]), demands, ideal)
    np.testing.assert_allclose(s, [2.0, 0.5**SCORE_EXPONENT / 0.5, 1.0], atol=1e-12)
    # Over-provisioning does not raise the score beyond the ideal.
    s2 = score_analytic(np.array([5.0, 5.0, 5.0]), demands, ideal)
    np.testing.assert_allclose(s2, [2.0, 2.0, 1.0], atol=1e-12)


def test_score_emulated_formula():
    config = default_emulated_config()
    completed = np.array([2.0, 4.0, 1.0])
    latency = np.array([1.0, 0.5, 2.0])
    video_flag = np.array([1.0, 0.0, 0.0])
    l0 = config.latency_weights
    expected = (completed + l0 / latency) ** SCORE_EXPONENT
    expected = expected / config.ideal_scores + video_flag
    stats = [StepStats(int(r), l, int(f), 0.0, 0.0)
             for r, l, f in zip(completed, latency, video_flag)]
    s = score_emulated(stats, config)
    np.testing.assert_allclose(s, expected, atol=1e-12)


def test_scores_and_utility_equal_the_reference_bit_for_bit():
    rng = np.random.default_rng(34)
    for n in range(10_000):
        i = int(rng.integers(1, 13))  # utility multiplies any count left to right
        demands = rng.uniform(0.01, 2.0, i)
        k = rng.uniform(0.0, 2.5, i)
        if n % 3 == 1:
            k[rng.integers(i)] = 0.0
        ideal = rng.uniform(0.1, 2.0, i)
        args = (k.tolist(), demands.tolist(), ideal.tolist())
        scores = score_analytic(k, demands, ideal)
        assert [v.hex() for v in scores] == [v.hex() for v in reference.scores(*args)]
        with pytest.warns(UserWarning) if n % 3 == 1 else contextlib.nullcontext():
            assert utility(scores).hex() == reference.utility(*args).hex()


def test_utility_is_product_and_warns_on_non_positive():
    assert utility(np.array([2.0, 3.0, 0.5])) == pytest.approx(3.0)
    with pytest.warns(UserWarning):
        value = utility(np.array([2.0, 0.0, 1.0]))
    assert value == 0.0


# ---------------------------------------------------------------------------
# Baselines


def test_water_fill_reproduces_reference_allocations():
    config = default_analytic_config()
    k_pre = water_fill_optimal(np.array([1.0, 1.0, 0.1]), config)
    np.testing.assert_allclose(k_pre, K_OPT_PRE, atol=1e-6)
    k_post = water_fill_optimal(np.array([0.5, 1.5, 0.1]), config)
    np.testing.assert_allclose(k_post, K_OPT_POST, atol=1e-6)

    demands = np.array([1.0, 1.0, 0.1])
    u_opt = utility(score_analytic(k_pre, demands, config.ideal_scores))
    assert u_opt == pytest.approx(U_OPT_PRE, abs=1e-9)
    demands_post = np.array([0.5, 1.5, 0.1])
    u_post = utility(score_analytic(k_post, demands_post, config.ideal_scores))
    assert u_post == pytest.approx(U_OPT_POST, abs=1e-9)


def test_water_fill_beats_random_feasible_allocations():
    config = default_analytic_config()
    rng = np.random.default_rng(4)
    for demands in (np.array([1.0, 1.0, 0.1]), np.array([0.5, 1.5, 0.1])):
        k_star = water_fill_optimal(demands, config)
        best = utility(score_analytic(k_star, demands, config.ideal_scores))
        residual = config.total_bandwidth - config.k_min.sum()
        for _ in range(300):
            shares = rng.dirichlet(np.ones(3))
            k = np.minimum(config.k_min + residual * shares, config.k_max)
            u = utility(score_analytic(k, demands, config.ideal_scores))
            assert u <= best + 1e-9


def test_water_fill_saturates_small_demands():
    config = default_analytic_config()
    demands = np.array([0.2, 0.3, 0.1])  # clipped demands fit inside the budget
    k = water_fill_optimal(demands, config)
    np.testing.assert_allclose(k, [0.2, 0.3, 0.1], atol=1e-9)


# Five slices whose floors (0.3 on the last) and caps (0.5 on the third) bind for
# many of the demands drawn below.
FIVE_SLICES = SliceConfig(
    total_bandwidth=2.0,
    k_min=np.array([0.05, 0.1, 0.2, 0.05, 0.3]),
    k_max=np.array([0.6, 1.0, 0.5, 2.0, 0.9]),
    ideal_scores=np.ones(5),
    demands=np.ones(5),
)
# Floors that alone spend the budget.
FLOORS_SPEND_B = SliceConfig(
    total_bandwidth=1.5,
    k_min=np.full(3, 0.5),
    k_max=np.full(3, 1.5),
    ideal_scores=np.ones(3),
    demands=np.ones(3),
)


def _assert_exact_water_fill(k, demands, config):
    """Water-fill structure, and a spent budget whenever the useful tops exceed it."""
    b = config.total_bandwidth
    floor, top = config.k_min, np.clip(demands, config.k_min, config.k_max)
    assert np.all((floor <= k) & (k <= top))
    if top.sum() <= b:  # every demand saturates: the tops, the rest idle
        np.testing.assert_array_equal(k, top)
        return
    assert abs(k.sum() - b) <= 4 * np.spacing(b), k.sum() - b
    at_floor, at_top = k == floor, k == top
    level = k[~at_floor & ~at_top]  # slices strictly inside share one level nu
    assert np.all(level == level[:1])
    below = top[at_top & ~at_floor]  # a slice held at its top has top <= nu ...
    above = floor[at_floor & ~at_top]  # ... and one held at its floor has floor >= nu
    assert max([*below, *level], default=-np.inf) <= min([*above, *level], default=np.inf)


@pytest.mark.parametrize(
    "demands, config",
    [
        ([1.0, 1.0, 0.1], default_analytic_config()),
        ([0.5, 1.5, 0.1], default_analytic_config()),
        ([1.0, 1.0, 1.0], FLOORS_SPEND_B),  # the floors, which spend B
        ([1.0, 1.0, 0.01], default_analytic_config()),  # a demand below its floor
        ([0.4, 0.3, 5.0, 0.8, 0.5], FIVE_SLICES),  # a demand above its cap
        ([0.01, 0.01, 3.0, 0.01, 0.01], FIVE_SLICES),  # all saturate, at floors and a cap
    ],
)
def test_water_fill_edge_cases_are_exact(demands, config):
    demands = np.array(demands)
    k = water_fill_optimal(demands, config)
    _assert_exact_water_fill(k, demands, config)


def test_water_fill_spends_the_budget_exactly_on_seeded_demands():
    rng = np.random.default_rng(19)
    for config in (default_analytic_config(), FIVE_SLICES):
        for _ in range(1500):
            demands = rng.uniform(0.01, 2.0, config.num_slices)
            _assert_exact_water_fill(water_fill_optimal(demands, config), demands, config)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_non_finite_or_non_positive_demands_are_rejected(bad):
    config = default_analytic_config()
    demands = np.array([bad, 1.0, 0.1])
    with pytest.raises(ValueError, match="demands must be positive and finite"):
        water_fill_optimal(demands, config)
    with pytest.raises(ValueError, match="demands must be positive and finite"):
        score_analytic(np.full(3, 0.5), demands, config.ideal_scores)


def test_sra_even_split_and_reference_utilities():
    config = default_analytic_config()
    k = sra(config)
    np.testing.assert_allclose(k, [0.5, 0.5, 0.5], atol=1e-12)
    u_pre = utility(score_analytic(k, np.array([1.0, 1.0, 0.1]), config.ideal_scores))
    assert u_pre == pytest.approx(U_SRA_PRE, abs=1e-9)
    u_post = utility(score_analytic(k, np.array([0.5, 1.5, 0.1]), config.ideal_scores))
    assert u_post == pytest.approx(U_SRA_POST, abs=1e-9)


def test_reference_ratios():
    assert U_OPT_PRE / U_SRA_PRE == pytest.approx(2.0964363, abs=1e-6)
    assert U_OPT_POST / U_SRA_POST == pytest.approx(1.9089729, abs=1e-6)


# ---------------------------------------------------------------------------
# Environment


def test_env_requires_reset():
    env = SlicingEnv(default_analytic_config())
    with pytest.raises(RuntimeError):
        env.step(np.zeros(3))


def test_analytic_env_initial_observation():
    env = SlicingEnv(default_analytic_config())
    obs = env.reset()
    assert obs.shape == (9,)
    o, l, d = obs[0::3], obs[1::3], obs[2::3]
    np.testing.assert_allclose(o, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(l, 0.0)
    np.testing.assert_allclose(d, np.array([1.0, 1.0, 0.1]) / 1.5, atol=1e-12)


def test_analytic_env_step_reward_matches_utility():
    env = SlicingEnv(default_analytic_config())
    env.reset()
    obs, reward, info = env.step(np.array([0.5, 0.5, 0.5]))
    k = info["k"]
    np.testing.assert_allclose(k, [0.5, 0.5, 0.5], atol=1e-12)
    assert reward == pytest.approx(U_SRA_PRE, abs=1e-9)
    assert obs.shape == (9,)


def test_analytic_env_demand_change_is_one_based():
    config = default_analytic_config()
    config.demand_changes = {2: np.array([0.5, 1.5, 0.1])}
    env = SlicingEnv(config)
    env.reset()
    k = np.array([0.5, 0.5, 0.5])
    _, r1, info1 = env.step_allocation(k)  # step 1: old demands
    _, r2, info2 = env.step_allocation(k)  # step 2: old demands
    _, r3, info3 = env.step_allocation(k)  # step 3: new demands
    old, new = (score_analytic(k, d, config.ideal_scores)
                for d in ([1.0, 1.0, 0.1], [0.5, 1.5, 0.1]))
    assert info1["scores"] == info2["scores"] == old != new == info3["scores"]
    assert r1 == pytest.approx(r2)
    assert r3 != pytest.approx(r1)


def test_analytic_env_observation_advertises_next_demands():
    config = default_analytic_config()
    config.demand_changes = {1: np.array([0.5, 1.5, 0.1])}
    env = SlicingEnv(config)
    env.reset()
    obs, _, _ = env.step_allocation(np.array([0.5, 0.5, 0.5]))
    # After step 1 the next step uses the new demands; the observation says so.
    np.testing.assert_allclose(obs[2::3], np.array([0.5, 1.5, 0.1]) / 1.5, atol=1e-12)


def test_emulated_env_smoke():
    env = SlicingEnv(default_emulated_config(), rng=np.random.default_rng(0))
    obs = env.reset()
    assert obs.shape == (9,)
    total = 0.0
    for _ in range(30):
        obs, reward, info = env.step(np.array([0.0, 0.0, 0.0]))
        assert np.all(np.isfinite(obs))
        assert np.isfinite(reward)
        assert "stats" in info
        total += reward
    assert total != 0.0


def test_emulated_env_is_deterministic_per_seed():
    def rollout(seed):
        env = SlicingEnv(default_emulated_config(), rng=np.random.default_rng(seed))
        env.reset()
        rewards = []
        for _ in range(20):
            _, r, _ = env.step(np.array([0.2, -0.3, 0.1]))
            rewards.append(r)
        return rewards

    assert rollout(7) == rollout(7)
    assert rollout(7) != rollout(8)


def test_observation_equals_column_stack_reference():
    rng = np.random.default_rng(22)
    for config in (default_analytic_config(), default_emulated_config()):
        env = SlicingEnv(config, rng=np.random.default_rng(23))
        env.reset()
        b = config.total_bandwidth
        for t in range(1, 301):
            k = config.k_min + rng.random(3) * 0.45
            obs, _, info = env.step_allocation(k)
            if config.mode == "analytic":
                latency, demand = np.zeros(3), config.demands_at(t + 1) / b
            else:
                stats = info["stats"]
                latency = np.array([s.mean_latency for s in stats]) / config.latency_weights
                demand = np.array([s.arrived for s in stats]) / (b * config.step_duration)
            assert np.array_equal(obs, np.column_stack([k / b, latency, demand]).ravel())


# ---------------------------------------------------------------------------
# The step's scores and reward, bit for bit those of the score functions and utility


def allocations(config, rng, count):
    """Seeded splits, with entries above the demand, at the floor, and at 0.0."""
    b = config.total_bandwidth
    for n in range(count):
        k = rng.uniform(0.0, b, config.num_slices)
        if n % 4 == 1:
            k[rng.integers(config.num_slices)] = config.k_min[0]
        elif n % 4 == 2:
            k[rng.integers(config.num_slices)] = 0.0
        elif n % 4 == 3:
            k[:] = b  # above every demand
        yield k


@pytest.mark.parametrize("mode", ["analytic", "emulated"])
def test_step_scores_and_reward_equal_the_score_functions_and_utility(mode):
    if mode == "analytic":  # both demand regimes: the change falls after step 60
        config = default_analytic_config()
        config.demand_changes = {60: np.array([0.5, 1.5, 0.1])}
    else:
        config = default_emulated_config()
    env = SlicingEnv(config, rng=np.random.default_rng(31))
    env.reset()
    zeros = 0
    for t, k in enumerate(allocations(config, np.random.default_rng(32), 120), 1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, reward, info = env.step_allocation(k)
            if mode == "analytic":
                expected = score_analytic(k, config.demands_at(t), config.ideal_scores)
            else:
                expected = score_emulated(info["stats"], config)
            u = utility(expected)
        assert all(type(v) is float for v in info["scores"])
        assert [v.hex() for v in info["scores"]] == [v.hex() for v in expected]
        assert reward.hex() == u.hex()
        assert info["k"].tobytes() == k.tobytes()
        zero_score = min(expected) <= 0
        zeros += zero_score
        # The step warns as utility does: once for the step, once for the reference.
        assert len(caught) == 2 * zero_score
    if mode == "analytic":
        assert zeros > 0


@pytest.mark.parametrize("length", range(1, 11))
def test_utility_equals_np_prod_bit_for_bit(length):
    rng = np.random.default_rng(33 + length)
    for _ in range(20_000 if length < 8 else 2_000):
        c = rng.random(length) * 10.0 ** rng.uniform(-3, 3, length)
        assert utility(c).hex() == float(np.prod(c)).hex()
