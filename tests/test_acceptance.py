"""Acceptance gate: eight end-to-end criteria, one printed line each.

Each test prints ``criterion N: PASS/FAIL`` with its measured numbers (the
print bypasses pytest's capture so the lines always reach the terminal), then
asserts. Tolerances and thresholds are stated inline next to each check.
"""

import time

import numpy as np
import pytest

from rlalloc.harness import (
    ExperimentConfig,
    load_metrics,
    run_experiment,
    sweep_epsilon,
)
from rlalloc.mec import (
    action_catalog,
    default_mec_config,
    evaluate_action,
    latency_core,
    latency_local,
    latency_offload,
    small_contention_config,
)
from rlalloc.numerics import (
    adam_init,
    adam_step,
    mlp_forward,
    mlp_gradients,
    mlp_init,
    soft_update,
)
from rlalloc.slicing import (
    default_analytic_config,
    map_action,
    score_analytic,
    sra,
    utility,
    water_fill_optimal,
)

# Reference values, derived independently from the closed-form model.
K_OPT_PRE = np.array([0.7, 0.7, 0.1])
K_OPT_POST = np.array([0.5, 0.9, 0.1])
U_OPT_PRE = 1.8250538335858812
U_SRA_PRE = 0.8705505632961239
U_OPT_POST = 2.280480519613623
U_SRA_POST = 1.1946112797876827

DEMANDS_PRE = np.array([1.0, 1.0, 0.1])
DEMANDS_POST = np.array([0.5, 1.5, 0.1])


def report(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {number}: {status} — {detail}", flush=True)


# ---------------------------------------------------------------------------
# Criterion 1: the water-filling oracle reproduces the reference allocations
# to 1e-6, in under a second.


def test_criterion_1_water_filling_oracle(capsys):
    config = default_analytic_config()
    t0 = time.perf_counter()
    k_pre = water_fill_optimal(DEMANDS_PRE, config)
    k_post = water_fill_optimal(DEMANDS_POST, config)
    elapsed = time.perf_counter() - t0
    err_pre = float(np.max(np.abs(k_pre - K_OPT_PRE)))
    err_post = float(np.max(np.abs(k_post - K_OPT_POST)))
    ok = err_pre < 1e-6 and err_post < 1e-6 and elapsed < 1.0
    report(
        capsys,
        1,
        ok,
        f"allocations ({k_pre.round(6).tolist()}, {k_post.round(6).tolist()}), "
        f"max deviation {max(err_pre, err_post):.2e} (tol 1e-6), {elapsed:.3f}s (<1s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: optimal and even-split utilities in both demand regimes match
# the reference values to 1e-4, with the implied improvement ratios.


def test_criterion_2_reference_utilities(capsys):
    config = default_analytic_config()
    ideal = config.ideal_scores
    u_opt_pre = utility(score_analytic(water_fill_optimal(DEMANDS_PRE, config), DEMANDS_PRE, ideal))
    u_sra_pre = utility(score_analytic(sra(config), DEMANDS_PRE, ideal))
    u_opt_post = utility(
        score_analytic(water_fill_optimal(DEMANDS_POST, config), DEMANDS_POST, ideal)
    )
    u_sra_post = utility(score_analytic(sra(config), DEMANDS_POST, ideal))
    pairs = [
        (u_opt_pre, U_OPT_PRE),
        (u_sra_pre, U_SRA_PRE),
        (u_opt_post, U_OPT_POST),
        (u_sra_post, U_SRA_POST),
    ]
    worst = max(abs(a - b) for a, b in pairs)
    ratio_pre = u_opt_pre / u_sra_pre
    ratio_post = u_opt_post / u_sra_post
    ok = (
        worst < 1e-4
        and abs(ratio_pre - 2.0964363) < 1e-4
        and abs(ratio_post - 1.9089729) < 1e-4
    )
    report(
        capsys,
        2,
        ok,
        f"utilities pre ({u_opt_pre:.6f}, {u_sra_pre:.6f}) "
        f"post ({u_opt_post:.6f}, {u_sra_post:.6f}), worst deviation {worst:.2e} "
        f"(tol 1e-4), ratios {ratio_pre:.4f}/{ratio_post:.4f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: the slice-allocation learner, across five seeds, reaches at
# least 95% of the optimal utility before the demand change and 90% after it
# (median of per-seed window means over steps 3601-4000 and 7601-8000), always
# beats the even split, and stays within a 10-minute budget per seed.


@pytest.mark.slow
def test_criterion_3_td3_closes_on_optimal(capsys, tmp_path):
    seeds = range(5)
    pre_ratios, post_ratios, sra_below, runtimes = [], [], [], []
    for seed in seeds:
        cfg = ExperimentConfig(
            scenario="slicing",
            policy="td3",
            seed=seed,
            env=default_analytic_config(),
            agent_overrides={},
        )
        t0 = time.perf_counter()
        path = run_experiment(cfg, tmp_path / f"td3-seed{seed}.jsonl")
        runtimes.append(time.perf_counter() - t0)
        records = load_metrics(path)
        series = {r["step"]: r["U_greedy"] for r in records}
        pre = np.mean([series[t] for t in range(3601, 4001)])
        post = np.mean([series[t] for t in range(7601, 8001)])
        pre_ratios.append(pre / U_OPT_PRE)
        post_ratios.append(post / U_OPT_POST)
        sra_below.append(pre > U_SRA_PRE and post > U_SRA_POST)
    med_pre = float(np.median(pre_ratios))
    med_post = float(np.median(post_ratios))
    ok = (
        med_pre >= 0.95
        and med_post >= 0.90
        and all(sra_below)
        and max(runtimes) < 600.0
    )
    report(
        capsys,
        3,
        ok,
        f"median pre-change ratio {med_pre:.4f} (>=0.95), "
        f"median post-change ratio {med_post:.4f} (>=0.90), "
        f"even split beaten in {sum(sra_below)}/5 seeds, "
        f"max {max(runtimes):.0f}s/seed (<600s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: on a four-server instance with a catalog of at most 100 joint
# actions and fixed arrivals, the greedy offloading policy lands within 5% of
# the per-slot optimum on at least 90% of 200 evaluation slots and beats
# random routing on mean latency, in at least four of five seeds.


@pytest.mark.slow
def test_criterion_4_dqn_near_optimal_greedy(capsys, tmp_path):
    env = small_contention_config()
    catalog_size = len(action_catalog(env))
    seed_results = []
    for seed in range(5):
        cfg = ExperimentConfig(
            scenario="mec",
            policy="dqn",
            seed=seed,
            env=env,
            agent_overrides={},
            eval_slots=200,
        )
        path = run_experiment(cfg, tmp_path / f"dqn-seed{seed}.jsonl")
        eval_records = [r for r in load_metrics(path) if r["phase"] == "eval"]
        within = float(
            np.mean([r["L_max"] <= 1.05 * r["L_opt"] for r in eval_records])
        )
        mean_l = float(np.mean([r["L_max"] for r in eval_records]))
        mean_rra = float(np.mean([r["L_rra"] for r in eval_records]))
        seed_results.append(
            {"within": within, "mean": mean_l, "rra": mean_rra,
             "ok": within >= 0.90 and mean_l < mean_rra}
        )
    passing = sum(r["ok"] for r in seed_results)
    ok = catalog_size <= 100 and passing >= 4
    worst = min(seed_results, key=lambda r: r["within"])
    report(
        capsys,
        4,
        ok,
        f"catalog {catalog_size} (<=100), {passing}/5 seeds pass "
        f"(need >=4); worst seed: within-5% rate {worst['within']:.2f} (>=0.90), "
        f"mean latency {worst['mean']:.4f} vs random {worst['rra']:.4f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: more exploration during training can only hurt the training-
# window latency: the median final-window mean over five seeds is
# non-decreasing across epsilon = 0.1, 0.3, 0.5 on the seven-server topology,
# with arrivals shared across epsilon values within each seed.


@pytest.mark.slow
def test_criterion_5_epsilon_ordering(capsys, tmp_path):
    values = [0.1, 0.3, 0.5]
    finals = {eps: [] for eps in values}
    for seed in range(5):
        cfg = ExperimentConfig(
            scenario="mec",
            policy="dqn",
            seed=seed,
            env=default_mec_config(),
            agent_overrides={},
        )
        summary = sweep_epsilon(cfg, values, out_dir=tmp_path / f"sweep-{seed}")
        for row in summary["runs"]:
            finals[row["epsilon"]].append(row["final_window_mean_L_max"])
        # Shared arrivals within the seed: identical first-slot draws.
        first = [
            load_metrics(p)[0]["arrivals"] for p in summary["metrics_paths"]
        ]
        assert first[0] == first[1] == first[2]
    medians = [float(np.median(finals[eps])) for eps in values]
    ok = medians[0] <= medians[1] <= medians[2]
    report(
        capsys,
        5,
        ok,
        "median final-window L_max "
        + " <= ".join(f"{m:.5f} (eps={e})" for m, e in zip(medians, values))
        + (" holds" if ok else " violated"),
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: analytic gradients of 100 random small networks match central
# finite differences to a relative error below 1e-4, and the optimizer /
# target-blend primitives satisfy their defining algebra.


def kink_clearance(mlp, x):
    a = np.atleast_2d(np.asarray(x, dtype=float))
    clearance = np.inf
    for layer in range(mlp.n_layers - 1):
        z = a @ mlp.weights[layer].T + mlp.biases[layer]
        clearance = min(clearance, float(np.min(np.abs(z))) if z.size else np.inf)
        a = np.maximum(z, 0.0)
    return clearance


def draw_testable_instance(rng, activation):
    """A random net plus an input clear of every relu kink.

    Central differences are undefined at a kink, so nets whose dead units pin
    later pre-activations to exactly zero (possible with zero-initialized
    biases) are resampled.
    """
    while True:
        n_hidden = int(rng.integers(0, 4))
        sizes = [int(rng.integers(1, 9)) for _ in range(n_hidden + 2)]
        mlp = mlp_init(sizes, activation, rng=rng)
        batch = int(rng.integers(1, 5))
        for _ in range(50):
            x = rng.normal(size=(batch, mlp.in_dim))
            if kink_clearance(mlp, x) > 1e-3:
                return mlp, x, batch


def test_criterion_6_gradient_and_optimizer_checks(capsys):
    rng = np.random.default_rng(2024)
    step = 1e-5
    worst = 0.0
    for i in range(100):
        activation = "tanh" if i % 2 else "linear"
        mlp, x, batch = draw_testable_instance(rng, activation)
        grad_output = rng.normal(size=(batch, mlp.out_dim))
        _, cache = mlp_forward(mlp, x)
        grads = mlp_gradients(mlp, cache, grad_output)

        def loss():
            y, _ = mlp_forward(mlp, x)
            return float(np.sum(grad_output * y))

        for layer in range(mlp.n_layers):
            for arr, analytic in (
                (mlp.weights[layer], grads.weights[layer]),
                (mlp.biases[layer], grads.biases[layer]),
            ):
                flat = arr.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    up = loss()
                    flat[idx] = orig - step
                    down = loss()
                    flat[idx] = orig
                    numeric = (up - down) / (2 * step)
                    expected = analytic.ravel()[idx]
                    denom = max(abs(numeric), abs(expected), 1e-8)
                    worst = max(worst, abs(numeric - expected) / denom)
    gradients_ok = worst < 1e-4

    # Optimizer algebra: the first update is lr * g / (|g| + eps) elementwise.
    mlp = mlp_init([3, 4, 2], "linear", rng=rng)
    before = [w.copy() for w in mlp.weights]
    state = adam_init(mlp, learning_rate=0.01)
    x = rng.normal(size=(5, 3))
    _, cache = mlp_forward(mlp, x)
    grads = mlp_gradients(mlp, cache, rng.normal(size=(5, 2)))
    adam_step(mlp, grads, state)
    adam_ok = all(
        np.allclose(
            mlp.weights[l] - before[l],
            -0.01 * grads.weights[l] / (np.abs(grads.weights[l]) + 1e-8),
            rtol=1e-6,
            atol=1e-12,
        )
        for l in range(mlp.n_layers)
    )

    # Target blend: target <- (1 - tau) * target + tau * online, exactly.
    online = mlp_init([3, 4, 2], "linear", rng=rng)
    target = mlp_init([3, 4, 2], "linear", rng=rng)
    old = [w.copy() for w in target.weights]
    soft_update(target, online, 0.3)
    blend_ok = all(
        np.allclose(target.weights[l], 0.7 * old[l] + 0.3 * online.weights[l], atol=1e-15)
        for l in range(target.n_layers)
    )
    soft_update(target, online, 1.0)
    blend_ok = blend_ok and all(
        np.array_equal(t, o) for t, o in zip(target.weights, online.weights)
    )

    ok = gradients_ok and adam_ok and blend_ok
    report(
        capsys,
        6,
        ok,
        f"100 networks, worst gradient relative error {worst:.2e} (tol 1e-4); "
        f"optimizer first-step algebra {'ok' if adam_ok else 'BAD'}; "
        f"target blend algebra {'ok' if blend_ok else 'BAD'}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: safety invariants under 10,000 random draws each — the action
# mapping always lands inside the bandwidth box, and slot evaluation conserves
# work with at most one accepted offload per target.


def test_criterion_7_invariants_under_random_inputs(capsys):
    config = default_analytic_config()
    rng = np.random.default_rng(7)
    bounds_ok = True
    for i in range(10_000):
        if i == 0:
            a = np.ones(3)
        elif i == 1:
            a = -np.ones(3)
        else:
            a = rng.uniform(-1.0, 1.0, size=3)
        k = map_action(a, config)
        if not (
            np.all(k >= config.k_min - 1e-9)
            and np.all(k <= config.k_max + 1e-9)
            and k.sum() <= config.total_bandwidth + 1e-9
        ):
            bounds_ok = False
            break

    mec = default_mec_config()
    topo = mec.topology
    catalog = action_catalog(mec)
    slot_cap = topo.slot_capacity()
    conservation_ok = True
    single_ok = True
    for _ in range(10_000):
        sizes = mec.arrivals.draw(rng)
        choices = catalog[rng.integers(0, len(catalog))]
        out = evaluate_action(topo, sizes, choices)
        if len(set(out.accepted.values())) != len(out.accepted):
            single_ok = False
            break
        local = np.minimum(sizes, slot_cap)
        if not np.allclose(local + out.overflow, sizes, atol=1e-12):
            conservation_ok = False
            break
        for i in range(topo.num_servers):
            eff = out.effective[i]
            if out.overflow[i] == 0.0:
                expected = latency_local(local[i], topo.capacities[i], topo.cycles_per_bit)
            elif eff == -1:
                expected = latency_core(out.overflow[i], topo.tau, topo.core_rate)
            else:
                expected = latency_offload(
                    out.overflow[i],
                    topo.tau,
                    topo.link_rates[i, eff],
                    topo.capacities[eff],
                    topo.cycles_per_bit,
                )
            if abs(out.latencies[i] - expected) > 1e-12:
                conservation_ok = False
                break
        if not conservation_ok:
            break

    ok = bounds_ok and conservation_ok and single_ok
    report(
        capsys,
        7,
        ok,
        f"10k action mappings in bounds: {bounds_ok}; 10k slots conserve work "
        f"and route as chosen: {conservation_ok}; one acceptance per target: {single_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: the same config and seed produce byte-identical metrics files.


def test_criterion_8_byte_identical_reruns(capsys, tmp_path):
    slicing_cfg = ExperimentConfig(
        scenario="slicing",
        policy="td3",
        seed=0,
        env=default_analytic_config(),
        agent_overrides={},
        total_steps=300,
    )
    mec_cfg = ExperimentConfig(
        scenario="mec",
        policy="dqn",
        seed=0,
        env=default_mec_config(),
        agent_overrides={},
        total_steps=600,
    )
    results = {}
    for name, cfg in (("slicing", slicing_cfg), ("mec", mec_cfg)):
        p1 = run_experiment(cfg, tmp_path / f"{name}-first.jsonl")
        p2 = run_experiment(cfg, tmp_path / f"{name}-second.jsonl")
        results[name] = p1.read_bytes() == p2.read_bytes()
    ok = all(results.values())
    report(
        capsys,
        8,
        ok,
        f"rerun equality — slicing: {results['slicing']}, offloading: {results['mec']}",
    )
    assert ok
