"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here; the scenario pipelines behind the command-line
interface enforce the same numbers.
"""

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.special import gammaln

import volterra_lq as vlq
from volterra_lq import build_grid, integrate_singular, product_weights
from volterra_lq.catalog import example_2_1_control, get_problem
from volterra_lq.config import RunConfig
from volterra_lq.scenarios import run_scenario

from conftest import Pipeline, rel_l2


def report(num, ok, text):
    print(f"criterion-{num:<2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


@pytest.fixture(scope="module")
def eq_pipeline():
    return Pipeline("random-smooth", seed=42, n=64)


@pytest.fixture(scope="module")
def ct_pipeline64():
    return Pipeline("cross-term", seed=7, n=64)


def test_criterion_1_control_energy(tmp_path):
    grid = build_grid(4096, 1.0, "graded", 4.5)
    u = example_2_1_control(grid.nodes)
    energy = float(grid.trapezoid_weights() @ u**2)
    reference = 1.0 / np.log(2.0)
    err = abs(energy - reference) / reference
    report(
        1,
        err <= 0.02,
        f"blow-up control energy {energy:.6f} vs 1/log(2) = {reference:.6f} "
        f"(rel err {err:.3%} <= 2%)",
    )


def test_criterion_2_blow_up_dichotomy():
    vals = {}
    for beta in (0.4, 0.75):
        seq = []
        for k in range(4):
            grid = build_grid(64 * 2**k, 1.0, "graded", 6.5)
            w = product_weights(grid, beta)
            seq.append(abs(integrate_singular(w, grid.n - 1, example_2_1_control(grid.nodes))))
        vals[beta] = seq
    growth = vals[0.4][-1] / vals[0.4][0]
    spread = (max(vals[0.75]) - min(vals[0.75])) / vals[0.75][0]
    report(
        2,
        growth >= 2.0 and spread <= 0.05,
        f"|X(T)| at beta=0.4 grows {growth:.2f}x (>= 2x) across three grid "
        f"doublings while beta=0.75 changes {spread:.2%} (<= 5%)",
    )


def test_criterion_3_resolvent_residuals():
    entry = get_problem("random-smooth", 0.75, 1.0, seed=42)
    res = []
    for n in (128, 256):
        kernel = vlq.resolvent(vlq.StateOperator(entry.problem, build_grid(n, 1.0)))
        res.append(kernel.residuals)
    ok = (
        res[0]["defining"] <= 1e-3
        and res[0]["transposed"] <= 1e-3
        and res[1]["defining"] < res[0]["defining"]
        and res[1]["transposed"] < res[0]["transposed"]
    )
    report(
        3,
        ok,
        f"resolvent identity residuals at n=128: {res[0]['defining']:.2e} / "
        f"{res[0]['transposed']:.2e} (<= 1e-3), decreasing to "
        f"{res[1]['defining']:.2e} / {res[1]['transposed']:.2e} at n=256",
    )


def test_criterion_4_constant_coefficient_series():
    beta, a = 0.75, 1.0
    entry = get_problem("constant-coeff", beta, 1.0)
    grid = build_grid(128, 1.0)
    kernel = vlq.resolvent(vlq.StateOperator(entry.problem, grid))
    h = grid.spacings[0]
    worst = 0.0
    for d in range(4, grid.n):
        dt = d * h
        exact = sum(
            np.exp(k * gammaln(beta) - gammaln(k * beta)) * a**k * dt ** (k * beta - 1)
            for k in range(1, 80)
        )
        approx = (
            kernel.singular_coeff[d, 0, 0, 0] * dt ** (beta - 1)
            + kernel.regular_part[d, 0, 0, 0]
        )
        worst = max(worst, abs(approx - exact) / abs(exact))
    report(
        4,
        worst <= 1e-6,
        f"constant-coefficient resolvent vs series oracle: rel err {worst:.2e} "
        "<= 1e-6 at all offsets >= 4h (n=128)",
    )


def test_criterion_5_three_way_equivalence(eq_pipeline):
    pipe = eq_pipeline
    Y = vlq.solve_adjoint(pipe.ops, pipe.cost, pipe.x_opt, pipe.u_opt)
    u_mp = vlq.control_from_adjoint(Y, pipe.ops, pipe.cost, pipe.x_opt)
    traj = vlq.causal_trajectories(pipe.ops, pipe.u_opt)
    u_causal = vlq.abstract_causal_control(pipe.dlq, traj)
    u_fb = vlq.feedback_control(pipe.dlq)
    d_mp = rel_l2(pipe.omega, u_mp, pipe.u_opt)
    d_causal = rel_l2(pipe.omega, u_causal, pipe.u_opt)
    d_fb = rel_l2(pipe.omega, u_fb, pipe.u_opt)
    ok = d_mp <= 1e-5 and d_causal <= 1e-8 and d_fb <= 1e-6
    report(
        5,
        ok,
        f"control characterizations vs direct solve at n=64: adjoint {d_mp:.2e} "
        f"(<= 1e-5), causal {d_causal:.2e} (<= 1e-8), feedback {d_fb:.2e} (<= 1e-6)",
    )


def test_criterion_6_cross_term_equivalence(ct_pipeline64):
    pipe = ct_pipeline64
    j_orig = vlq.evaluate_cost(pipe.ops, pipe.cost, pipe.u_opt)
    red = vlq.build_cross_term_reduction(pipe.dlq)
    v_opt = vlq.solve_open_loop(red.dlq)
    j_red = float(
        v_opt.ravel() @ red.dlq.lam @ v_opt.ravel()
        + 2.0 * red.dlq.rhs @ v_opt.ravel()
        + red.dlq.lam0
    )
    value_gap = abs(j_orig - (j_red - red.value_offset)) / (1.0 + abs(j_orig))
    v_bar = red.to_reduced_control(pipe.u_opt, pipe.x_opt)
    traj = vlq.causal_trajectories(red.dlq.ops, v_bar)
    u_general = vlq.general_causal_control(red, traj, pipe.x_opt)
    d_general = rel_l2(pipe.omega, u_general, pipe.u_opt)
    ok = d_general <= 1e-6 and value_gap <= 1e-8
    report(
        6,
        ok,
        f"cross-term problem: general causal control {d_general:.2e} (<= 1e-6), "
        f"optimal values after offset {value_gap:.2e} (<= 1e-8)",
    )


def test_criterion_7_optimality(eq_pipeline):
    pipe = eq_pipeline
    j_opt = vlq.evaluate_cost(pipe.ops, pipe.cost, pipe.u_opt)
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_grad = 0.0
    for _ in range(100):
        v = rng.normal(size=pipe.u_opt.shape)
        for eps in (1e-2, -1e-2, 1e-1, -1e-1):
            j = vlq.evaluate_cost(pipe.ops, pipe.cost, pipe.u_opt + eps * v)
            worst_gap = min(worst_gap, j - j_opt)
        eps = 1e-4
        jp = vlq.evaluate_cost(pipe.ops, pipe.cost, pipe.u_opt + eps * v)
        jm = vlq.evaluate_cost(pipe.ops, pipe.cost, pipe.u_opt - eps * v)
        vnorm = np.sqrt(np.einsum("i,ic,ic->", pipe.omega, v, v))
        worst_grad = max(worst_grad, abs(jp - jm) / (2 * eps) / vnorm)
    ok = worst_gap >= -1e-10 and worst_grad <= 1e-6
    report(
        7,
        ok,
        f"optimality over 100 seeded directions: min cost increase {worst_gap:.2e} "
        f"(>= -1e-10), central-difference gradient {worst_grad:.2e} (<= 1e-6 ||v||)",
    )


def test_criterion_8_coercivity_floor():
    worst = np.inf
    for name, seed in (
        ("zero-cost", 0),
        ("constant-coeff", 0),
        ("example-2-1", 0),
        ("random-smooth", 42),
        ("cross-term", 7),
    ):
        entry = get_problem(name, 0.75, 1.0, seed=seed)
        grid = build_grid(48, 1.0)
        ops = vlq.StateOperator(entry.problem, grid)
        dlq = vlq.assemble_quadratic_form(ops, entry.cost)
        delta = dlq.cost_samples.delta
        ratio = eigh(dlq.lam, np.diag(dlq.wu), eigvals_only=True)[0] / delta
        worst = min(worst, ratio)
        for sigma in range(grid.n):
            r = vlq.lambda_sigma(dlq, sigma)
            worst = min(worst, r.min_generalized_eigenvalue() / delta)
    report(
        8,
        worst >= 1.0 - 1e-6,
        f"smallest generalized eigenvalue of the quadratic form and all its "
        f"truncations over the catalog: {worst:.9f} x delta (>= 1 - 1e-6)",
    )


def test_criterion_9_gain_solver_hierarchy(tmp_path):
    cfg = RunConfig(
        problem="random-smooth",
        problem_seed=100,
        scenario="fredholm-methods",
        n=64,
        galerkin_dim=16,
        outdir=str(tmp_path / "fm"),
    )
    rep = run_scenario(cfg)
    checks = {c.name: c for c in rep.checks}
    hierarchy = next(c for name, c in checks.items() if "hierarchy" in name)
    monotone = next(c for name, c in checks.items() if "sweeps" in name)
    ok = hierarchy.passed and monotone.passed
    report(
        9,
        ok,
        f"gain-solver hierarchy on {hierarchy.value:.0%} of 20 trials (>= 90%), "
        f"superconvergent sweeps monotone to the round-off floor",
    )


def test_criterion_10_non_anticipation(eq_pipeline):
    pipe = eq_pipeline
    traj = vlq.causal_trajectories(pipe.ops, pipe.u_opt)
    u_causal = vlq.abstract_causal_control(pipe.dlq, traj)
    rng = np.random.default_rng(99)
    drift = 0.0
    for t in (1, pipe.grid.n // 2, pipe.grid.n - 2):
        perturbed = pipe.u_opt.copy()
        perturbed[t:] += rng.normal(size=perturbed[t:].shape)
        traj_p = vlq.causal_trajectories(pipe.ops, perturbed)
        u_p = vlq.abstract_causal_control(pipe.dlq, traj_p)
        drift = max(
            drift,
            float(np.max(np.abs(traj_p[t] - traj[t]))),
            float(np.max(np.abs(traj_p[t, -1] - traj[t, -1]))),
            float(np.max(np.abs(u_p[t] - u_causal[t]))),
        )
    report(
        10,
        drift == 0.0,
        f"future control samples change truncation trajectory, terminal "
        f"forecast and reconstructed control by exactly {drift}",
    )


def test_criterion_11_deterministic_output(tmp_path):
    runs = []
    for tag in ("a", "b"):
        cfg = RunConfig(
            problem="random-smooth",
            problem_seed=42,
            scenario="equivalence",
            n=32,
            outdir=str(tmp_path / tag),
        )
        rep = run_scenario(cfg)
        runs.append(rep)
    identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("controls.csv", "state.csv", "residuals.csv")
    )
    for tag in ("c", "d"):
        cfg = RunConfig(problem="example-2-1", scenario="example-2-1",
                        outdir=str(tmp_path / tag))
        assert run_scenario(cfg).passed  # the CLI's exit 0
    identical = identical and all(
        (tmp_path / "c" / f).read_bytes() == (tmp_path / "d" / f).read_bytes()
        for f in ("norm.csv", "example_2_1.csv", "residuals.csv")
    )
    report(11, identical, "re-running scenarios produces byte-identical CSV output")
