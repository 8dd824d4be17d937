from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh, solve
from scipy.special import beta as beta_function

from volterra_lq import (
    AssumptionError,
    CostData,
    ProblemData,
    StateOperator,
    abstract_causal_control,
    assemble_quadratic_form,
    build_grid,
    causal_trajectories,
    control_from_adjoint,
    evaluate_cost,
    reduced_gradient,
    representation_terms,
    solve_adjoint,
    solve_open_loop,
)
from volterra_lq.catalog import get_problem

from conftest import blockdiag, rel_l2


def relation_residual(dlq, u):
    """max |R^-1 g| of the reduced gradient: the distance of u to its adjoint control."""
    g = reduced_gradient(dlq.ops, dlq.cost_samples, u)
    return float(np.max(np.abs(np.einsum("iab,ib->ia", dlq.cost_samples.R_inverses(), g))))


def test_weighted_adjoint_exact(rs_pipeline):
    pipe = rs_pipeline
    rng = np.random.default_rng(0)
    n, dx, du = pipe.grid.n, pipe.problem.n_state, pipe.problem.n_control
    wx = np.repeat(pipe.omega, dx)
    wu = np.repeat(pipe.omega, du)
    for _ in range(5):
        X = rng.normal(size=n * dx)
        u = rng.normal(size=n * du)
        lhs = X @ (wx * (pipe.theta @ u))
        rhs = ((pipe.theta.T @ (wx * X)) / wu) @ (wu * u)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
        x_term = rng.normal(size=dx)
        lhs_T = x_term @ (pipe.theta_T @ u)
        rhs_T = ((pipe.theta_T.T @ x_term) / wu) @ (wu * u)
        assert abs(lhs_T - rhs_T) <= 1e-12 * (1 + abs(lhs_T))


def test_zero_control_kernel_gives_zero_theta():
    grid = build_grid(17, 1.0)
    p = ProblemData(A=lambda t, s: np.full(np.broadcast_shapes(np.shape(t), np.shape(s)) + (1, 1), 0.4),
                    B=None, phi=None, beta=0.75, T=1.0)
    ops = StateOperator(p, grid)
    theta = ops.theta
    theta_T = theta[-ops.dx :]
    assert np.all(theta == 0.0)
    assert np.all(theta_T == 0.0)


def test_control_to_state_norm_bound(rs_pipeline):
    # ||Theta u|| <= K ||u|| with K from the kernel magnitude, the horizon
    # and the resolvent tail constant
    pipe = rs_pipeline
    ops = pipe.ops
    beta, T = pipe.problem.beta, pipe.problem.T
    norm_a = np.abs(ops.A_samples).max() * ops.dx
    norm_b = np.abs(ops.B_samples).max() * max(ops.dx, ops.du)
    from volterra_lq.volterra import _coeff_bound_series

    K_run = _coeff_bound_series(norm_a, beta, T)
    phi_coeff = norm_a + K_run * norm_a**2 * beta_function(beta, beta) * T**beta
    K = norm_b * (T**beta / beta) * (1.0 + phi_coeff * T**beta / beta)
    rng = np.random.default_rng(123)
    wx = np.repeat(pipe.omega, ops.dx)
    wu = np.repeat(pipe.omega, ops.du)
    for _ in range(100):
        u = rng.normal(size=pipe.grid.n * ops.du)
        xu = pipe.theta @ u
        assert np.sqrt(xu @ (wx * xu)) <= K * np.sqrt(u @ (wu * u))


def test_quadratic_form_degenerate_to_control_weight():
    entry = get_problem("zero-cost", 0.75, 1.0)
    grid = build_grid(24, 1.0)
    ops = StateOperator(entry.problem, grid)
    dlq = assemble_quadratic_form(ops, entry.cost)
    expected = np.repeat(grid.trapezoid_weights(), 1)[:, None] * blockdiag(
        dlq.cost_samples.R
    )
    assert np.allclose(dlq.lam, expected, rtol=1e-15, atol=0.0)
    assert np.all(dlq.ell1 == 0.0)
    assert dlq.lam0 == 0.0


def test_cost_at_zero_control_is_offset(rs_pipeline):
    pipe = rs_pipeline
    j0 = evaluate_cost(pipe.ops, pipe.cost, np.zeros_like(pipe.u_opt))
    assert abs(j0 - pipe.dlq.lam0) <= 1e-12 * (1 + abs(j0))


def test_cost_matches_quadratic_form(rs_pipeline):
    pipe = rs_pipeline
    rng = np.random.default_rng(5)
    for _ in range(4):
        u = rng.normal(size=pipe.u_opt.shape)
        jq = evaluate_cost(pipe.ops, pipe.cost, u)
        jf = float(
            u.ravel() @ pipe.dlq.lam @ u.ravel()
            + 2.0 * pipe.dlq.rhs @ u.ravel()
            + pipe.dlq.lam0
        )
        assert abs(jq - jf) <= 1e-8 * (1 + abs(jf))


def test_cost_requires_beta_above_half():
    # a terminal weight needs X(T), which an L2 control need not have at
    # beta <= 1/2.  The form, the cost, the adjoint and its control sample
    # the cost through one funnel, and each refuses the G and g of
    # random-smooth(7) at beta = 0.45; without them the cost is evaluated.
    entry = get_problem("random-smooth", 0.45, 1.0, seed=7)
    ops = StateOperator(entry.problem, build_grid(64, 1.0))
    zeros = np.zeros((64, 2))
    calls = (
        lambda: assemble_quadratic_form(ops, entry.cost),
        lambda: evaluate_cost(ops, entry.cost, zeros),
        lambda: solve_adjoint(ops, entry.cost, zeros, zeros),
        lambda: control_from_adjoint(zeros, ops, entry.cost, zeros),
    )
    reason = "in G and g needs X.*beta > 1/2; got beta = 0.45"
    for call in calls:
        with pytest.raises(AssumptionError, match=reason):
            call()
    running = replace(entry.cost, G=None, g=None)
    assert np.isfinite(evaluate_cost(ops, running, zeros))


@pytest.mark.parametrize("n", [64, 129])
@pytest.mark.parametrize("kind", ["uniform", "graded"])
@pytest.mark.parametrize("beta", [0.3, 0.4])
def test_no_terminal_weight_characterizations_agree_at_small_beta(beta, kind, n):
    # without G and g the cost never reads X(T), so every beta is an LQ
    # problem; the discrete identities hold to round-off as for beta > 1/2
    entry = get_problem("random-smooth", beta, 1.0, seed=7)
    grid = build_grid(n, 1.0, kind)
    ops = StateOperator(entry.problem, grid)
    dlq = assemble_quadratic_form(ops, replace(entry.cost, G=None, g=None))
    sc = dlq.cost_samples
    u = solve_open_loop(dlq)
    x = (ops.psi.ravel() + ops.theta @ u.ravel()).reshape(n, -1)
    controls = {
        "adjoint": control_from_adjoint(solve_adjoint(ops, sc, x, u), ops, sc, x),
        "causal": abstract_causal_control(dlq, causal_trajectories(ops, u)),
        "feedback": representation_terms(dlq, causal_trajectories(ops, u)),
    }
    for name, v in controls.items():
        assert rel_l2(grid.trapezoid_weights(), v, u) <= 1e-12, name
    assert relation_residual(dlq, u) <= 1e-12


def test_state_is_the_free_response_plus_theta_u(rs_pipeline):
    pipe = rs_pipeline
    u = np.random.default_rng(3).normal(size=pipe.u_opt.shape)
    reference = pipe.ops.psi + (pipe.theta @ u.ravel()).reshape(pipe.grid.n, -1)
    X = pipe.ops.state(u)
    assert X.shape == reference.shape
    assert np.max(np.abs(X - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_evaluate_cost_keeps_its_bits(rs_pipeline):
    # the quadrature formula of evaluate_cost, with the state solved inline
    pipe = rs_pipeline
    ops, sc = pipe.ops, pipe.dlq.cost_samples
    u = pipe.u_opt + 0.1 * np.random.default_rng(4).normal(size=pipe.u_opt.shape)
    X = ops.solve(ops.phi.ravel() + ops.WB_flat @ u.ravel()).reshape(ops.n, ops.dx)
    w = ops.omega
    running = (
        np.einsum("i,ia,ia->", w, np.einsum("iab,ib->ia", sc.Q, X), X)
        + 2.0 * np.einsum("i,ia,ia->", w, np.einsum("iab,ib->ia", sc.S, X), u)
        + np.einsum("i,ia,ia->", w, np.einsum("iab,ib->ia", sc.R, u), u)
        + 2.0 * np.einsum("i,ia,ia->", w, sc.q, X)
        + 2.0 * np.einsum("i,ia,ia->", w, sc.rho, u)
    )
    terminal = X[-1] @ sc.G @ X[-1] + 2.0 * sc.g @ X[-1]
    assert evaluate_cost(ops, pipe.cost, u) == float(running + terminal)


class TestCoercivityValidation:
    def test_rejects_small_R(self, rs_pipeline):
        pipe = rs_pipeline
        cost = CostData(Q=pipe.cost.Q, R=1e-8, delta=1.0)
        with pytest.raises(AssumptionError, match="R\\(t\\) >= delta"):
            assemble_quadratic_form(pipe.ops, cost)

    def test_rejects_indefinite_terminal_weight(self, rs_pipeline):
        pipe = rs_pipeline
        cost = CostData(R=1.0, G=-np.eye(pipe.problem.n_state))
        with pytest.raises(AssumptionError, match="G >= 0"):
            assemble_quadratic_form(pipe.ops, cost)

    def test_rejects_dominating_cross_weight(self, rs_pipeline):
        pipe = rs_pipeline
        dx, du = pipe.problem.n_state, pipe.problem.n_control
        cost = CostData(Q=None, S=np.ones((du, dx)), R=1.0)
        with pytest.raises(AssumptionError, match="S\\(t\\)"):
            assemble_quadratic_form(pipe.ops, cost)

    def test_generalized_eigenvalue_floor(self, rs_pipeline):
        pipe = rs_pipeline
        evals = eigh(pipe.dlq.lam, np.diag(pipe.dlq.wu), eigvals_only=True)
        assert evals[0] >= pipe.dlq.cost_samples.delta * (1.0 - 1e-6)


class TestOpenLoop:
    def test_zero_affine_term_gives_zero_control(self):
        entry = get_problem("zero-cost", 0.75, 1.0)
        grid = build_grid(24, 1.0)
        ops = StateOperator(entry.problem, grid)
        dlq = assemble_quadratic_form(ops, entry.cost)
        assert np.all(solve_open_loop(dlq) == 0.0)

    def test_perturbations_increase_cost(self, rs_pipeline):
        pipe = rs_pipeline
        j_opt = evaluate_cost(pipe.ops, pipe.cost, pipe.u_opt)
        rng = np.random.default_rng(17)
        for _ in range(10):
            v = rng.normal(size=pipe.u_opt.shape)
            for eps in (1e-2, -1e-2, 1e-1, -1e-1):
                j = evaluate_cost(pipe.ops, pipe.cost, pipe.u_opt + eps * v)
                assert j - j_opt >= -1e-10

    def test_central_difference_gradient_vanishes(self, rs_pipeline):
        pipe = rs_pipeline
        rng = np.random.default_rng(21)
        eps = 1e-4
        for _ in range(5):
            v = rng.normal(size=pipe.u_opt.shape)
            jp = evaluate_cost(pipe.ops, pipe.cost, pipe.u_opt + eps * v)
            jm = evaluate_cost(pipe.ops, pipe.cost, pipe.u_opt - eps * v)
            vnorm = np.sqrt(np.einsum("i,ic,ic->", pipe.omega, v, v))
            assert abs(jp - jm) / (2 * eps) <= 1e-6 * vnorm

    def test_two_factorizations_agree(self, rs_pipeline):
        pipe = rs_pipeline
        u_cho = pipe.u_opt.ravel()
        u_lu = solve(pipe.dlq.lam, -pipe.dlq.rhs, assume_a="sym")
        assert np.linalg.norm(u_cho - u_lu) <= 1e-10 * np.linalg.norm(u_cho)


class TestControlRelation:
    def test_zero_for_homogeneous_problem(self):
        entry = get_problem("zero-cost", 0.75, 1.0)
        grid = build_grid(24, 1.0)
        ops = StateOperator(entry.problem, grid)
        dlq = assemble_quadratic_form(ops, entry.cost)
        u = solve_open_loop(dlq)
        assert relation_residual(dlq, u) == 0.0

    def test_residual_small_on_random_problem(self, rs_pipeline):
        pipe = rs_pipeline
        res = relation_residual(pipe.dlq, pipe.u_opt)
        unorm = float(np.max(np.abs(pipe.u_opt)))
        assert res <= 1e-6 * (1.0 + unorm)

    def test_instantaneous_only_control(self):
        # B = 0, S = 0: the optimizer is -R^(-1) rho pointwise, residual zero
        grid = build_grid(24, 1.0)
        p = ProblemData(A=None, B=None, phi=lambda t: np.cos(t)[:, None], beta=0.75, T=1.0)
        rho = lambda t: np.stack([np.sin(t)], axis=1)  # noqa: E731
        cost = CostData(Q=1.0, R=2.0, rho=rho, G=np.eye(1))
        ops = StateOperator(p, grid)
        dlq = assemble_quadratic_form(ops, cost)
        u = solve_open_loop(dlq)
        expected = -0.5 * np.sin(grid.nodes)[:, None]
        assert np.allclose(u, expected, atol=1e-13)
        res = relation_residual(dlq, u)
        assert res <= 1e-13


@pytest.mark.parametrize("seed", [0, 7, 35289])
def test_eigenvalue_floors_match_the_per_node_loop(seed):
    # one stacked eigvalsh per floor, bit-identical to a loop over nodes
    entry = get_problem("cross-term", 0.75, 1.0, seed)
    probe = np.linspace(0.0, 1.0, 512)
    R = entry.cost.R(probe)
    assert entry.cost.delta == 0.8 * float(min(np.linalg.eigvalsh(M).min() for M in R))
    sampled = CostData(R=entry.cost.R).sample(build_grid(64, 1.0), 2, 2)
    assert sampled.delta == float(min(np.linalg.eigvalsh(M).min() for M in sampled.R))


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("G", 1.0, "terminal weight G has shape (), expected (2, 2)"),
        ("G", np.eye(3), "terminal weight G has shape (3, 3), expected (2, 2)"),
        ("g", np.ones(3), "terminal weight g has shape (3,), expected (2,)"),
        ("g", 0.5, "terminal weight g has shape (), expected (2,)"),
    ],
)
def test_terminal_weight_of_the_wrong_shape_is_named(rs_pipeline, field, value, expected):
    cost = replace(rs_pipeline.cost, **{field: value})
    assert rs_pipeline.problem.n_state == 2
    with pytest.raises(ValueError) as info:
        assemble_quadratic_form(rs_pipeline.ops, cost)
    assert str(info.value) == expected


class TestWeightedSpectrum:
    """One eigen-decomposition per assembled form, shared by its two readers."""

    @staticmethod
    def count_square_eigensolves(monkeypatch, size):
        import scipy.linalg

        calls = []
        for module, name in (
            (np.linalg, "eigvalsh"), (np.linalg, "eigh"), (np.linalg, "eigvals"),
            (np.linalg, "eig"), (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh"),
        ):
            original = getattr(module, name)

            def spy(a, *args, _original=original, **kwargs):
                if np.shape(a) == (size, size):
                    calls.append(1)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize(
        "scenario, problem, expected",
        [("equivalence", "random-smooth", 1), ("reduction", "cross-term", 2)],
    )
    def test_one_spectrum_per_assembled_form(
        self, tmp_path, monkeypatch, scenario, problem, expected
    ):
        from volterra_lq.config import RunConfig
        from volterra_lq.scenarios import run_scenario

        n = 24
        calls = self.count_square_eigensolves(monkeypatch, 2 * n)
        cfg = RunConfig(
            problem=problem, problem_seed=5, scenario=scenario, n=n, outdir=str(tmp_path)
        )
        assert run_scenario(cfg).passed
        assert len(calls) == expected

    @pytest.mark.parametrize("name, kind", [("random-smooth", "uniform"), ("cross-term", "graded")])
    def test_coercivity_ratio_equals_the_lowest_subset_eigenvalue(self, name, kind):
        from volterra_lq.scenarios import _coercivity_ratio

        entry = get_problem(name, 0.75, 1.0, 7)
        ops = StateOperator(entry.problem, build_grid(48, 1.0, kind))
        dlq = assemble_quadratic_form(ops, entry.cost)
        s = 1.0 / np.sqrt(dlq.wu)
        lowest = eigh(s[:, None] * dlq.lam * s, eigvals_only=True, subset_by_index=[0, 0])[0]
        reference = lowest / dlq.cost_samples.delta
        assert abs(_coercivity_ratio(dlq) - reference) <= 1e-13 * abs(reference)

    def test_copy_with_another_form_builds_its_own_spectrum(self, rs_pipeline):
        dlq = rs_pipeline.dlq
        scaled = replace(dlq, lam=2.0 * dlq.lam)
        assert np.allclose(scaled.weighted_eigenvalues, 2.0 * dlq.weighted_eigenvalues, rtol=1e-13)


def test_ill_conditioned_form_warns():
    grid = build_grid(16, 1.0)
    p = ProblemData(A=None, B=None, phi=None, beta=0.75, T=1.0)
    R = lambda t: (1e-10 + 1e3 * t**4)[:, None, None]  # noqa: E731
    cost = CostData(R=R, delta=1e-10)
    ops = StateOperator(p, grid)
    with pytest.warns(UserWarning, match="condition number"):
        assemble_quadratic_form(ops, cost)

def test_control_relation_with_cross_terms(ct_pipeline):
    pipe = ct_pipeline
    res = relation_residual(pipe.dlq, pipe.u_opt)
    assert res <= 1e-6 * (1.0 + float(np.max(np.abs(pipe.u_opt))))


def test_optimality_probe_reads_the_quadratic_form(rs_pipeline):
    # off the optimizer some probe lowers the cost: the form-derived
    # differences of the scenario's probe equal the quadrature differences
    # J(u + eps v) - J(u), with v drawn one trial after another
    from volterra_lq.scenarios import _optimality_gap

    pipe = rs_pipeline
    u = pipe.u_opt + 0.1 * np.random.default_rng(1).normal(size=pipe.u_opt.shape)
    j_u = evaluate_cost(pipe.ops, pipe.cost, u)
    lam, grad = pipe.dlq.lam, pipe.dlq.lam @ u.ravel() + pipe.dlq.rhs
    rng = np.random.default_rng(9)
    diffs = []
    for _ in range(5):
        v = rng.normal(size=u.shape)
        for eps in (1e-2, -1e-2, 1e-1, -1e-1):
            quad = evaluate_cost(pipe.ops, pipe.cost, u + eps * v) - j_u
            form = 2.0 * eps * grad @ v.ravel() + eps**2 * v.ravel() @ lam @ v.ravel()
            assert abs(form - quad) <= 1e-10 * abs(quad)
            diffs.append(quad)
    gap = _optimality_gap(pipe.dlq, u, np.random.default_rng(9), trials=5)
    assert min(diffs) < 0.0
    assert abs(gap - min(diffs)) <= 1e-10 * abs(min(diffs))
