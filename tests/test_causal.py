from dataclasses import replace

import numpy as np
import pytest

import volterra_lq as vlq
from volterra_lq import (
    AssumptionError,
    CostData,
    NumericalError,
    StateOperator,
    TruncationFactor,
    abstract_causal_control,
    build_cross_term_reduction,
    build_grid,
    causal_trajectories,
    general_causal_control,
    lambda_sigma,
    representation_terms,
    solve_open_loop,
)
from volterra_lq.catalog import get_problem
from volterra_lq.causal import _running_gradients
from volterra_lq.lq import _apply_blocks

from conftest import Pipeline, blockdiag, rel_l2


def running_gradient(dlq, x_t):
    """Per-node reference: Wu [Theta* Q X_t + Theta_T* G X_t(T) + Theta* q + Theta_T* g]."""
    sc, ops = dlq.cost_samples, dlq.ops
    qx = _apply_blocks(sc.Q, x_t) + sc.q
    b = ops.theta.T @ (ops.wx * qx.ravel())
    b += ops.theta[-ops.dx :].T @ (sc.G @ x_t[-1] + sc.g)
    return b


class TestRestrictedOperator:
    def test_full_operator_at_zero(self, rs_pipeline):
        pipe = rs_pipeline
        r = lambda_sigma(pipe.dlq, 0)
        assert np.array_equal(r.block, pipe.dlq.lam)

    def test_trailing_block_of_control_weight_only(self):
        entry = get_problem("zero-cost", 0.75, 1.0)
        grid = build_grid(16, 1.0)
        ops = StateOperator(entry.problem, grid)
        dlq = vlq.assemble_quadratic_form(ops, entry.cost)
        r = lambda_sigma(dlq, 5)
        expected = (np.repeat(dlq.ops.omega, 1)[:, None] * blockdiag(
            dlq.cost_samples.R
        ))[5:, 5:]
        assert np.allclose(r.block, expected, rtol=1e-15)
        # inverse bounded by 1 / min R in the weighted product
        assert r.min_generalized_eigenvalue() >= dlq.cost_samples.delta * (1 - 1e-12)

    def test_eigenvalue_floor_for_all_truncations(self, rs_pipeline):
        pipe = rs_pipeline
        delta = pipe.dlq.cost_samples.delta
        for sigma in range(0, pipe.grid.n, 3):
            r = lambda_sigma(pipe.dlq, sigma)
            assert r.min_generalized_eigenvalue() >= delta * (1.0 - 1e-6)

    def test_full_form_bounds_every_truncation(self, truncation_case):
        # Cauchy interlacing: the one-eigh coercivity probe is the minimum
        from volterra_lq.scenarios import _coercivity_ratio

        dlq = truncation_case.dlq
        full = _coercivity_ratio(dlq)
        delta = dlq.cost_samples.delta
        for sigma in range(1, dlq.n):
            block = lambda_sigma(dlq, sigma).min_generalized_eigenvalue() / delta
            assert full <= block + 1e-12 * abs(block)

    def test_out_of_range(self, rs_pipeline):
        with pytest.raises(ValueError):
            lambda_sigma(rs_pipeline.dlq, rs_pipeline.grid.n)

    def test_restricted_inverse_identities(self, rs_pipeline):
        # the trailing-block solve is a two-sided inverse of the
        # restriction, and the algebraic elimination identity
        # (I-P) R^-1 [I - (Lam-R)(I-P)Lam^-1(I-P)] = (I-P)Lam^-1(I-P)
        # holds as matrices to factorization round-off
        pipe = rs_pipeline
        dlq = pipe.dlq
        n, du = dlq.n, dlq.du
        lam_op = dlq.lam / dlq.wu[:, None]
        Rbd = blockdiag(dlq.cost_samples.R)
        Rinv_bd = blockdiag(dlq.cost_samples.R_inverses())
        eye = np.eye(n * du)
        for sigma in (0, n // 3, n - 2):
            r = lambda_sigma(dlq, sigma)
            T = np.stack([r.solve_embedded(eye[:, k]) for k in range(n * du)], axis=1)
            mask = np.repeat(np.arange(n) >= sigma, du).astype(float)
            P_f = np.diag(mask)
            # two-sided inverse on the trailing subspace
            prod = T @ (P_f @ lam_op @ P_f)
            assert np.allclose(prod @ P_f, P_f, atol=1e-10)
            assert np.allclose((P_f @ lam_op @ P_f) @ T @ P_f, P_f, atol=1e-10)
            # elimination identity
            lhs = P_f @ Rinv_bd @ (eye - (lam_op - Rbd) @ T)
            assert np.allclose(lhs, T, atol=1e-10 * np.abs(T).max())


class TestTruncationFactor:
    def test_block_rows_match_inverse_of_trailing_block(self, truncation_case):
        dlq = truncation_case.dlq
        n, du = dlq.n, dlq.du
        factor = TruncationFactor(dlq)
        for sigma in range(n):
            k = sigma * du
            expected = np.linalg.inv(dlq.lam[k:, k:])[:du]
            got = factor.block_row(sigma)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.abs(expected).max()

    def test_block_rows_are_exactly_zero_left_of_the_diagonal(self, truncation_case):
        dlq = truncation_case.dlq
        factor = TruncationFactor(dlq)
        for sigma in range(dlq.n):
            assert np.all(factor.Z[sigma, :, : sigma * dlq.du] == 0.0)

    def test_causal_control_matches_per_node_restricted_solve(self, truncation_case):
        # the slow reference: restricted solve per node, then the
        # R^-1 (Lam - R) correction the block row lets cancel
        pipe = truncation_case
        dlq = pipe.dlq
        n, du = dlq.n, dlq.du
        sc = dlq.cost_samples
        lam_op_minus_R = (dlq.lam - dlq.wu[:, None] * blockdiag(sc.R)) / dlq.wu[:, None]
        Rinv = sc.R_inverses()
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        expected = np.empty((n, du))
        for t in range(n):
            gvec = running_gradient(dlq, traj[t]) / dlq.wu
            y = lambda_sigma(dlq, t).solve_embedded(gvec)
            corrected = gvec - lam_op_minus_R @ y
            expected[t] = -Rinv[t] @ corrected[t * du : (t + 1) * du]
        rec = abstract_causal_control(dlq, traj)
        assert rel_l2(pipe.omega, rec, expected) <= 1e-12

    def test_out_of_range(self, rs_pipeline):
        factor = TruncationFactor(rs_pipeline.dlq)
        with pytest.raises(ValueError):
            factor.block_row(rs_pipeline.grid.n)
        with pytest.raises(ValueError):
            factor.block_row(-1)

    def test_loss_of_positive_definiteness_is_a_numerical_error(self, rs_pipeline):

        pipe = rs_pipeline
        eig = np.linalg.eigvalsh(pipe.dlq.lam)
        bad = replace(pipe.dlq, lam=pipe.dlq.lam - np.median(eig) * np.eye(eig.size))
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        with pytest.raises(NumericalError, match="coercivity"):
            TruncationFactor(bad)
        with pytest.raises(NumericalError, match="coercivity"):
            abstract_causal_control(bad, traj)
        with pytest.raises(NumericalError, match="coercivity"):
            representation_terms(bad, traj)


class TestCausalTrajectories:
    def test_zero_control(self, rs_pipeline):
        pipe = rs_pipeline
        traj = causal_trajectories(pipe.ops, np.zeros_like(pipe.u_opt))
        for sigma in range(pipe.grid.n):
            assert np.array_equal(traj[sigma], pipe.ops.psi)
        assert np.array_equal(traj[:, -1], np.tile(pipe.ops.psi[-1], (pipe.grid.n, 1)))

    def test_truncation_matches_state_strictly_before_sigma(self, rs_pipeline):
        pipe = rs_pipeline
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        n, du = pipe.grid.n, pipe.problem.n_control
        theta_blocks = pipe.theta.reshape(n, -1, n, du)
        for sigma in (1, n // 2, n - 1):
            assert np.allclose(
                traj[sigma][:sigma], pipe.x_opt[:sigma], atol=1e-13
            )
            # at the closure node the difference is exactly the diagonal
            # quadrature weight of the hat interpolation
            diag_term = theta_blocks[sigma, :, sigma] @ pipe.u_opt[sigma]
            gap = pipe.x_opt[sigma] - traj[sigma][sigma]
            assert np.allclose(gap, diag_term, atol=1e-14)

    def test_decomposition_identity(self, rs_pipeline):
        pipe = rs_pipeline
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        n, du = pipe.grid.n, pipe.problem.n_control
        scale = np.abs(pipe.x_opt).max()
        for sigma in range(0, n, 5):
            future = pipe.u_opt.copy()
            future[:sigma] = 0.0
            rebuilt = traj[sigma] + (pipe.theta @ future.ravel()).reshape(n, -1)
            assert np.max(np.abs(rebuilt - pipe.x_opt)) <= 1e-12 * scale
            rebuilt_T = traj[sigma, -1] + pipe.theta_T @ future.ravel()
            assert np.max(np.abs(rebuilt_T - pipe.x_opt[-1])) <= 1e-12 * scale

    def test_non_anticipation_exact(self, rs_pipeline):
        pipe = rs_pipeline
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        rng = np.random.default_rng(3)
        t = pipe.grid.n // 3
        perturbed = pipe.u_opt.copy()
        perturbed[t:] += rng.normal(size=perturbed[t:].shape)
        traj_p = causal_trajectories(pipe.ops, perturbed)
        assert np.array_equal(traj_p[t], traj[t])


    def test_sample_before_sigma_is_past(self, rs_pipeline):
        # closed-left truncation: the sample at sigma - 1 enters x_trunc
        # from sigma on, through its own column block of theta
        pipe = rs_pipeline
        n, du = pipe.grid.n, pipe.problem.n_control
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        t = n // 3
        bump = np.random.default_rng(5).normal(size=du)
        perturbed = pipe.u_opt.copy()
        perturbed[t - 1] += bump
        traj_p = causal_trajectories(pipe.ops, perturbed)
        assert np.array_equal(traj_p[:t], traj[:t])
        shift = (pipe.theta[:, (t - 1) * du : t * du] @ bump).reshape(n, -1)
        scale = np.abs(pipe.x_opt).max()
        for sigma in (t, n // 2, n - 1):
            diff = traj_p[sigma] - traj[sigma]
            assert np.max(np.abs(diff - shift)) <= 1e-12 * scale
        assert np.abs(shift).max() > 1e-3 * scale

    def test_running_gradient_is_form_gradient_at_truncated_control(self, rs_pipeline):
        # on the rows from sigma on, the gradient built from the truncation
        # trajectory and its terminal forecast equals Lam P u + Wu ell1
        # with P u the control cut off from sigma on
        pipe = rs_pipeline
        dlq = pipe.dlq
        n, du = dlq.n, dlq.du
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        for sigma in (0, 1, n // 2, n - 1):
            past = pipe.u_opt.copy()
            past[sigma:] = 0.0
            expected = dlq.lam @ past.ravel() + dlq.wu * dlq.ell1
            got = _running_gradients(dlq, traj)[sigma]
            k = sigma * du
            assert np.max(np.abs(got[k:] - expected[k:])) <= 1e-12 * np.abs(expected).max()

    def test_running_gradients_match_per_node_reference(self, truncation_case):
        # one product with Theta for every sigma, on uniform and graded grids
        pipe = truncation_case
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        got = _running_gradients(pipe.dlq, traj)
        expected = np.stack([running_gradient(pipe.dlq, x_t) for x_t in traj])
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.abs(expected).max()


class TestAbstractCausalControl:
    def test_zero_affine_problem(self):
        entry = get_problem("zero-cost", 0.75, 1.0)
        grid = build_grid(16, 1.0)
        ops = StateOperator(entry.problem, grid)
        dlq = vlq.assemble_quadratic_form(ops, entry.cost)
        u = solve_open_loop(dlq)
        traj = causal_trajectories(ops, u)
        rec = abstract_causal_control(dlq, traj)
        assert np.all(rec == 0.0)

    def test_state_independent_data_still_matches(self, rs_pipeline):
        # Q = 0, G = 0 but q, g nonzero: the formula no longer involves
        # the trajectories yet must reproduce the optimizer
        pipe = rs_pipeline
        cost = CostData(R=pipe.cost.R, q=pipe.cost.q, g=pipe.cost.g)
        dlq = vlq.assemble_quadratic_form(pipe.ops, cost)
        u = solve_open_loop(dlq)
        traj = causal_trajectories(pipe.ops, u)
        rec = abstract_causal_control(dlq, traj)
        assert rel_l2(pipe.omega, rec, u) < 1e-8

    def test_reconstructs_optimizer(self, rs_pipeline):
        pipe = rs_pipeline
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        rec = abstract_causal_control(pipe.dlq, traj)
        assert rel_l2(pipe.omega, rec, pipe.u_opt) < 1e-8

    def test_rejects_cross_terms(self, ct_pipeline):
        pipe = ct_pipeline
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        with pytest.raises(AssumptionError, match="cross"):
            abstract_causal_control(pipe.dlq, traj)

    def test_rejects_trajectories_of_another_grid(self, rs_pipeline):
        # the form carries its own decomposition; trajectories built on a
        # coarser grid of the same problem cannot be paired with it
        small = Pipeline("random-smooth", seed=42, n=24)
        assert vlq.assemble_quadratic_form(small.ops, small.cost).ops is small.ops
        traj = causal_trajectories(small.ops, small.u_opt)
        with pytest.raises(ValueError, match="trajectories do not match"):
            abstract_causal_control(rs_pipeline.dlq, traj)

    @pytest.mark.parametrize("extra", [3, -3], ids=["long", "short"])
    @pytest.mark.parametrize("method", ["direct", "superconvergent"])
    def test_family_of_wrong_length_is_rejected(self, method, extra):
        # both entry points read the family through the one shape check

        pipe = Pipeline("random-smooth", seed=7, n=16)
        x = causal_trajectories(pipe.ops, pipe.u_opt)
        bad = np.concatenate([x, x[:extra]]) if extra > 0 else x[:extra]
        with pytest.raises(ValueError, match="trajectories do not match"):
            representation_terms(pipe.dlq, bad, method=method, subspace_dim=8)
        with pytest.raises(ValueError, match="trajectories do not match"):
            abstract_causal_control(pipe.dlq, bad)


class TestCrossTermReduction:
    def test_identity_when_no_cross_terms(self, rs_pipeline):
        pipe = rs_pipeline
        red = build_cross_term_reduction(pipe.dlq)
        assert np.array_equal(red.dlq.ops.A_samples, pipe.ops.A_samples)
        assert np.array_equal(red.dlq.ops.phi, pipe.ops.phi)
        assert np.array_equal(
            red.dlq.cost_samples.Q, pipe.dlq.cost_samples.Q
        )
        assert red.value_offset == 0.0

    def test_zero_control_kernel_leaves_dynamics(self, ct_pipeline):
        pipe = ct_pipeline
        p = pipe.problem
        no_b = vlq.ProblemData(
            A=p.A, B=None, phi=p.phi, beta=p.beta, T=p.T,
            n_state=p.n_state, n_control=p.n_control,
        )
        ops = StateOperator(no_b, pipe.grid)
        red = build_cross_term_reduction(vlq.assemble_quadratic_form(ops, pipe.cost))
        assert np.array_equal(red.dlq.ops.A_samples, ops.A_samples)
        assert np.array_equal(red.dlq.ops.phi, ops.phi)

    def test_equivalence_of_optima(self, ct_pipeline):
        pipe = ct_pipeline
        red = build_cross_term_reduction(pipe.dlq)
        v_opt = solve_open_loop(red.dlq)
        j_orig = vlq.evaluate_cost(pipe.ops, pipe.cost, pipe.u_opt)
        j_red = float(
            v_opt.ravel() @ red.dlq.lam @ v_opt.ravel()
            + 2.0 * red.dlq.rhs @ v_opt.ravel()
            + red.dlq.lam0
        )
        assert abs(j_orig - (j_red - red.value_offset)) <= 1e-8 * (1 + abs(j_orig))
        u_mapped = red.to_original_control(v_opt, pipe.x_opt)
        assert rel_l2(pipe.omega, u_mapped, pipe.u_opt) < 1e-6

    def test_round_trip_of_control_maps(self, ct_pipeline):
        pipe = ct_pipeline
        red = build_cross_term_reduction(pipe.dlq)
        v = red.to_reduced_control(pipe.u_opt, pipe.x_opt)
        back = red.to_original_control(v, pipe.x_opt)
        assert np.allclose(back, pipe.u_opt, atol=1e-14)

    def test_reduced_operator_builds_factored_kernels(self):
        entry = get_problem("cross-term", 0.75, 1.0, seed=3)
        grid = build_grid(24, 1.0)
        ops = StateOperator(entry.problem, grid)
        red = build_cross_term_reduction(vlq.assemble_quadratic_form(ops, entry.cost))
        kernel = vlq.resolvent(red.dlq.ops)
        assert kernel.singular_coeff.shape == (24, 24, 2, 2)
        Psi = vlq.control_kernel(red.dlq.ops, kernel)
        assert Psi.singular_coeff.shape == Psi.regular_part.shape == (24, 24, 2, 2)


class TestGeneralRepresentation:
    def test_reduces_to_plain_representation_without_cross_terms(self, rs_pipeline):
        pipe = rs_pipeline
        red = build_cross_term_reduction(pipe.dlq)
        v_bar = red.to_reduced_control(pipe.u_opt, pipe.x_opt)
        assert np.array_equal(v_bar, pipe.u_opt)
        traj = causal_trajectories(red.dlq.ops, v_bar)
        u_gen = general_causal_control(red, traj, pipe.x_opt)
        u_fb = representation_terms(pipe.dlq, causal_trajectories(pipe.ops, pipe.u_opt))
        assert np.allclose(u_gen, u_fb, atol=1e-10)

    def test_only_instantaneous_term_survives(self, ct_pipeline):
        # reduced state weights all zero (Q completes the square of S,
        # q matches the rho coupling): u = -R^(-1) (S X + rho)
        pipe = ct_pipeline
        sc = pipe.dlq.cost_samples
        Rinv = sc.R_inverses()
        Q = np.einsum("icx,icd,idy->ixy", sc.S, Rinv, sc.S)
        q = np.einsum("icx,icd,id->ix", sc.S, Rinv, sc.rho)
        cost = CostData(Q=Q, S=sc.S, R=sc.R, q=q, rho=sc.rho)
        dlq = vlq.assemble_quadratic_form(pipe.ops, cost)
        u = solve_open_loop(dlq)
        x = (pipe.ops.psi.ravel() + pipe.theta @ u.ravel()).reshape(pipe.grid.n, -1)
        red = build_cross_term_reduction(dlq)
        v = red.to_reduced_control(u, x)
        traj = causal_trajectories(red.dlq.ops, v)
        u_gen = general_causal_control(red, traj, x)
        shift = np.einsum("icx,ix->ic", red.S_samples, x) + red.rho_samples
        expected = -np.einsum("iab,ib->ia", red.R_inv, shift)
        assert np.allclose(u_gen, expected, atol=1e-12)
        assert rel_l2(pipe.omega, u_gen, u) < 1e-6

    def test_matches_optimizer_on_cross_term_problem(self, ct_pipeline):
        pipe = ct_pipeline
        red = build_cross_term_reduction(pipe.dlq)
        v_bar = red.to_reduced_control(pipe.u_opt, pipe.x_opt)
        traj = causal_trajectories(red.dlq.ops, v_bar)
        u_gen = general_causal_control(red, traj, pipe.x_opt)
        assert rel_l2(pipe.omega, u_gen, pipe.u_opt) < 1e-6
