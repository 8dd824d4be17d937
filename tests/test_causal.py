from dataclasses import replace

import numpy as np
import pytest

import volterra_lq as vlq
from volterra_lq import (
    AssumptionError,
    CostData,
    NumericalError,
    TruncationFactor,
    abstract_causal_control,
    build_cross_term_reduction,
    build_grid,
    causal_trajectories,
    decompose,
    general_causal_control,
    lambda_sigma,
    solve_open_loop,
)
from volterra_lq.catalog import get_problem
from volterra_lq.causal import _running_gradient
from volterra_lq.lq import _blockdiag

from conftest import Pipeline, rel_l2


class TestRestrictedOperator:
    def test_full_operator_at_zero(self, rs_pipeline):
        pipe = rs_pipeline
        r = lambda_sigma(pipe.dlq, 0)
        assert np.array_equal(r.block, pipe.dlq.lam)

    def test_trailing_block_of_control_weight_only(self):
        entry = get_problem("zero-cost", 0.75, 1.0)
        grid = build_grid(16, 1.0)
        dec = decompose(entry.problem, grid, None)
        dlq = vlq.assemble_quadratic_form(dec, entry.cost)
        r = lambda_sigma(dlq, 5)
        expected = (np.repeat(dlq.dec.ops.omega, 1)[:, None] * _blockdiag(
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
        Rbd = _blockdiag(dlq.cost_samples.R)
        Rinv_bd = _blockdiag(dlq.cost_samples.R_inverses())
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

    def test_causal_control_matches_per_node_restricted_solve(self, truncation_case):
        # the slow reference: restricted solve per node, then the
        # R^-1 (Lam - R) correction the block row lets cancel
        pipe = truncation_case
        dlq = pipe.dlq
        n, du = dlq.n, dlq.du
        sc = dlq.cost_samples
        lam_op_minus_R = (dlq.lam - dlq.wu[:, None] * _blockdiag(sc.R)) / dlq.wu[:, None]
        Rinv = sc.R_inverses()
        traj = causal_trajectories(pipe.dec, pipe.u_opt)
        expected = np.empty((n, du))
        for t in range(n):
            gvec = _running_gradient(dlq, traj.x_trunc[t]) / dlq.wu
            y = lambda_sigma(dlq, t).solve_embedded(gvec)
            corrected = gvec - lam_op_minus_R @ y
            expected[t] = -Rinv[t] @ corrected[t * du : (t + 1) * du]
        rec = abstract_causal_control(dlq, traj)
        assert rel_l2(pipe.omega, rec, expected) <= 1e-12

    def test_trailing_solve_matches_dense_solve(self, truncation_case):
        dlq = truncation_case.dlq
        n, du = dlq.n, dlq.du
        factor = TruncationFactor(dlq)
        rng = np.random.default_rng(4)
        for sigma in (0, n // 2, n - 1):
            k = sigma * du
            v = rng.normal(size=dlq.lam.shape[0] - k)
            expected = np.linalg.solve(dlq.lam[k:, k:], v)
            got = factor.solve(sigma, v)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.abs(expected).max()

    def test_out_of_range(self, rs_pipeline):
        factor = TruncationFactor(rs_pipeline.dlq)
        with pytest.raises(ValueError):
            factor.block_row(rs_pipeline.grid.n)
        with pytest.raises(ValueError):
            factor.solve(-1, np.zeros(2))

    def test_loss_of_positive_definiteness_is_a_numerical_error(self, rs_pipeline):
        from volterra_lq.fredholm import representation_terms

        pipe = rs_pipeline
        eig = np.linalg.eigvalsh(pipe.dlq.lam)
        bad = replace(pipe.dlq, lam=pipe.dlq.lam - np.median(eig) * np.eye(eig.size))
        traj = causal_trajectories(pipe.dec, pipe.u_opt)
        with pytest.raises(NumericalError, match="coercivity"):
            TruncationFactor(bad)
        with pytest.raises(NumericalError, match="coercivity"):
            abstract_causal_control(bad, traj)
        with pytest.raises(NumericalError, match="coercivity"):
            representation_terms(bad, traj)
        with pytest.raises(NumericalError, match="coercivity"):
            vlq.feedback_control(bad)


class TestCausalTrajectories:
    def test_zero_control(self, rs_pipeline):
        pipe = rs_pipeline
        traj = causal_trajectories(pipe.dec, np.zeros_like(pipe.u_opt))
        for sigma in range(pipe.grid.n):
            assert np.array_equal(traj.x_trunc[sigma], pipe.dec.psi)
        assert np.array_equal(traj.x_trunc[:, -1], np.tile(pipe.dec.psi_T, (pipe.grid.n, 1)))

    def test_truncation_matches_state_strictly_before_sigma(self, rs_pipeline):
        pipe = rs_pipeline
        traj = causal_trajectories(pipe.dec, pipe.u_opt)
        n, du = pipe.grid.n, pipe.problem.n_control
        theta_blocks = pipe.theta.reshape(n, -1, n, du)
        for sigma in (1, n // 2, n - 1):
            assert np.allclose(
                traj.x_trunc[sigma][:sigma], pipe.x_opt[:sigma], atol=1e-13
            )
            # at the closure node the difference is exactly the diagonal
            # quadrature weight of the hat interpolation
            diag_term = theta_blocks[sigma, :, sigma] @ pipe.u_opt[sigma]
            gap = pipe.x_opt[sigma] - traj.x_trunc[sigma][sigma]
            assert np.allclose(gap, diag_term, atol=1e-14)

    def test_decomposition_identity(self, rs_pipeline):
        pipe = rs_pipeline
        traj = causal_trajectories(pipe.dec, pipe.u_opt)
        n, du = pipe.grid.n, pipe.problem.n_control
        scale = np.abs(pipe.x_opt).max()
        for sigma in range(0, n, 5):
            future = pipe.u_opt.copy()
            future[:sigma] = 0.0
            rebuilt = traj.x_trunc[sigma] + (pipe.theta @ future.ravel()).reshape(n, -1)
            assert np.max(np.abs(rebuilt - pipe.x_opt)) <= 1e-12 * scale
            rebuilt_T = traj.x_trunc[sigma, -1] + pipe.theta_T @ future.ravel()
            assert np.max(np.abs(rebuilt_T - pipe.x_opt[-1])) <= 1e-12 * scale

    def test_non_anticipation_exact(self, rs_pipeline):
        pipe = rs_pipeline
        traj = causal_trajectories(pipe.dec, pipe.u_opt)
        rng = np.random.default_rng(3)
        t = pipe.grid.n // 3
        perturbed = pipe.u_opt.copy()
        perturbed[t:] += rng.normal(size=perturbed[t:].shape)
        traj_p = causal_trajectories(pipe.dec, perturbed)
        assert np.array_equal(traj_p.x_trunc[t], traj.x_trunc[t])


    def test_sample_before_sigma_is_past(self, rs_pipeline):
        # closed-left truncation: the sample at sigma - 1 enters x_trunc
        # from sigma on, through its own column block of theta
        pipe = rs_pipeline
        n, du = pipe.grid.n, pipe.problem.n_control
        traj = causal_trajectories(pipe.dec, pipe.u_opt)
        t = n // 3
        bump = np.random.default_rng(5).normal(size=du)
        perturbed = pipe.u_opt.copy()
        perturbed[t - 1] += bump
        traj_p = causal_trajectories(pipe.dec, perturbed)
        assert np.array_equal(traj_p.x_trunc[:t], traj.x_trunc[:t])
        shift = (pipe.theta[:, (t - 1) * du : t * du] @ bump).reshape(n, -1)
        scale = np.abs(pipe.x_opt).max()
        for sigma in (t, n // 2, n - 1):
            diff = traj_p.x_trunc[sigma] - traj.x_trunc[sigma]
            assert np.max(np.abs(diff - shift)) <= 1e-12 * scale
        assert np.abs(shift).max() > 1e-3 * scale

    def test_running_gradient_is_form_gradient_at_truncated_control(self, rs_pipeline):
        # on the rows from sigma on, the gradient built from the truncation
        # trajectory and its terminal forecast equals Lam P u + Wu ell1
        # with P u the control cut off from sigma on
        pipe = rs_pipeline
        dlq = pipe.dlq
        n, du = dlq.n, dlq.du
        traj = causal_trajectories(pipe.dec, pipe.u_opt)
        for sigma in (0, 1, n // 2, n - 1):
            past = pipe.u_opt.copy()
            past[sigma:] = 0.0
            expected = dlq.lam @ past.ravel() + dlq.wu * dlq.ell1
            got = _running_gradient(dlq, traj.x_trunc[sigma])
            k = sigma * du
            assert np.max(np.abs(got[k:] - expected[k:])) <= 1e-12 * np.abs(expected).max()

class TestAbstractCausalControl:
    def test_zero_affine_problem(self):
        entry = get_problem("zero-cost", 0.75, 1.0)
        grid = build_grid(16, 1.0)
        dec = decompose(entry.problem, grid, None)
        dlq = vlq.assemble_quadratic_form(dec, entry.cost)
        u = solve_open_loop(dlq)
        traj = causal_trajectories(dec, u)
        rec = abstract_causal_control(dlq, traj)
        assert np.all(rec == 0.0)

    def test_state_independent_data_still_matches(self, rs_pipeline):
        # Q = 0, G = 0 but q, g nonzero: the formula no longer involves
        # the trajectories yet must reproduce the optimizer
        pipe = rs_pipeline
        cost = CostData(R=pipe.cost.R, q=pipe.cost.q, g=pipe.cost.g)
        dlq = vlq.assemble_quadratic_form(pipe.dec, cost)
        u = solve_open_loop(dlq)
        traj = causal_trajectories(pipe.dec, u)
        rec = abstract_causal_control(dlq, traj)
        assert rel_l2(pipe.omega, rec, u) < 1e-8

    def test_reconstructs_optimizer(self, rs_pipeline):
        pipe = rs_pipeline
        traj = causal_trajectories(pipe.dec, pipe.u_opt)
        rec = abstract_causal_control(pipe.dlq, traj)
        assert rel_l2(pipe.omega, rec, pipe.u_opt) < 1e-8

    def test_rejects_cross_terms(self, ct_pipeline):
        pipe = ct_pipeline
        traj = causal_trajectories(pipe.dec, pipe.u_opt)
        with pytest.raises(AssumptionError, match="cross"):
            abstract_causal_control(pipe.dlq, traj)

    def test_rejects_trajectories_of_another_grid(self, rs_pipeline):
        # the form carries its own decomposition; trajectories built on a
        # coarser grid of the same problem cannot be paired with it
        small = Pipeline("random-smooth", seed=42, n=24)
        assert vlq.assemble_quadratic_form(small.dec, small.cost).dec is small.dec
        traj = causal_trajectories(small.dec, small.u_opt)
        with pytest.raises(ValueError, match="trajectories do not match"):
            abstract_causal_control(rs_pipeline.dlq, traj)


class TestCrossTermReduction:
    def test_identity_when_no_cross_terms(self, rs_pipeline):
        pipe = rs_pipeline
        red = build_cross_term_reduction(pipe.dlq)
        assert np.array_equal(red.dlq.dec.ops.A_samples, pipe.dec.ops.A_samples)
        assert np.array_equal(red.dlq.dec.ops.phi, pipe.dec.ops.phi)
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
        dec = decompose(no_b, pipe.grid, None)
        ops = dec.ops
        red = build_cross_term_reduction(vlq.assemble_quadratic_form(dec, pipe.cost))
        assert np.array_equal(red.dlq.dec.ops.A_samples, ops.A_samples)
        assert np.array_equal(red.dlq.dec.ops.phi, ops.phi)

    def test_equivalence_of_optima(self, ct_pipeline):
        pipe = ct_pipeline
        red = build_cross_term_reduction(pipe.dlq)
        v_opt = solve_open_loop(red.dlq)
        j_orig = vlq.evaluate_cost(pipe.dec.ops, pipe.cost, pipe.u_opt)
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

    def test_with_kernels_builds_factored_tables(self):
        entry = get_problem("cross-term", 0.75, 1.0, seed=3)
        grid = build_grid(24, 1.0)
        dec = decompose(entry.problem, grid, None)
        red = build_cross_term_reduction(
            vlq.assemble_quadratic_form(dec, entry.cost), with_kernels=True
        )
        assert red.resolvent_kernel is not None
        assert red.dlq.dec.Psi is not None
        assert red.dlq.dec.Psi.singular_coeff.shape == (24, 24, 2, 2)


class TestGeneralRepresentation:
    def test_reduces_to_plain_representation_without_cross_terms(self, rs_pipeline):
        pipe = rs_pipeline
        red = build_cross_term_reduction(pipe.dlq)
        v_bar = red.to_reduced_control(pipe.u_opt, pipe.x_opt)
        assert np.array_equal(v_bar, pipe.u_opt)
        traj = causal_trajectories(red.dlq.dec, v_bar)
        u_gen = general_causal_control(red, traj, pipe.x_opt)
        u_fb = vlq.feedback_control(pipe.dlq)
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
        dlq = vlq.assemble_quadratic_form(pipe.dec, cost)
        u = solve_open_loop(dlq)
        x = (pipe.dec.psi.ravel() + pipe.theta @ u.ravel()).reshape(pipe.grid.n, -1)
        red = build_cross_term_reduction(dlq)
        v = red.to_reduced_control(u, x)
        traj = causal_trajectories(red.dlq.dec, v)
        u_gen = general_causal_control(red, traj, x)
        shift = np.einsum("icx,ix->ic", red.S_samples, x) + red.rho_samples
        expected = -np.einsum("iab,ib->ia", red.R_inv, shift)
        assert np.allclose(u_gen, expected, atol=1e-12)
        assert rel_l2(pipe.omega, u_gen, u) < 1e-6

    def test_matches_optimizer_on_cross_term_problem(self, ct_pipeline):
        pipe = ct_pipeline
        red = build_cross_term_reduction(pipe.dlq)
        v_bar = red.to_reduced_control(pipe.u_opt, pipe.x_opt)
        traj = causal_trajectories(red.dlq.dec, v_bar)
        u_gen = general_causal_control(red, traj, pipe.x_opt)
        assert rel_l2(pipe.omega, u_gen, pipe.u_opt) < 1e-6
