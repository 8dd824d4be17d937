import numpy as np
import pytest
from dataclasses import replace

import volterra_lq as vlq
from volterra_lq import (
    AssumptionError,
    CostData,
    assemble_fredholm,
    build_grid,
    crosscheck_kernel_samples,
    decompose,
    feedback_control,
    reconstruct_in_s,
    solve_direct,
    solve_galerkin,
    solve_iterated_galerkin,
    solve_open_loop,
    solve_superconvergent,
)
from volterra_lq.catalog import get_problem
from volterra_lq.causal import TruncationFactor, causal_trajectories, lambda_sigma
from volterra_lq.lq import _blockdiag

from conftest import Pipeline, rel_l2


@pytest.fixture(scope="module")
def gain_setup(rs_pipeline):
    pipe = rs_pipeline
    sys0 = assemble_fredholm(pipe.dlq, 0)
    return pipe, sys0, solve_direct(sys0)


def weighted_table_dist(sys, a, b):
    wu = np.repeat(sys.omega, sys.du)
    return float(np.sqrt(np.einsum("i,ij,j->", wu, (a - b) ** 2, wu)))


class TestAssembly:
    def test_zero_state_weights_give_zero_system(self, rs_pipeline):
        pipe = rs_pipeline
        cost = CostData(R=pipe.cost.R)
        dlq = vlq.assemble_quadratic_form(pipe.dec, cost)
        sys0 = assemble_fredholm(dlq, 0)
        assert np.all(sys0.kernel == 0.0)
        assert np.all(sys0.rhs == 0.0)
        assert np.all(solve_direct(sys0).M == 0.0)

    def test_kernel_symmetric_for_unit_control_weight(self):
        # scalar problem, R = I, G = 0: K(t, xi) = K(xi, t)
        entry = get_problem("constant-coeff", 0.75, 1.0)
        cost = CostData(Q=1.0, R=1.0)
        grid = build_grid(32, 1.0)
        dec = decompose(entry.problem, grid, None)
        dlq = vlq.assemble_quadratic_form(dec, cost)
        sys0 = assemble_fredholm(dlq, 0)
        assert np.allclose(sys0.kernel, sys0.kernel.T, atol=1e-13)

    def test_kernel_square_integrable_under_refinement(self):
        entry = get_problem("random-smooth", 0.75, 1.0, seed=2)
        norms = []
        for n in (24, 48, 96):
            grid = build_grid(n, 1.0)
            dec = decompose(entry.problem, grid, None)
            dlq = vlq.assemble_quadratic_form(dec, entry.cost)
            sys0 = assemble_fredholm(dlq, 0)
            norms.append(sys0.frobenius_norm())
        assert np.isfinite(norms).all()
        assert abs(norms[2] - norms[1]) < abs(norms[1] - norms[0])

    def test_rejects_cross_terms(self, ct_pipeline):
        pipe = ct_pipeline
        with pytest.raises(AssumptionError, match="cross"):
            assemble_fredholm(pipe.dlq, 0)

    def test_quadrature_crosscheck(self):
        pipe = Pipeline("random-smooth", seed=42, n=96, with_kernel=True)
        sys0 = assemble_fredholm(pipe.dlq, 0)
        worst = crosscheck_kernel_samples(
            sys0, pipe.dlq, n_samples=24, rng=np.random.default_rng(5)
        )
        assert worst <= 1e-4


class TestDirectSolve:
    def test_zero_right_side(self, gain_setup):
        pipe, sys0, _ = gain_setup
        hollow = replace(sys0, kernel=np.zeros_like(sys0.kernel))
        assert np.all(solve_direct(hollow).M == 0.0)

    def test_no_integral_term_returns_right_side(self, gain_setup):
        pipe, sys0, _ = gain_setup
        plain = replace(sys0, Kmat=np.zeros_like(sys0.Kmat))
        out = solve_direct(plain)
        assert np.allclose(out.flat(), sys0.rhs, atol=1e-14)

    def test_residual_is_round_off(self, gain_setup):
        _, sys0, oracle = gain_setup
        assert oracle.residual <= 1e-10

    def test_matches_definition_through_restricted_inverse(self, gain_setup):
        # gain table from its defining operator expression: the columns
        # of -R^-1 [I - (Lam-R)(I-P)Lam^-1(I-P)] applied to the running
        # gradient of the control kernel columns
        pipe, sys0, oracle = gain_setup
        dlq = pipe.dlq
        n, du = dlq.n, dlq.du
        sc = dlq.cost_samples
        lam_op = dlq.lam / dlq.wu[:, None]
        Rbd = _blockdiag(sc.R)
        Rinv_bd = _blockdiag(sc.R_inverses())
        sigma = n // 3
        restricted = lambda_sigma(dlq, sigma)
        M_def = np.empty_like(sys0.kernel)
        for k in range(n * du):
            v = -Rbd @ sys0.kernel[:, k]  # (Theta* Q Psi + Theta_T* G Psi_T) column
            y = restricted.solve_embedded(v)
            M_def[:, k] = -Rinv_bd @ (v - (lam_op - Rbd) @ y)
        sys_sigma = replace(sys0, sigma_index=sigma)
        M_fred = solve_direct(sys_sigma).flat()
        scale = np.abs(M_fred).max()
        assert np.max(np.abs(M_def - M_fred)) <= 1e-9 * scale

    def test_uniqueness_from_perturbed_start(self, gain_setup):
        # a long superconvergent sweep forgets its starting iterate
        _, sys0, oracle = gain_setup
        out = solve_superconvergent(sys0, subspace_dim=12, k_iters=6, oracle=oracle)
        assert weighted_table_dist(sys0, out.flat(), oracle.flat()) <= 1e-8 * (
            1.0 + np.abs(oracle.flat()).max()
        )


class TestDirectGainSweep:
    def test_gain_rows_match_dense_oracle(self, truncation_case):
        from volterra_lq.fredholm import _direct_gain_row

        pipe = truncation_case
        dlq = pipe.dlq
        sys0 = assemble_fredholm(dlq, 0)
        factor = TruncationFactor(dlq)
        R, w = dlq.cost_samples.R, dlq.dec.ops.omega
        for sigma in range(dlq.n):
            oracle = solve_direct(replace(sys0, sigma_index=sigma)).M[sigma, sigma:]
            row = _direct_gain_row(factor, R, w, sigma)
            assert row.shape == oracle.shape
            assert np.max(np.abs(row - oracle)) <= 1e-12 * np.abs(oracle).max()

    def test_fast_paths_make_no_dense_solve(self, rs_pipeline, monkeypatch):
        import volterra_lq.fredholm as fredholm

        def refuse(*args, **kwargs):
            raise AssertionError("dense gain oracle called")

        pipe = rs_pipeline
        monkeypatch.setattr(fredholm, "solve_direct", refuse)
        u_fb = feedback_control(pipe.dlq, method="direct")
        assert rel_l2(pipe.omega, u_fb, pipe.u_opt) < 1e-10
        traj = causal_trajectories(pipe.dec, pipe.u_opt)
        u_sc = fredholm.representation_terms(
            pipe.dlq, traj,
            method="superconvergent", subspace_dim=12, iterations=2,
        )
        assert rel_l2(pipe.omega, u_sc, pipe.u_opt) < 1e-6


class TestProjectionFamily:
    def test_full_subspace_equals_direct(self, gain_setup):
        _, sys0, oracle = gain_setup
        gal = solve_galerkin(sys0, sys0.n)
        assert np.max(np.abs(gal.flat() - oracle.flat())) <= 1e-10 * np.abs(
            oracle.flat()
        ).max()

    def test_zero_right_side(self, gain_setup):
        _, sys0, _ = gain_setup
        hollow = replace(sys0, kernel=np.zeros_like(sys0.kernel))
        assert np.all(solve_galerkin(hollow, 8).M == 0.0)

    def test_projection_is_orthogonal(self, gain_setup):
        _, sys0, _ = gain_setup
        from volterra_lq.fredholm import _Projection

        proj = _Projection(sys0, 12)
        wu = np.repeat(sys0.omega, sys0.du)
        rng = np.random.default_rng(2)
        V = rng.normal(size=(sys0.n * sys0.du, 4))
        PV = proj.project(V)
        assert np.allclose(proj.project(PV), PV, atol=1e-10)
        # self-adjoint in the weighted product
        W2 = rng.normal(size=V.shape)
        lhs = np.einsum("ik,i,ik->k", PV, wu, W2)
        rhs = np.einsum("ik,i,ik->k", V, wu, proj.project(W2))
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_error_decreases_with_subspace(self, gain_setup):
        _, sys0, oracle = gain_setup
        errs = [
            weighted_table_dist(sys0, solve_galerkin(sys0, q).flat(), oracle.flat())
            for q in (6, 12, 24)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_iterated_projection_identity(self, gain_setup):
        # projecting the iterated solution returns the projected solution
        _, sys0, _ = gain_setup
        from volterra_lq.fredholm import _Projection

        gal = solve_galerkin(sys0, 12)
        it = solve_iterated_galerkin(sys0, gal)
        proj = _Projection(sys0, 12)
        assert np.allclose(proj.project(it.flat()), gal.flat(), atol=1e-11)

    def test_iterated_beats_projection_on_most_trials(self):
        grid = build_grid(48, 1.0)
        wins = 0
        for seed in range(10):
            entry = get_problem("random-smooth", 0.75, 1.0, seed=200 + seed)
            dec = decompose(entry.problem, grid, None)
            dlq = vlq.assemble_quadratic_form(dec, entry.cost)
            sys0 = assemble_fredholm(dlq, 0)
            oracle = solve_direct(sys0)
            gal = solve_galerkin(sys0, 12)
            it = solve_iterated_galerkin(sys0, gal)
            e_gal = weighted_table_dist(sys0, gal.flat(), oracle.flat())
            e_it = weighted_table_dist(sys0, it.flat(), oracle.flat())
            wins += e_it <= e_gal
        assert wins >= 9

    def test_superconvergent_start_and_monotone_sweeps(self, gain_setup):
        _, sys0, oracle = gain_setup
        it = solve_iterated_galerkin(sys0, solve_galerkin(sys0, 12))
        sup0 = solve_superconvergent(sys0, 12, 0, oracle=oracle)
        assert np.array_equal(sup0.flat(), it.flat())
        sup = solve_superconvergent(sys0, 12, 3, oracle=oracle)
        hist = sup.galerkin.error_history
        floor = 1e-11 * (1.0 + np.abs(oracle.flat()).max())
        for k in range(len(hist) - 1):
            assert hist[k + 1] < hist[k] or hist[k + 1] <= floor

    def test_superconvergent_history_needs_an_oracle(self, gain_setup):
        _, sys0, oracle = gain_setup
        plain = solve_superconvergent(sys0, 12, 2)
        assert plain.galerkin.error_history == []
        with_oracle = solve_superconvergent(sys0, 12, 2, oracle=oracle)
        assert len(with_oracle.galerkin.error_history) == 3
        assert np.array_equal(plain.M, with_oracle.M)

    def test_superconvergent_zero_right_side(self, gain_setup):
        _, sys0, _ = gain_setup
        hollow = replace(sys0, kernel=np.zeros_like(sys0.kernel))
        out = solve_superconvergent(hollow, 8, 2)
        assert np.all(out.M == 0.0)

    def test_projected_system_validates_dimension(self, gain_setup):
        _, sys0, _ = gain_setup
        with pytest.raises(ValueError):
            solve_galerkin(sys0, 1)
        with pytest.raises(ValueError):
            solve_galerkin(sys0, sys0.n + 1)


class TestReconstruction:
    def test_knot_and_midpoint_values(self, gain_setup):
        pipe, sys0, oracle = gain_setup
        grid = pipe.grid
        vals = oracle.M[:, 0]  # reuse any table indexed by source nodes
        vals = oracle.M[grid.n // 2]
        at_knot = reconstruct_in_s(vals, grid, grid.nodes[3])
        assert np.array_equal(at_knot, vals[3])
        mid = 0.5 * (grid.nodes[3] + grid.nodes[4])
        at_mid = reconstruct_in_s(vals, grid, mid)
        assert np.allclose(at_mid, 0.5 * (vals[3] + vals[4]), atol=1e-15)

    def test_rejects_out_of_range(self, gain_setup):
        pipe, _, oracle = gain_setup
        with pytest.raises(ValueError):
            reconstruct_in_s(oracle.M[0], pipe.grid, pipe.grid.T)
        with pytest.raises(ValueError):
            reconstruct_in_s(oracle.M[0], pipe.grid, -0.1)

    def test_second_order_in_source_spacing(self):
        # reconstruct at a fixed off-node source point from ever finer
        # source grids and compare against the value computed on a grid
        # that contains the point as a node
        entry = get_problem("random-smooth", 0.75, 1.0, seed=31)
        s_star = 0.40625  # node of the n=65 reference grid
        t_probe = 0.75
        ref_grid = build_grid(65, 1.0)
        assert s_star in ref_grid.nodes

        def gain_row(grid):
            dec = decompose(entry.problem, grid, None)
            dlq = vlq.assemble_quadratic_form(dec, entry.cost)
            sys0 = assemble_fredholm(dlq, 0)
            return solve_direct(sys0), grid

        ref_kernel, _ = gain_row(ref_grid)
        i_ref = int(np.argmin(np.abs(ref_grid.nodes - t_probe)))
        j_ref = int(np.argmin(np.abs(ref_grid.nodes - s_star)))
        reference = ref_kernel.M[i_ref, j_ref]
        errs = []
        for n in (9, 17, 33):
            kernel, grid = gain_row(build_grid(n, 1.0))
            i = int(np.argmin(np.abs(grid.nodes - t_probe)))
            rec = reconstruct_in_s(kernel.M[i], grid, s_star)
            errs.append(np.max(np.abs(rec - reference)))
        assert errs[0] > errs[1] > errs[2]

    def test_gain_continuous_in_source(self, gain_setup):
        # shrinking source gaps shrink the gain increment (modulus of
        # continuity of the control kernel in its second argument)
        pipe, sys0, oracle = gain_setup
        grid = pipe.grid
        s0 = grid.nodes[10]
        wu = np.repeat(sys0.omega, sys0.du)
        diffs = []
        for gap in (8, 4, 2):
            col_a = oracle.M[:, 10].reshape(grid.n, -1)
            col_b = oracle.M[:, 10 + gap].reshape(grid.n, -1)
            d = col_a - col_b
            diffs.append(float(np.sqrt(np.einsum("i,ik,ik->", sys0.omega, d, d))))
        assert diffs[0] > diffs[1] > diffs[2]
        _ = s0, wu


class TestFeedbackControl:
    def test_zero_state_weights(self, rs_pipeline):
        pipe = rs_pipeline
        cost = CostData(R=pipe.cost.R)
        dlq = vlq.assemble_quadratic_form(pipe.dec, cost)
        u = feedback_control(dlq)
        assert np.all(u == 0.0)

    def test_affine_only_data_matches_oracle(self, rs_pipeline):
        # Q = G = 0 forces a vanishing gain kernel; the control comes
        # from the affine terms alone and must still match the optimizer
        pipe = rs_pipeline
        cost = CostData(R=pipe.cost.R, q=pipe.cost.q, g=pipe.cost.g)
        dlq = vlq.assemble_quadratic_form(pipe.dec, cost)
        sys0 = assemble_fredholm(dlq, 0)
        assert np.all(sys0.kernel == 0.0)
        u_fb = feedback_control(dlq)
        u_direct = solve_open_loop(dlq)
        assert rel_l2(pipe.omega, u_fb, u_direct) < 1e-10

    def test_matches_oracle(self, rs_pipeline):
        pipe = rs_pipeline
        u_fb = feedback_control(pipe.dlq)
        assert rel_l2(pipe.omega, u_fb, pipe.u_opt) < 1e-6

    def test_projection_backed_gain_still_accurate(self, rs_pipeline):
        pipe = rs_pipeline
        u_fb = feedback_control(
            pipe.dlq,
            method="superconvergent", subspace_dim=16, iterations=2,
        )
        assert rel_l2(pipe.omega, u_fb, pipe.u_opt) < 1e-6

def test_projection_rejects_singular_projected_system(gain_setup):
    # a kernel engineered so (I - P K) collapses on the coarse subspace
    import warnings

    _, sys0, _ = gain_setup
    from volterra_lq.errors import NumericalError
    from volterra_lq.fredholm import _Projection

    n, du = sys0.n, sys0.du
    rigged = replace(sys0, Kmat=np.eye(n * du), sigma_index=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy flags the rigged factorization
        with pytest.raises(NumericalError, match="subspace"):
            _Projection(rigged, 8)
