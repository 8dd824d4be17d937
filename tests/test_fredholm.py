import numpy as np
import pytest
from dataclasses import replace
from itertools import islice

import volterra_lq as vlq
from volterra_lq import (
    AssumptionError,
    CostData,
    StateOperator,
    assemble_fredholm,
    build_grid,
    control_kernel,
    crosscheck_kernel_samples,
    solve_direct,
    solve_galerkin,
    solve_iterated_galerkin,
    resolvent,
    solve_open_loop,
    solve_superconvergent,
)
from volterra_lq.catalog import get_problem
from volterra_lq.causal import causal_trajectories, lambda_sigma
from volterra_lq.fredholm import representation_terms

from conftest import Pipeline, blockdiag, gain_table, rel_l2


@pytest.fixture(scope="module")
def gain_setup(rs_pipeline):
    pipe = rs_pipeline
    sys0 = assemble_fredholm(pipe.dlq, 0)
    return pipe, sys0, solve_direct(sys0)


def weighted_table_dist(sys, a, b):
    wu = np.repeat(sys.omega, sys.du)
    return float(np.sqrt(np.einsum("i,ij,j->", wu, (a - b) ** 2, wu)))


def direct_gain_rows(Z, R, w):
    """Gain blocks M_t(t, s_j) of every node t, shape (n, n, du, du): a test reference.

    M_t(t, s_j) = (Z_t (R W)[t:, t:] - E_t) / w_j with Z_t the block row
    of t in the problem's `truncation_rows` Z and E_t the unit block row
    of node t, evaluated blockwise as Z_t(j) R_j minus I / w_t on the
    diagonal block.  The blocks with j < t are exactly zero, as Z is.
    """
    n, du = Z.shape[:2]
    by_node = Z.reshape(n * du, n, du).swapaxes(0, 1) @ R  # [j, (t, a), b]
    rows = by_node.reshape(n, n, du, du).swapaxes(0, 1)
    nodes = np.arange(n)
    rows[nodes, nodes] -= np.eye(du) / w[:, None, None]
    return rows


class TestAssembly:
    def test_zero_state_weights_give_zero_system(self, rs_pipeline):
        pipe = rs_pipeline
        cost = CostData(R=pipe.cost.R)
        dlq = vlq.assemble_quadratic_form(pipe.ops, cost)
        sys0 = assemble_fredholm(dlq, 0)
        assert np.all(sys0.kernel == 0.0)
        assert np.all(sys0.rhs == 0.0)
        assert np.all(solve_direct(sys0) == 0.0)

    def test_kernel_symmetric_for_unit_control_weight(self):
        # scalar problem, R = I, G = 0: K(t, xi) = K(xi, t)
        entry = get_problem("constant-coeff", 0.75, 1.0)
        cost = CostData(Q=1.0, R=1.0)
        grid = build_grid(32, 1.0)
        ops = StateOperator(entry.problem, grid)
        dlq = vlq.assemble_quadratic_form(ops, cost)
        sys0 = assemble_fredholm(dlq, 0)
        assert np.allclose(sys0.kernel, sys0.kernel.T, atol=1e-13)

    @pytest.mark.parametrize("t", [0, 9, 30])
    def test_apply_reads_no_row_before_sigma(self, gain_setup, t):
        # K_sigma M equals the masked kernel times M, and NaN in the rows
        # of the nodes < sigma reaches no entry
        _, sys0, _ = gain_setup
        sys_t = replace(sys0, sigma_index=t)
        M = np.random.default_rng(t).normal(size=(sys0.n * sys0.du, 3))
        mask = np.repeat(np.arange(sys0.n) >= t, sys0.du)
        expected = (sys0.Kmat * mask[None, :]) @ M
        poisoned = M.copy()
        poisoned[: t * sys0.du] = np.nan
        got = sys_t.apply(poisoned)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.abs(expected).max()

    def test_kernel_square_integrable_under_refinement(self):
        entry = get_problem("random-smooth", 0.75, 1.0, seed=2)
        norms = []
        for n in (24, 48, 96):
            grid = build_grid(n, 1.0)
            ops = StateOperator(entry.problem, grid)
            dlq = vlq.assemble_quadratic_form(ops, entry.cost)
            sys0 = assemble_fredholm(dlq, 0)
            # weighted L2(dt x dxi) norm of the kernel table
            wu = np.repeat(sys0.omega, sys0.du)
            norms.append(np.sqrt(np.einsum("i,ij,j->", wu, sys0.kernel**2, wu)))
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
            sys0, pipe.dlq, pipe.Psi, n_samples=24, rng=np.random.default_rng(5)
        )
        assert worst <= 1e-4

    def test_crosscheck_rejects_kernel_of_another_beta_or_size(self, rs_pipeline):
        pipe = rs_pipeline
        sys0 = assemble_fredholm(pipe.dlq, 0)
        other_beta = replace(pipe.problem, beta=0.6)
        ops = StateOperator(other_beta, pipe.grid)
        Psi = control_kernel(ops, resolvent(ops))
        with pytest.raises(ValueError, match=r"beta = 0\.6.*beta = 0\.75"):
            crosscheck_kernel_samples(sys0, pipe.dlq, Psi)
        small = Pipeline("random-smooth", seed=42, n=24, with_kernel=True)
        with pytest.raises(ValueError, match="n = 24.*n = 48"):
            crosscheck_kernel_samples(sys0, pipe.dlq, small.Psi)

    def test_crosscheck_rejects_kernel_of_another_grid(self):
        # same n and beta on uniform nodes: read as the graded Psi, it
        # would pass for the graded problem's kernel
        entry = get_problem("random-smooth", 0.75, 1.0, 3)
        graded = StateOperator(entry.problem, build_grid(33, 1.0, "graded"))
        uniform = StateOperator(entry.problem, build_grid(33, 1.0))
        dlq = vlq.assemble_quadratic_form(graded, entry.cost)
        Psi = control_kernel(uniform, resolvent(uniform))
        with pytest.raises(ValueError, match="control kernel Psi was not built from this"):
            crosscheck_kernel_samples(assemble_fredholm(dlq, 0), dlq, Psi)

    def test_crosscheck_needs_a_pair_six_steps_apart(self):
        # on a uniform grid of 9 nodes no two of nodes 1..6 lie 6T/n apart:
        # a ValueError naming n, not an endless search; 10 nodes hold a pair
        nine, ten = (Pipeline("random-smooth", seed=42, n=n, with_kernel=True) for n in (9, 10))
        with pytest.raises(ValueError, match="n = 9"):
            crosscheck_kernel_samples(assemble_fredholm(nine.dlq, 0), nine.dlq, nine.Psi)
        worst = crosscheck_kernel_samples(assemble_fredholm(ten.dlq, 0), ten.dlq, ten.Psi)
        assert np.isfinite(worst)


class TestDirectSolve:
    def test_zero_right_side(self, gain_setup):
        pipe, sys0, _ = gain_setup
        hollow = replace(sys0, kernel=np.zeros_like(sys0.kernel))
        assert np.all(solve_direct(hollow) == 0.0)

    def test_no_integral_term_returns_right_side(self, gain_setup):
        pipe, sys0, _ = gain_setup
        plain = replace(sys0, Kmat=np.zeros_like(sys0.Kmat))
        out = solve_direct(plain)
        assert np.allclose(out, sys0.rhs, atol=1e-14)

    def test_residual_is_round_off(self, gain_setup):
        # relative Fredholm residual of the dense solve at sigma = 0
        _, sys0, oracle = gain_setup
        r = oracle - sys0.Kmat @ oracle - sys0.rhs
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(sys0.rhs)

    def test_matches_definition_through_restricted_inverse(self, gain_setup):
        # gain table from its defining operator expression: the columns
        # of -R^-1 [I - (Lam-R)(I-P)Lam^-1(I-P)] applied to the running
        # gradient of the control kernel columns
        pipe, sys0, oracle = gain_setup
        dlq = pipe.dlq
        n, du = dlq.n, dlq.du
        sc = dlq.cost_samples
        lam_op = dlq.lam / dlq.wu[:, None]
        Rbd = blockdiag(sc.R)
        Rinv_bd = blockdiag(sc.R_inverses())
        sigma = n // 3
        restricted = lambda_sigma(dlq, sigma)
        M_def = np.empty_like(sys0.kernel)
        for k in range(n * du):
            v = -Rbd @ sys0.kernel[:, k]  # (Theta* Q Psi + Theta_T* G Psi_T) column
            y = restricted.solve_embedded(v)
            M_def[:, k] = -Rinv_bd @ (v - (lam_op - Rbd) @ y)
        sys_sigma = replace(sys0, sigma_index=sigma)
        M_fred = solve_direct(sys_sigma)
        scale = np.abs(M_fred).max()
        assert np.max(np.abs(M_def - M_fred)) <= 1e-9 * scale

    def test_uniqueness_from_perturbed_start(self, gain_setup):
        # a long superconvergent sweep forgets its starting iterate
        _, sys0, oracle = gain_setup
        out = solve_superconvergent(sys0, subspace_dim=12, k_iters=6)
        assert weighted_table_dist(sys0, out, oracle) <= 1e-8 * (1.0 + np.abs(oracle).max())


class TestDirectGainSweep:
    def test_gain_rows_match_dense_oracle(self, truncation_case):
        pipe = truncation_case
        dlq = pipe.dlq
        sys0 = assemble_fredholm(dlq, 0)
        R, w = dlq.cost_samples.R, dlq.ops.omega
        rows = direct_gain_rows(dlq.truncation_rows, R, w)
        for sigma in range(dlq.n):
            table = gain_table(solve_direct(replace(sys0, sigma_index=sigma)), dlq.n, dlq.du)
            oracle = table[sigma, sigma:]
            assert np.all(rows[sigma, :sigma] == 0.0)
            row = rows[sigma, sigma:]
            assert row.shape == oracle.shape
            assert np.max(np.abs(row - oracle)) <= 1e-12 * np.abs(oracle).max()

    def test_direct_integrals_contract_the_gain_rows(self, truncation_case):
        # Z_t (R w rg[t]) - rg[t, t] is the gain row of t contracted with w rg[t],
        # without the (n, n, du, du) table of rows
        from volterra_lq.fredholm import _gain_integrals

        dlq = truncation_case.dlq
        n, w = dlq.n, dlq.ops.omega
        rg = np.random.default_rng(4).normal(size=(n, n, dlq.du))
        rows = direct_gain_rows(dlq.truncation_rows, dlq.cost_samples.R, w)
        ref = np.einsum("j,tjab,tjb->ta", w, rows, rg)
        # relative to the summands: the sum itself may cancel
        scale = np.einsum("j,tjab,tjb->ta", w, np.abs(rows), np.abs(rg))
        got = _gain_integrals(dlq, rg, "direct", None, 2)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_fast_paths_make_no_dense_solve(self, rs_pipeline, monkeypatch):
        # neither the dense oracle nor a whole-table projection solve runs
        # behind the representation
        import volterra_lq.fredholm as fredholm

        def refuse(*args, **kwargs):
            raise AssertionError("gain table solver called")

        pipe = rs_pipeline
        for name in (
            "solve_direct", "solve_galerkin", "solve_iterated_galerkin", "solve_superconvergent"
        ):
            monkeypatch.setattr(fredholm, name, refuse)
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        u_fb = representation_terms(pipe.dlq, traj, method="direct")
        assert rel_l2(pipe.omega, u_fb, pipe.u_opt) < 1e-10
        # each method at its own approximation order on this problem
        for method, tol in (("galerkin", 1e-2), ("iterated", 1e-3), ("superconvergent", 1e-6)):
            u_pr = fredholm.representation_terms(
                pipe.dlq, traj, method=method, subspace_dim=12, iterations=2,
            )
            assert rel_l2(pipe.omega, u_pr, pipe.u_opt) < tol


class TestProjectionFamily:
    def test_full_subspace_equals_direct(self, gain_setup):
        _, sys0, oracle = gain_setup
        gal = solve_galerkin(sys0, sys0.n)
        assert np.max(np.abs(gal - oracle)) <= 1e-10 * np.abs(oracle).max()

    def test_zero_right_side(self, gain_setup):
        _, sys0, _ = gain_setup
        hollow = replace(sys0, kernel=np.zeros_like(sys0.kernel))
        assert np.all(solve_galerkin(hollow, 8) == 0.0)

    def test_error_decreases_with_subspace(self, gain_setup):
        _, sys0, oracle = gain_setup
        errs = [
            weighted_table_dist(sys0, solve_galerkin(sys0, q), oracle)
            for q in (6, 12, 24)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_iterated_projection_identity(self, gain_setup):
        # projecting the iterated solution returns the projected solution
        _, sys0, _ = gain_setup
        from volterra_lq.fredholm import _Projection

        gal = solve_galerkin(sys0, 12)
        it = solve_iterated_galerkin(sys0, gal)
        proj = _Projection(sys0, 12, 0)
        # the orthogonal projector in the weighted product
        projected = proj.Hb @ np.linalg.solve(proj.HtW @ proj.Hb, proj.HtW @ it)
        assert np.allclose(projected, gal, atol=1e-11)

    def test_iterated_beats_projection_on_most_trials(self):
        grid = build_grid(48, 1.0)
        wins = 0
        for seed in range(10):
            entry = get_problem("random-smooth", 0.75, 1.0, seed=200 + seed)
            ops = StateOperator(entry.problem, grid)
            dlq = vlq.assemble_quadratic_form(ops, entry.cost)
            sys0 = assemble_fredholm(dlq, 0)
            oracle = solve_direct(sys0)
            gal = solve_galerkin(sys0, 12)
            it = solve_iterated_galerkin(sys0, gal)
            e_gal = weighted_table_dist(sys0, gal, oracle)
            e_it = weighted_table_dist(sys0, it, oracle)
            wins += e_it <= e_gal
        assert wins >= 9

    def test_iterated_rejects_a_table_of_another_shape(self, gain_setup):
        # a 1-D vector would broadcast against the right side, and the
        # blockwise (n, n, du, du) layout is not the flat one
        _, sys0, _ = gain_setup
        gal = solve_galerkin(sys0, 12)
        for bad in (gal[:, 0], gain_table(gal, sys0.n, sys0.du)):
            with pytest.raises(ValueError, match="Galerkin table has shape"):
                solve_iterated_galerkin(sys0, bad)

    def test_superconvergent_start_and_monotone_sweeps(self, gain_setup):
        _, sys0, oracle = gain_setup
        it = solve_iterated_galerkin(sys0, solve_galerkin(sys0, 12))
        sup0 = solve_superconvergent(sys0, 12, 0)
        assert np.array_equal(sup0, it)
        hist = [
            weighted_table_dist(sys0, solve_superconvergent(sys0, 12, k), oracle)
            for k in range(4)
        ]
        floor = 1e-11 * (1.0 + np.abs(oracle).max())
        for k in range(len(hist) - 1):
            assert hist[k + 1] < hist[k] or hist[k + 1] <= floor

    def test_superconvergent_zero_right_side(self, gain_setup):
        _, sys0, _ = gain_setup
        hollow = replace(sys0, kernel=np.zeros_like(sys0.kernel))
        out = solve_superconvergent(hollow, 8, 2)
        assert np.all(out == 0.0)

    def test_projected_system_validates_dimension(self, gain_setup):
        _, sys0, _ = gain_setup
        with pytest.raises(ValueError):
            solve_galerkin(sys0, 1)
        with pytest.raises(ValueError):
            solve_galerkin(sys0, sys0.n + 1)

    @pytest.mark.parametrize("t", [1, 9, 30])
    def test_sweep_reads_no_kernel_column_before_sigma(self, gain_setup, t):
        # NaN in the kernel columns of the nodes < sigma reaches no iterate:
        # H' Wu Kmat carries them, its columns of the nodes >= sigma do not
        from volterra_lq.fredholm import _Projection, _sweep

        _, sys0, _ = gain_setup
        q = 12
        poisoned = sys0.Kmat.copy()
        poisoned[:, : t * sys0.du] = np.nan
        sweeps = []
        for Kmat in (sys0.Kmat, poisoned):
            proj = _Projection(replace(sys0, Kmat=Kmat, sigma_index=t), q, t)
            sweeps.append(list(islice(_sweep(proj, sys0.rhs), 4)))
        for clean, dirty in zip(*sweeps):
            assert np.all(np.isfinite(dirty))
            assert np.array_equal(clean, dirty)

    def test_per_column_apply_never_reads_a_row_before_its_sigma(self, gain_setup):
        # column t at sigma = t: the blocked product equals the masked one,
        # and NaN in every entry above a column's sigma reaches no entry
        from volterra_lq.fredholm import _Projection

        _, sys0, _ = gain_setup
        n, du = sys0.n, sys0.du
        proj = _Projection(sys0, 12, np.arange(n))
        M = np.random.default_rng(8).normal(size=(n * du, n))
        keep = np.arange(n * du)[:, None] >= du * np.arange(n)
        expected = sys0.Kmat @ np.where(keep, M, 0.0)
        got = proj.apply(np.where(keep, M, np.nan))
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.abs(expected).max()
        assert np.array_equal(got, proj.apply(M))

    def test_projection_gains_form_no_masked_kernel_and_no_svd(self, gain_setup, monkeypatch):
        from volterra_lq.fredholm import representation_terms

        pipe = gain_setup[0]
        traj = causal_trajectories(pipe.ops, pipe.u_opt)
        methods = ("galerkin", "iterated", "superconvergent")
        refs = [representation_terms(pipe.dlq, traj, m, subspace_dim=12) for m in methods]

        def refuse(*args, **kwargs):
            raise AssertionError("condition number or SVD in the projection gains")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for method, ref in zip(methods, refs):
            u = representation_terms(pipe.dlq, traj, method, subspace_dim=12)
            assert np.array_equal(u, ref)

    @pytest.mark.parametrize("method", ["galerkin", "iterated", "superconvergent"])
    def test_one_column_sweep_matches_gain_table(self, truncation_case, method):
        # at every node, the sweep of the single column f v equals the
        # whole-table solver's gain row M_t(t, .) contracted with v
        from volterra_lq.fredholm import _gain_integrals

        dlq = truncation_case.dlq
        n, du, q = dlq.n, dlq.du, 8
        w = dlq.ops.omega
        sys0 = assemble_fredholm(dlq, 0)
        rg_all = np.random.default_rng(3).normal(size=(n, n, du))
        integrals = _gain_integrals(dlq, rg_all, method, q, 2)
        for t in range(n):
            sys_t = replace(sys0, sigma_index=t)
            if method == "superconvergent":
                gain = solve_superconvergent(sys_t, q, 2)
            else:
                gain = solve_galerkin(sys_t, q)
                if method == "iterated":
                    gain = solve_iterated_galerkin(sys_t, gain)
            rg = rg_all[t]
            row = gain_table(gain, n, du)[t, t:]
            ref = np.einsum("j,jab,jb->a", w[t:], row, rg[t:])
            # relative to the summands: the sum itself may cancel
            scale = np.einsum("j,jab,jb->a", w[t:], np.abs(row), np.abs(rg[t:]))
            assert np.all(np.abs(integrals[t] - ref) <= 1e-13 * scale)


class TestReconstruction:
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
            ops = StateOperator(entry.problem, grid)
            dlq = vlq.assemble_quadratic_form(ops, entry.cost)
            sys0 = assemble_fredholm(dlq, 0)
            return gain_table(solve_direct(sys0), grid.n, dlq.du), grid

        ref_kernel, _ = gain_row(ref_grid)
        i_ref = int(np.argmin(np.abs(ref_grid.nodes - t_probe)))
        j_ref = int(np.argmin(np.abs(ref_grid.nodes - s_star)))
        reference = ref_kernel[i_ref, j_ref]
        errs = []
        for n in (9, 17, 33):
            kernel, grid = gain_row(build_grid(n, 1.0))
            i = int(np.argmin(np.abs(grid.nodes - t_probe)))
            # piecewise-linear in the source variable, per gain component
            row = kernel[i].reshape(grid.n, -1)
            rec = np.array([np.interp(s_star, grid.nodes, c) for c in row.T])
            errs.append(np.max(np.abs(rec - reference.ravel())))
        assert errs[0] > errs[1] > errs[2]

    def test_gain_continuous_in_source(self, gain_setup):
        # shrinking source gaps shrink the gain increment (modulus of
        # continuity of the control kernel in its second argument)
        pipe, sys0, oracle = gain_setup
        grid = pipe.grid
        s0 = grid.nodes[10]
        wu = np.repeat(sys0.omega, sys0.du)
        table = gain_table(oracle, grid.n, sys0.du)
        diffs = []
        for gap in (8, 4, 2):
            col_a = table[:, 10].reshape(grid.n, -1)
            col_b = table[:, 10 + gap].reshape(grid.n, -1)
            d = col_a - col_b
            diffs.append(float(np.sqrt(np.einsum("i,ik,ik->", sys0.omega, d, d))))
        assert diffs[0] > diffs[1] > diffs[2]
        _ = s0, wu


class TestFeedbackControl:
    def test_zero_state_weights(self, rs_pipeline):
        pipe = rs_pipeline
        cost = CostData(R=pipe.cost.R)
        dlq = vlq.assemble_quadratic_form(pipe.ops, cost)
        u = representation_terms(dlq, causal_trajectories(dlq.ops, solve_open_loop(dlq)))
        assert np.all(u == 0.0)

    def test_affine_only_data_matches_oracle(self, rs_pipeline):
        # Q = G = 0 forces a vanishing gain kernel; the control comes
        # from the affine terms alone and must still match the optimizer
        pipe = rs_pipeline
        cost = CostData(R=pipe.cost.R, q=pipe.cost.q, g=pipe.cost.g)
        dlq = vlq.assemble_quadratic_form(pipe.ops, cost)
        sys0 = assemble_fredholm(dlq, 0)
        assert np.all(sys0.kernel == 0.0)
        u_direct = solve_open_loop(dlq)
        u_fb = representation_terms(dlq, causal_trajectories(dlq.ops, u_direct))
        assert rel_l2(pipe.omega, u_fb, u_direct) < 1e-10

    def test_matches_oracle(self, rs_pipeline):
        pipe = rs_pipeline
        u_fb = representation_terms(pipe.dlq, causal_trajectories(pipe.ops, pipe.u_opt))
        assert rel_l2(pipe.omega, u_fb, pipe.u_opt) < 1e-6

    def test_projection_backed_gain_still_accurate(self, rs_pipeline):
        pipe = rs_pipeline
        u_fb = representation_terms(
            pipe.dlq, causal_trajectories(pipe.ops, pipe.u_opt),
            method="superconvergent", subspace_dim=16, iterations=2,
        )
        assert rel_l2(pipe.omega, u_fb, pipe.u_opt) < 1e-6

    @pytest.mark.parametrize("method", ["bogus", "Direct"])
    def test_unknown_method_is_named_before_the_subspace(self, rs_pipeline, method):
        traj = causal_trajectories(rs_pipeline.ops, rs_pipeline.u_opt)
        with pytest.raises(ValueError, match=f"unknown gain solver '{method}'"):
            representation_terms(rs_pipeline.dlq, traj, method=method)


def test_projection_family_refuses_small_beta():
    # at beta <= 1/2 the gain kernel is unbounded on its diagonal, like
    # |t - xi|^(2 beta - 1), which no hat subspace resolves: every
    # projection solve builds a `_Projection`, and that refuses the system.
    # The direct solve and the direct gain have no such limit.
    from volterra_lq.fredholm import _Projection

    entry = get_problem("random-smooth", 0.4, 1.0, seed=7)
    ops = StateOperator(entry.problem, build_grid(32, 1.0))
    dlq = vlq.assemble_quadratic_form(ops, replace(entry.cost, G=None, g=None))
    sys0 = assemble_fredholm(dlq, 0)
    calls = (
        lambda: solve_galerkin(sys0, 8),
        lambda: solve_superconvergent(sys0, 8, 2),
        lambda: _Projection(sys0, 8, 0),
        lambda: representation_terms(
            dlq, causal_trajectories(ops, solve_open_loop(dlq)), method="iterated", subspace_dim=8
        ),
    )
    for call in calls:
        with pytest.raises(AssumptionError, match="projection gain solvers need beta > 1/2"):
            call()
    assert np.all(np.isfinite(solve_direct(sys0)))


def test_projection_rejects_singular_projected_system(gain_setup):
    # a kernel engineered so (I - P K) collapses on the coarse subspace
    _, sys0, _ = gain_setup
    from volterra_lq.errors import NumericalError
    from volterra_lq.fredholm import _Projection

    n, du = sys0.n, sys0.du
    rigged = replace(sys0, Kmat=np.eye(n * du), sigma_index=0)
    with pytest.raises(NumericalError, match="subspace"):
        _Projection(rigged, 8, 0)


def test_projection_rejects_nearly_singular_projected_system(gain_setup):
    # nonzero pivots but condition ~1e15: only the condition estimate of the
    # LU factor can refuse it
    from scipy.linalg import lu_factor

    from volterra_lq.errors import NumericalError
    from volterra_lq.fredholm import _Projection

    _, sys0, _ = gain_setup
    q = 8
    space = _Projection(sys0, q, 0)
    gram = space.HtW @ space.Hb
    m = gram.shape[0]
    rng = np.random.default_rng(4)
    U, _ = np.linalg.qr(rng.normal(size=(m, m)))
    target = U @ np.diag(np.r_[np.ones(m - 1), 1e-15]) @ U.T
    # K = H X H' Wu gives the projected matrix Gram - Gram X Gram = target
    ginv = np.linalg.inv(gram)
    Kmat = space.Hb @ (ginv @ (gram - target) @ ginv) @ space.HtW
    proj_mat = gram - (space.HtW @ Kmat) @ space.Hb
    assert np.linalg.cond(proj_mat) > 1e14
    assert np.all(np.diag(lu_factor(proj_mat)[0]) != 0.0)
    with pytest.raises(NumericalError, match="nearly singular"):
        _Projection(replace(sys0, Kmat=Kmat, sigma_index=0), q, 0)


def dyadic_system(columns):
    """A gain equation on n = 33 uniform nodes whose projected matrices are exact.

    With q = 5 hats on every 8th node, the hats, the trapezoid weights and
    so the Gram matrix are dyadic, and so are the kernels built here from
    hat columns, so every P_sigma is computed without rounding.  `columns`
    maps a node j to the flat kernel column Kmat[:, j].
    """
    from volterra_lq.fredholm import FredholmSystem

    grid = build_grid(33, 1.0)
    Kmat = np.zeros((33, 33))
    for j, column in columns.items():
        Kmat[:, j] = column
    omega = grid.trapezoid_weights()
    return FredholmSystem(
        kernel=Kmat / omega, Kmat=Kmat, sigma_index=0, grid=grid, du=1, omega=omega, beta=0.75
    )


@pytest.mark.parametrize(
    "eps, message",
    [
        (0.0, r"^projected gain system is singular; increase the subspace dimension$"),
        (
            2.0**-50,
            r"^projected gain system nearly singular \(cond .*\); increase the subspace dimension$",
        ),
    ],
)
def test_stacked_projection_refuses_one_singular_truncation_point(eps, message):
    # Kmat[:, 8] = (1 - eps) h_1, hat 1 sampled, and Hb[8] = e_1 give
    # P_sigma = Gram (I - (1 - eps) e_1 e_1') for 7 < sigma <= 8: column 1 is
    # eps Gram e_1.  Kmat[:, 7] = -h_1 restores row 1 for every sigma <= 7,
    # and sigma > 8 reads neither column, so only sigma = 8 is refused, with
    # the message of the single truncation point
    from volterra_lq.errors import NumericalError
    from volterra_lq.fredholm import _hat_basis, _Projection

    Hb = _hat_basis(33, 5)
    HtW = Hb.T * dyadic_system({}).omega
    hat = Hb[:, 1]
    sys0 = dyadic_system({7: -hat, 8: (1.0 - eps) * hat})
    proj_8 = HtW @ Hb - HtW @ sys0.Kmat[:, 8:] @ Hb[8:]
    if eps == 0.0:
        assert np.all(proj_8[:, 1] == 0.0)
    else:
        assert np.linalg.cond(proj_8) > 1e14
    for sigma in (0, 7, 9, 32):
        _Projection(replace(sys0, sigma_index=sigma), 5, sigma)
    with pytest.raises(NumericalError, match=message):
        _Projection(replace(sys0, sigma_index=8), 5, 8)
    with pytest.raises(NumericalError, match=message):
        _Projection(sys0, 5, np.arange(33))


def test_projection_representation_factors_once(monkeypatch, truncation_case):
    # every truncation point of the representation comes from one
    # projection and one stacked inversion of the n projected matrices
    import volterra_lq.fredholm as fredholm

    dlq = truncation_case.dlq
    traj = causal_trajectories(dlq.ops, solve_open_loop(dlq))
    builds, stacks = [], []

    class CountingProjection(fredholm._Projection):
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    invert = fredholm._invert_projected

    def counting_invert(proj_mats):
        stacks.append(proj_mats.shape)
        return invert(proj_mats)

    monkeypatch.setattr(fredholm, "_Projection", CountingProjection)
    monkeypatch.setattr(fredholm, "_invert_projected", counting_invert)
    q, du = 8, dlq.du
    for method in ("galerkin", "iterated", "superconvergent"):
        builds.clear()
        stacks.clear()
        fredholm.representation_terms(dlq, traj, method, subspace_dim=q)
        assert len(builds) == 1
        assert stacks == [(dlq.n, q * du, q * du)]


def test_single_truncation_point_inverse_is_its_entry_of_the_stack(truncation_case):
    # one sigma sums the same node terms from the last node back to sigma
    # as every node does, so its projected inverse is entry sigma bit for bit
    from volterra_lq.fredholm import _Projection

    dlq = truncation_case.dlq
    sys0 = assemble_fredholm(dlq, 0)
    n, q = dlq.n, 8
    stack = _Projection(sys0, q, np.arange(n))._inv
    assert stack.shape[0] == n
    for sigma in (0, 5, n - 1):
        single = _Projection(replace(sys0, sigma_index=sigma), q, sigma)._inv
        assert np.array_equal(single, stack[sigma : sigma + 1])
