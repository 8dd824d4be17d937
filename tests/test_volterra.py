from dataclasses import replace

import numpy as np
import pytest
from scipy.special import beta as beta_function, gammaln

from volterra_lq import (
    ProblemData,
    build_grid,
    control_kernel,
    product_weights,
    resolvent,
    solve_state,
)
from volterra_lq.cache import cached_resolvent
from volterra_lq.catalog import example_2_1_control, get_problem
from volterra_lq import errors as vlq_errors
from volterra_lq import volterra
from volterra_lq.volterra import (
    StateOperator,
    _column_plan,
    _convolve_columns,
    _fold,
    _lower_product,
    _lower_table,
    _node_inner,
    _pair_column,
    _pair_column_weights,
    sample_kernel,
    sample_trajectory,
)
from volterra_lq.grids import Grid, lower_product_weights
from volterra_lq.fredholm import assemble_fredholm, crosscheck_kernel_samples
from volterra_lq.lq import assemble_quadratic_form
from volterra_lq import scenarios
from volterra_lq.scenarios import _series_error, _varconst_deviation

from conftest import (
    lower_weight_table,
    reference_convolve,
    reference_fold,
    reference_series,
    rel_l2,
)


def scalar_problem(A, B, phi, beta=0.75, T=1.0):
    return ProblemData(A=A, B=B, phi=phi, beta=beta, T=T, n_state=1, n_control=1)


def const_kernel(c):
    return lambda t, s: np.broadcast_to(
        c, np.broadcast_shapes(np.shape(t), np.shape(s))
    )[..., None, None]


def column_loop_residuals(kernel, Asamp, first, grid):
    """Reference residual pass: one batched matmul and einsum per column."""
    beta = kernel.beta
    n = grid.n
    D = kernel.regular_part
    sw = product_weights(grid, beta)
    phi_vals = kernel.eval_offdiag(grid)
    res_def = res_tr = 0.0
    for j in np.arange(0, n - 2, max(1, (n - 2) // 48)):
        denom = 1.0 + np.abs(phi_vals[:, j]).max(axis=(1, 2))
        ii = np.arange(j + 2, n)
        quad = np.einsum("it,itxz->ixz", sw, np.matmul(Asamp, D[None, :, j]))
        rhs = first[:, j] + quad
        res_def = max(
            res_def,
            float(np.max(np.abs(D[ii, j] - rhs[ii]).max(axis=(1, 2)) / denom[ii])),
        )
        Wlow = lower_weight_table(grid, beta, j)
        quad_tr = np.einsum("it,itxz->ixz", Wlow, np.matmul(D[j:, j:], Asamp[None, j:, j]))
        rhs_tr = first[j:, j] + quad_tr
        res_tr = max(
            res_tr,
            float(np.max(np.abs(D[ii, j] - rhs_tr[ii - j]).max(axis=(1, 2)) / denom[ii])),
        )
    return {"defining": res_def, "transposed": res_tr}


def record_levels(monkeypatch, poison=None):
    """Wrap the level product of `resolvent` on either grid; returns the list of levels it fills.

    The uniform level is the one `_column_plan` returns, any other grid's
    is `_convolve_columns`.  Both are source-major (j, i); each level is
    copied in (i, j) layout, since the plan's buffer is overwritten by the
    next level.  poison(k, F), when given, may change level k's product F
    after it is recorded and before the series reads it.
    """
    levels = []

    def recorded(level):
        def wrapped(*args):
            F = level(*args)
            levels.append(F.swapaxes(0, 1).copy())
            if poison is not None:
                poison(len(levels), F)
            return F

        return wrapped

    def column_plan(A):
        coeff, level = _column_plan(A)
        return coeff, recorded(level)

    monkeypatch.setattr(volterra, "_column_plan", column_plan)
    monkeypatch.setattr(volterra, "_convolve_columns", recorded(_convolve_columns))
    return levels


def series_kernel(a, beta, dt, terms=80):
    """Iterated-kernel series for a constant scalar coefficient."""
    return sum(
        np.exp(k * gammaln(beta) - gammaln(k * beta)) * a**k * dt ** (k * beta - 1.0)
        for k in range(1, terms + 1)
    )


class TestResolvent:
    def test_zero_kernel(self):
        grid = build_grid(17, 1.0)
        p = scalar_problem(None, const_kernel(1.0), None)
        ker = resolvent(StateOperator(p, grid))
        assert np.all(ker.singular_coeff == 0.0)
        assert np.all(ker.regular_part == 0.0)
        assert ker.residuals == {"defining": 0.0, "transposed": 0.0}

    def test_constant_coefficient_matches_series(self):
        beta, a = 0.75, 1.0
        grid = build_grid(97, 1.0)
        p = scalar_problem(const_kernel(a), None, None, beta=beta)
        ker = resolvent(StateOperator(p, grid))
        h = grid.spacings[0]
        for d in range(4, grid.n, 5):
            dt = d * h
            exact = series_kernel(a, beta, dt)
            approx = (
                ker.singular_coeff[d, 0, 0, 0] * dt ** (beta - 1.0)
                + ker.regular_part[d, 0, 0, 0]
            )
            assert abs(approx - exact) / abs(exact) < 1e-8

    def test_transposed_residual_comparable_to_defining(self, rs_pipeline_kernel):
        res = rs_pipeline_kernel.kernel.residuals
        assert res["defining"] > 0.0
        assert res["transposed"] <= 10.0 * res["defining"]

    def test_factored_coefficient_bound(self, rs_pipeline_kernel):
        # |Phi(t,s)| (t-s)^(1-beta) <= |A| + K |A|^2 B(beta,beta) (t-s)^beta
        # with K the runtime tail constant of the iterated-kernel series
        pipe = rs_pipeline_kernel
        ker = pipe.kernel
        beta = ker.beta
        grid = pipe.grid
        ops = pipe.ops
        norm_a = np.abs(ops.A_samples).max() * ops.dx
        K_run = ker.coeff_bound
        dt = grid.nodes[:, None] - grid.nodes[None, :]
        il = np.tril_indices(grid.n, k=-1)
        lhs = np.abs(
            ker.singular_coeff[il]
            + ker.regular_part[il] * dt[il][:, None, None] ** (1.0 - beta)
        ).max(axis=(1, 2))
        rhs = norm_a + K_run * norm_a**2 * beta_function(beta, beta) * dt[il] ** beta
        assert np.all(lhs <= rhs + 1e-12)

    def test_uniform_and_general_paths_agree(self):
        # the column-0 slices of the uniform route against the per-column
        # incomplete-beta weights on the same uniform grid
        grid = build_grid(40, 1.0)
        p = get_problem("random-smooth", 0.75, 1.0, seed=5).problem
        As = sample_kernel(p.A, grid, 2, 2)
        Aj = As.swapaxes(0, 1)
        u1 = _convolve_columns(_node_inner(As), Aj, _pair_column_weights(grid, 0.75, 0.75))
        u2 = _convolve_columns(_node_inner(As), Aj, lambda j: _pair_column(grid, 0.75, 0.75, j))
        assert np.allclose(u1, u2, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("q", [0.75, 3.0, 9.75])
    def test_column_slices_weigh_nothing_past_the_target(self, q):
        # every uniform column is a slice of column 0's weights: on dyadic
        # nodes the slices equal each column's own weights bit for bit, and
        # both weigh the samples past the target t_i exactly 0
        grid = build_grid(33, 1.0)
        column = _pair_column_weights(grid, 0.75, q)
        for j in range(grid.n - 1):
            W = column(j)
            assert np.array_equal(W, _pair_column(grid, 0.75, q, j))
            assert np.all(np.triu(W, 2) == 0.0)

    @pytest.mark.parametrize(
        "name, seed, kind",
        [
            ("random-smooth", 3, "uniform"),
            ("random-smooth", 3, "graded"),
            ("constant-coeff", 0, "uniform"),
        ],
    )
    def test_residual_pass_matches_column_loop(self, name, seed, kind):
        grid = build_grid(33, 1.0, kind)
        p = get_problem(name, 0.75, 1.0, seed=seed).problem
        ker = resolvent(StateOperator(p, grid))
        As = sample_kernel(p.A, grid, p.n_state, p.n_state)
        pair = _pair_column_weights(grid, 0.75, 0.75)
        first = _convolve_columns(_node_inner(As), As.swapaxes(0, 1), pair).swapaxes(0, 1)
        ref = column_loop_residuals(ker, As, first, grid)
        for key in ("defining", "transposed"):
            assert ref[key] > 0.0
            assert abs(ker.residuals[key] - ref[key]) <= 1e-11 * ref[key]

    @pytest.mark.parametrize("kind, n", [("uniform", 128), ("graded", 65)])
    def test_constant_coefficient_series_to_machine_precision(self, kind, n):
        # the README's claim; the convergence scenario keeps its own 1e-6 gate
        p = get_problem("constant-coeff", 0.75, 1.0).problem
        grid = build_grid(n, 1.0, kind)
        ops = StateOperator(p, grid)
        assert _series_error(ops, resolvent(ops)) <= 1e-13

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_column_convolution_matches_triple_loop(self, kind):
        # unequal block sizes, so a wrong reshape or block order fails
        grid = build_grid(9, 1.0, kind)
        n, d1, dm, d2 = grid.n, 2, 3, 1
        rng = np.random.default_rng(11)
        F = rng.normal(size=(n, n, d1, dm))
        G = rng.normal(size=(n, n, dm, d2))
        pair = _pair_column_weights(grid, 0.75, 0.6)
        ref = np.zeros((n, n, d1, d2))
        for j in range(n - 1):
            Wj = pair(j)
            for i in range(j + 1, n):
                for l in range(j, n):
                    ref[i, j] += Wj[i - j - 1, l - j] * F[i, l] @ G[l, j]
        got = _convolve_columns(_node_inner(F), G.swapaxes(0, 1), pair).swapaxes(0, 1)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_lower_product_matches_triple_loop(self, kind):
        # unequal block sizes and c < n sampled columns; the lower-endpoint
        # weights meet a strictly lower F, as the regular part is, and the
        # reference weighs each target with its own table row
        grid = build_grid(9, 1.0, kind)
        n, d1, dm, d2 = grid.n, 2, 3, 1
        rng = np.random.default_rng(12)
        F = rng.normal(size=(n, n, d1, dm)) * np.tri(n, k=-1)[:, :, None, None]
        cols = np.array([0, 2, 3, 6])
        G = rng.normal(size=(n, cols.size, dm, d2))
        ref = np.zeros((n, cols.size, d1, d2))
        for col, j in enumerate(cols):
            Wj = lower_weight_table(grid, 0.75, j)
            for i in range(j + 1, n):
                for l in range(j, n):
                    ref[i, col] += Wj[i - j, l - j] * F[i, l] @ G[l, col]
        got = _lower_product(F, G, _lower_table(grid, 0.75)[:, cols])
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)

    def test_fold_of_sampled_columns_matches_the_broadcast_reference(self):
        grid = build_grid(9, 1.0, "graded")
        rng = np.random.default_rng(13)
        cols = np.array([1, 4, 5])
        samples = rng.normal(size=(grid.n, cols.size, 2, 3))
        weights = _lower_table(grid, 0.75)[:, cols]
        got = _fold(weights, samples)
        assert got.shape == (grid.n * 2, cols.size * 3)
        assert np.array_equal(got, reference_fold(weights, samples))

    @pytest.mark.parametrize("n", [9, 17])
    @pytest.mark.parametrize("dx", [2, 3])
    def test_uniform_level_matches_triple_loop(self, dx, n):
        # A lower triangular, as sampled; two levels through one plan, so
        # the second reads its re-expanded weights and the coefficient
        # written into the plan between them
        grid = build_grid(n, 1.0)
        rng = np.random.default_rng(10 * n + dx)
        A = rng.normal(size=(n, n, dx, dx)) * np.tri(n)[:, :, None, None]
        coeff, level = _column_plan(A)
        for q in (0.75, 2.25):
            C = rng.normal(size=(n, n, dx, dx))
            coeff[...] = C.swapaxes(0, 1)
            column = _pair_column_weights(grid, 0.75, q)
            W0 = column(0)
            ref = np.zeros((n, n, dx, dx))
            for j in range(n - 1):
                for i in range(j + 1, n):
                    for l in range(j, n):
                        ref[i, j] += W0[i - j - 1, l - j] * A[i, l] @ C[l, j]
            got = level(column).swapaxes(0, 1)
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)
            assert np.all(got[np.triu(np.ones((n, n), dtype=bool))] == 0.0)

    @pytest.mark.parametrize("n", [17, 40])
    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    @pytest.mark.parametrize("name", ["random-smooth", "constant-coeff"])  # dx = 2 and 1
    def test_series_and_psi_match_the_fancy_index_reference(self, name, kind, n):
        ops = StateOperator(get_problem(name, 0.75, 1.0, seed=3).problem, build_grid(n, 1.0, kind))
        ker = resolvent(ops)
        C, D = reference_series(ops)
        assert np.array_equal(ker.singular_coeff, C)
        assert np.array_equal(ker.regular_part, D)
        # piece 2 is one flat GEMM of D against the folded lower-endpoint
        # weights; each column of the table is the full row of its own
        B, dx, du = ops.B_samples, ops.dx, ops.du
        lower = np.zeros((n, n))
        for j in range(n):
            lower[j:, j] = lower_weight_table(ops.grid, 0.75, j)[-1]
        D_flat = D.transpose(0, 2, 1, 3).reshape(n * dx, n * dx)
        piece2 = (D_flat @ reference_fold(lower, B)).reshape(n, dx, n, du).transpose(0, 2, 1, 3)
        pair = _pair_column_weights(ops.grid, 0.75, 0.75)
        Psi = control_kernel(ops, ker)
        ref = reference_convolve(C, B, pair) + piece2
        assert np.array_equal(Psi.regular_part, ref)

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_every_level_product_vanishes_on_and_above_the_diagonal(self, monkeypatch, kind):
        # the whole-array updates of D and of the next coefficient rely on it
        problem = get_problem("random-smooth", 0.75, 1.0, seed=3).problem
        ops = StateOperator(problem, build_grid(33, 1.0, kind))
        levels = record_levels(monkeypatch)
        resolvent(ops)
        assert len(levels) > 5
        upper = np.triu(np.ones((33, 33), dtype=bool))
        for F in levels:
            assert np.all(F[upper] == 0.0)

    def test_diagonal_matrix_coefficient_componentwise(self):
        beta = 0.8
        grid = build_grid(49, 1.0)
        a1, a2 = 0.9, -0.5

        def A(t, s):
            shape = np.broadcast_shapes(np.shape(t), np.shape(s))
            out = np.zeros(shape + (2, 2))
            out[..., 0, 0] = a1
            out[..., 1, 1] = a2
            return out

        p = ProblemData(A=A, B=None, phi=None, beta=beta, T=1.0, n_state=2)
        ker = resolvent(StateOperator(p, grid))
        h = grid.spacings[0]
        for d in (6, 20, 44):
            dt = d * h
            got = ker.singular_coeff[d, 0] * dt ** (beta - 1.0) + ker.regular_part[d, 0]
            assert abs(got[0, 0] - series_kernel(a1, beta, dt)) < 1e-10
            assert abs(got[1, 1] - series_kernel(a2, beta, dt)) < 1e-10
            assert abs(got[0, 1]) < 1e-14

    def test_graded_grid_residuals_reported(self):
        grid = build_grid(40, 1.0, "graded", 2.0)
        p = get_problem("random-smooth", 0.75, 1.0, seed=5).problem
        ker = resolvent(StateOperator(p, grid))
        assert 0.0 < ker.residuals["defining"] < 1e-2
        assert 0.0 < ker.residuals["transposed"] < 1e-2

    def test_residuals_vanish_under_refinement(self):
        p = get_problem("random-smooth", 0.75, 1.0, seed=5).problem
        res = [
            resolvent(StateOperator(p, build_grid(n, 1.0))).residuals for n in (32, 64, 128)
        ]
        for key in ("defining", "transposed"):
            assert res[0][key] > res[1][key] > res[2][key]
            # at least first order in the step
            assert res[0][key] / res[2][key] > 4.0


def memo_key(grid, p, q):
    return (grid.nodes.tobytes(), p, q)


class TestPairMemo:
    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_stored_tables_equal_fresh_columns(self, weight_memo, kind):
        # n - 1 = 39 is not a power of two, so a uniform column's slice of
        # column 0 is not its own weights: the memo keeps column 0's table
        grid = build_grid(40, 1.0, kind)
        first = _pair_column_weights(grid, 0.75, 1.5)
        again = _pair_column_weights(grid, 0.75, 1.5)
        stored = weight_memo[memo_key(grid, 0.75, 1.5)]
        cols = [0] if kind == "uniform" else range(grid.n - 1)
        assert len(stored) == len(cols)
        for j in cols:
            assert np.array_equal(stored[j], _pair_column(grid, 0.75, 1.5, j))
        for j in range(grid.n - 1):
            assert np.array_equal(first(j), again(j))
            assert np.shares_memory(again(j), stored[0 if kind == "uniform" else j])

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_stored_tables_are_read_only(self, weight_memo, kind):
        grid = build_grid(17, 1.0, kind)
        column = _pair_column_weights(grid, 0.75, 0.75)
        for W in (column(0), column(5), *weight_memo[memo_key(grid, 0.75, 0.75)]):
            with pytest.raises(ValueError, match="read-only"):
                W[0, 0] = 1.0

    def test_linspace_nodes_given_by_hand_share_every_entry(self, weight_memo):
        # a grid is its nodes: the same nodes given as an array read the
        # tables `build_grid`'s grid stored, and build the same kernel
        problem = get_problem("random-smooth", 0.75, 1.0, seed=3).problem
        built = build_grid(65, 1.0)
        given = Grid(np.linspace(0.0, 1.0, 65), 1.0)
        first = resolvent(StateOperator(problem, built))
        keys = list(weight_memo)
        assert all(len(tables) == 1 for key, tables in weight_memo.items() if len(key) == 3)
        again = resolvent(StateOperator(problem, given))
        assert list(weight_memo) == keys
        assert np.array_equal(first.regular_part, again.regular_part)
        assert first.residuals == again.residuals

    def test_nodes_one_ulp_off_linspace_weigh_each_column(self, weight_memo):
        # no uniform shortcut: each column's own weights, which agree with
        # the slices of column 0 to round-off
        problem = get_problem("random-smooth", 0.75, 1.0, seed=3).problem
        built = build_grid(65, 1.0)
        nodes = built.nodes.copy()
        nodes[32] = np.nextafter(nodes[32], 1.0)
        off = Grid(nodes, 1.0)
        assert built.uniform and not off.uniform
        ref = resolvent(StateOperator(problem, built))
        got = resolvent(StateOperator(problem, off))
        assert len(weight_memo[memo_key(off, 0.75, 0.75)]) == off.n - 1
        scale = np.max(np.abs(ref.regular_part))
        assert np.max(np.abs(got.regular_part - ref.regular_part)) <= 1e-13 * scale

    @pytest.mark.parametrize("kind, n", [("uniform", 17), ("graded", 9)])
    def test_tables_past_the_cap_are_computed_not_stored(self, weight_memo, monkeypatch, kind, n):
        grid = build_grid(n, 1.0, kind)
        one = 8 * ((n - 1) * n if kind == "uniform" else (n - 1) * n * (n + 1) // 3)
        cap = 2 * one + one // 2
        monkeypatch.setattr(volterra, "_WEIGHT_MEMO_BYTES", cap)
        levels = [k * 0.75 for k in range(1, 6)]
        for q in levels:
            column = _pair_column_weights(grid, 0.75, q)
            assert sum(W.nbytes for tables in weight_memo.values() for W in tables) <= cap
            W0 = _pair_column(grid, 0.75, q, 0)
            for j in range(n - 1):
                own = _pair_column(grid, 0.75, q, j)
                fresh = W0[: n - j - 1, : n - j] if kind == "uniform" else own
                assert np.array_equal(column(j), fresh)
        # the first levels stay; nothing is evicted for the later ones
        assert list(weight_memo) == [memo_key(grid, 0.75, q) for q in levels[:2]]

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_problems_sharing_the_memo_match_fresh_resolvents(self, weight_memo, kind):
        grid = build_grid(33, 1.0, kind)
        problems = [get_problem("random-smooth", 0.75, 1.0, seed=s).problem for s in (3, 8)]
        shared = [resolvent(StateOperator(p, grid)) for p in problems]
        assert weight_memo
        for p, ker in zip(problems, shared):
            weight_memo.clear()
            fresh = resolvent(StateOperator(p, grid))
            assert np.array_equal(ker.singular_coeff, fresh.singular_coeff)
            assert np.array_equal(ker.regular_part, fresh.regular_part)
            assert ker.residuals == fresh.residuals
            assert ker.coeff_bound == fresh.coeff_bound

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_one_lower_table_per_grid(self, weight_memo, monkeypatch, kind):
        # the lower-endpoint weights depend on the grid and beta alone: the
        # first resolvent stores their table, read-only, under a key that is
        # not a pair-weight key, and no later resolvent, Psi or cross-check
        # on that grid computes any
        grid = build_grid(33, 1.0, kind)
        entries = [get_problem("random-smooth", 0.75, 1.0, seed=s) for s in (3, 8)]
        first = resolvent(StateOperator(entries[0].problem, grid))
        (key,) = [key for key in weight_memo if key[-1] == "lower table"]
        assert len(key) == 2
        (table,) = weight_memo[key]
        assert table.shape == (grid.n, grid.n)
        for j in range(grid.n):
            assert np.array_equal(table[j:, j], lower_product_weights(grid, 0.75, j))
            assert np.all(table[:j, j] == 0.0)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0

        def no_new_rows(*args):
            raise AssertionError("lower-endpoint weights were computed again")

        monkeypatch.setattr(volterra, "lower_product_weights", no_new_rows)
        again = resolvent(StateOperator(entries[0].problem, grid))
        assert again.residuals == first.residuals
        ops = StateOperator(entries[1].problem, grid)
        Psi = control_kernel(ops, resolvent(ops))
        dlq = assemble_quadratic_form(ops, entries[1].cost)
        assert crosscheck_kernel_samples(assemble_fredholm(dlq, 0), dlq, Psi) < 1e-2


class TestSolveState:
    def test_zero_inhomogeneity(self):
        grid = build_grid(17, 1.0)
        p = scalar_problem(const_kernel(0.8), None, None)
        assert np.all(solve_state(StateOperator(p, grid), np.zeros((17, 1))) == 0.0)

    @pytest.mark.parametrize("dx", [1, 2])
    def test_zero_kernel_returns_inhomogeneity(self, dx):
        # no special case: stepping with a zero WA returns xi bit for bit
        grid = build_grid(17, 1.0, "graded")
        p = ProblemData(A=None, B=None, phi=None, beta=0.75, T=1.0, n_state=dx)
        xi = np.sin(grid.nodes[:, None] * np.arange(1, dx + 1))
        assert np.array_equal(solve_state(StateOperator(p, grid), xi), xi)

    def test_stepping_matches_resolvent_convolution(self):
        # variation of constants: forward substitution vs the dense
        # resolvent matrix, two factorizations of the same discrete system
        grid = build_grid(64, 1.0)
        p = get_problem("random-smooth", 0.75, 1.0, seed=9).problem
        rng = np.random.default_rng(1)
        xi = rng.normal(size=(grid.n, p.n_state))
        ops = StateOperator(p, grid)
        x_step = solve_state(ops, xi)
        n = grid.n * p.n_state
        rmat = np.linalg.inv(np.eye(n) - ops.WA_flat) - np.eye(n)
        x_conv = xi + (rmat @ xi.ravel()).reshape(grid.n, p.n_state)
        assert rel_l2(grid.trapezoid_weights(), x_step, x_conv) < 1e-6

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_blocked_stepping_matches_per_node_loop(self, kind):
        # reference: one implicit dx x dx solve per node against the past
        grid = build_grid(65, 1.0, kind)
        p = get_problem("random-smooth", 0.75, 1.0, 3).problem
        xi = np.random.default_rng(2).normal(size=(grid.n, p.n_state))
        sw = product_weights(grid, 0.75)
        A = sample_kernel(p.A, grid, p.n_state, p.n_state)
        X = xi.copy()
        for i in range(1, grid.n):
            rhs = xi[i] + np.einsum("j,jxy,jy->x", sw[i, :i], A[i, :i], X[:i])
            X[i] = np.linalg.solve(np.eye(p.n_state) - sw[i, i] * A[i, i], rhs)
        x_step = solve_state(StateOperator(p, grid), xi)
        assert np.abs(x_step - X).max() <= 1e-14 * np.abs(X).max()

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    @pytest.mark.parametrize(
        "name,seed", [("random-smooth", 3), ("constant-coeff", 0)], ids=["rs", "const"]
    )
    def test_stepping_consistent_with_factored_kernel_quadrature(self, name, seed, kind):
        # reference for the convergence scenario's varconst check: x = xi +
        # int Phi xi by a per-row loop, product weights on C (t-s)^(beta-1)
        # and the trapezoid rule on D, against the stepping solve
        grid = build_grid(65, 1.0, kind)
        p = get_problem(name, 0.75, 1.0, seed).problem
        ops = StateOperator(p, grid)
        ker = resolvent(ops)
        # the scenario's seeded probe: a cos(w t + phase) per component
        rng = np.random.default_rng(5)
        amp, freq, phase = rng.uniform(
            (0.5, 1.0, 0.0), (1.5, 4.0, 2.0 * np.pi), size=(p.n_state, 3)
        ).T
        xi = amp * np.cos(freq * grid.nodes[:, None] + phase)
        x_step = solve_state(ops, xi)
        sw = product_weights(grid, 0.75)
        x_kernel = xi.copy()
        for i in range(1, grid.n):
            sing = np.einsum(
                "j,jxy,jy->x", sw[i, : i + 1], ker.singular_coeff[i, : i + 1], xi[: i + 1]
            )
            reg = np.trapezoid(
                np.einsum("jxy,jy->jx", ker.regular_part[i, : i + 1], xi[: i + 1]),
                grid.nodes[: i + 1],
                axis=0,
            )
            x_kernel[i] += sing + reg
        reference = rel_l2(grid.trapezoid_weights(), x_kernel, x_step)
        assert reference < 2e-3
        assert _varconst_deviation(ops, ker, 5) == pytest.approx(reference, rel=1e-12)

    def test_varconst_check_reads_the_regular_part(self):
        grid = build_grid(65, 1.0)
        p = get_problem("random-smooth", 0.75, 1.0, 3).problem
        ops = StateOperator(p, grid)
        ker = resolvent(ops)
        perturbed = replace(ker, regular_part=1.01 * ker.regular_part)
        value = _varconst_deviation(ops, ker, 0)
        assert _varconst_deviation(ops, perturbed, 0) >= 3.0 * value

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    @pytest.mark.parametrize(
        "name,seed", [("random-smooth", 3), ("constant-coeff", 0)], ids=["rs", "const"]
    )
    def test_varconst_expression_matches_the_fold_plus_plane_oracle(
        self, monkeypatch, name, seed, kind
    ):
        # oracle: the formula as it was before it read ops.WA_flat, sw C
        # folded and omega D added one component plane at a time, in one
        # matrix; the check's own x_conv is read back from its _rel call
        grid = build_grid(65, 1.0, kind)
        ops = StateOperator(get_problem(name, 0.75, 1.0, seed).problem, grid)
        ker = resolvent(ops)
        seen = []
        monkeypatch.setattr(scenarios, "_rel", lambda w, diff, ref: seen.append((diff, ref)))
        _varconst_deviation(ops, ker, 5)
        ((diff, x_step),) = seen
        x_conv = x_step - diff
        n, dx, omega = ops.n, ops.dx, ops.omega
        rng = np.random.default_rng(5)
        amp, freq, phase = rng.uniform((0.5, 1.0, 0.0), (1.5, 4.0, 2.0 * np.pi), size=(dx, 3)).T
        xi = amp * np.cos(freq * grid.nodes[:, None] + phase)
        weighted = reference_fold(product_weights(grid, 0.75), ker.singular_coeff)
        blocks = weighted.reshape(n, dx, n, dx)
        for a in range(dx):
            for b in range(dx):
                blocks[:, a, :, b] += omega * ker.regular_part[:, :, a, b]
        x_old = xi + (weighted @ xi.ravel()).reshape(n, dx)
        assert np.abs(x_conv - x_old).max() <= 1e-14 * np.abs(x_old).max()

    def test_varconst_check_refuses_another_operators_kernel(self):
        grid = build_grid(17, 1.0)
        p = get_problem("random-smooth", 0.75, 1.0, 3).problem
        ops, twin = StateOperator(p, grid), StateOperator(p, grid)
        assert np.array_equal(ops.A_samples, twin.A_samples)
        with pytest.raises(ValueError, match="operator's own resolvent"):
            _varconst_deviation(ops, resolvent(twin), 0)

    def test_singular_diagonal_block_raises(self):
        # uniform grids share one diagonal weight, so A = 1 / w_11 makes
        # every implicit step I - w_ii A singular
        grid = build_grid(17, 1.0)
        w11 = product_weights(grid, 0.75)[1, 1]
        p = scalar_problem(const_kernel(1.0 / w11), None, None)
        with pytest.raises(vlq_errors.NumericalError, match="implicit step singular"):
            solve_state(StateOperator(p, grid), np.ones((17, 1)))

    def test_superposition_of_controls(self, rs_pipeline):
        pipe = rs_pipeline
        rng = np.random.default_rng(4)
        du = pipe.problem.n_control
        u1, u2 = rng.normal(size=(2, pipe.grid.n, du))
        theta = pipe.theta

        def run(u):
            return (theta @ u.ravel()).reshape(pipe.grid.n, -1)

        lhs = run(1.7 * u1 + u2)
        rhs = 1.7 * run(u1) + run(u2)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestStateOperatorSolves:
    """Block-triangular solves of I - WA against dense solves."""

    @staticmethod
    def operator(dx, kind, n):
        name = "constant-coeff" if dx == 1 else "random-smooth"
        entry = get_problem(name, 0.75, 1.0, 42)
        assert entry.problem.n_state == dx
        return StateOperator(entry.problem, build_grid(n, 1.0, kind))

    @staticmethod
    def rel(a, b):
        return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))

    @pytest.mark.parametrize("n", [33, 128])
    @pytest.mark.parametrize("dx", [1, 2])
    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_solves_match_dense_solve(self, kind, dx, n):
        ops = self.operator(dx, kind, n)
        dense = np.eye(n * dx) - ops.WA_flat
        v = np.random.default_rng(n + dx).normal(size=(n * dx, 3))
        assert self.rel(ops.theta, np.linalg.solve(dense, ops.WB_flat)) <= 1e-13
        assert self.rel(ops.psi.ravel(), np.linalg.solve(dense, ops.phi.ravel())) <= 1e-13
        assert self.rel(ops.solve(v), np.linalg.solve(dense, v)) <= 1e-13
        for k in range(v.shape[1]):
            dual = np.linalg.solve(dense.T, ops.wx * v[:, k]) / ops.wx
            assert self.rel(ops.solve_dual(v[:, k]), dual) <= 1e-13

    @pytest.mark.parametrize("dx", [1, 2])
    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_theta_is_block_lower_triangular(self, kind, dx):
        # a control at node j never reaches the state at nodes before j
        ops = self.operator(dx, kind, 33)
        n, du = ops.n, ops.du
        blocks = ops.theta.reshape(n, dx, n, du).swapaxes(1, 2)  # [i, j] is block (i, j)
        above = np.arange(n)[:, None] < np.arange(n)[None, :]
        assert np.all(blocks[above] == 0.0)
        assert np.any(blocks[~above] != 0.0)

    @pytest.mark.parametrize("dx", [1, 2])
    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_time_stepping_equals_operator_solve(self, kind, dx):
        ops = self.operator(dx, kind, 65)
        xi = np.random.default_rng(dx).normal(size=(ops.n, dx))
        stepped = solve_state(ops, xi)
        assert self.rel(stepped.ravel(), ops.solve(xi.ravel())) <= 1e-13

    def test_singular_step_refuses_every_solve(self):
        # the singular implicit step of `solve_state` is the operator's:
        # theta, psi and both solves raise it instead of returning non-finite
        # values
        grid = build_grid(17, 1.0)
        w11 = product_weights(grid, 0.75)[1, 1]
        ops = StateOperator(scalar_problem(const_kernel(1.0 / w11), const_kernel(1.0), None), grid)
        calls = (
            lambda: ops.theta,
            lambda: ops.psi,
            lambda: ops.solve(np.ones(17)),
            lambda: ops.solve_dual(np.ones(17)),
        )
        for call in calls:
            with pytest.raises(vlq_errors.NumericalError, match="implicit step singular at node 1"):
                call()


class TestControlKernel:
    def test_zero_control_kernel(self):
        grid = build_grid(17, 1.0)
        p = scalar_problem(const_kernel(0.5), None, lambda t: np.sin(t)[:, None])
        ops = StateOperator(p, grid)
        Psi = control_kernel(ops, resolvent(ops))
        assert np.all(Psi.singular_coeff == 0.0)
        assert np.all(Psi.regular_part == 0.0)
        # state independent of the control
        assert np.all(ops.theta == 0.0)

    def test_degenerate_decomposition(self):
        grid = build_grid(17, 1.0)
        p = scalar_problem(None, const_kernel(1.0), None)
        ops = StateOperator(p, grid)
        Psi = control_kernel(ops, resolvent(ops))
        assert np.all(ops.psi == 0.0)
        assert np.all(Psi.regular_part == 0.0)
        assert np.all(Psi.singular_coeff[np.tril_indices(17, k=-1)] == 1.0)

    def test_rejects_resolvent_of_another_beta_or_size(self):
        # a beta = 0.6 resolvent on the same grid would give a wrong Psi
        # silently; a smaller one would fail inside numpy broadcasting
        grid = build_grid(17, 1.0)
        p = scalar_problem(const_kernel(0.5), const_kernel(1.0), None, beta=0.75)
        ops = StateOperator(p, grid)
        other_beta = resolvent(StateOperator(replace(p, beta=0.6), grid))
        with pytest.raises(ValueError, match=r"beta = 0\.6.*beta = 0\.75"):
            control_kernel(ops, other_beta)
        smaller = resolvent(StateOperator(p, build_grid(9, 1.0)))
        with pytest.raises(ValueError, match="n = 9.*n = 17"):
            control_kernel(ops, smaller)

    def test_free_response_consistent_with_kernel_route(self):
        # psi = phi + int Phi phi, the singular factor integrated by
        # product weights on the factored coefficient
        grid = build_grid(64, 1.0)
        entry = get_problem("random-smooth", 0.75, 1.0, seed=3)
        ops = StateOperator(entry.problem, grid)
        ker = resolvent(ops)
        phi = ops.phi
        sw = product_weights(grid, 0.75)
        psi_kernel = phi.copy()
        for i in range(1, grid.n):
            coeff = np.einsum("jxy,jy->jx", ker.singular_coeff[i, : i + 1], phi[: i + 1])
            reg = np.einsum("jxy,jy->jx", ker.regular_part[i, : i + 1], phi[: i + 1])
            psi_kernel[i] += sw[i, : i + 1] @ coeff + np.trapezoid(
                reg, grid.nodes[: i + 1], axis=0
            )
        omega = grid.trapezoid_weights()
        assert rel_l2(omega, ops.psi, psi_kernel) < 1e-4

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    @pytest.mark.parametrize("n", [33, 65])
    def test_constant_coefficient_last_row_matches_series(self, kind, n):
        # Psi = (b/a) Phi for constant coefficients; the entry next to the
        # diagonal must be as accurate as the rest of the terminal row
        beta, a, b = 0.75, 0.8, 1.3
        grid = build_grid(n, 1.0, kind)
        p = scalar_problem(const_kernel(a), const_kernel(b), None, beta=beta)
        ops = StateOperator(p, grid)
        Psi = control_kernel(ops, resolvent(ops))
        exact = (b / a) * series_kernel(a, beta, grid.T - grid.nodes[:-1])
        err = np.abs(Psi.eval_offdiag(grid)[-1, :-1, 0, 0] - exact)
        assert err[-1] <= 2.0 * err[:-1].max()

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_reads_the_level_one_table_of_the_resolvent(self, weight_memo, monkeypatch, kind):
        # Psi's doubly singular piece weighs with (beta, beta), level 1 of
        # the series: it reads the table resolvent stored, computing none
        grid = build_grid(17, 1.0, kind)
        ops = StateOperator(get_problem("random-smooth", 0.75, 1.0, seed=3).problem, grid)
        ker = resolvent(ops)
        stored = weight_memo[memo_key(grid, 0.75, 0.75)]
        seen = []

        def convolve(F, G, column_weights):
            seen.append(column_weights(0))
            return _convolve_columns(F, G, column_weights)

        def no_new_weights(*args):
            raise AssertionError("control_kernel computed pair weights")

        monkeypatch.setattr(volterra, "_convolve_columns", convolve)
        monkeypatch.setattr(volterra, "_pair_column", no_new_weights)
        control_kernel(ops, ker)
        first_piece = seen[0]
        assert first_piece is stored[0] or first_piece.base is stored[0]

    def test_terminal_row_bound(self, rs_pipeline_kernel):
        pipe = rs_pipeline_kernel
        ops = pipe.ops
        beta = pipe.problem.beta
        offs = pipe.grid.T - pipe.grid.nodes[:-1]
        norm_b = np.abs(ops.B_samples).max() * pipe.problem.n_state
        K_run = pipe.kernel.coeff_bound
        norm_a = np.abs(ops.A_samples).max() * pipe.problem.n_state
        coeff = norm_a + K_run * norm_a**2 * beta_function(beta, beta) * pipe.grid.T**beta
        bound_const = norm_b * (1.0 + coeff * pipe.grid.T**beta / beta)
        terminal_row = pipe.Psi.eval_offdiag(pipe.grid)[-1, :-1]
        lhs = np.abs(terminal_row).max(axis=(1, 2)) * offs ** (1.0 - beta)
        assert np.all(lhs <= bound_const + 1e-12)

    def test_terminal_blow_up_dichotomy(self):
        # finite terminal state at beta = 3/4, divergent at beta = 2/5
        for beta, expect_growth in ((0.75, False), (0.4, True)):
            vals = []
            for n in (64, 128, 256):
                grid = build_grid(n, 1.0, "graded", 6.5)
                p = scalar_problem(None, const_kernel(1.0), None, beta=beta)
                u = example_2_1_control(grid.nodes)
                sw = product_weights(grid, beta)
                xi = np.array(
                    [sw[i] @ u for i in range(grid.n)]
                )[:, None]
                x = solve_state(StateOperator(p, grid), xi)
                vals.append(abs(x[-1, 0]))
            if expect_growth:
                assert vals[2] > 1.5 * vals[0]
            else:
                assert abs(vals[2] - vals[0]) < 0.05 * vals[0]


def horizon_tails(problem, n, u, kind="uniform", exponent=2.0, refinements=3):
    """max |X(t) - X(T)| over a window at T that halves as the grid doubles."""
    tails = []
    for k in range(refinements):
        grid = build_grid((n - 1) * 2**k + 1, problem.T, kind, exponent)
        ops = StateOperator(problem, grid)
        x = ops.psi + (ops.theta @ u(grid.nodes)).reshape(grid.n, -1)
        inside = grid.nodes[:-1] >= problem.T * (1.0 - 0.1 / 2**k)
        tails.append(float(np.max(np.linalg.norm(x[:-1][inside] - x[-1], axis=1))))
    return tails


class TestContinuityAtT:
    # the state is continuous at t = T for beta > 1/2: its deviation from
    # X(T) shrinks with the probe window
    def test_smooth_problem_passes(self):
        p = scalar_problem(
            const_kernel(0.5), const_kernel(1.0), lambda t: np.cos(t)[:, None]
        )
        tails = horizon_tails(p, 33, np.zeros_like)
        assert tails[0] > tails[1] > tails[2]

    def test_blow_up_control_still_continuous_above_half(self):
        p = scalar_problem(None, const_kernel(1.0), None, beta=0.75)
        tails = horizon_tails(p, 65, example_2_1_control, "graded", 3.0)
        assert np.all(np.isfinite(tails))
        assert tails[0] > tails[1] > tails[2]


class TestProblemData:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemData(A=None, B=None, phi=None, beta=1.2, T=1.0)
        with pytest.raises(ValueError):
            ProblemData(A=None, B=None, phi=None, beta=0.7, T=-1.0)
        with pytest.raises(ValueError):
            ProblemData(A=None, B=None, phi=None, beta=0.7, T=1.0, n_state=0)

    def test_unbounded_free_term_guard(self):
        # phi ~ c / t^(1-beta) at t = 0: the first node carries the first
        # interior sample, every use is under an integral
        grid = build_grid(33, 1.0)
        beta = 0.75

        def phi(t):
            with np.errstate(divide="ignore"):
                return np.where(t > 0, t ** (beta - 1.0), np.inf)[:, None]

        p = scalar_problem(const_kernel(0.3), None, phi, beta=beta)
        ops = StateOperator(p, grid)
        assert np.all(np.isfinite(ops.phi))
        assert np.all(np.isfinite(ops.psi))

    def test_sample_trajectory_returns_a_float_copy(self):
        grid = build_grid(5, 1.0)
        ints = np.arange(5)
        got = sample_trajectory(ints, grid, 1)
        assert got.dtype == float and got.shape == (5, 1)
        got[:] = -1.0
        assert np.array_equal(ints, np.arange(5))
        floats = np.ones((2, 5)).T
        got = sample_trajectory(floats, grid, 2)
        assert got.flags.c_contiguous
        got[0, 0] = 7.0
        assert np.all(floats == 1.0)
        # a constant (d,) vector is the broadcast table, also at d = 1
        const = np.array([2.0, -3.5])
        got = sample_trajectory(const, grid, 2)
        assert got.flags.writeable and got.flags.c_contiguous
        assert np.array_equal(got, np.array(np.broadcast_to(const, (5, 2))))
        assert np.array_equal(sample_trajectory(np.array([4.0]), grid, 1), np.full((5, 1), 4.0))
        assert np.array_equal(const, [2.0, -3.5])
        with pytest.raises(ValueError, match=r"\(5, 2\) or \(2,\)"):
            sample_trajectory(np.ones(3), grid, 2)


def no_fold(weights, samples):
    raise AssertionError("kernel samples were folded")


def log_t(t, s):
    # -inf at t = 0, computed without a warning of its own
    with np.errstate(divide="ignore"):
        return np.broadcast_to(np.log(t), np.broadcast_shapes(np.shape(t), np.shape(s)))[
            ..., None, None
        ]


@pytest.mark.parametrize("n", [17, 129])
def test_non_finite_state_kernel_is_refused_when_the_operator_is_built(monkeypatch, n):
    # folded, the -inf at (0, 0) would be NaN (0 * inf, with a RuntimeWarning):
    # solve_state would return NaN and theta raise scipy's bare ValueError
    monkeypatch.setattr(volterra, "_fold", no_fold)
    with pytest.raises(
        vlq_errors.NumericalError, match=r"state kernel A .* node pair \(0, 0\), t = 0, s = 0"
    ):
        StateOperator(scalar_problem(log_t, const_kernel(1.0), None), build_grid(n, 1.0))


def test_first_non_finite_node_pair_is_named(monkeypatch):
    grid = build_grid(17, 1.0)
    A = np.full((17, 17, 1, 1), 0.5)
    A[9, 4] = A[7, 3] = np.nan
    A[2, 5] = np.inf  # above the diagonal: never read
    monkeypatch.setattr(volterra, "_fold", no_fold)
    named = r"state kernel A is not finite at node pair \(7, 3\), t = 0.4375, s = 0.1875"
    with pytest.raises(vlq_errors.NumericalError, match=named):
        StateOperator(scalar_problem(A, None, None), grid)


def test_non_finite_control_kernel_is_refused_before_it_is_folded(monkeypatch):
    grid = build_grid(17, 1.0)
    B = np.full((17, 17, 2, 1), 0.5)
    B[6, 6, 1, 0] = np.nan
    B[8, 2, 0, 0] = -np.inf
    B[3, 9] = np.nan  # above the diagonal: never read
    problem = ProblemData(
        A=const_kernel(0.3), B=B, phi=None, beta=0.75, T=1.0, n_state=2, n_control=1
    )
    ops = StateOperator(problem, grid)
    monkeypatch.setattr(volterra, "_fold", no_fold)
    for read in (lambda: ops.B_samples, lambda: ops.WB_flat, lambda: ops.theta):
        with pytest.raises(
            vlq_errors.NumericalError, match=r"control kernel B .* node pair \(6, 6\)"
        ):
            read()


def test_overflowing_level_stops_the_series(monkeypatch):
    grid = build_grid(17, 1.0)
    ops = StateOperator(scalar_problem(const_kernel(1e160), None, None), grid)
    levels = record_levels(monkeypatch)
    with np.errstate(over="ignore"):
        with pytest.raises(vlq_errors.NumericalError, match="level 1 is not finite") as info:
            resolvent(ops)
    assert len(levels) == 1
    assert "|A| Gamma(beta) T^beta = 1.23e+160 is too large" in str(info.value)


@pytest.mark.parametrize("kind", ["uniform", "graded"])
def test_level_with_a_nan_stops_the_series(monkeypatch, kind):
    # the level scale is max(F.max(), -F.min()), which a NaN makes NaN
    grid = build_grid(17, 1.0, kind)
    ops = StateOperator(scalar_problem(const_kernel(0.5), None, None), grid)

    def poison(k, F):
        if k == 2:
            F[4, 9, 0, 0] = np.nan  # target 9, source 4: levels are source-major

    levels = record_levels(monkeypatch, poison)
    with pytest.raises(vlq_errors.NumericalError, match="level 2 is not finite"):
        resolvent(ops)
    assert len(levels) == 2


def test_overflowing_pair_weights_stop_the_series_and_are_not_kept(weight_memo):
    # T = 1000: the level-102 weights carry (t - s)^(p+q) = 1000^102.9,
    # past the largest double; the error names the level and the series
    # size, no RuntimeWarning escapes, and the lower levels stay in the memo
    grid = build_grid(17, 1000.0)
    ops = StateOperator(scalar_problem(const_kernel(-3.91), None, None, 0.999, 1000.0), grid)
    with pytest.raises(vlq_errors.NumericalError) as info:
        resolvent(ops)
    assert str(info.value).startswith("resolvent series level 102: the pair weights")
    assert "|A| Gamma(beta) T^beta = 3.89e+03 is too large" in str(info.value)
    stored = [key[2] for key in weight_memo if len(key) == 3]
    assert len(stored) == 101 and max(stored) == pytest.approx(101 * 0.999)
    with pytest.raises(vlq_errors.NumericalError, match="not finite"):
        _pair_column_weights(grid, 0.999, 102 * 0.999)


def test_integer_presampled_kernel_is_cast_to_float(tmp_path):
    grid = build_grid(17, 1.0)
    A = np.random.default_rng(2).integers(-2, 3, size=(17, 17, 1, 1))
    ops_int, ops_float = (
        StateOperator(scalar_problem(samples, const_kernel(1.0), None), grid)
        for samples in (A, A.astype(float))
    )
    assert ops_int.A_samples.dtype == np.float64
    k_int, k_float = resolvent(ops_int), resolvent(ops_float)
    assert np.array_equal(k_int.singular_coeff, k_float.singular_coeff)
    assert np.array_equal(k_int.regular_part, k_float.regular_part)
    assert k_int.residuals == k_float.residuals
    assert np.array_equal(ops_int.theta, ops_float.theta)
    # one cache key: the float copy reads the file the integer kernel wrote
    cached_resolvent(ops_int, str(tmp_path))
    cached_resolvent(ops_float, str(tmp_path))
    assert len(list(tmp_path.glob("*.vker"))) == 1


@pytest.mark.parametrize(
    "problem, T, size",
    [
        # a huge coefficient: 60 Gamma(0.75) = 73.5
        (scalar_problem(const_kernel(60.0), None, None), 1.0, "73.5"),
        # a modest |A| = 0.405 on a tiny horizon, where Gamma(0.001) = 999.4 governs
        (get_problem("cross-term", 1e-3, 1e-6, seed=5).problem, 1e-6, "400"),
    ],
    ids=["large-A", "small-beta"],
)
def test_resolvent_diverging_series_raises(problem, T, size):
    # the series needs more levels than the cap allows; the message names
    # the quantity that governs it, |A| Gamma(beta) T^beta
    grid = build_grid(17, T)
    with pytest.raises(vlq_errors.NumericalError, match="levels") as info:
        resolvent(StateOperator(problem, grid))
    assert f"|A| Gamma(beta) T^beta = {size} may be too large" in str(info.value)
