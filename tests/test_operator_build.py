"""The state operator's build: sampled kernels, their fold and the weight memo.

Sampling and folding run one (n, n) component plane at a time; every
table must equal, bit for bit, the broadcast formulas kept in conftest.py
as references.
"""

import numpy as np
import pytest

from volterra_lq import ProblemData, StateOperator, build_grid, load_config, product_weights
from volterra_lq import catalog, volterra
from volterra_lq.catalog import get_problem, problem_names
from volterra_lq.scenarios import _materialize
from volterra_lq.volterra import sample_kernel

from conftest import reference_fold, reference_sample_kernel, reference_trig_kernel

KINDS = ["uniform", "graded"]


def assert_build_matches_references(problem, grid):
    ops = StateOperator(problem, grid)
    sw = product_weights(grid, problem.beta)
    dx, du = problem.n_state, problem.n_control
    A = reference_sample_kernel(problem.A, grid, dx, dx)
    B = reference_sample_kernel(problem.B, grid, dx, du)
    assert np.array_equal(ops.sw, sw)
    assert np.array_equal(ops.A_samples, A)
    assert np.array_equal(ops.B_samples, B)
    assert ops.A_samples.flags.c_contiguous and ops.B_samples.flags.c_contiguous
    assert np.array_equal(ops.WA_flat, reference_fold(sw, A))
    assert np.array_equal(ops.WB_flat, reference_fold(sw, B))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", problem_names())
def test_catalog_builds_equal_the_broadcast_references(weight_memo, name, kind):
    for n in (17, 40):
        problem = get_problem(name, 0.75, 1.0, seed=3).problem
        assert_build_matches_references(problem, build_grid(n, 1.0, kind))


@pytest.mark.parametrize("kind", KINDS)
def test_unequal_dimensions_equal_the_broadcast_references(weight_memo, kind):
    problem, _, _ = catalog._random_smooth(0.75, 1.0, 11, dx=2, du=1)
    assert_build_matches_references(problem, build_grid(33, 1.0, kind))


@pytest.mark.parametrize("kind", KINDS)
def test_inline_constant_kernel_equals_the_broadcast_reference(tmp_path, weight_memo, kind):
    path = tmp_path / "inline.cfg"
    path.write_text(
        "problem = inline\nstate_dim = 2\ncontrol_dim = 1\n"
        "A = 0.5, -0.25, 0.125, 1.5\nB = 1.0, -2.0\nphi = 1.0, 0.0\nQ = 1, 0, 0, 1\nR = 1.0\n"
    )
    problem, _ = _materialize(load_config(path))
    assert problem.A.shape == (2, 2) and problem.B.shape == (2, 1)
    assert_build_matches_references(problem, build_grid(24, 1.0, kind))


def test_samples_are_a_new_writable_table_and_leave_the_input_alone():
    grid = build_grid(9, 1.0)
    ints = np.arange(9 * 9 * 2).reshape(9, 9, 2, 1)
    got = sample_kernel(ints, grid, 2, 1)
    assert got.dtype == np.float64 and got.flags.writeable and got.flags.c_contiguous
    assert np.array_equal(got, reference_sample_kernel(ints, grid, 2, 1))
    assert np.array_equal(ints, np.arange(9 * 9 * 2).reshape(9, 9, 2, 1))
    view = np.broadcast_to(np.array([[2.0], [3.0]]), (9, 9, 2, 1))
    got = sample_kernel(view, grid, 2, 1)
    assert np.array_equal(got, reference_sample_kernel(view, grid, 2, 1))
    assert got[8, 0, 1, 0] == 3.0 and got[0, 8, 1, 0] == 0.0
    # a constant (d1, d2) matrix is the broadcast table
    const = np.array([[2.0], [-3.5]])
    got = sample_kernel(const, grid, 2, 1)
    assert got.flags.writeable and got.flags.c_contiguous
    assert np.array_equal(got, reference_sample_kernel(const, grid, 2, 1))
    assert got[8, 0, 1, 0] == -3.5 and got[0, 8, 1, 0] == 0.0
    assert np.array_equal(const, [[2.0], [-3.5]])
    with pytest.raises(ValueError, match=r"\(2, 1\) or \(9, 9, 2, 1\)"):
        sample_kernel(const.T, grid, 2, 1)


@pytest.mark.parametrize("kind", KINDS)
def test_values_above_the_diagonal_are_zeroed_unread(kind):
    # NaN and inf above the diagonal come out as zeros without a warning;
    # warnings are errors in the test run
    grid = build_grid(17, 1.0, kind)

    def past_only(t, s):
        return np.where(t >= s, 1.0 + t - s, np.nan)[..., None, None] * np.ones((2, 2))

    got = sample_kernel(past_only, grid, 2, 2)
    assert np.array_equal(got, reference_sample_kernel(past_only, grid, 2, 2))
    assert np.all(got[np.triu_indices(17, k=1)] == 0.0)
    assert np.all(np.isfinite(got))
    table = np.ones((17, 17, 1, 1))
    table[np.triu_indices(17, k=1)] = np.inf
    got = sample_kernel(table, grid, 1, 1)
    assert np.array_equal(got, np.tri(17)[:, :, None, None])
    # the operator's finiteness checks read the zeroed samples only
    ops = StateOperator(
        ProblemData(A=table, B=table, phi=None, beta=0.75, T=1.0, n_state=1, n_control=1),
        grid,
    )
    assert np.all(np.isfinite(ops.WA_flat)) and np.all(np.isfinite(ops.theta))


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 1), (1, 3)])
def test_trig_kernel_planes_equal_the_broadcast_formula(d1, d2):
    K = catalog._trig_kernel(np.random.default_rng(5), d1, d2, 0.7)
    ref = reference_trig_kernel(np.random.default_rng(5), d1, d2, 0.7)
    nodes = build_grid(33, 1.0, "graded").nodes
    for t, s in (
        (nodes[:, None], nodes[None, :]),
        (nodes, nodes[::-1]),
        (nodes[:, None], 0.25),
        (0.3, 0.1),
    ):
        got, want = K(t, s), ref(t, s)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert K(0.3, 0.1).shape == (1, d1, d2)


class TestProductWeightMemo:
    @pytest.mark.parametrize("kind", KINDS)
    def test_operators_on_one_grid_share_one_read_only_table(
        self, weight_memo, monkeypatch, kind
    ):
        grid = build_grid(33, 1.0, kind)
        problems = [get_problem("random-smooth", 0.75, 1.0, seed=s).problem for s in (3, 8)]
        first = StateOperator(problems[0], grid)
        stored = weight_memo[(grid.kind, grid.nodes.tobytes(), 0.75)]
        assert len(stored) == 1 and stored[0] is first.sw
        assert np.array_equal(first.sw, product_weights(grid, 0.75))
        with pytest.raises(ValueError, match="read-only"):
            first.sw[1, 0] = 1.0

        def no_weights(*args):
            raise AssertionError("product weights computed again")

        with monkeypatch.context() as patch:
            patch.setattr(volterra, "product_weights", no_weights)
            second = StateOperator(problems[1], grid)
        assert second.sw is first.sw
        # another beta on the same grid is another table
        other = StateOperator(get_problem("random-smooth", 0.5, 1.0, seed=3).problem, grid)
        assert np.array_equal(other.sw, product_weights(grid, 0.5))
        assert len(weight_memo) == 2

    def test_grid_kind_is_part_of_the_key(self, weight_memo):
        uniform = build_grid(17, 1.0)
        graded = volterra.Grid(nodes=uniform.nodes, T=1.0, kind="graded")
        problem = get_problem("constant-coeff", 0.75, 1.0).problem
        a, b = StateOperator(problem, uniform), StateOperator(problem, graded)
        assert a.sw is not b.sw and np.array_equal(a.sw, b.sw)
        assert len(weight_memo) == 2

    @pytest.mark.parametrize("kind", KINDS)
    def test_table_past_the_cap_is_computed_not_stored(self, weight_memo, monkeypatch, kind):
        small, large = build_grid(17, 1.0, kind), build_grid(33, 1.0, kind)
        monkeypatch.setattr(volterra, "_WEIGHT_MEMO_BYTES", 8 * 17 * 17 + 8 * 33 * 33 - 8)
        problem = get_problem("random-smooth", 0.75, 1.0, seed=3).problem
        kept = StateOperator(problem, small).sw
        assert list(weight_memo) == [(kind, small.nodes.tobytes(), 0.75)]
        for _ in range(2):
            ops = StateOperator(problem, large)
            assert np.array_equal(ops.sw, product_weights(large, 0.75))
            assert not ops.sw.flags.writeable
            # nothing is evicted for it, and it is not stored
            assert list(weight_memo) == [(kind, small.nodes.tobytes(), 0.75)]
        assert StateOperator(problem, small).sw is kept
