import numpy as np
import pytest
from scipy.integrate import quad

from volterra_lq import (
    build_grid,
    check_young_bound,
    integrate_singular,
    product_weights,
)
from volterra_lq.catalog import example_2_1_control
from volterra_lq.grids import lower_product_weights, lower_singular_weights


def test_uniform_nodes():
    assert np.allclose(build_grid(3, 1.0).nodes, [0.0, 0.5, 1.0])
    assert np.allclose(build_grid(3, 2.0).nodes, [0.0, 1.0, 2.0])


def test_graded_nodes_symmetric_and_clustered():
    g = build_grid(5, 1.0, "graded", 2.0)
    assert np.allclose(g.nodes, [0.0, 0.125, 0.5, 0.875, 1.0])
    assert np.allclose(g.nodes + g.nodes[::-1], 1.0)
    spacings = g.spacings
    assert spacings[0] < spacings[len(spacings) // 2]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=2, T=1.0),
        dict(n=8, T=0.0),
        dict(n=8, T=-1.0),
        dict(n=8, T=1.0, kind="graded", exponent=0.5),
        dict(n=8, T=1.0, kind="chebyshev"),
        dict(n=8.5, T=1.0),
    ],
)
def test_build_grid_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        build_grid(**kwargs)


@pytest.mark.parametrize("beta", [0.4, 0.75, 0.95])
@pytest.mark.parametrize("kind,exponent", [("uniform", 2.0), ("graded", 2.5)])
@pytest.mark.parametrize("interp", ["linear", "constant"])
def test_row_sums_reproduce_constants(beta, kind, exponent, interp):
    grid = build_grid(33, 1.5, kind, exponent)
    w = product_weights(grid, beta, interp)
    for i in range(1, grid.n):
        exact = grid.nodes[i] ** beta / beta
        assert abs(w.w[i].sum() - exact) <= 1e-12 * exact


@pytest.mark.parametrize("beta", [0.4, 0.75])
@pytest.mark.parametrize("kind,exponent", [("uniform", 2.0), ("graded", 2.5)])
def test_lower_endpoint_weights_exact_for_linear_integrands(beta, kind, exponent):
    # int_{s_j}^{t_i} (s - s_j)^(beta-1) {1, s - s_j} ds for every i >= j
    grid = build_grid(33, 1.5, kind, exponent)
    nodes = grid.nodes
    for j in range(grid.n):
        W = lower_product_weights(grid, beta, j)
        off = nodes[j:] - nodes[j]
        tol = dict(rtol=1e-12, atol=1e-14 * off[-1] ** beta / beta)
        assert np.all(W[0] == 0.0)
        assert np.allclose(W @ np.ones(off.size), off**beta / beta, **tol)
        assert np.allclose(W @ off, off ** (beta + 1.0) / (beta + 1.0), **tol)
        assert np.array_equal(lower_singular_weights(grid, beta, j)[j:], W[-1])


def test_linear_integrand_exact_moment():
    # int_0^1 (1-s)^(-1/4) s ds = 1/(beta (beta+1)) at beta = 3/4
    grid = build_grid(33, 1.0)
    w = product_weights(grid, 0.75)
    value = integrate_singular(w, grid.n - 1, grid.nodes)
    assert abs(value - 1.0 / 1.3125) < 1e-13
    oracle, _ = quad(lambda s: s, 0.0, 1.0, weight="alg", wvar=(0.0, -0.25))
    assert abs(value - oracle) < 1e-10


def test_weights_approach_trapezoid_as_beta_to_one():
    grid = build_grid(21, 1.0)
    w = product_weights(grid, 1.0 - 1e-8)
    g = np.cos(3.0 * grid.nodes)
    for i in (5, 10, 20):
        trap = np.trapezoid(g[: i + 1], grid.nodes[: i + 1])
        assert abs(integrate_singular(w, i, g) - trap) < 1e-6


def test_linearity_and_zero():
    grid = build_grid(17, 1.0)
    w = product_weights(grid, 0.6)
    rng = np.random.default_rng(3)
    g1, g2 = rng.normal(size=(2, grid.n))
    lhs = integrate_singular(w, 12, 2.5 * g1 + g2)
    rhs = 2.5 * integrate_singular(w, 12, g1) + integrate_singular(w, 12, g2)
    assert abs(lhs - rhs) < 1e-13 * (1 + abs(rhs))
    assert integrate_singular(w, 12, np.zeros(grid.n)) == 0.0


def test_causal_support_by_variant():
    grid = build_grid(12, 1.0)
    wl = product_weights(grid, 0.7, "linear").w
    wc = product_weights(grid, 0.7, "constant").w
    for i in range(grid.n):
        assert np.all(wl[i, i + 1 :] == 0.0)
        assert np.all(wc[i, i:] == 0.0)
    assert np.all(wc >= 0.0)
    assert np.all(np.isfinite(wl))


def test_second_order_convergence_for_smooth_integrand():
    beta = 0.6
    oracle, _ = quad(
        lambda s: np.cos(3.0 * s), 0.0, 1.0, weight="alg", wvar=(0.0, beta - 1.0)
    )
    errors = []
    for n in (17, 33, 65):
        grid = build_grid(n, 1.0)
        w = product_weights(grid, beta)
        val = integrate_singular(w, n - 1, np.cos(3.0 * grid.nodes))
        errors.append(abs(val - oracle))
    assert errors[0] / errors[1] > 3.0
    assert errors[1] / errors[2] > 3.0


def test_square_integrable_control_with_divergent_weighted_integral():
    # the control is square integrable but its (1-s)^(beta-1) integral at
    # beta = 0.4 grows without bound under refinement
    vals = []
    for n in (65, 129, 257):
        grid = build_grid(n, 1.0, "graded", 5.0)
        w = product_weights(grid, 0.4)
        u = example_2_1_control(grid.nodes)
        vals.append(abs(integrate_singular(w, grid.n - 1, u)))
    assert vals[0] < vals[1] < vals[2]


def test_integrate_singular_validates_input():
    grid = build_grid(9, 1.0)
    w = product_weights(grid, 0.6)
    with pytest.raises(ValueError):
        integrate_singular(w, 3, np.zeros(7))
    with pytest.raises(ValueError):
        integrate_singular(w, 11, np.zeros(9))
    with pytest.raises(ValueError):
        product_weights(grid, 1.2)


class TestYoungBound:
    def test_zero_case(self):
        grid = build_grid(33, 1.0)
        w = product_weights(grid, 0.75)
        assert check_young_bound(w, np.zeros(grid.n), 0.0)

    def test_constant_theta_with_quadrature_oracle(self):
        grid = build_grid(65, 1.0)
        w = product_weights(grid, 0.75)
        assert check_young_bound(w, np.ones(grid.n), 0.0)
        # oracle: eta(t, 0) = t^b / b, so ||eta||_L2^2 = T^(2b+1)/(b^2 (2b+1))
        beta = 0.75
        norm_exact = np.sqrt(1.0 / (beta**2 * (2 * beta + 1)))
        bound = (1.0**beta / beta) * 1.0  # (T-s)^b/b * ||theta0||
        assert norm_exact <= bound

    def test_midpoint_start(self):
        grid = build_grid(65, 1.0)
        w = product_weights(grid, 0.6)
        rng = np.random.default_rng(11)
        theta0 = rng.uniform(0.0, 1.0, size=grid.n)
        assert check_young_bound(w, theta0, 0.5)

    @pytest.mark.parametrize("beta", [0.55, 0.75, 0.95])
    def test_random_nonnegative_profiles(self, beta):
        grid = build_grid(49, 1.0)
        w = product_weights(grid, beta)
        rng = np.random.default_rng(int(beta * 100))
        for trial in range(100):
            theta0 = rng.uniform(0.0, 2.0, size=grid.n)
            s = float(rng.uniform(0.0, 0.8))
            assert check_young_bound(w, theta0, s), f"trial {trial}"

    def test_rejects_bad_start(self):
        grid = build_grid(9, 1.0)
        w = product_weights(grid, 0.6)
        with pytest.raises(ValueError):
            check_young_bound(w, np.zeros(grid.n), 1.0)
