import numpy as np
import pytest

import volterra_lq as vlq


def blockdiag(blocks):
    """Dense block-diagonal matrix of per-node blocks (n, a, b): a test reference."""
    n, a, b = blocks.shape
    out = np.zeros((n * a, n * b))
    i = np.arange(n)[:, None, None]
    rows = i * a + np.arange(a)[None, :, None]
    cols = i * b + np.arange(b)[None, None, :]
    out[rows, cols] = blocks
    return out


def lower_weight_table(grid, beta, j):
    """Lower-endpoint hat weights of every target t_i, i >= j: a test reference.

    Row i - j integrates (s - s_j)^(beta-1) g(s) over [s_j, t_i] only, so
    it weighs exactly the segments left of t_i; shape (n - j, n - j).
    """
    off = grid.nodes[j:] - grid.nodes[j]
    lo, hi = off[:-1], off[1:]
    mu0 = (hi**beta - lo**beta) / beta
    mu1 = (hi ** (beta + 1.0) - lo ** (beta + 1.0)) / (beta + 1.0) - lo * mu0
    m = off.size
    segs = np.arange(m - 1)[None, :] < np.arange(m)[:, None]  # segment l < i - j
    W = np.zeros((m, m))
    W[:, :-1] += np.where(segs, mu0 - mu1 / (hi - lo), 0.0)
    W[:, 1:] += np.where(segs, mu1 / (hi - lo), 0.0)
    return W


def gain_table(flat, n, du):
    """Flat (n du, n du) gain table as blocks M[t_i, s_j], (n, n, du, du): a test reference."""
    return flat.reshape(n, du, n, du).transpose(0, 2, 1, 3)


def rel_l2(omega, a, b):
    """Weighted relative L2 distance of two trajectories."""
    num = np.sqrt(np.einsum("i,ic,ic->", omega, a - b, a - b))
    den = np.sqrt(np.einsum("i,ic,ic->", omega, b, b))
    return float(num / max(den, 1e-30))


class Pipeline:
    """One fully assembled LQ problem, shared across tests."""

    def __init__(
        self, name, seed, n=48, beta=0.75, T=1.0, with_kernel=False, grid_kind="uniform"
    ):
        self.entry = vlq.get_problem(name, beta=beta, T=T, seed=seed)
        self.problem = self.entry.problem
        self.cost = self.entry.cost
        self.grid = vlq.build_grid(n, T, grid_kind)
        self.ops = vlq.StateOperator(self.problem, self.grid)
        self.kernel = vlq.resolvent(self.ops) if with_kernel else None
        self.Psi = vlq.control_kernel(self.ops, self.kernel) if with_kernel else None
        self.theta = self.ops.theta
        self.theta_T = self.theta[-self.ops.dx :]
        self.dlq = vlq.assemble_quadratic_form(self.ops, self.cost)
        self.omega = self.grid.trapezoid_weights()
        self.u_opt = vlq.solve_open_loop(self.dlq)
        self.x_opt = (self.ops.psi.ravel() + self.theta @ self.u_opt.ravel()).reshape(
            self.grid.n, -1
        )


@pytest.fixture(scope="session")
def rs_pipeline():
    return Pipeline("random-smooth", seed=42)


@pytest.fixture(scope="session")
def rs_pipeline_kernel():
    return Pipeline("random-smooth", seed=42, with_kernel=True)


@pytest.fixture(scope="session")
def ct_pipeline():
    return Pipeline("cross-term", seed=7)


@pytest.fixture(
    scope="session",
    params=[
        ("constant-coeff", "uniform"),
        ("constant-coeff", "graded"),
        ("random-smooth", "uniform"),
        ("random-smooth", "graded"),
    ],
    ids=lambda p: "-".join(p),
)
def truncation_case(request):
    """Small pipelines covering du = 1 and du = 2 on uniform and graded grids."""
    name, kind = request.param
    return Pipeline(name, seed=5, n=24, grid_kind=kind)
