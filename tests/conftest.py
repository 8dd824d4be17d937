import numpy as np
import pytest
from scipy.special import beta as beta_function

import volterra_lq as vlq
from volterra_lq.volterra import _pair_column_weights


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


def reference_convolve(Fsamples, Gsamples, column_weights):
    """Column loop with a fresh weighted temporary per column: a test reference.

    out[i,j] = sum_{l>=j} Wj[i-j-1, l-j] F[i, l] @ G[l, j] for i > j, with F
    in sample layout (n, n, d1, dm), transposed node-innermost on each call.
    """
    n, _, d1, dm = Fsamples.shape
    d2 = Gsamples.shape[-1]
    F = np.ascontiguousarray(Fsamples.transpose(0, 2, 3, 1))
    out = np.zeros((n, n, d1, d2))
    for j in range(n - 1):
        Fw = F[j + 1 :, :, :, j:] * column_weights(j)[:, None, None, :]
        Gj = Gsamples[j:, j].transpose(1, 0, 2).reshape(-1, d2)
        out[j + 1 :, j] = (Fw.reshape(-1, dm * (n - j)) @ Gj).reshape(n - j - 1, d1, d2)
    return out


def reference_series(ops):
    """Resolvent series with strictly-lower fancy-index updates: a test reference.

    Returns the singular coefficient C and the regular part D, summed
    level by level until a level falls below 1e-13 of the largest one.
    """
    beta, grid, n = ops.beta, ops.grid, ops.n
    A = ops.A_samples
    dt = grid.nodes[:, None] - grid.nodes[None, :]
    il = np.tril_indices(n, k=-1)
    diag = np.arange(n)
    G = A.copy()
    D = np.zeros_like(A)
    scale_ref = 0.0
    for k in range(1, 121):
        q = k * beta
        F_next = reference_convolve(A, G, _pair_column_weights(grid, beta, q))
        Gnew = np.zeros_like(G)
        Gnew[il] = F_next[il] / dt[il][:, None, None] ** ((k + 1) * beta - 1.0)
        Gnew[diag, diag] = beta_function(q, beta) * np.einsum(
            "ixy,iyz->ixz", A[diag, diag], G[diag, diag]
        )
        D[il] += F_next[il]
        level_scale = float(np.max(np.abs(F_next)))
        scale_ref = max(scale_ref, level_scale)
        if level_scale <= 1e-13 * max(scale_ref, 1e-300):
            return A.copy(), D
        G = Gnew
    raise AssertionError("reference series did not converge")
