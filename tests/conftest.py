import numpy as np
import pytest
from scipy.special import beta as beta_function

import volterra_lq as vlq
from volterra_lq import volterra
from volterra_lq.volterra import _pair_column_weights


@pytest.fixture
def weight_memo(monkeypatch):
    """An empty weight memo for one test; the process's memo is restored after."""
    memo = {}
    monkeypatch.setattr(volterra, "_weight_memo", memo)
    return memo


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
    near, far, h = off[:-1], off[1:], np.diff(off)
    mu0 = (far**beta - near**beta) / beta
    mu1 = far * mu0 - (far ** (beta + 1.0) - near ** (beta + 1.0)) / (beta + 1.0)
    m = off.size
    segs = np.arange(m - 1)[None, :] < np.arange(m)[:, None]  # segment l < i - j
    W = np.zeros((m, m))
    W[:, 1:] += np.where(segs, mu0 - mu1 / h, 0.0)
    W[:, :-1] += np.where(segs, mu1 / h, 0.0)
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


def reference_plan_convolve(Fsamples, Gsamples, column_weights):
    """Column loop summing over (l, y), as the uniform column plan does: a test reference.

    out[i,j] = sum_{l>=j} Wj[i-j-1, l-j] F[i, l] @ G[l, j] for i > j, with a
    fresh weighted temporary per column, rows (i, x) over (l, y).
    """
    n, _, d1, dm = Fsamples.shape
    d2 = Gsamples.shape[-1]
    F = np.ascontiguousarray(Fsamples.transpose(0, 2, 1, 3))  # (i, x, l, y)
    out = np.zeros((n, n, d1, d2))
    for j in range(n - 1):
        m = n - j
        Fw = F[j + 1 :, :, j:, :] * column_weights(j)[:, None, :, None]
        Gj = Gsamples[j:, j].reshape(m * dm, d2)  # rows (l, y)
        out[j + 1 :, j] = (Fw.reshape((m - 1) * d1, m * dm) @ Gj).reshape(m - 1, d1, d2)
    return out


def reference_series(ops):
    """Resolvent series with strictly-lower fancy-index updates: a test reference.

    Returns the singular coefficient C and the regular part D, summed
    level by level until a level falls below 1e-13 of the largest one.
    A uniform grid's level products sum over (l, y), as its column plan
    does; any other grid's over (y, l), as `_convolve_columns` does.
    """
    beta, grid, n = ops.beta, ops.grid, ops.n
    convolve = reference_plan_convolve if grid.uniform else reference_convolve
    A = ops.A_samples
    dt = grid.nodes[:, None] - grid.nodes[None, :]
    il = np.tril_indices(n, k=-1)
    diag = np.arange(n)
    G = A.copy()
    D = np.zeros_like(A)
    scale_ref = 0.0
    for k in range(1, 121):
        q = k * beta
        F_next = convolve(A, G, _pair_column_weights(grid, beta, q))
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


def reference_sample_kernel(K, grid, d1, d2):
    """Kernel samples through one (n, n, d1, d2) broadcast copy: a test reference.

    The whole table, or a constant (d1, d2) matrix broadcast to it, is
    copied with the component axes innermost and the upper triangle is
    zeroed afterwards by fancy index.
    """
    n = grid.n
    if K is None:
        return np.zeros((n, n, d1, d2))
    if isinstance(K, np.ndarray):
        out = np.array(np.broadcast_to(K, (n, n, d1, d2)), dtype=np.float64)
    else:
        values = K(grid.nodes[:, None], grid.nodes[None, :])
        out = np.array(np.broadcast_to(np.asarray(values, dtype=float), (n, n, d1, d2)))
    out[np.triu_indices(n, k=1)] = 0.0
    return out


def reference_fold(sw, samples):
    """Samples (n, c, d1, d2) times sw (n, c) in one broadcast product: a test reference."""
    n, c, d1, d2 = samples.shape
    return (sw[:, None, :, None] * samples.transpose(0, 2, 1, 3)).reshape(n * d1, c * d2)


def reference_trig_kernel(rng, d1, d2, amplitude):
    """The catalog's trigonometric kernel with the component axes innermost: a test reference.

    Draws the same parameters from rng as `catalog._trig_kernel` and
    evaluates scale (1 a0 + osc a1) over (..., d1, d2) broadcast temporaries.
    """
    a0 = rng.uniform(-1.0, 1.0, size=(d1, d2))
    a1 = rng.uniform(-1.0, 1.0, size=(d1, d2))
    w, v = rng.uniform(0.5, 2.5, size=2)
    p, c = rng.uniform(0.0, 2 * np.pi, size=2)
    scale = amplitude / max(np.abs(a0).sum(axis=1).max() + np.abs(a1).sum(axis=1).max(), 1e-9)

    def K(t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        base = np.broadcast_to(np.ones_like(t * s), np.broadcast_shapes(t.shape, s.shape))
        osc = np.broadcast_to(np.sin(w * t + p) * np.cos(v * s + c), base.shape)
        return scale * (
            base[..., None, None] * a0[None, ...] + osc[..., None, None] * a1[None, ...]
        )

    return K
