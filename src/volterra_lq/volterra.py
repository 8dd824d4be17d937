"""State equation core: resolvent kernel, solver, and factored control kernel.

The state equation is the weakly singular linear Volterra equation

    X(t) = phi(t) + int_0^t [A(t,s) X(s) + B(t,s) u(s)] / (t-s)^(1-beta) ds.

Two complementary representations are built here.

1.  A discrete operator layer (`StateOperator`), one per (problem, grid):
    the product-integration weights turn the equation into a block
    lower-triangular system (I - WA) X = xi, solved by forward
    substitution without any dense LU: the n diagonal blocks
    D_i = I - w_ii A(t_i, t_i) are inverted in one stacked call, and every
    solve is one unit-lower-triangular solve of blockdiag(D^(-1)) (I - WA)
    (transposed for the dual).  The control-to-state map
    Theta = (I - WA)^(-1) WB and the free response psi, which split the
    state as X = psi + Theta u, are *exact* discrete objects; every
    operator identity used by the optimization layers holds to round-off
    on the grid.

2.  A kernel layer (`FactoredKernel`): the resolvent Phi of the kernel
    A(t,s)/(t-s)^(1-beta), stored in factored form

        Phi(t,s) = A(t,s) (t-s)^(beta-1) + D(t,s),

    built by summing the iterated-kernel series F_1 + F_2 + ... where each
    term is computed by product quadrature with closed-form moments of
    (t-tau)^(beta-1) (tau-s)^(k beta - 1).  Because only the bounded
    coefficient of each term is interpolated, the construction is exact
    (to round-off and series truncation) for constant coefficients, and
    the factorization gives structural access to the diagonal singularity.
    `control_kernel(ops, resolvent_kernel)` derives the factored control
    kernel Psi of the same grid from it.

    Every kernel product (each series level and both pieces of Psi) runs
    through one column loop, `_convolve_columns`, which differs only in
    its weight source: the incomplete-beta weights of each source column
    (`_pair_column`; on a uniform grid, `Grid.uniform`, every column is
    a slice of column 0's), or the one row of lower-endpoint weights that
    every target shares, for the regular part D (zero on and above the
    diagonal) against B.  The left factor is taken with the node axis innermost
    (`_node_inner`; `resolvent` lays A out so once for all levels), and
    each source column costs one weighted product into a scratch buffer
    allocated once per call, and one GEMM.  Every level product is
    exactly zero on and above the diagonal, so the series adds it to D
    and divides out its power of (t-s) as whole arrays.

    The incomplete-beta weights depend on the grid, beta and the series
    level only, so they are built once per process: `_pair_column_weights`
    keeps them, read-only, in `_weight_memo` under (node bytes, p, q),
    column 0's table on a uniform grid and every column's on any other.
    Later problems on the same grid, and Psi's (beta, beta) piece, read
    level k's table instead of computing it again.

The discrete operator layer feeds the optimization modules and the
kernel layer alike: `resolvent(ops)`, `solve_state(ops, xi)` and the
kernel cache read the operator's sampled A (the resolvent's singular
coefficient, shared), weights and weighted fold, so those exist once per
(problem, grid).  The product-integration weights depend on the grid and
beta only, so every operator on a grid reads them from one memo,
`_weight_memo`, under (node bytes, beta).  The memo holds at most
`_WEIGHT_MEMO_BYTES` (32 MiB) of tables; a table past the cap is computed
and not stored, and nothing is evicted.  The factored kernels
feed diagnostics and cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betainc, beta as beta_function, gamma

from .errors import NumericalError
from .grids import Grid, lower_product_weights, product_weights

__all__ = [
    "ProblemData",
    "FactoredKernel",
    "StateOperator",
    "resolvent",
    "solve_state",
    "control_kernel",
    "sample_kernel",
    "sample_trajectory",
]


@dataclass(frozen=True)
class ProblemData:
    """Coefficients of the state equation.

    A and B may be vectorized callables (t, s) -> matrix, constant
    (d1, d2) matrices, pre-sampled (n, n, d1, d2) arrays, or None for a
    zero coefficient.  phi may be a vectorized callable t -> vector, a
    constant (n_state,) vector or an (n, n_state) array.
    Every beta in (0, 1) is accepted; a cost with a terminal weight
    needs beta > 1/2, which the lq module checks where it meets the grid.
    """

    A: object
    B: object
    phi: object
    beta: float
    T: float
    n_state: int = 1
    n_control: int = 1

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.n_state < 1 or self.n_control < 1:
            raise ValueError("state and control dimensions must be >= 1")


def sample_kernel(K, grid: Grid, d1: int, d2: int) -> np.ndarray:
    """Sample a two-variable kernel coefficient at node pairs t_i >= s_j.

    Returns a new (n, n, d1, d2) float64 array; entries above the diagonal
    are zero whatever the kernel gives there (the kernel acts only on the
    past).  Accepts callables, constant (d1, d2) matrices, pre-sampled
    (n, n, d1, d2) arrays of any real dtype, or None (zero kernel).  A
    callable is evaluated once on the node table and may return anything
    that broadcasts to (n, n, d1, d2).  Each (n, n) component plane is
    copied on and below the diagonal only, so the input is never written
    and its values above the diagonal, finite or not, are never read.
    Inline configuration sizes are checked when the file is loaded.
    """
    n = grid.n
    out = np.zeros((n, n, d1, d2))
    if K is None:
        return out
    if isinstance(K, np.ndarray):
        if K.shape not in ((d1, d2), (n, n, d1, d2)):
            raise ValueError(
                f"kernel has shape {K.shape}, expected {(d1, d2)} or {(n, n, d1, d2)}"
            )
        values = np.broadcast_to(K, (n, n, d1, d2))
    else:
        values = np.broadcast_to(
            np.asarray(K(grid.nodes[:, None], grid.nodes[None, :]), dtype=float),
            (n, n, d1, d2),
        )
    lower = np.tri(n, dtype=bool)
    for a in range(d1):
        for b in range(d2):
            np.copyto(out[:, :, a, b], values[:, :, a, b], casting="unsafe", where=lower)
    return out


def _require_finite(samples: np.ndarray, grid: Grid, what: str):
    """Raise NumericalError naming the first node pair where samples are not finite."""
    if np.isfinite(samples).all():
        return
    i, j = np.argwhere(~np.isfinite(samples).all(axis=(2, 3)))[0]
    raise NumericalError(
        f"{what} is not finite at node pair ({i}, {j}), "
        f"t = {grid.nodes[i]:.6g}, s = {grid.nodes[j]:.6g}"
    )


def sample_trajectory(f, grid: Grid, d: int) -> np.ndarray:
    """Sample a trajectory on the grid as a new (n, d) float64 array.

    Accepts callables t -> vector (whose values may broadcast to (n, d)),
    pre-sampled (n, d) arrays (also (n,) when d = 1), constant (d,)
    vectors, or None (zero).  Inline configuration sizes are checked when
    the file is loaded.
    """
    n = grid.n
    if f is None:
        return np.zeros((n, d))
    given = isinstance(f, np.ndarray)
    arr = np.asarray(f if given else f(grid.nodes), dtype=float)
    if arr.shape == (n,) and d == 1:
        arr = arr[:, None]
    if given and arr.shape not in ((n, d), (d,)):
        raise ValueError(f"trajectory has shape {f.shape}, expected {(n, d)} or {(d,)}")
    return np.array(np.broadcast_to(arr, (n, d)), order="C")


# ---------------------------------------------------------------------------
# factored kernels and the resolvent series
# ---------------------------------------------------------------------------


@dataclass
class FactoredKernel:
    """Kernel K(t,s) = singular_coeff(t,s) (t-s)^(beta-1) + regular_part(t,s).

    Both parts are finite at every sampled off-diagonal point; the
    singular coefficient extends continuously to the diagonal, and
    `regular_part` is zero on and above the diagonal.  The singular
    coefficient is a read-only view of the table given, for the resolvent
    and Psi the operator's sampled A or B.  The `residuals` dict records
    how well the kernel satisfies its defining equation (from `resolvent`).
    """

    singular_coeff: np.ndarray  # (n, n, d1, d2)
    regular_part: np.ndarray  # (n, n, d1, d2)
    beta: float
    coeff_bound: float = np.inf
    residuals: dict = field(default_factory=dict)

    def __post_init__(self):
        self.singular_coeff = self.singular_coeff.view()
        self.singular_coeff.flags.writeable = False

    @property
    def n(self) -> int:
        return self.singular_coeff.shape[0]

    def eval_offdiag(self, grid: Grid, columns=slice(None)) -> np.ndarray:
        """Kernel values at node pairs i > j; zero on and above the diagonal.

        Only the source columns j in `columns` (default: all) are evaluated.
        """
        nodes = grid.nodes
        below = np.arange(self.n)[:, None] > np.arange(self.n)[columns]
        fac = np.zeros(below.shape)
        fac[below] = (nodes[:, None] - nodes[columns])[below] ** (self.beta - 1.0)
        return (
            self.singular_coeff[:, columns] * fac[:, :, None, None]
            + self.regular_part[:, columns]
        )


def _pair_column(grid: Grid, p: float, q: float, j: int) -> np.ndarray:
    """Doubly singular hat weights of source column j on any grid.

    Row i - j - 1 integrates (t_i-tau)^(p-1) (tau-s_j)^(q-1) g(tau) from
    s_j to t_i for the targets i > j; column l - j weighs g(s_l), l >= j.
    Both endpoint singularities are integrated exactly through the
    regularized incomplete beta function; only g is interpolated.  The
    segments past t_i have x = 1 at both ends, so they and the entries
    l > i weigh exactly 0.  Weights that overflow raise NumericalError.
    """
    nodes = grid.nodes
    tt = nodes[j + 1 :, None] - nodes[j]
    tau = nodes[j:] - nodes[j]
    x = np.clip(tau / tt, 0.0, 1.0)
    lo, hi = tau[:-1], tau[1:]
    h = hi - lo
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        nu0 = tt ** (p + q - 1.0) * beta_function(q, p) * np.diff(betainc(q, p, x), axis=-1)
        nu1 = tt ** (p + q) * beta_function(q + 1.0, p) * np.diff(betainc(q + 1.0, p, x), axis=-1)
        w = np.zeros((tau.size - 1, tau.size))
        w[:, :-1] += (hi * nu0 - nu1) / h
        w[:, 1:] += (nu1 - lo * nu0) / h
    if not np.isfinite(w).all():
        raise NumericalError(f"the pair weights of order p + q = {p + q:.4g} are not finite")
    return w


_WEIGHT_MEMO_BYTES = 32 * 2**20  # cap on the tables kept in `_weight_memo`

# The tables of `_product_weight_table` and `_pair_column_weights`, kept for
# the life of the process.  Nothing is evicted, so the product weights and
# the low series levels, which every problem reads first, stay stored once
# the cap is reached.
_weight_memo: dict = {}


def _memo_has_room(nbytes: int) -> bool:
    """Whether nbytes more stay within `_WEIGHT_MEMO_BYTES`."""
    stored = sum(w.nbytes for tables in _weight_memo.values() for w in tables)
    return stored + nbytes <= _WEIGHT_MEMO_BYTES


def _product_weight_table(grid: Grid, beta: float) -> np.ndarray:
    """`product_weights(grid, beta)`, read-only and kept in `_weight_memo`.

    The key is (node bytes, beta).  A table that would take the stored
    bytes past `_WEIGHT_MEMO_BYTES` is computed and not stored.
    """
    key = (grid.nodes.tobytes(), beta)
    if key in _weight_memo:
        return _weight_memo[key][0]
    sw = product_weights(grid, beta)
    sw.flags.writeable = False
    if _memo_has_room(sw.nbytes):
        _weight_memo[key] = [sw]
    return sw


def _pair_column_weights(grid: Grid, p: float, q: float):
    """Column weight source of the doubly singular product, j -> (n-j-1, n-j).

    On a uniform grid (`Grid.uniform`) the weights depend on offsets
    alone, so column j is the leading block of column 0's; any other
    grid uses each column's weights.  The weights depend on the nodes, p
    and q only, never on a problem, so the tables are kept in
    `_weight_memo` under (node bytes, p, q) and every later call on that
    grid reads them.  A table that would take the stored bytes past
    `_WEIGHT_MEMO_BYTES` is computed as before and not stored; a
    non-uniform grid then computes each column when it is asked for.
    Stored tables are read-only.
    """
    n = grid.n
    uniform = grid.uniform
    key = (grid.nodes.tobytes(), p, q)
    tables = _weight_memo.get(key)
    if tables is None:
        cells = (n - 1) * n if uniform else (n - 1) * n * (n + 1) // 3
        if not _memo_has_room(8 * cells):
            if not uniform:
                return lambda j: _pair_column(grid, p, q, j)
            tables = [_pair_column(grid, p, q, 0)]
        else:
            tables = [_pair_column(grid, p, q, j) for j in range(1 if uniform else n - 1)]
            for w in tables:
                w.flags.writeable = False
            _weight_memo[key] = tables
    if uniform:
        W0 = tables[0]
        return lambda j: W0[: n - j - 1, : n - j]
    return tables.__getitem__


def _node_inner(samples: np.ndarray) -> np.ndarray:
    """Kernel samples (n, n, d1, dm) as the left factor of `_convolve_columns`.

    The source node goes innermost, (n, d1, dm, n), so that a source
    column's weighted block is contiguous along the integration node.
    """
    return np.ascontiguousarray(samples.transpose(0, 2, 3, 1))


def _convolve_columns(F, Gsamples, column_weights) -> np.ndarray:
    """out[i,j] = sum_{l>=j} Wj[i-j-1, l-j] F[i, l] @ G[l, j] for i > j.

    F is the left factor in the node-innermost layout of `_node_inner`,
    (n, d1, dm, n), and G plain samples (n, n, dm, d2).  Wj =
    column_weights(j) has shape (n-j-1, n-j) and carries whichever
    singular factors the product integrates, or shape (1, n-j) for one
    row that every target shares (the lower-endpoint weights, against an
    F that is zero for l >= i).  Each source column's weighted block
    F[j+1:, :, :, j:] * Wj is written into one scratch buffer, allocated
    once per call at the size of column 0's block, and multiplied by G's
    column in one GEMM.  Every entry on and above the diagonal stays
    exactly zero.
    """
    n, d1, dm, _ = F.shape
    d2 = Gsamples.shape[-1]
    scratch = np.empty((n - 1) * d1 * dm * n)
    out = np.zeros((n, n, d1, d2))
    for j in range(n - 1):
        m = n - j  # source nodes l = j, ..., n-1
        Fw = scratch[: (m - 1) * d1 * dm * m].reshape(m - 1, d1, dm, m)
        np.multiply(F[j + 1 :, :, :, j:], column_weights(j)[:, None, None, :], out=Fw)
        Gj = Gsamples[j:, j].transpose(1, 0, 2).reshape(-1, d2)  # rows (y, l)
        out[j + 1 :, j] = (Fw.reshape(-1, dm * m) @ Gj).reshape(m - 1, d1, d2)
    return out


def _coeff_bound_series(norm_a: float, beta: float, T: float, kmax: int = 200) -> float:
    """Concrete admissible constant K with |D(t,s)| <= |A| K B(b,b) (t-s)^(2b-1).

    Follows from the term-by-term bound |F_k| <= |A|^k (t-s)^(k b - 1)
    prod_j B(b, j b); the Beta-function products decay factorially, so the
    tail series converges for any |A| and T.
    """
    total = 0.0
    fac = 1.0
    for k in range(2, kmax):
        total += fac
        fac *= norm_a * T**beta * beta_function(beta, k * beta)
        if fac < 1e-16 * max(total, 1.0):
            break
    return total


_MAX_LEVELS = 120  # series levels summed before the resolvent is declared divergent
_MAX_CANCELLATION = 1e8  # largest level over max |D| beyond which the sum is refused


def resolvent(ops: StateOperator) -> FactoredKernel:
    """Resolvent kernel of A(t,s)/(t-s)^(1-beta), in factored form.

    Reads the sampled A, the grid and beta of the state operator `ops`;
    the singular coefficient is `ops.A_samples` itself, read-only.  Sums
    the iterated-kernel series with exact product moments for every
    (t-tau)^(beta-1) (tau-s)^(k beta - 1) weight.  A is laid out
    node-innermost once, for every level.  Each level product F_{k+1} is
    exactly zero on and above the diagonal, so it is added to D, and its
    coefficient F_{k+1} / (t-s)^((k+1) beta - 1) formed, as whole arrays
    (the power table is 1 on and above the diagonal); the diagonal limit
    of the coefficient is set apart.  The returned kernel also carries
    residuals of its defining Volterra identity and of the transposed
    identity (kernel on the right), both measured by an independent
    quadrature pass over sampled source columns.  The series stops at the
    first level below 1e-13 of the largest level so far.  The operator's
    A is finite (its build refuses anything else); NumericalError is
    raised for a level whose weights or scale are not finite, when
    `_MAX_LEVELS` levels do not reach the stopping ratio, and when the
    largest level exceeds max |D| by more than `_MAX_CANCELLATION` (the
    alternating levels of a strongly negative A cancel, and D loses that
    many digits); each names |A| Gamma(beta) T^beta.
    """
    beta, grid, n, dx = ops.beta, ops.grid, ops.n, ops.dx
    Asamp = ops.A_samples
    norm_a = float(np.max(np.abs(Asamp))) * dx
    size = f"|A| Gamma(beta) T^beta = {norm_a * gamma(beta) * grid.T**beta:.3g}"  # errors name it
    kernel = FactoredKernel(singular_coeff=Asamp, regular_part=np.zeros_like(Asamp), beta=beta)
    # t - s below the diagonal and 1 on and above it, where every level is 0
    dt = np.where(np.tri(n, k=-1, dtype=bool), grid.nodes[:, None] - grid.nodes, 1.0)
    A_inner = _node_inner(Asamp)
    G = kernel.singular_coeff  # coefficient of (t-s)^(k*beta - 1), level k = 1
    D = kernel.regular_part
    diag_idx = np.arange(n)
    A_diag = Asamp[diag_idx, diag_idx]
    scale_ref = 0.0
    for k in range(1, _MAX_LEVELS + 1):
        q = k * beta
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
                F_next = _convolve_columns(A_inner, G, _pair_column_weights(grid, beta, q))
        except NumericalError as exc:
            exc.args = (f"resolvent series level {k}: {exc}; {size} is too large",)
            raise
        if k == 1:
            F2 = F_next
        level_scale = float(np.max(np.abs(F_next)))
        if not np.isfinite(level_scale):
            raise NumericalError(
                f"resolvent series level {k} is not finite (largest entry {level_scale}); "
                f"{size} is too large"
            )
        Gnew = F_next / (dt ** ((k + 1) * beta - 1.0))[:, :, None, None]
        # diagonal limit of the next coefficient
        Gnew[diag_idx, diag_idx] = beta_function(q, beta) * np.einsum(
            "ixy,iyz->ixz", A_diag, G[diag_idx, diag_idx]
        )
        D += F_next
        scale_ref = max(scale_ref, level_scale)
        if level_scale <= 1e-13 * max(scale_ref, 1e-300):
            break
        G = Gnew
    else:
        raise NumericalError(
            "resolvent series did not reach the requested tolerance within "
            f"{_MAX_LEVELS} levels; {size} may be too large"
        )
    d_max = float(np.max(np.abs(D)))
    if scale_ref > _MAX_CANCELLATION * d_max:
        raise NumericalError(
            f"resolvent series cancels: its largest level {scale_ref:.3g} exceeds "
            f"max |D| = {d_max:.3g} by more than {_MAX_CANCELLATION:.0e}; "
            f"{size} is too large"
        )

    # after the series, so that an overflowing level stops before the bound's product
    kernel.coeff_bound = _coeff_bound_series(norm_a, beta, grid.T)
    kernel.residuals = _resolvent_residuals(kernel, ops, F2)
    return kernel


def _resolvent_residuals(kernel, ops, first):
    """Independent quadrature residuals of the two defining identities.

    defining:   D(t,s) = int A(t,tau) Phi(tau,s) (t-tau)^(b-1) dtau
    transposed: D(t,s) = int Phi(t,tau) A(tau,s) (tau-s)^(b-1) dtau
    first is F_2, level 1 of the series, which both identities share.  The
    regular part of each integrand is re-integrated by plain product
    quadrature (not the level-wise factored form used to build D), so the
    residual exercises a different discretization of the same identity.
    Over about 48 sampled source columns s_j, each identity is one GEMM.
    The defining one multiplies the operator's weighted A, `ops.WA_flat`,
    against those columns of D.  In the transposed one the lower-endpoint
    weights of (tau - s_j)^(beta-1) depend on (j, tau) alone, because D
    vanishes for tau >= t; so D's flat (n dx, n dx) table multiplies A's
    sampled columns, each node row weighted by its column's row of
    `lower_product_weights`.  The denominator evaluates Phi at the
    sampled columns only.
    """
    beta, grid, n, dx = kernel.beta, ops.grid, ops.n, ops.dx
    D = kernel.regular_part
    cols = np.arange(0, n - 2, max(1, (n - 2) // 48))
    c = cols.size
    # defining identity, kernel A on the left
    Dc = D[:, cols].transpose(0, 2, 1, 3).reshape(n * dx, c * dx)
    quad = (ops.WA_flat @ Dc).reshape(n, dx, c, dx).transpose(0, 2, 1, 3)
    # transposed identity, kernel A on the right: weight w_j(tau_l) of
    # column j at node l, zero for l < j
    wlow = np.zeros((n, c))
    for col, j in enumerate(cols):
        wlow[j:, col] = lower_product_weights(grid, beta, j)
    Aw = (wlow[:, None, :, None] * ops.A_samples[:, cols].transpose(0, 2, 1, 3)).reshape(
        n * dx, c * dx
    )  # rows (l, y), columns (j, z)
    D_flat = D.transpose(0, 2, 1, 3).reshape(n * dx, n * dx)
    quad_tr = (D_flat @ Aw).reshape(n, dx, c, dx).transpose(0, 2, 1, 3)

    denom = 1.0 + np.abs(kernel.eval_offdiag(grid, cols)).max(axis=(2, 3))
    rows = np.arange(n)[:, None] >= cols + 2  # targets i >= j + 2 of column j
    residuals = {}
    for name, q in (("defining", quad), ("transposed", quad_tr)):
        err = np.abs(D[:, cols] - (first[:, cols] + q)).max(axis=(2, 3)) / denom
        residuals[name] = float(np.max(err[rows]))
    return residuals


# ---------------------------------------------------------------------------
# discrete operator layer
# ---------------------------------------------------------------------------


class StateOperator:
    """Discrete state equation (I - WA) X = xi and its exact companions.

    sw is the product-integration weight table of the grid, read-only and
    shared by every operator on that grid and beta through `_weight_memo`
    (`grids.product_weights` is the uncached reference).  WA_flat and
    WB_flat are the kernel samples folded with it, as flat (n dx, n dx)
    and (n dx, n du) block matrices; the kernel layer (`resolvent`,
    `solve_state`, the cache) reads the same A_samples, sw and WA_flat.
    A sample of A or B that is not finite raises NumericalError naming
    its first node pair, A's when the operator is built and B's when
    B_samples is first read, before either is folded.
    All adjoints are taken in the trapezoid-weighted inner product of the
    grid, so that <Theta u, X> = <u, Theta* X> holds to round-off.  No
    method mutates problem data.

    I - WA is block lower triangular, so no dense factorization is formed:
    `step_inverses` holds the inverses of its n diagonal dx x dx blocks,
    built in one stacked call, and with them blockdiag(D^(-1)) (I - WA) is
    unit lower triangular.  `solve` is one triangular solve of it, and
    `solve_dual` one transposed triangular solve.  The control side
    (B_samples, WB_flat), the step inverses, the triangular matrix, phi,
    theta and psi are built on first access and kept, so a state-only
    caller never pays for them; touch theta and psi before handing the
    operator to concurrent tasks.
    """

    def __init__(self, problem: ProblemData, grid: Grid):
        self.problem = problem
        self.grid = grid
        self.beta = problem.beta
        self.n, self.dx, self.du = grid.n, problem.n_state, problem.n_control
        self.omega = grid.trapezoid_weights()
        self.wx = np.repeat(self.omega, self.dx)
        self.wu = np.repeat(self.omega, self.du)
        self.sw = _product_weight_table(grid, problem.beta)
        self.A_samples = sample_kernel(problem.A, grid, self.dx, self.dx)
        _require_finite(self.A_samples, grid, "state kernel A")
        self.WA_flat = self._fold(self.A_samples)

    def _fold(self, samples: np.ndarray) -> np.ndarray:
        """Kernel samples (n, n, d1, d2) times sw, as a flat (n d1, n d2) matrix.

        Each (n, n) component plane's product with sw goes straight into
        its place in the flat layout.
        """
        n, _, d1, d2 = samples.shape
        out = np.empty((n, d1, n, d2))
        for a in range(d1):
            for b in range(d2):
                np.multiply(self.sw, samples[:, :, a, b], out=out[:, a, :, b])
        return out.reshape(n * d1, n * d2)

    @cached_property
    def B_samples(self) -> np.ndarray:
        samples = sample_kernel(self.problem.B, self.grid, self.dx, self.du)
        _require_finite(samples, self.grid, "control kernel B")
        return samples

    @cached_property
    def WB_flat(self) -> np.ndarray:
        return self._fold(self.B_samples)

    @cached_property
    def step_inverses(self) -> np.ndarray:
        """Inverses of the diagonal blocks I - w_ii A(t_i, t_i), shape (n, dx, dx).

        One stacked inversion.  A singular block raises NumericalError
        naming its node: the grid is far too coarse for the kernel
        magnitude there.
        """
        n, dx = self.n, self.dx
        blocks = np.eye(dx) - self.WA_flat.reshape(n, dx, n, dx)[np.arange(n), :, np.arange(n)]
        try:
            return np.linalg.inv(blocks)
        except np.linalg.LinAlgError as exc:
            i = int(np.argmin(np.abs(np.linalg.det(blocks))))
            raise NumericalError(
                f"implicit step singular at node {i}; grid too coarse for "
                "the kernel magnitude"
            ) from exc

    def _steps(self, v: np.ndarray, transpose: bool = False) -> np.ndarray:
        """blockdiag(D^(-1)) v, or blockdiag(D^(-T)) v, for flat state vectors or columns."""
        steps = self.step_inverses.swapaxes(1, 2) if transpose else self.step_inverses
        return (steps @ v.reshape(self.n, self.dx, -1)).reshape(v.shape)

    @cached_property
    def _unit_lower(self) -> np.ndarray:
        """blockdiag(D^(-1)) (I - WA): unit lower triangular, identity diagonal blocks."""
        n, dx = self.n, self.dx
        L = self._steps(-self.WA_flat)
        nodes = np.arange(n)
        L.reshape(n, dx, n, dx)[nodes, :, nodes] = np.eye(dx)
        return L

    @cached_property
    def phi(self) -> np.ndarray:
        """Sampled free term, shape (n, dx)."""
        phi = sample_trajectory(self.problem.phi, self.grid, self.dx)
        if not np.all(np.isfinite(phi[0])):
            # free term may blow up at t = 0; carry the first interior sample
            phi = phi.copy()
            phi[0] = phi[1]
        return phi

    # -- basic solves -----------------------------------------------------

    def solve(self, v: np.ndarray) -> np.ndarray:
        """(I - WA)^(-1) v for a flat state vector or a stack of columns."""
        return solve_triangular(self._unit_lower, self._steps(v), lower=True, unit_diagonal=True)

    def solve_dual(self, v: np.ndarray) -> np.ndarray:
        """(I - WA*)^(-1) v in the weighted inner product (flat state vector)."""
        z = solve_triangular(
            self._unit_lower, self.wx * v, trans="T", lower=True, unit_diagonal=True
        )
        return self._steps(z, transpose=True) / self.wx

    def apply_dual_A(self, v: np.ndarray) -> np.ndarray:
        """WA* v, the weighted adjoint of the state kernel action."""
        return (self.WA_flat.T @ (self.wx * v)) / self.wx

    def apply_dual_B(self, v: np.ndarray) -> np.ndarray:
        """WB* v: weighted adjoint of the control kernel action (state -> control)."""
        return (self.WB_flat.T @ (self.wx * v)) / self.wu

    # -- derived objects --------------------------------------------------

    def state(self, u) -> np.ndarray:
        """State X = (I - WA)^(-1) (phi + WB u) of a control u, (n, dx), without theta."""
        u = sample_trajectory(u, self.grid, self.du)
        return self.solve(self.phi.ravel() + self.WB_flat @ u.ravel()).reshape(self.n, self.dx)

    @cached_property
    def theta(self) -> np.ndarray:
        """Control-to-state map (n dx, n du), quadrature weights included."""
        return self.solve(self.WB_flat)

    @cached_property
    def psi(self) -> np.ndarray:
        """Free response (control switched off), shape (n, dx)."""
        return self.solve(self.phi.ravel()).reshape(self.n, self.dx)

    def terminal_unit(self, zeta: np.ndarray) -> np.ndarray:
        """Flat state vector carrying zeta at the last node with unit mass.

        Dual pairing against it reproduces evaluation at t = T:
        <x, terminal_unit(zeta)>_omega = x(T) . zeta.
        """
        v = np.zeros(self.n * self.dx)
        v[-self.dx :] = zeta / self.omega[-1]
        return v


def _require_matching_kernel(kernel: FactoredKernel, ops: StateOperator, what: str):
    """Raise ValueError when a kernel's node count or beta is not the operator's.

    A same-size kernel built on other nodes passes: it records no nodes.
    """
    for name, mine, theirs in (("n", kernel.n, ops.n), ("beta", kernel.beta, ops.beta)):
        if mine != theirs:
            raise ValueError(
                f"{what} has {name} = {mine}, but the state operator has {name} = {theirs}"
            )


def control_kernel(ops: StateOperator, resolvent_kernel: FactoredKernel) -> FactoredKernel:
    """Factored control kernel Psi of the operator's problem and grid.

    Psi(t,s) = B(t,s)(t-s)^(beta-1) + int_s^t Phi(t,tau) B(tau,s)
    (tau-s)^(beta-1) dtau, with Phi the supplied resolvent of the same
    grid: the singular coefficient is B itself, and the regular part
    integrates the two pieces of Phi against B.  The piece C (t-tau)^(beta-1)
    takes the doubly singular weights; the regular piece D takes the hat
    weights of the lower-endpoint factor (tau-s)^(beta-1) alone.  The
    singular coefficient is `ops.B_samples` itself, read-only.  A
    resolvent of another node count or beta raises ValueError.
    """
    _require_matching_kernel(resolvent_kernel, ops, "the resolvent kernel")
    beta, grid = ops.beta, ops.grid
    Bsamp = ops.B_samples
    piece1 = _convolve_columns(
        _node_inner(resolvent_kernel.singular_coeff),
        Bsamp,
        _pair_column_weights(grid, beta, beta),
    )
    piece2 = _convolve_columns(
        _node_inner(resolvent_kernel.regular_part),
        Bsamp,
        lambda j: lower_product_weights(grid, beta, j)[None],
    )
    return FactoredKernel(singular_coeff=Bsamp, regular_part=piece1 + piece2, beta=beta)


def solve_state(ops: StateOperator, xi) -> np.ndarray:
    """Forward time-stepping solve of X = xi + int A X (t-s)^(beta-1) ds.

    xi is a grid trajectory (array or callable) on the grid of `ops`.
    Returns X with shape (n, n_state).  The rows are the operator's
    weighted A, `ops.WA_flat`, and the steps are the operator's inverted
    diagonal blocks (I - w_ii A(t_i, t_i))^(-1), `ops.step_inverses`; step
    i is then one matvec against the computed past and one dx x dx
    product.  A zero A returns xi exactly.  The blocks are nonsingular on
    any reasonable grid; a singular one raises NumericalError, a grid far
    too coarse for the kernel magnitude.
    """
    n, dx = ops.n, ops.dx
    xi_s = sample_trajectory(xi, ops.grid, dx)
    WA = ops.WA_flat.reshape(n, dx, n * dx)
    step = ops.step_inverses
    X = np.zeros(n * dx)
    for i in range(n):
        X[i * dx : (i + 1) * dx] = step[i] @ (xi_s[i] + WA[i, :, : i * dx] @ X[: i * dx])
    return X.reshape(n, dx)
