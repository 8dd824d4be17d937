"""State equation core: resolvent kernel, solver, and factored control kernel.

The state equation is the weakly singular linear Volterra equation

    X(t) = phi(t) + int_0^t [A(t,s) X(s) + B(t,s) u(s)] / (t-s)^(1-beta) ds.

Two complementary representations are built here.

1.  A discrete operator layer (`StateOperator`), one per (problem, grid):
    the product-integration weights turn the equation into a block
    lower-triangular system (I - WA) X = xi, solved by forward
    substitution.  The control-to-state map Theta = (I - WA)^(-1) WB and
    the free response psi, which split the state as X = psi + Theta u,
    are *exact* discrete objects; every operator identity used by the
    optimization layers holds to round-off on the grid.

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

    Every kernel product (each series level, both pieces of Psi and the
    transposed residual pass) runs through one column loop,
    `_convolve_columns`, which differs only in its weight source: the
    incomplete-beta weights of each source column (`_pair_column`; on a
    uniform grid every column is a slice of column 0's), or the one row of
    lower-endpoint weights that every target shares, for the regular part
    D (zero on and above the diagonal) against A or B.  The left factor is
    stored with the node axis innermost, so each source column costs one
    contiguous weighted product and one GEMM.

The discrete operator layer feeds the optimization modules and the
kernel layer alike: `resolvent(ops)`, `solve_state(ops, xi)` and the
kernel cache read the operator's sampled A, weights and weighted fold,
so those are built once per (problem, grid).  The factored kernels feed
diagnostics and cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import betainc, beta as beta_function

from .errors import AssumptionError, NumericalError
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

    A and B may be vectorized callables (t, s) -> matrix, pre-sampled
    arrays of shape (n, n, d1, d2), or None for a zero coefficient.
    phi may be a vectorized callable t -> vector or an (n, n_state) array.
    LQ solves additionally require beta > 1/2 so that X(T) is defined;
    state-only operations accept any beta in (0, 1).
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

    def require_lq(self):
        if not self.beta > 0.5:
            raise AssumptionError(
                "this operation needs the state to be continuous at t = T, "
                f"which requires beta > 1/2; got beta = {self.beta}"
            )


def sample_kernel(K, grid: Grid, d1: int, d2: int) -> np.ndarray:
    """Sample a two-variable kernel coefficient at node pairs t_i >= s_j.

    Returns an (n, n, d1, d2) array; entries above the diagonal are zero
    (the kernel acts only on the past).  Accepts callables, pre-sampled
    arrays, or None (zero kernel).
    """
    n = grid.n
    if K is None:
        return np.zeros((n, n, d1, d2))
    if isinstance(K, np.ndarray):
        if K.shape != (n, n, d1, d2):
            raise ValueError(
                f"pre-sampled kernel has shape {K.shape}, expected {(n, n, d1, d2)}"
            )
        out = K.copy()
    else:
        t = grid.nodes[:, None]
        s = grid.nodes[None, :]
        out = np.array(
            np.broadcast_to(np.asarray(K(t, s), dtype=float), (n, n, d1, d2))
        )
    iu = np.triu_indices(n, k=1)
    out[iu] = 0.0
    return out


def sample_trajectory(f, grid: Grid, d: int) -> np.ndarray:
    """Sample a trajectory (callable or array or None) on the grid, shape (n, d)."""
    n = grid.n
    if f is None:
        return np.zeros((n, d))
    if isinstance(f, np.ndarray):
        arr = f.astype(float)
        if arr.shape == (n,) and d == 1:
            arr = arr[:, None]
        if arr.shape != (n, d):
            raise ValueError(f"trajectory has shape {f.shape}, expected {(n, d)}")
        return arr.copy()
    arr = np.asarray(f(grid.nodes), dtype=float)
    if arr.shape == (n,) and d == 1:
        arr = arr[:, None]
    if arr.shape != (n, d):
        arr = np.broadcast_to(arr, (n, d)).copy()
    return np.asarray(arr, dtype=float)


# ---------------------------------------------------------------------------
# factored kernels and the resolvent series
# ---------------------------------------------------------------------------


@dataclass
class FactoredKernel:
    """Kernel K(t,s) = singular_coeff(t,s) (t-s)^(beta-1) + regular_part(t,s).

    Both parts are finite at every sampled off-diagonal point; the
    singular coefficient extends continuously to the diagonal, and
    `regular_part` is zero on and above the diagonal.  The
    `residuals` dict records how well the kernel satisfies its defining
    equation (filled in by `resolvent`).
    """

    singular_coeff: np.ndarray  # (n, n, d1, d2)
    regular_part: np.ndarray  # (n, n, d1, d2)
    beta: float
    coeff_bound: float = np.inf
    residuals: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.singular_coeff.shape[0]

    def eval_offdiag(self, grid: Grid) -> np.ndarray:
        """Kernel values at node pairs i > j; zero on and above the diagonal."""
        n = self.n
        dt = grid.nodes[:, None] - grid.nodes[None, :]
        il = np.tril_indices(n, k=-1)
        fac = np.zeros((n, n))
        fac[il] = dt[il] ** (self.beta - 1.0)
        return self.singular_coeff * fac[:, :, None, None] + self.regular_part


def _pair_column(grid: Grid, p: float, q: float, j: int) -> np.ndarray:
    """Doubly singular hat weights of source column j on any grid.

    Row i - j - 1 integrates (t_i-tau)^(p-1) (tau-s_j)^(q-1) g(tau) from
    s_j to t_i for the targets i > j; column l - j weighs g(s_l), l >= j.
    Both endpoint singularities are integrated exactly through the
    regularized incomplete beta function; only g is interpolated.  The
    segments past t_i have x = 1 at both ends, so they and the entries
    l > i weigh exactly 0.
    """
    nodes = grid.nodes
    tt = nodes[j + 1 :, None] - nodes[j]
    tau = nodes[j:] - nodes[j]
    x = np.clip(tau / tt, 0.0, 1.0)
    lo, hi = tau[:-1], tau[1:]
    h = hi - lo
    nu0 = tt ** (p + q - 1.0) * beta_function(q, p) * np.diff(betainc(q, p, x), axis=-1)
    nu1 = tt ** (p + q) * beta_function(q + 1.0, p) * np.diff(betainc(q + 1.0, p, x), axis=-1)
    w = np.zeros((tau.size - 1, tau.size))
    w[:, :-1] += (hi * nu0 - nu1) / h
    w[:, 1:] += (nu1 - lo * nu0) / h
    return w


def _pair_column_weights(grid: Grid, p: float, q: float):
    """Column weight source of the doubly singular product, j -> (n-j-1, n-j).

    A graded grid computes each column's weights.  On a uniform grid the
    weights depend on offsets alone, so column j is the leading block of
    column 0's.
    """
    n = grid.n
    if grid.kind == "uniform":
        W0 = _pair_column(grid, p, q, 0)
        return lambda j: W0[: n - j - 1, : n - j]
    return lambda j: _pair_column(grid, p, q, j)


def _convolve_columns(Fsamples, Gsamples, column_weights, columns=None) -> np.ndarray:
    """out[i,j] = sum_{l>=j} Wj[i-j-1, l-j] F[i, l] @ G[l, j] for i > j.

    Wj = column_weights(j) has shape (n-j-1, n-j) and carries whichever
    singular factors the product integrates, or shape (1, n-j) for one
    row that every target shares (the lower-endpoint weights, against an
    F that is zero for l >= i).  F is stored node-innermost, (n, d1, dm, n),
    so each source column is one contiguous weighted product over rows of
    length n - j and one GEMM against G's column.  Only the source columns
    j in `columns` are computed (default: all); the others stay zero.
    """
    n, _, d1, dm = Fsamples.shape
    d2 = Gsamples.shape[-1]
    F = np.ascontiguousarray(Fsamples.transpose(0, 2, 3, 1))  # (n, d1, dm, n)
    out = np.zeros((n, n, d1, d2))
    for j in range(n - 1) if columns is None else columns:
        Fw = F[j + 1 :, :, :, j:] * column_weights(j)[:, None, None, :]
        Gj = Gsamples[j:, j].transpose(1, 0, 2).reshape(-1, d2)  # rows (y, l)
        out[j + 1 :, j] = (Fw.reshape(-1, dm * (n - j)) @ Gj).reshape(n - j - 1, d1, d2)
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


def resolvent(ops: StateOperator) -> FactoredKernel:
    """Resolvent kernel of A(t,s)/(t-s)^(1-beta), in factored form.

    Reads the sampled A, the grid and beta of the state operator `ops`.
    Sums the iterated-kernel series with exact product moments for every
    (t-tau)^(beta-1) (tau-s)^(k beta - 1) weight.  The returned kernel also
    carries residuals of its defining Volterra identity and of the
    transposed identity (kernel on the right), both measured by an
    independent quadrature pass over sampled source columns.  The series
    stops at the first level below 1e-13 of the largest level so far and
    raises NumericalError when `_MAX_LEVELS` levels do not get there.
    """
    beta, grid, n, dx = ops.beta, ops.grid, ops.n, ops.dx
    Asamp = ops.A_samples
    norm_a = float(np.max(np.abs(Asamp))) * dx
    kernel = FactoredKernel(
        singular_coeff=Asamp.copy(),
        regular_part=np.zeros_like(Asamp),
        beta=beta,
        coeff_bound=_coeff_bound_series(norm_a, beta, grid.T),
    )
    dt = grid.nodes[:, None] - grid.nodes[None, :]
    il = np.tril_indices(n, k=-1)
    G = Asamp.copy()  # coefficient of (t-s)^(k*beta - 1), level k = 1
    D = kernel.regular_part
    diag_idx = np.arange(n)
    scale_ref = 0.0
    for k in range(1, _MAX_LEVELS + 1):
        q = k * beta
        F_next = _convolve_columns(Asamp, G, _pair_column_weights(grid, beta, q))
        if k == 1:
            F2 = F_next
        e = (k + 1) * beta - 1.0
        Gnew = np.zeros_like(G)
        Gnew[il] = F_next[il] / dt[il][:, None, None] ** e
        # diagonal limit of the next coefficient
        Gnew[diag_idx, diag_idx] = beta_function(q, beta) * np.einsum(
            "ixy,iyz->ixz", Asamp[diag_idx, diag_idx], G[diag_idx, diag_idx]
        )
        D[il] += F_next[il]
        level_scale = float(np.max(np.abs(F_next)))
        scale_ref = max(scale_ref, level_scale)
        if level_scale <= 1e-13 * max(scale_ref, 1e-300):
            break
        G = Gnew
    else:
        raise NumericalError(
            "resolvent series did not reach the requested tolerance within "
            f"{_MAX_LEVELS} levels; coefficient norm {norm_a:.3g} may be too "
            "large for this horizon"
        )

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
    Over about 48 sampled source columns, the defining identity is one GEMM
    of the operator's weighted A, `ops.WA_flat`, against those columns of
    D; the transposed one is the column loop `_convolve_columns` of D
    against A over the same columns, weighted by the lower-endpoint row.
    """
    beta, grid, n, dx = kernel.beta, ops.grid, ops.n, ops.dx
    D = kernel.regular_part
    cols = np.arange(0, n - 2, max(1, (n - 2) // 48))
    c = cols.size
    # defining identity, kernel A on the left
    Dc = D[:, cols].transpose(0, 2, 1, 3).reshape(n * dx, c * dx)
    quad = (ops.WA_flat @ Dc).reshape(n, dx, c, dx).transpose(0, 2, 1, 3)
    # transposed identity, kernel A on the right; weights carry the
    # (tau - s_j)^(beta-1) factor about the lower endpoint
    quad_tr = _convolve_columns(
        D, ops.A_samples, lambda j: lower_product_weights(grid, beta, j)[None], columns=cols
    )[:, cols]

    denom = 1.0 + np.abs(kernel.eval_offdiag(grid)[:, cols]).max(axis=(2, 3))
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

    sw is the product-integration weight table of the grid.  WA_flat and
    WB_flat are the kernel samples folded with it, as flat (n dx, n dx)
    and (n dx, n du) block matrices; the kernel layer (`resolvent`,
    `solve_state`, the cache) reads the same A_samples, sw and WA_flat.
    All adjoints are taken in the trapezoid-weighted inner product of the
    grid, so that <Theta u, X> = <u, Theta* X> holds to round-off.  No
    method mutates problem data.  The control side (B_samples, WB_flat),
    the LU factor of I - WA, phi, theta and psi are built on first access
    and kept, so a state-only caller never pays for them; touch theta and
    psi before handing the operator to concurrent tasks.
    """

    def __init__(self, problem: ProblemData, grid: Grid):
        self.problem = problem
        self.grid = grid
        self.beta = problem.beta
        self.n, self.dx, self.du = grid.n, problem.n_state, problem.n_control
        self.omega = grid.trapezoid_weights()
        self.wx = np.repeat(self.omega, self.dx)
        self.wu = np.repeat(self.omega, self.du)
        self.sw = product_weights(grid, problem.beta)
        self.A_samples = sample_kernel(problem.A, grid, self.dx, self.dx)
        self.WA_flat = self._fold(self.A_samples)

    def _fold(self, samples: np.ndarray) -> np.ndarray:
        """Kernel samples (n, n, d1, d2) times sw, as a flat (n d1, n d2) matrix."""
        n, _, d1, d2 = samples.shape
        out = np.empty((n, d1, n, d2))  # the product goes straight into the flat layout
        np.multiply(self.sw[:, None, :, None], samples.transpose(0, 2, 1, 3), out=out)
        return out.reshape(n * d1, n * d2)

    @cached_property
    def B_samples(self) -> np.ndarray:
        return sample_kernel(self.problem.B, self.grid, self.dx, self.du)

    @cached_property
    def WB_flat(self) -> np.ndarray:
        return self._fold(self.B_samples)

    @cached_property
    def _lu(self):
        return lu_factor(np.eye(self.n * self.dx) - self.WA_flat)

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
        """(I - WA)^(-1) v for a flat state vector."""
        return lu_solve(self._lu, v)

    def solve_dual(self, v: np.ndarray) -> np.ndarray:
        """(I - WA*)^(-1) v in the weighted inner product (flat state vector)."""
        return lu_solve(self._lu, self.wx * v, trans=1) / self.wx

    def apply_dual_A(self, v: np.ndarray) -> np.ndarray:
        """WA* v, the weighted adjoint of the state kernel action."""
        return (self.WA_flat.T @ (self.wx * v)) / self.wx

    def apply_dual_B(self, v: np.ndarray) -> np.ndarray:
        """WB* v: weighted adjoint of the control kernel action (state -> control)."""
        return (self.WB_flat.T @ (self.wx * v)) / self.wu

    # -- derived objects --------------------------------------------------

    @cached_property
    def theta(self) -> np.ndarray:
        """Control-to-state map (n dx, n du), quadrature weights included."""
        return lu_solve(self._lu, self.WB_flat)

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
    weights of the lower-endpoint factor (tau-s)^(beta-1) alone.  A
    resolvent of another node count or beta raises ValueError.
    """
    _require_matching_kernel(resolvent_kernel, ops, "the resolvent kernel")
    beta, grid = ops.beta, ops.grid
    Bsamp = ops.B_samples
    piece1 = _convolve_columns(
        resolvent_kernel.singular_coeff, Bsamp, _pair_column_weights(grid, beta, beta)
    )
    piece2 = _convolve_columns(
        resolvent_kernel.regular_part, Bsamp, lambda j: lower_product_weights(grid, beta, j)[None]
    )
    return FactoredKernel(singular_coeff=Bsamp.copy(), regular_part=piece1 + piece2, beta=beta)


def solve_state(ops: StateOperator, xi) -> np.ndarray:
    """Forward time-stepping solve of X = xi + int A X (t-s)^(beta-1) ds.

    xi is a grid trajectory (array or callable) on the grid of `ops`.
    Returns X with shape (n, n_state).  The rows are the operator's
    weighted A, `ops.WA_flat`, and every diagonal block (I - w_ii A(t_i, t_i))
    is inverted in one stacked call; step i is then one matvec against the
    computed past and one dx x dx product.  A zero A returns xi exactly.
    The blocks are nonsingular on any reasonable grid; a singular one
    signals a grid far too coarse for the kernel magnitude.
    """
    n, dx = ops.n, ops.dx
    xi_s = sample_trajectory(xi, ops.grid, dx)
    WA = ops.WA_flat.reshape(n, dx, n * dx)
    diag = np.arange(n)
    blocks = np.eye(dx) - WA.reshape(n, dx, n, dx)[diag, :, diag]
    try:
        step = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        i = int(np.argmin(np.abs(np.linalg.det(blocks))))
        raise NumericalError(
            f"implicit step singular at node {i}; grid too coarse for "
            "the kernel magnitude"
        ) from exc
    X = np.zeros(n * dx)
    for i in range(n):
        X[i * dx : (i + 1) * dx] = step[i] @ (xi_s[i] + WA[i, :, : i * dx] @ X[: i * dx])
    return X.reshape(n, dx)
