"""Feedback-gain kernel via a family of Fredholm equations of the second kind.

For each truncation point sigma the gain kernel M_sigma solves

    M_sigma(t, s) = int_sigma^T K(t, xi) M_sigma(xi, s) dxi + f(t, s),

    K(t, xi) = -R(t)^(-1) [ int_{t v xi}^T Psi(tau,t)' Q(tau) Psi(tau,xi) dtau
                            + Psi(T,t)' G Psi(T,xi) ],

with f(t, s) = K(t, s) (the control kernel vanishes for tau < s, so the
lower limits coincide).  This family plays the role the Riccati equation
plays for ODE problems: the optimal control is a combination of
instantaneous terms and integrals of M_t(t, .) against non-anticipating
data.

Discretely K is assembled from the already-weighted operators of the
assembled problem `dlq` (which carries its state operator `dlq.ops`), which
makes the kernel equal to -R^(-1)(Lam - R) up to the quadrature weights: the
Fredholm solve, the trailing-block solve of the quadratic form, and the
representation formula are then three views of the same linear algebra and
agree to round-off.  A quadrature cross-check against the defining double
integral (through the factored control kernel `volterra.control_kernel`)
guards the assembly.

Solvers, from oracle to cheap:

*   `solve_direct`: one dense solve per source column (the oracle).
*   the backward sweep behind `representation_terms(method="direct")`:
    I - K_sigma is R^(-1) Lam restricted to [sigma, T], so the gain row
    M_sigma(sigma, .) is read off the block row Z_sigma of sigma in the
    inverse trailing block.  One reversed Cholesky plus one triangular
    inverse per assembled problem give every Z_sigma, each read as a
    slice (`causal.TruncationFactor`).  The whole family costs
    O((n du)^3), the discrete analogue of integrating the Riccati-like
    family once, backward.
*   `solve_galerkin`: orthogonal projection onto continuous piecewise
    linear functions on a coarser node set (through the Gram system).
*   `solve_iterated_galerkin`: one extra kernel application; the
    projection of the iterate reproduces the Galerkin solution exactly.
*   `solve_superconvergent`: the five-step refinement loop
        M~   = f + K M
        M~~  = f + K M~
        g    = M~~ - M~
        (I - P K) e = P g
        M_next = K e + M~~
    started from the iterated-Galerkin solution, which squeezes an extra
    convergence order out of each sweep until the round-off floor.

The last three are one sweep of linear maps of the right side f that act
on it from the left, column by column, through one `_Projection` that
takes the truncation index of each column, and `_sweep`.  A whole-table
solver gives all its columns the one sigma and returns the gain table flat,
shape (n du, n du), in the layout of `rhs`.  The representation, which
needs M_t(t, .) only against one vector v per node, gives column t of its
(n du, n) right side, node t's column f v, sigma = t, and never forms a
gain table.  Either way K_sigma is applied to every column at once as
Kmat[:, lo:] @ (mask * M[lo:]), lo = du min sigma, the mask keeping the
rows of the nodes >= sigma of each column, and the projected matrices
Gram - H' Wu K_sigma H come from one reverse cumulative sum over the node
blocks >= sigma of H' Wu Kmat, inverted in one stacked call, so no
column's result depends on a kernel column before its sigma.  For every node at once this costs O(n (q du)^3) for the
projected systems plus a few O(n^3 du^2) kernel products.  The
`fredholm-methods` scenario walks the sweep itself and measures each
iterate's distance to the direct oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .causal import _require_no_cross_terms, _running_gradients
from .errors import AssumptionError, NumericalError
from .grids import Grid, lower_product_weights, trapezoid_rule
# solve_open_loop is unused here; perfbench/tests/test_perfbench.py pins this import site
from .lq import DiscreteLQ, _block_product, _plus_block_diagonal, solve_open_loop  # noqa: F401
from .volterra import FactoredKernel, _require_matching_kernel

__all__ = [
    "FredholmSystem",
    "assemble_fredholm",
    "solve_direct",
    "solve_galerkin",
    "solve_iterated_galerkin",
    "solve_superconvergent",
    "representation_terms",
    "crosscheck_kernel_samples",
]


@dataclass(frozen=True)
class FredholmSystem:
    """Discretized gain equation at one truncation index.

    `kernel` holds samples K(t_i, xi_j) as (du x du) blocks; `Kmat` folds
    the integration weights so the equation reads M - K_sigma M = f
    columnwise, with K_sigma M = `apply(M)` reading the kernel columns of
    the nodes >= sigma only.  The right side coincides with the kernel
    samples (zero-extension of the control kernel), so `rhs` aliases
    `kernel`.
    """

    kernel: np.ndarray  # flat (n du, n du), kernel-normalized columns
    Kmat: np.ndarray  # flat, integration weights folded in
    sigma_index: int
    grid: Grid
    du: int
    omega: np.ndarray
    beta: float

    @property
    def rhs(self) -> np.ndarray:
        return self.kernel

    @property
    def n(self) -> int:
        return self.grid.n

    def apply(self, M: np.ndarray) -> np.ndarray:
        """K_sigma M, reading only the kernel columns of the nodes >= sigma."""
        lo = self.sigma_index * self.du
        return self.Kmat[:, lo:] @ M[lo:]


def assemble_fredholm(dlq: DiscreteLQ, sigma_index: int) -> FredholmSystem:
    """Build the discrete gain equation from the assembled operators.

    Matrix algebra on the weighted operators (no re-quadrature), so the
    result is exactly consistent with the quadratic form: the kernel
    matrix equals -R^(-1)(Lam - R) in operator coordinates.  The cost
    weights are the samples folded into the quadratic form
    (`dlq.cost_samples`), which must have no cross terms.
    """
    sc = dlq.cost_samples
    _require_no_cross_terms(sc, "the gain equation")
    if not 0 <= sigma_index < dlq.n:
        raise ValueError(f"sigma index {sigma_index} out of range")
    ops = dlq.ops
    lam_minus_R = _plus_block_diagonal(dlq.lam, -(ops.omega[:, None, None] * sc.R))
    Kmat = -_block_product(sc.R_inverses(), lam_minus_R / dlq.wu[:, None])
    kernel = Kmat / dlq.wu[None, :]
    return FredholmSystem(
        kernel=kernel,
        Kmat=Kmat,
        sigma_index=sigma_index,
        grid=ops.grid,
        du=dlq.du,
        omega=ops.omega,
        beta=ops.beta,
    )


def solve_direct(sys: FredholmSystem) -> np.ndarray:
    """Dense solve of the gain equation; oracle for the projection family."""
    lo = sys.sigma_index * sys.du
    A = np.eye(sys.n * sys.du)
    A[:, lo:] -= sys.Kmat[:, lo:]
    try:
        return np.linalg.solve(A, sys.rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "gain equation is singular; the coercivity assumptions are "
            "likely violated"
        ) from exc


def _hat_basis(n: int, q: int) -> np.ndarray:
    """Continuous piecewise-linear hats on q coarse nodes, sampled on n fine nodes."""
    coarse = np.unique(np.linspace(0, n - 1, q).round().astype(int))
    H = np.zeros((n, coarse.size))
    fine = np.arange(n, dtype=float)
    for k in range(coarse.size):
        e = np.zeros(coarse.size)
        e[k] = 1.0
        H[:, k] = np.interp(fine, coarse.astype(float), e)
    return H


def _invert_projected(proj_mats: np.ndarray) -> np.ndarray:
    """Inverses of a stack of projected matrices Gram - H' Wu K_sigma H, one stacked call.

    An exactly singular matrix, or one whose 1-norm condition number (read
    off the inverse) exceeds 1e13, raises NumericalError: the subspace is
    too small to resolve the gain equation at that truncation point.  The
    stack is overwritten: it holds the absolute values for the norms.
    """
    try:
        inv = np.linalg.inv(proj_mats)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "projected gain system is singular; increase the subspace dimension"
        ) from exc
    norms = np.abs(proj_mats, out=proj_mats).sum(axis=1).max(axis=1)
    norms *= np.abs(inv, out=proj_mats).sum(axis=1).max(axis=1)
    worst = norms.max()
    if not worst <= 1e13:
        raise NumericalError(
            f"projected gain system nearly singular (cond {worst:.2e}); "
            "increase the subspace dimension"
        )
    return inv


class _Projection:
    """Orthogonal projection onto the hat subspace in the weighted product.

    `sigma` is the truncation index of the right side's columns: one index
    for every column, or one per column (`np.arange(n)` for the
    representation, column t at sigma = t).  K_sigma is applied to every
    column at once as Kmat[:, lo:] @ (mask * M[lo:]), lo = du min sigma,
    `mask` keeping the rows of the nodes >= sigma of each column.  The
    projected matrices P_sigma = Gram - sum_{s >= sigma} H' Wu Kmat[:, s] Hb[s]
    (node blocks s) come from one reverse cumulative sum over the nodes
    >= min sigma and are inverted in one stacked call (`_invert_projected`),
    so no column's result depends on a kernel column before its sigma.
    Beta <= 1/2 is refused: the gain kernel is unbounded on its diagonal
    like |t - xi|^(2 beta - 1), and hats do not resolve it.
    """

    def __init__(self, sys: FredholmSystem, subspace_dim: int, sigma):
        if not sys.beta > 0.5:
            raise AssumptionError(
                f"projection gain solvers need beta > 1/2; got beta = {sys.beta}"
            )
        if subspace_dim < 2:
            raise ValueError("subspace dimension must be >= 2")
        if subspace_dim > sys.n:
            raise ValueError("subspace dimension exceeds the grid size")
        self.sys = sys
        n, du = sys.n, sys.du
        sigma = np.atleast_1d(sigma)
        first = sigma.min()
        self.lo = lo = du * first
        self.Hb = np.kron(_hat_basis(n, subspace_dim), np.eye(du))
        self.HtW = self.Hb.T * np.repeat(sys.omega, du)[None, :]
        m = self.Hb.shape[1]
        # node s's term H' Wu Kmat[:, s] Hb[s], summed in place from the last node back;
        # H' Wu Kmat is one product for every sigma, so one sigma's matrix is
        # bit for bit its entry of the every-node stack
        proj_mats = (self.HtW @ sys.Kmat)[:, lo:].reshape(m, n - first, du).swapaxes(0, 1)
        proj_mats = proj_mats @ self.Hb[lo:].reshape(n - first, du, m)
        for s in range(n - first - 2, -1, -1):
            proj_mats[s] += proj_mats[s + 1]
        np.subtract(self.HtW @ self.Hb, proj_mats, out=proj_mats)
        self.mask = np.arange(lo, n * du)[:, None] >= du * sigma
        self._inv = _invert_projected(proj_mats[sigma - first])

    def apply(self, M: np.ndarray) -> np.ndarray:
        """K_sigma M, with the truncation point of each column."""
        return self.sys.Kmat[:, self.lo :] @ (self.mask * M[self.lo :])

    def solve_projected(self, rhs: np.ndarray) -> np.ndarray:
        """Solution of (I - P K_sigma) x = P rhs inside the subspace, column by column."""
        coeff = self._inv @ (self.HtW @ rhs).T[:, :, None]  # one inverse per column, or one for all
        return self.Hb @ coeff[:, :, 0].T


def _sweep(proj: _Projection, f: np.ndarray):
    """Iterates of the projection family for the right side f.

    Yields the Galerkin solution of (I - P K) M = P f, the iterated
    Galerkin solution f + K M, and then the result of one five-step sweep
    after another, K = `proj.apply`.  Every step acts on f from the left,
    column by column, so f is the whole flat right side of one truncation
    point, or one column f v per node (shape (n du, n), sigma = t in
    column t), whose iterates are the tables' iterates applied to v.
    """
    K = proj.apply
    M = proj.solve_projected(f)
    yield M
    M = f + K(M)
    while True:
        yield M
        M_t = f + K(M)
        M_tt = f + K(M_t)
        M = K(proj.solve_projected(M_tt - M_t)) + M_tt


def solve_galerkin(sys: FredholmSystem, subspace_dim: int) -> np.ndarray:
    """Projection solve on the piecewise-linear subspace."""
    proj = _Projection(sys, subspace_dim, sys.sigma_index)
    return next(_sweep(proj, sys.rhs))


def solve_iterated_galerkin(sys: FredholmSystem, galerkin: np.ndarray) -> np.ndarray:
    """One kernel application on top of the Galerkin solution.

    The sweep's second step, f + K M, applied to the given flat Galerkin
    table; a table of another shape than `sys.rhs` raises ValueError.
    """
    if galerkin.shape != sys.rhs.shape:
        raise ValueError(
            f"Galerkin table has shape {galerkin.shape}, expected {sys.rhs.shape}"
        )
    return sys.rhs + sys.apply(galerkin)


def solve_superconvergent(sys: FredholmSystem, subspace_dim: int, k_iters: int) -> np.ndarray:
    """Five-step refinement loop: k_iters sweeps from the iterated-Galerkin start."""
    if k_iters < 0:
        raise ValueError("iteration count must be >= 0")
    proj = _Projection(sys, subspace_dim, sys.sigma_index)
    return next(islice(_sweep(proj, sys.rhs), 1 + k_iters, None))


def _direct_gain_rows(factor, R: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gain blocks M_t(t, s_j) of every node t, shape (n, n, du, du).

    M_t(t, s_j) = (Z_t (R W)[t:, t:] - E_t) / w_j with Z_t the factor's
    block row and E_t the unit block row of node t, evaluated blockwise
    as Z_t(j) R_j minus I / w_t on the diagonal block.  The blocks with
    j < t are exactly zero, as Z is; the other rows of the gain equation
    at sigma = t are never formed.
    """
    n, du = factor.n, factor.du
    by_node = factor.Z.reshape(n * du, n, du).swapaxes(0, 1) @ R  # [j, (t, a), b]
    rows = by_node.reshape(n, n, du, du).swapaxes(0, 1)
    nodes = np.arange(n)
    rows[nodes, nodes] -= np.eye(du) / w[:, None, None]
    return rows


def _gain_integrals(
    dlq: DiscreteLQ, rg: np.ndarray, method: str, subspace_dim: int | None, iterations: int
) -> np.ndarray:
    """The integrals sum_{j >= t} w_j M_t(t, s_j) rg[t, j] of the representation, per t.

    rg[t] is the data of node t.  The direct method reads every gain row
    from the problem's truncation factor.  The projection methods run one
    sweep over all nodes at once: column t of its right side is the
    column f v of sigma = t, with v = w rg[t] on the nodes j >= t (the
    columns of f before t are never read), and node t keeps block t of
    column t.
    """
    n, du = dlq.n, dlq.du
    w = dlq.ops.omega
    if method == "direct":
        rows = _direct_gain_rows(dlq.truncation_factor, dlq.cost_samples.R, w)
        rows = rows.swapaxes(1, 2).reshape(n, du, n * du)  # gain row of t, flat over j
        return (rows @ (w[:, None] * rg).reshape(n, n * du, 1))[..., 0]
    if method not in ("galerkin", "iterated", "superconvergent"):
        raise ValueError(f"unknown gain solver {method!r}")
    if subspace_dim is None:
        raise ValueError(f"method {method!r} needs a subspace dimension")
    if method == "superconvergent" and iterations < 0:
        raise ValueError("iteration count must be >= 0")
    stage = {"galerkin": 0, "iterated": 1, "superconvergent": 1 + iterations}[method]
    sys0 = assemble_fredholm(dlq, 0)
    proj = _Projection(sys0, subspace_dim, np.arange(n))
    # column t of v: w_j rg[t, j] on the nodes j >= t, zero before
    f = sys0.rhs @ np.where(proj.mask, (w[None, :, None] * rg).reshape(n, n * du).T, 0.0)
    M = next(islice(_sweep(proj, f), stage, None))
    nodes = np.arange(n)
    return M.reshape(n, du, n)[nodes, :, nodes]


def representation_terms(
    dlq: DiscreteLQ,
    x_trunc: np.ndarray,
    method: str = "direct",
    subspace_dim: int | None = None,
    iterations: int = 2,
) -> np.ndarray:
    """Evaluate the gain-kernel control representation nodewise.

    For each node t: form the non-anticipating gradient data from the
    truncation trajectory x_trunc[t] (the family of
    `causal_trajectories`) and its terminal forecast, and combine the
    instantaneous term with the integral of the gain row M_t(t, .)
    against it.  The direct gain rows come from one backward sweep
    through a single factor of the reversed quadratic form, O((n du)^3)
    for all t; the projection methods run one sweep over one right side
    per node, all nodes stacked: O(n (q du)^3) for the projected systems,
    from one product of the hat basis with the kernel, plus a few
    O(n^3 du^2) kernel products.  The cost weights are taken from the
    assembled problem (no cross terms).
    """
    sc = dlq.cost_samples
    _require_no_cross_terms(sc, "the gain representation")
    n, du = dlq.n, dlq.du
    gvec = (_running_gradients(dlq, x_trunc) / dlq.wu).reshape(n, n, du)
    rg = (sc.R_inverses() @ gvec.transpose(1, 2, 0)).transpose(2, 0, 1)  # [t, j] = R_j^-1 g_t(j)
    nodes = np.arange(n)
    return -rg[nodes, nodes] - _gain_integrals(dlq, rg, method, subspace_dim, iterations)


def crosscheck_kernel_samples(
    sys: FredholmSystem,
    dlq: DiscreteLQ,
    Psi: FactoredKernel,
    n_samples: int = 24,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare sampled kernel entries against direct quadrature.

    Re-evaluates K(t_i, xi_j) from the factored control kernel Psi of the
    same grid (`volterra.control_kernel`) by product quadrature of the
    defining double integral and returns the largest relative deviation
    over the sampled pairs.  Pairs are drawn at least 6T/n from the
    diagonal (the folded singular factor must stay resolved) and away
    from the terminal corner (where the integration domain degenerates to
    a few segments); within that region the two routes agree to first
    order in the step.  A Psi of another node count or beta raises
    ValueError, and so does a grid too coarse to hold such a pair.
    """
    _require_matching_kernel(Psi, dlq.ops, "the control kernel Psi")
    rng = rng or np.random.default_rng(0)
    grid = sys.grid
    n, du = sys.n, sys.du
    nodes = grid.nodes
    hi = max(int(0.85 * n), 3)
    sep = 6.0 * grid.T / n
    if nodes[hi - 1] - nodes[1] < sep:  # the widest pair in range is (1, hi - 1)
        raise ValueError(f"no pair of nodes 1 <= i, j < {hi} lies {sep:.3g} apart on n = {n}")
    sc = dlq.cost_samples
    Rinv = sc.R_inverses()
    beta = dlq.ops.beta
    B = Psi.singular_coeff
    D = Psi.regular_part
    values = Psi.eval_offdiag(grid)  # Psi(t_l, s_i), zero for l <= i
    scale = float(np.max(np.abs(sys.kernel)))
    worst = 0.0
    pairs = 0
    while pairs < n_samples:
        i = int(rng.integers(1, hi))
        j = int(rng.integers(1, hi))
        if abs(nodes[i] - nodes[j]) < sep:
            continue
        pairs += 1
        m = max(i, j)
        taus = nodes[m:]
        # Integration runs over tau >= t_m.  The endpoint singularity of
        # the max argument is factored into exact lower-endpoint weights;
        # the other argument's kernel is finite on the whole domain and
        # evaluated from the factored table.
        Q_tau = sc.Q[m:]
        psi_i, psi_j = values[m:, i], values[m:, j]
        sing = lower_product_weights(grid, beta, m)
        if i >= j:
            coeff_sing = np.einsum("lxc,lxy,lyd->lcd", B[m:, i], Q_tau, psi_j)
            coeff_reg = np.einsum("lxc,lxy,lyd->lcd", D[m:, i], Q_tau, psi_j)
        else:
            coeff_sing = np.einsum("lxc,lxy,lyd->lcd", psi_i, Q_tau, B[m:, j])
            coeff_reg = np.einsum("lxc,lxy,lyd->lcd", psi_i, Q_tau, D[m:, j])
        integral = np.einsum("l,lcd->cd", sing, coeff_sing) + np.einsum(
            "l,lcd->cd", trapezoid_rule(taus), coeff_reg
        )
        terminal = values[-1, i].T @ sc.G @ values[-1, j]
        K_quad = -Rinv[i] @ (integral + terminal)
        K_alg = sys.kernel[i * du : (i + 1) * du, j * du : (j + 1) * du]
        worst = max(worst, float(np.max(np.abs(K_quad - K_alg)) / scale))
    return worst

