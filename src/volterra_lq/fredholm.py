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
assembled problem `dlq` (which carries its decomposition `dlq.dec`), which
makes the kernel equal to -R^(-1)(Lam - R) up to the quadrature weights: the
Fredholm solve, the trailing-block solve of the quadratic form, and the
representation formula are then three views of the same linear algebra and
agree to round-off.  A quadrature cross-check against the defining double
integral (through the factored control kernel) guards the assembly.

Solvers, from oracle to cheap:

*   `solve_direct`: one dense solve per source column (the oracle).
*   the backward sweep behind `representation_terms(method="direct")`:
    I - K_sigma is R^(-1) Lam restricted to [sigma, T], so the gain row
    M_sigma(sigma, .) is read off the block row of sigma in the inverse
    trailing block, and one Cholesky factor of the index-reversed form
    serves every sigma (`causal.TruncationFactor`).  The whole family
    costs O((n du)^3), the discrete analogue of integrating the
    Riccati-like family once, backward.
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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from .causal import (
    TruncationFactor,
    _require_no_cross_terms,
    _running_gradient,
    causal_trajectories,
)
from .errors import NumericalError
from .grids import Grid, lower_product_weights, trapezoid_rule
from .lq import DiscreteLQ, _blockdiag, solve_open_loop

__all__ = [
    "FredholmSystem",
    "FeedbackKernel",
    "GalerkinState",
    "assemble_fredholm",
    "solve_direct",
    "solve_galerkin",
    "solve_iterated_galerkin",
    "solve_superconvergent",
    "reconstruct_in_s",
    "feedback_control",
    "representation_terms",
    "crosscheck_kernel_samples",
]


@dataclass(frozen=True)
class FredholmSystem:
    """Discretized gain equation at one truncation index.

    `kernel` holds samples K(t_i, xi_j) as (du x du) blocks; `Kmat` folds
    the integration weights so the equation reads
    (I - Kmat . mask_sigma) M = f columnwise.  The right side coincides
    with the kernel samples (zero-extension of the control kernel), so
    `rhs` aliases `kernel`.
    """

    kernel: np.ndarray  # flat (n du, n du), kernel-normalized columns
    Kmat: np.ndarray  # flat, integration weights folded in
    sigma_index: int
    grid: Grid
    du: int
    beta: float
    omega: np.ndarray
    R_blocks: np.ndarray

    @property
    def rhs(self) -> np.ndarray:
        return self.kernel

    @property
    def n(self) -> int:
        return self.grid.n

    def column_mask(self) -> np.ndarray:
        keep = np.arange(self.n) >= self.sigma_index
        return np.repeat(keep, self.du)

    def masked_Kmat(self) -> np.ndarray:
        return self.Kmat * self.column_mask()[None, :]

    def frobenius_norm(self) -> float:
        """Weighted L2(dt x dxi) norm of the kernel table."""
        wu = np.repeat(self.omega, self.du)
        return float(np.sqrt(np.einsum("i,ij,j->", wu, self.kernel**2, wu)))


@dataclass
class FeedbackKernel:
    """Gain kernel table M[t_i, s_j] with solver provenance.

    residual is the achieved Fredholm residual relative to the right
    side; error_history (superconvergent solver with an oracle only)
    tracks the distance to the direct oracle per sweep.
    """

    M: np.ndarray  # (n, n, du, du)
    method: str
    sigma_index: int
    beta: float
    residual: float
    galerkin: "GalerkinState | None" = None

    def flat(self) -> np.ndarray:
        n, _, du, _ = self.M.shape
        return self.M.transpose(0, 2, 1, 3).reshape(n * du, n * du)


@dataclass
class GalerkinState:
    """Projection data and iterates of the Galerkin-type solvers."""

    subspace_dim: int
    basis: np.ndarray  # (n, q) hat functions on the coarse nodes
    gram: np.ndarray
    iterates: dict = field(default_factory=dict)
    error_history: list = field(default_factory=list)


def _table(flat: np.ndarray, n: int, du: int) -> np.ndarray:
    return flat.reshape(n, du, n, du).transpose(0, 2, 1, 3)


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
    Rinv_bd = _blockdiag(sc.R_inverses())
    lam_minus_R = (dlq.lam - dlq.wu[:, None] * _blockdiag(sc.R)) / dlq.wu[:, None]
    Kmat = -Rinv_bd @ lam_minus_R
    kernel = Kmat / dlq.wu[None, :]
    ops = dlq.dec.ops
    return FredholmSystem(
        kernel=kernel,
        Kmat=Kmat,
        sigma_index=sigma_index,
        grid=ops.grid,
        du=dlq.du,
        beta=ops.beta,
        omega=ops.omega,
        R_blocks=sc.R,
    )


def solve_direct(sys: FredholmSystem) -> FeedbackKernel:
    """Dense solve of the gain equation; oracle for the projection family."""
    n, du = sys.n, sys.du
    K = sys.masked_Kmat()
    A = np.eye(n * du) - K
    try:
        M_flat = np.linalg.solve(A, sys.rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "gain equation is singular; the coercivity assumptions are "
            "likely violated"
        ) from exc
    res = _fredholm_residual(sys, M_flat, K)
    return FeedbackKernel(
        M=_table(M_flat, n, du),
        method="direct",
        sigma_index=sys.sigma_index,
        beta=sys.beta,
        residual=res,
    )


def _fredholm_residual(sys: FredholmSystem, M_flat: np.ndarray, K: np.ndarray) -> float:
    """Relative residual of M_flat; K is the system's masked_Kmat()."""
    r = M_flat - K @ M_flat - sys.rhs
    scale = np.linalg.norm(sys.rhs)
    return float(np.linalg.norm(r) / (scale if scale > 0 else 1.0))


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


class _HatSpace:
    """Hat subspace and its weighted Gram factor; independent of sigma."""

    def __init__(self, n: int, subspace_dim: int, du: int, omega: np.ndarray):
        if subspace_dim < 2:
            raise ValueError("subspace dimension must be >= 2")
        if subspace_dim > n:
            raise ValueError("subspace dimension exceeds the grid size")
        self.dim = subspace_dim
        self.H = _hat_basis(n, subspace_dim)
        self.Hb = np.kron(self.H, np.eye(du))
        self.wu = np.repeat(omega, du)
        self.gram = self.Hb.T @ (self.wu[:, None] * self.Hb)
        self.gram_factor = cho_factor(self.gram)


class _Projection:
    """Orthogonal projection onto the hat subspace in the weighted product.

    Builds the hat subspace unless the caller shares a prebuilt `space`
    across truncation points.
    """

    def __init__(self, sys: FredholmSystem, subspace_dim: int, space: _HatSpace | None = None):
        if space is None:
            space = _HatSpace(sys.n, subspace_dim, sys.du, sys.omega)
        self.space = space
        self.K = K = sys.masked_Kmat()
        # projected second-kind matrix (Gram - H' Wu K H)
        Hb, wu = space.Hb, space.wu
        proj_mat = space.gram - Hb.T @ (wu[:, None] * (K @ Hb))
        try:
            self._solve_factor = lu_factor(proj_mat)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "projected gain system is singular; increase the subspace "
                "dimension"
            ) from exc
        cond = np.linalg.cond(proj_mat)
        if cond > 1e13:
            raise NumericalError(
                f"projected gain system nearly singular (cond {cond:.2e}); "
                "increase the subspace dimension"
            )

    def project(self, v: np.ndarray) -> np.ndarray:
        sp = self.space
        coeff = cho_solve(sp.gram_factor, sp.Hb.T @ (sp.wu[:, None] * v))
        return sp.Hb @ coeff

    def solve_projected(self, rhs: np.ndarray) -> np.ndarray:
        """Solution of (I - P K) x = P rhs inside the subspace."""
        sp = self.space
        coeff = lu_solve(self._solve_factor, sp.Hb.T @ (sp.wu[:, None] * rhs))
        return sp.Hb @ coeff

    def state(self, **kwargs) -> GalerkinState:
        sp = self.space
        return GalerkinState(subspace_dim=sp.dim, basis=sp.H, gram=sp.gram, **kwargs)


def solve_galerkin(
    sys: FredholmSystem, subspace_dim: int, *, space: _HatSpace | None = None
) -> FeedbackKernel:
    """Projection solve on the piecewise-linear subspace.

    `space` shares a hat subspace built for another truncation point of
    the same grid and dimension.
    """
    proj = _Projection(sys, subspace_dim, space)
    M_flat = proj.solve_projected(sys.rhs)
    return FeedbackKernel(
        M=_table(M_flat, sys.n, sys.du),
        method="galerkin",
        sigma_index=sys.sigma_index,
        beta=sys.beta,
        residual=_fredholm_residual(sys, M_flat, proj.K),
        galerkin=proj.state(iterates={"M": M_flat}),
    )


def solve_iterated_galerkin(sys: FredholmSystem, galerkin: FeedbackKernel) -> FeedbackKernel:
    """One kernel application on top of the Galerkin solution."""
    K = sys.masked_Kmat()
    M_flat = sys.rhs + K @ galerkin.flat()
    return FeedbackKernel(
        M=_table(M_flat, sys.n, sys.du),
        method="iterated",
        sigma_index=sys.sigma_index,
        beta=sys.beta,
        residual=_fredholm_residual(sys, M_flat, K),
        galerkin=galerkin.galerkin,
    )


def solve_superconvergent(
    sys: FredholmSystem,
    subspace_dim: int,
    k_iters: int,
    oracle: FeedbackKernel | None = None,
    *,
    space: _HatSpace | None = None,
) -> FeedbackKernel:
    """Five-step refinement loop from the iterated-Galerkin start.

    With an `oracle` (e.g. from `solve_direct`), records its distance
    after every sweep in `galerkin.error_history` (index 0 is the
    starting iterate); without one the history stays empty and no dense
    solve is made.  `space` is shared as in `solve_galerkin`.
    """
    if k_iters < 0:
        raise ValueError("iteration count must be >= 0")
    proj = _Projection(sys, subspace_dim, space)
    K = proj.K
    f = sys.rhs
    M_gal = proj.solve_projected(f)
    M = f + K @ M_gal  # iterated-Galerkin start
    state = proj.state()
    M_star = None if oracle is None else oracle.flat()
    wu = proj.space.wu

    def record(Mf):
        if M_star is not None:
            dist = np.sqrt(np.einsum("i,ij,j->", wu, (Mf - M_star) ** 2, wu))
            state.error_history.append(float(dist))

    record(M)
    for _ in range(k_iters):
        M_t = f + K @ M
        M_tt = f + K @ M_t
        g = M_tt - M_t
        e = proj.solve_projected(g)
        M = K @ e + M_tt
        state.iterates = {"M~": M_t, "M~~": M_tt, "g": g, "e": e, "M": M}
        record(M)
    return FeedbackKernel(
        M=_table(M, sys.n, sys.du),
        method="superconvergent",
        sigma_index=sys.sigma_index,
        beta=sys.beta,
        residual=_fredholm_residual(sys, M, K),
        galerkin=state,
    )


def reconstruct_in_s(values: np.ndarray, grid: Grid, s: float) -> np.ndarray:
    """Piecewise-linear reconstruction between source nodes at s in [0, T)."""
    if not 0.0 <= s < grid.T:
        raise ValueError(f"s = {s} outside [0, T)")
    nodes = grid.nodes
    j = int(np.searchsorted(nodes, s, side="right") - 1)
    if nodes[j] == s:
        return np.asarray(values[j], dtype=float).copy()
    lam = (s - nodes[j]) / (nodes[j + 1] - nodes[j])
    return (1.0 - lam) * values[j] + lam * values[j + 1]


def _direct_gain_row(factor, R: np.ndarray, w: np.ndarray, t: int) -> np.ndarray:
    """Gain blocks M_t(t, s_j), j >= t, from the truncation factor.

    M_t(t, s_j) = (Z_t (R W)[t:, t:] - E_t) / w_j with Z_t the factor's
    block row and E_t the unit block row of node t, evaluated blockwise
    as Z_t(j) R_j minus I / w_t on the diagonal block.  The other rows of
    the gain equation at sigma = t are never formed.
    """
    du = factor.du
    Z = factor.block_row(t).reshape(du, -1, du).swapaxes(0, 1)  # blocks Z_t(j)
    row = Z @ R[t:]
    row[0] -= np.eye(du) / w[t]
    return row


def _gain_rows(dlq: DiscreteLQ, method: str, subspace_dim: int | None, iterations: int):
    """Yield the gain blocks M_t(t, s_j), j >= t, for t = 0, ..., n - 1."""
    n = dlq.n
    if method == "direct":
        factor = TruncationFactor(dlq)
        R, w = dlq.cost_samples.R, dlq.dec.ops.omega
        for t in range(n):
            yield _direct_gain_row(factor, R, w, t)
        return
    if subspace_dim is None:
        raise ValueError(f"method {method!r} needs a subspace dimension")
    if method not in ("galerkin", "iterated", "superconvergent"):
        raise ValueError(f"unknown gain solver {method!r}")
    sys_base = assemble_fredholm(dlq, 0)
    space = _HatSpace(n, subspace_dim, dlq.du, sys_base.omega)
    for t in range(n):
        sys_t = replace(sys_base, sigma_index=t)
        if method == "superconvergent":
            gain = solve_superconvergent(sys_t, subspace_dim, iterations, space=space)
        else:
            gain = solve_galerkin(sys_t, subspace_dim, space=space)
            if method == "iterated":
                gain = solve_iterated_galerkin(sys_t, gain)
        yield gain.M[t, t:]


def representation_terms(
    dlq: DiscreteLQ,
    traj,
    method: str = "direct",
    subspace_dim: int | None = None,
    iterations: int = 2,
) -> np.ndarray:
    """Evaluate the gain-kernel control representation nodewise.

    For each node t: take the gain row M_t(t, .), form the
    non-anticipating gradient data from the truncation trajectory and
    terminal forecast, and combine the instantaneous and integral terms.
    The direct gain rows come from one backward sweep through a single
    factor of the reversed quadratic form, O((n du)^3) for all t; the
    projection methods solve a projected gain equation per node, sharing
    the hat subspace and its Gram factor.  The cost weights are taken
    from the assembled problem (no cross terms).
    """
    sc = dlq.cost_samples
    _require_no_cross_terms(sc, "the gain representation")
    n, du = dlq.n, dlq.du
    Rinv = sc.R_inverses()
    w = dlq.dec.ops.omega
    out = np.empty((n, du))
    for t, row in enumerate(_gain_rows(dlq, method, subspace_dim, iterations)):
        b = _running_gradient(dlq, traj.x_trunc[t], traj.x_aux[t])
        gvec = (b / dlq.wu).reshape(n, du)
        rg = np.einsum("jab,jb->ja", Rinv, gvec)
        integral = np.einsum("j,jab,jb->a", w[t:], row, rg[t:])
        out[t] = -rg[t] - integral
    return out


def feedback_control(
    dlq: DiscreteLQ,
    method: str = "direct",
    subspace_dim: int | None = None,
    iterations: int = 2,
) -> np.ndarray:
    """Reconstruct the optimal control through the gain-kernel representation.

    Solves the open-loop problem, builds the truncation family of the
    optimal control, and evaluates the representation at every node.
    Requires zero cross weights; general problems use the cross-term
    reduction and its representation.
    """
    _require_no_cross_terms(dlq.cost_samples, "the gain representation")
    traj = causal_trajectories(dlq.dec, solve_open_loop(dlq))
    return representation_terms(
        dlq, traj, method=method, subspace_dim=subspace_dim, iterations=iterations
    )


def crosscheck_kernel_samples(
    sys: FredholmSystem,
    dlq: DiscreteLQ,
    n_samples: int = 24,
    min_separation: float | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare sampled kernel entries against direct quadrature.

    Re-evaluates K(t_i, xi_j) from the factored control kernel by product
    quadrature of the defining double integral and returns the largest
    relative deviation over the sampled pairs.  Pairs are drawn away from
    the diagonal (the folded singular factor must stay resolved) and away
    from the terminal corner (where the integration domain degenerates to
    a few segments); within that region the two routes agree to first
    order in the step.  Requires the decomposition `dlq.dec` to carry the
    factored kernel.
    """
    dec = dlq.dec
    if dec.Psi is None:
        raise ValueError("decomposition lacks the factored control kernel")
    rng = rng or np.random.default_rng(0)
    grid = sys.grid
    n, du = sys.n, sys.du
    nodes = grid.nodes
    hi = max(int(0.85 * n), 3)
    sep = min_separation if min_separation is not None else 6.0 * grid.T / n
    sc = dlq.cost_samples
    Rinv = sc.R_inverses()
    beta = sys.beta
    B = dec.Psi.singular_coeff
    D = dec.Psi.regular_part
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
        off_i = taus - nodes[i]
        off_j = taus - nodes[j]
        with np.errstate(divide="ignore"):
            pow_i = np.where(off_i > 0, off_i ** (beta - 1.0), 0.0)
            pow_j = np.where(off_j > 0, off_j ** (beta - 1.0), 0.0)
        Q_tau = sc.Q[m:]
        psi_i = B[m:, i] * pow_i[:, None, None] + D[m:, i]
        psi_j = B[m:, j] * pow_j[:, None, None] + D[m:, j]
        sing = lower_product_weights(grid, beta, m)[-1]
        if i >= j:
            coeff_sing = np.einsum("lxc,lxy,lyd->lcd", B[m:, i], Q_tau, psi_j)
            coeff_reg = np.einsum("lxc,lxy,lyd->lcd", D[m:, i], Q_tau, psi_j)
        else:
            coeff_sing = np.einsum("lxc,lxy,lyd->lcd", psi_i, Q_tau, B[m:, j])
            coeff_reg = np.einsum("lxc,lxy,lyd->lcd", psi_i, Q_tau, D[m:, j])
        integral = np.einsum("l,lcd->cd", sing, coeff_sing) + np.einsum(
            "l,lcd->cd", trapezoid_rule(taus), coeff_reg
        )
        terminal = dec.Psi_T_row[i].T @ sc.G @ dec.Psi_T_row[j]
        K_quad = -Rinv[i] @ (integral + terminal)
        K_alg = sys.kernel[i * du : (i + 1) * du, j * du : (j + 1) * du]
        worst = max(worst, float(np.max(np.abs(K_quad - K_alg)) / scale))
    return worst

