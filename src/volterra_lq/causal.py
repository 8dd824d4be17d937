"""Causal projections, truncation trajectories, and non-anticipating control.

The direct optimality relation expresses u(t) through future state values.
This module rebuilds u(t) from information available at time t only:

*   the truncation trajectory X_sigma(.) (state evolving with the control
    switched off from sigma on),
*   the auxiliary trajectory X^a(t) (running forecast of the terminal
    state from past control),
*   and the restriction of the quadratic form to controls supported on
    [sigma, T].  Its trailing blocks Lam[sigma:, sigma:] are the leading
    blocks of the index-reversed form, so one Cholesky factor of the
    reversed form, computed once, solves every truncation point: a
    backward sweep that is the discrete analogue of integrating the
    Riccati-like gain family once (`TruncationFactor`).

With the weighted-adjoint discrete operators every identity used in the
derivation is exact linear algebra, so the reconstruction matches the
direct optimizer to factorization round-off, and it is non-anticipating
in the strict sense: control samples at nodes >= t have exactly zero
influence on the value reconstructed at t.

Cross terms S, rho are removed first by the substitution
u = v - R^(-1) (S X + rho), which rewrites the problem with shifted
coefficients (see `build_cross_term_reduction(ops, cost)`, which reads the
sampled coefficients off the problem's operator bundle ops = dec.ops); the
general representation runs the causal machinery on the reduced system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky

from .errors import AssumptionError, NumericalError
from .grids import Grid
from .lq import (
    CostData,
    DiscreteLQ,
    SampledCost,
    _apply_blocks,
    _sampled_cost,
    assemble_quadratic_form,
    assemble_theta,
)
from .volterra import (
    FactoredKernel,
    ProblemData,
    StateDecomposition,
    StateOperator,
    decompose,
    resolvent,
    sample_trajectory,
)

__all__ = [
    "CausalProjection",
    "CausalTrajectories",
    "RestrictedOperator",
    "TruncationFactor",
    "ReducedSystem",
    "lambda_sigma",
    "causal_trajectories",
    "abstract_causal_control",
    "build_cross_term_reduction",
    "general_causal_control",
]


@dataclass(frozen=True)
class CausalProjection:
    """Truncation of control samples at a grid node.

    keep="past" zeroes samples at nodes >= sigma (the projection onto
    controls supported before sigma); keep="future" zeroes samples at
    nodes < sigma.  Closed-left convention: the sample at sigma itself
    belongs to the future part.  Idempotent and commuting with nodewise
    multiplications, exactly.
    """

    sigma_index: int
    n: int
    keep: str = "past"

    def __post_init__(self):
        if not 0 <= self.sigma_index < self.n:
            raise ValueError(f"sigma index {self.sigma_index} out of range")
        if self.keep not in ("past", "future"):
            raise ValueError("keep must be 'past' or 'future'")

    def mask(self) -> np.ndarray:
        m = np.arange(self.n) < self.sigma_index
        return m if self.keep == "past" else ~m

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        out = u.copy()
        out[~self.mask()] = 0.0
        return out


@dataclass(frozen=True)
class CausalTrajectories:
    """Truncation family and terminal forecast for one control.

    x_trunc[sigma, i] is the state at t_i with the control cut off from
    node sigma on; x_aux[sigma] is the forecast of X(T) from the same
    truncated control, and equals x_trunc[sigma, -1] identically.
    """

    x_trunc: np.ndarray  # (n, n, dx)
    x_aux: np.ndarray  # (n, dx)


def causal_trajectories(dec: StateDecomposition, u, grid: Grid) -> CausalTrajectories:
    """All truncation trajectories at once, by cumulative kernel-control sums."""
    ops = dec.ops
    n, dx, du = ops.n, ops.dx, ops.du
    u_s = sample_trajectory(u, grid, du)
    theta = ops.theta
    x = np.empty((n, n, dx))
    acc = dec.psi.ravel().copy()
    x[0] = acc.reshape(n, dx)
    for sigma in range(1, n):
        j = sigma - 1
        acc = acc + theta[:, j * du : (j + 1) * du] @ u_s[j]
        x[sigma] = acc.reshape(n, dx)
    return CausalTrajectories(x_trunc=x, x_aux=x[:, -1, :].copy())


@dataclass
class RestrictedOperator:
    """Trailing principal block of the quadratic form on nodes >= sigma.

    Self-adjoint and positive definite in the weighted inner product, with
    inverse bounded by 1/delta.  `solve_embedded` maps a full nodal vector
    v to the vector supported on [sigma, T] solving the restricted system,
    which is how every occurrence of a restricted inverse is evaluated.
    """

    sigma_index: int
    dlq: DiscreteLQ

    def __post_init__(self):
        du = self.dlq.du
        k = self.sigma_index * du
        self.block = self.dlq.lam[k:, k:]
        self._factor = cho_factor(self.block)
        self._k = k

    def solve_embedded(self, v_flat: np.ndarray) -> np.ndarray:
        """Embedded solve: zero before sigma, restricted inverse beyond."""
        out = np.zeros_like(v_flat)
        rhs = (self.dlq.wu * v_flat)[self._k :]
        out[self._k :] = cho_solve(self._factor, rhs)
        return out

    def min_generalized_eigenvalue(self) -> float:
        from scipy.linalg import eigh

        w_block = np.diag(self.dlq.wu[self._k :])
        return float(eigh(self.block, w_block, eigvals_only=True)[0])


def lambda_sigma(dlq: DiscreteLQ, sigma_index: int) -> RestrictedOperator:
    """Restriction of the quadratic form to controls supported on [sigma, T]."""
    if not 0 <= sigma_index < dlq.n:
        raise ValueError(f"sigma index {sigma_index} out of range [0, {dlq.n})")
    return RestrictedOperator(sigma_index=sigma_index, dlq=dlq)


class TruncationFactor:
    """One Cholesky factor serving every truncation point of the form.

    With P the index reversal, P Lam P = L L' and the trailing block of
    Lam on nodes >= sigma is P_k L_k L_k' P_k, where L_k is the leading
    k x k block of L and k = (n - sigma) du.  `solve(sigma, v)` applies
    Lam[sigma:, sigma:]^(-1) by two triangular solves of size k, and
    `block_row(sigma)` returns Z_sigma, the block row of sigma in that
    inverse, from the solve on du unit columns; all truncation points
    together cost O((n du)^3 / 3).  `lambda_sigma` remains the per-node
    reference.
    """

    def __init__(self, dlq: DiscreteLQ):
        self.n, self.du = dlq.n, dlq.du
        try:
            self.L = cholesky(dlq.lam[::-1, ::-1], lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "quadratic form is not positive definite on the truncated "
                "control spaces; check the coercivity assumptions on the "
                "cost weights"
            ) from exc

    def _size(self, sigma_index: int) -> int:
        if not 0 <= sigma_index < self.n:
            raise ValueError(f"sigma index {sigma_index} out of range [0, {self.n})")
        return (self.n - sigma_index) * self.du

    def solve(self, sigma_index: int, v: np.ndarray) -> np.ndarray:
        """Lam[sigma:, sigma:]^(-1) v for v (or its columns) on nodes >= sigma."""
        k = self._size(sigma_index)
        # L passed the finiteness check when it was factored
        return cho_solve((self.L[:k, :k], True), v[::-1], check_finite=False)[::-1]

    def block_row(self, sigma_index: int) -> np.ndarray:
        """Z_sigma, shape (du, (n - sigma) du); columns run over nodes >= sigma."""
        k = self._size(sigma_index)
        return self.solve(sigma_index, np.eye(k, self.du)).T


def _require_no_cross_terms(sc: SampledCost, what: str):
    if sc.has_cross_terms:
        raise AssumptionError(
            f"{what} requires zero cross weights S and rho; "
            "route the problem through build_cross_term_reduction first"
        )


def _running_gradient(dlq: DiscreteLQ, x_t: np.ndarray, x_aux_t: np.ndarray) -> np.ndarray:
    """Flat weighted vector Wu [Theta* Q X_t + Theta_T* G X^a + Theta* q + Theta_T* g]."""
    sc = dlq.cost_samples
    qx = _apply_blocks(sc.Q, x_t) + sc.q
    b = dlq.theta.T @ (dlq.wx * qx.ravel())
    b += dlq.theta_T.T @ (sc.G @ x_aux_t + sc.g)
    return b


def abstract_causal_control(
    dlq: DiscreteLQ,
    dec: StateDecomposition,
    traj: CausalTrajectories,
    cost: CostData,
    grid: Grid,
) -> np.ndarray:
    """Reconstruct the optimal control from non-anticipating data.

    Evaluates, at every node t, the representation built from the
    truncation trajectory, the terminal forecast, and the trailing-block
    solve of the quadratic form; requires zero cross weights (general
    problems go through the reduction).  The trajectories must come from
    the optimal pair for the reconstruction to equal the optimizer.

    On row t the correction R^(-1)(Lam - R) of the trailing-block solve
    cancels exactly, leaving u(t) = -Z_t b_t[t:] with Z_t the block row
    of `TruncationFactor` and b_t the running gradient; it is evaluated
    as the first block of the trailing solve of b_t[t:].
    """
    sc = dlq.cost_samples
    _require_no_cross_terms(sc, "the causal representation")
    n, du = dlq.n, dlq.du
    if traj.x_trunc.shape != (grid.n, grid.n, dec.ops.dx):
        raise ValueError("trajectories do not match the grid and state dimension")
    factor = TruncationFactor(dlq)
    out = np.empty((n, du))
    for t in range(n):
        b = _running_gradient(dlq, traj.x_trunc[t], traj.x_aux[t])
        out[t] = -factor.solve(t, b[t * du :])[:du]
    return out


@dataclass(frozen=True)
class ReducedSystem:
    """Problem with cross terms folded into the coefficients.

    Substituting u = v - R^(-1)(S X + rho) shifts the state kernel to
    A - B R^(-1) S, the free term by the rho response, and the weights to
    Q - S' R^(-1) S, q - S' R^(-1) rho, leaving an equivalent problem
    without cross terms.  Costs differ by the constant `value_offset`:
    J_original(u) = J_reduced(v) - value_offset.
    """

    problem: ProblemData
    cost: CostData
    dec: StateDecomposition
    dlq: DiscreteLQ
    value_offset: float
    S_samples: np.ndarray
    rho_samples: np.ndarray
    R_inv: np.ndarray
    resolvent_kernel: FactoredKernel | None

    def to_reduced_control(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        shift = np.einsum("icx,ix->ic", self.S_samples, x) + self.rho_samples
        return u + np.einsum("iab,ib->ia", self.R_inv, shift)

    def to_original_control(self, v: np.ndarray, x: np.ndarray) -> np.ndarray:
        shift = np.einsum("icx,ix->ic", self.S_samples, x) + self.rho_samples
        return v - np.einsum("iab,ib->ia", self.R_inv, shift)


def build_cross_term_reduction(
    ops: StateOperator,
    cost: CostData | SampledCost,
    with_kernels: bool = False,
) -> ReducedSystem:
    """Fold the cross weights S, rho into shifted problem data.

    ops is the operator bundle of the original problem (`dec.ops`).  The
    shifted kernels are built from the sampled originals nodewise, so
    the reduced discrete problem is exactly equivalent to the original
    one: optimal controls map through u = v - R^(-1)(S X + rho) and
    optimal values differ by the recorded constant.  With
    `with_kernels=True` the resolvent and factored control kernel of the
    reduced system are recomputed as well.
    """
    problem, grid = ops.problem, ops.grid
    sc = _sampled_cost(cost, ops)
    Rinv = sc.R_inverses()
    RS = np.einsum("iab,ibx->iax", Rinv, sc.S)  # R^-1 S per node
    A_hat = ops.A_samples - np.einsum("ijxc,jcy->ijxy", ops.B_samples, RS)
    rho_resp = np.einsum("iab,ib->ia", Rinv, sc.rho)
    phi_hat = (ops.phi.ravel() - ops.WB_flat @ rho_resp.ravel()).reshape(ops.n, ops.dx)
    problem_hat = ProblemData(
        A=A_hat,
        B=ops.B_samples,
        phi=phi_hat,
        beta=problem.beta,
        T=problem.T,
        n_state=problem.n_state,
        n_control=problem.n_control,
    )
    Q_hat = sc.Q - np.einsum("icx,icd,idy->ixy", sc.S, Rinv, sc.S)
    q_hat = sc.q - np.einsum("icx,ic->ix", sc.S, rho_resp)
    cost_hat = CostData(
        Q=Q_hat, S=None, R=sc.R, q=q_hat, rho=None, G=sc.G, g=sc.g, delta=sc.delta
    )
    kernel = resolvent(problem_hat, grid) if with_kernels else None
    dec_hat = decompose(problem_hat, grid, kernel)
    theta, theta_T = assemble_theta(dec_hat, grid)
    dlq_hat = assemble_quadratic_form(theta, theta_T, cost_hat, dec_hat, grid)
    offset = float(np.einsum("i,ia,ia->", ops.omega, rho_resp, sc.rho))
    return ReducedSystem(
        problem=problem_hat,
        cost=cost_hat,
        dec=dec_hat,
        dlq=dlq_hat,
        value_offset=offset,
        S_samples=sc.S,
        rho_samples=sc.rho,
        R_inv=Rinv,
        resolvent_kernel=kernel,
    )


def general_causal_control(
    reduced: ReducedSystem,
    traj: CausalTrajectories,
    x_bar: np.ndarray,
    v_bar: np.ndarray,
    grid: Grid,
    method: str = "direct",
    subspace_dim: int | None = None,
    iterations: int = 2,
) -> np.ndarray:
    """Non-anticipating representation for problems with cross terms.

    `traj` must be the truncation family of the reduced system driven by
    the substituted control v = u + R^(-1)(S X + rho); x_bar, v_bar are
    the optimal state and substituted control.  Combines the
    instantaneous term -R^(-1)(S X + rho) with the feedback-gain
    representation of the reduced problem.
    """
    from .fredholm import representation_terms

    v_rep = representation_terms(
        reduced.dlq,
        reduced.dec,
        traj,
        grid,
        method=method,
        subspace_dim=subspace_dim,
        iterations=iterations,
    )
    x = np.asarray(x_bar, dtype=float)
    shift = np.einsum("icx,ix->ic", reduced.S_samples, x) + reduced.rho_samples
    return v_rep - np.einsum("iab,ib->ia", reduced.R_inv, shift)
