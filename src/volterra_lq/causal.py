"""Truncation trajectories and non-anticipating control.

The direct optimality relation expresses u(t) through future state values.
This module rebuilds u(t) from information available at time t only:

*   the truncation trajectory X_sigma(.) (state evolving with the control
    switched off from sigma on), whose terminal value is the running
    forecast of X(T) from past control,
*   and the restriction of the quadratic form to controls supported on
    [sigma, T].  Its trailing blocks Lam[sigma:, sigma:] are the leading
    blocks of the index-reversed form, so one Cholesky factor of the
    reversed form and one triangular inverse of it give the block row of
    every truncation point at once: a backward sweep that is the
    discrete analogue of integrating the Riccati-like gain family once
    (`TruncationFactor`, built once per assembled problem and kept as
    `dlq.truncation_factor`).

`causal_trajectories(ops, u)` returns the whole truncation family as
one (n, n, dx) array, row sigma holding X_sigma on the grid.  The running
gradients of all truncation points are one product with Theta
(`_running_gradients`, which checks that shape), so the causal control
u(t) = -Z_t b_t is a single contraction over the nodes.

With the weighted-adjoint discrete operators every identity used in the
derivation is exact linear algebra, so the reconstruction matches the
direct optimizer to factorization round-off, and it is non-anticipating
in the strict sense: control samples at nodes >= t have exactly zero
influence on the value reconstructed at t.

Every function here reads the assembled problem `dlq` (which carries its
state operator `dlq.ops` and sampled cost) or the state operator alone.
Cross terms S, rho are removed first by the substitution
u = v - R^(-1) (S X + rho), which rewrites the problem with shifted
coefficients (see `build_cross_term_reduction(dlq)`); the general
representation runs the causal machinery on the reduced system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky
from scipy.linalg.lapack import dtrtri

from .errors import AssumptionError, NumericalError
from .lq import CostData, DiscreteLQ, SampledCost, assemble_quadratic_form
# resolvent is unused here; perfbench/tests/test_perfbench.py pins this import site
from .volterra import ProblemData, StateOperator, resolvent, sample_trajectory  # noqa: F401

__all__ = [
    "RestrictedOperator",
    "TruncationFactor",
    "ReducedSystem",
    "lambda_sigma",
    "causal_trajectories",
    "abstract_causal_control",
    "build_cross_term_reduction",
    "general_causal_control",
]


def causal_trajectories(ops: StateOperator, u) -> np.ndarray:
    """All truncation trajectories at once, by cumulative kernel-control sums.

    Returns the truncation family x_trunc of shape (n, n, dx):
    x_trunc[sigma, i] is the state at t_i with the control cut off from
    node sigma on; x_trunc[sigma, -1] is the forecast of X(T) from the
    same truncated control.
    """
    n, dx, du = ops.n, ops.dx, ops.du
    u_s = sample_trajectory(u, ops.grid, du)
    theta = ops.theta
    x = np.empty((n, n, dx))
    acc = ops.psi.ravel().copy()
    x[0] = acc.reshape(n, dx)
    for sigma in range(1, n):
        j = sigma - 1
        acc = acc + theta[:, j * du : (j + 1) * du] @ u_s[j]
        x[sigma] = acc.reshape(n, dx)
    return x


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
    """Block rows of every truncation point from one triangular inverse.

    With P the index reversal, P Lam P = L L', so Lam = U U' with
    U = P L P upper triangular, and the trailing block of Lam on nodes
    >= sigma is U_k U_k', U_k the trailing block of U.  With V = U^(-1)
    its inverse is V_k' V_k, whose block row of sigma is
    Z_sigma = V_{sigma sigma}' V[sigma, sigma:].  One Cholesky of the
    reversed form and one LAPACK `dtrtri` of its factor therefore give
    the whole block-row matrix `Z` = blockdiag(V)' V, shape
    (n, du, n du), in O((n du)^3 / 3) each.  Z is exactly zero left of
    its block diagonal, so no row reads a node before its own, and
    `block_row(sigma)` is a slice.  `lambda_sigma` remains the per-node
    reference.
    """

    def __init__(self, dlq: DiscreteLQ):
        n, du = self.n, self.du = dlq.n, dlq.du
        try:
            L = cholesky(dlq.lam[::-1, ::-1], lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "quadratic form is not positive definite on the truncated "
                "control spaces; check the coercivity assumptions on the "
                "cost weights"
            ) from exc
        L_inv, _ = dtrtri(L, lower=1, overwrite_c=1)  # nonsingular: diag(L) > 0
        V = L_inv[::-1, ::-1].reshape(n, du, n * du)
        nodes = np.arange(n)
        V_diag = V.reshape(n, du, n, du)[nodes, :, nodes]  # V_{sigma sigma}
        self.Z = V_diag.swapaxes(1, 2) @ V

    def block_row(self, sigma_index: int) -> np.ndarray:
        """Z_sigma, shape (du, (n - sigma) du); columns run over nodes >= sigma."""
        if not 0 <= sigma_index < self.n:
            raise ValueError(f"sigma index {sigma_index} out of range [0, {self.n})")
        return self.Z[sigma_index, :, sigma_index * self.du :]


def _require_no_cross_terms(sc: SampledCost, what: str):
    if sc.has_cross_terms:
        raise AssumptionError(
            f"{what} requires zero cross weights S and rho; "
            "route the problem through build_cross_term_reduction first"
        )


def _running_gradients(dlq: DiscreteLQ, x_trunc: np.ndarray) -> np.ndarray:
    """Running gradients of every truncation point, one flat row per sigma.

    Row sigma is Wu [Theta* Q X_sigma + Theta_T* G X_sigma(T) + Theta* q
    + Theta_T* g] for the truncation trajectory X_sigma = x_trunc[sigma];
    all rows come from one product with Theta.
    """
    sc, ops = dlq.cost_samples, dlq.ops
    n, dx = ops.n, ops.dx
    if np.shape(x_trunc) != (n, n, dx):
        raise ValueError("trajectories do not match the grid and state dimension")
    # one product per node i with the (dx, n) panel of every sigma
    qx = (sc.Q @ np.transpose(x_trunc, (1, 2, 0))).transpose(2, 0, 1) + sc.q
    b = (ops.wx * qx.reshape(n, n * dx)) @ ops.theta
    b += (x_trunc[:, -1] @ sc.G.T + sc.g) @ ops.theta[-dx:]
    return b


def abstract_causal_control(dlq: DiscreteLQ, x_trunc: np.ndarray) -> np.ndarray:
    """Reconstruct the optimal control from non-anticipating data.

    Evaluates, at every node t, the representation built from the
    truncation trajectory, the terminal forecast, and the trailing-block
    solve of the quadratic form; requires zero cross weights (general
    problems go through the reduction).  x_trunc is the truncation family
    of `causal_trajectories`; it must come from the optimal control for
    the reconstruction to equal the optimizer.

    On row t the correction R^(-1)(Lam - R) of the trailing-block solve
    cancels exactly, leaving u(t) = -Z_t b_t[t:] with Z_t the block row
    of the problem's `TruncationFactor` and b_t the running gradient; all
    nodes are one contraction of Z with the running gradients.
    """
    _require_no_cross_terms(dlq.cost_samples, "the causal representation")
    b = _running_gradients(dlq, x_trunc)
    return -np.einsum("tak,tk->ta", dlq.truncation_factor.Z, b)


@dataclass(frozen=True)
class ReducedSystem:
    """Problem with cross terms folded into the coefficients.

    Substituting u = v - R^(-1)(S X + rho) shifts the state kernel to
    A - B R^(-1) S, the free term by the rho response, and the weights to
    Q - S' R^(-1) S, q - S' R^(-1) rho, leaving an equivalent problem
    without cross terms.  Costs differ by the constant `value_offset`:
    J_original(u) = J_reduced(v) - value_offset.
    """

    dlq: DiscreteLQ
    value_offset: float
    S_samples: np.ndarray
    rho_samples: np.ndarray
    R_inv: np.ndarray

    def to_reduced_control(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        shift = np.einsum("icx,ix->ic", self.S_samples, x) + self.rho_samples
        return u + np.einsum("iab,ib->ia", self.R_inv, shift)

    def to_original_control(self, v: np.ndarray, x: np.ndarray) -> np.ndarray:
        shift = np.einsum("icx,ix->ic", self.S_samples, x) + self.rho_samples
        return v - np.einsum("iab,ib->ia", self.R_inv, shift)


def build_cross_term_reduction(dlq: DiscreteLQ) -> ReducedSystem:
    """Fold the cross weights S, rho into shifted problem data.

    dlq is the assembled original problem.  The shifted kernels are built
    from the sampled originals nodewise, so the reduced discrete problem
    (`reduced.dlq`, whose state operator is `reduced.dlq.ops`) is exactly
    equivalent to the original one: optimal controls map through
    u = v - R^(-1)(S X + rho) and optimal values differ by the recorded
    constant.
    """
    ops, sc = dlq.ops, dlq.cost_samples
    problem, grid = ops.problem, ops.grid
    Rinv = sc.R_inverses()
    RS = np.einsum("iab,ibx->iax", Rinv, sc.S)  # R^-1 S per node
    A_hat = ops.A_samples - ops.B_samples @ RS  # B(t_i, s_j) R^-1 S(s_j) per pair
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
    ops_hat = StateOperator(problem_hat, grid)
    dlq_hat = assemble_quadratic_form(ops_hat, cost_hat)
    offset = float(np.einsum("i,ia,ia->", ops.omega, rho_resp, sc.rho))
    return ReducedSystem(
        dlq=dlq_hat,
        value_offset=offset,
        S_samples=sc.S,
        rho_samples=sc.rho,
        R_inv=Rinv,
    )


def general_causal_control(
    reduced: ReducedSystem,
    x_trunc: np.ndarray,
    x_bar: np.ndarray,
    method: str = "direct",
    subspace_dim: int | None = None,
    iterations: int = 2,
) -> np.ndarray:
    """Non-anticipating representation for problems with cross terms.

    x_trunc must be the truncation family of the reduced system driven by
    the substituted control v = u + R^(-1)(S X + rho); x_bar is the
    optimal state.  Combines the instantaneous term -R^(-1)(S X + rho)
    with the feedback-gain representation of the reduced problem.
    """
    from .fredholm import representation_terms

    v_rep = representation_terms(
        reduced.dlq, x_trunc, method=method, subspace_dim=subspace_dim, iterations=iterations
    )
    return reduced.to_original_control(v_rep, np.asarray(x_bar, dtype=float))
