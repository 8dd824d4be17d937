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
    (`dlq.truncation_rows`, built once per assembled problem and kept).

`causal_trajectories(ops, u)` returns the whole truncation family as
one (n, n, dx) array, row sigma holding X_sigma on the grid.  The running
gradients of all truncation points are one product with Theta
(`lq._running_gradients`, which checks that shape), so the causal control
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
representation runs the feedback-gain representation of `fredholm` on the
reduced system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .fredholm import representation_terms
from .lq import CostData, DiscreteLQ, _require_no_cross_terms, _running_gradients
from .lq import assemble_quadratic_form
# resolvent is unused here; perfbench/tests/test_perfbench.py pins this import site
from .volterra import ProblemData, StateOperator, resolvent, sample_trajectory  # noqa: F401

__all__ = [
    "RestrictedOperator",
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
    same truncated control.  Every node's response theta[:, j] u(t_j) is
    one batched product, and the rows are one running sum over them from
    psi, added in node order.
    """
    n, dx, du = ops.n, ops.dx, ops.du
    u_s = sample_trajectory(u, ops.grid, du)
    x = np.empty((n, n * dx))
    x[0] = ops.psi.ravel()
    # row sigma + 1 first holds node sigma's response theta[:, sigma] u(t_sigma), one product
    by_node = ops.theta.reshape(n * dx, n, du).transpose(1, 0, 2)
    np.matmul(by_node[:-1], u_s[:-1, :, None], out=x[1:, :, None])
    np.add.accumulate(x, axis=0, out=x)
    return x.reshape(n, n, dx)


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
        w_block = np.diag(self.dlq.wu[self._k :])
        return float(eigh(self.block, w_block, eigvals_only=True)[0])


def lambda_sigma(dlq: DiscreteLQ, sigma_index: int) -> RestrictedOperator:
    """Restriction of the quadratic form to controls supported on [sigma, T]."""
    if not 0 <= sigma_index < dlq.n:
        raise ValueError(f"sigma index {sigma_index} out of range [0, {dlq.n})")
    return RestrictedOperator(sigma_index=sigma_index, dlq=dlq)


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
    of t in `dlq.truncation_rows` and b_t the running gradient; all
    nodes are one contraction of Z with the running gradients.
    """
    _require_no_cross_terms(dlq.cost_samples, "the causal representation")
    b = _running_gradients(dlq, x_trunc)
    return -np.einsum("tak,tk->ta", dlq.truncation_rows, b)


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


def _reduced_operator(ops: StateOperator, RS: np.ndarray, rho_resp: np.ndarray) -> StateOperator:
    """State operator of the reduced problem, kernel A - B R^(-1) S and free term phi - WB rho_resp.

    RS holds R^(-1) S per node and rho_resp R^(-1) rho.  The shifted
    kernel is built from the sampled originals pair by pair; the operator
    samples it, and B, into tables of its own, and its problem then reads
    those same tables, so the reduced system holds one table each of A
    and B and none of the original operator's.
    """
    problem = ops.problem
    A_hat = ops.B_samples @ RS  # B(t_i, s_j) R^-1 S(s_j) per pair
    np.subtract(ops.A_samples, A_hat, out=A_hat)
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
    ops_hat = StateOperator(problem_hat, ops.grid)
    ops_hat.problem = replace(problem_hat, A=ops_hat.A_samples, B=ops_hat.B_samples)
    return ops_hat


def build_cross_term_reduction(dlq: DiscreteLQ) -> ReducedSystem:
    """Fold the cross weights S, rho into shifted problem data.

    dlq is the assembled original problem.  The shifted kernels are built
    from the sampled originals nodewise, so the reduced discrete problem
    (`reduced.dlq`, whose state operator is `reduced.dlq.ops`) is exactly
    equivalent to the original one: optimal controls map through
    u = v - R^(-1)(S X + rho) and optimal values differ by the recorded
    constant.  The reduced system holds none of dlq's tables, so they go
    when the caller drops dlq.
    """
    ops, sc = dlq.ops, dlq.cost_samples
    Rinv = sc.R_inverses()
    rho_resp = np.einsum("iab,ib->ia", Rinv, sc.rho)
    ops_hat = _reduced_operator(ops, np.einsum("iab,ibx->iax", Rinv, sc.S), rho_resp)
    Q_hat = sc.Q - np.einsum("icx,icd,idy->ixy", sc.S, Rinv, sc.S)
    q_hat = sc.q - np.einsum("icx,ic->ix", sc.S, rho_resp)
    cost_hat = CostData(
        Q=Q_hat, S=None, R=sc.R, q=q_hat, rho=None, G=sc.G, g=sc.g, delta=sc.delta
    )
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
    v_rep = representation_terms(
        reduced.dlq, x_trunc, method=method, subspace_dim=subspace_dim, iterations=iterations
    )
    return reduced.to_original_control(v_rep, np.asarray(x_bar, dtype=float))
