"""Quadratic cost, discrete operators, and the direct open-loop solve.

The cost

    J(u) = int_0^T [ <Q X, X> + 2 <S X, u> + <R u, u> + 2 <q, X> + 2 <rho, u> ] dt
           + <G X(T), X(T)> + 2 <g, X(T)>

becomes, after substituting X = psi + Theta u,

    J(u) = <Lam u, u> + 2 <ell1, u> + lam0,

with Lam = Theta* Q Theta + S Theta + Theta* S* + R + Theta_T* G Theta_T.
All inner products are the trapezoid-weighted products of the grid and all
adjoints are weighted transposes, so the representation reproduces direct
cost evaluation to round-off, and the optimality system Lam u + ell1 = 0
is an exact finite-dimensional statement.  The open-loop control solved
here is the oracle against which the adjoint-equation, causal, and
feedback-gain characterizations are verified.

Everything here works on the one `StateOperator` built per (problem,
grid): `assemble_quadratic_form(ops, cost)` returns a `DiscreteLQ` that
carries it as `dlq.ops`, which every layer above reads.  The independent
references `evaluate_cost(ops, cost, u)`, the adjoint pair and the
`reduced_gradient(ops, cost, u)` built from it take the operator and the
cost themselves and form no theta; the cost may be a `CostData` or the
weights already sampled on that grid (`dlq.cost_samples`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import AssumptionError, NumericalError
from .grids import Grid
from .volterra import StateOperator, sample_trajectory

__all__ = [
    "CostData",
    "SampledCost",
    "DiscreteLQ",
    "assemble_quadratic_form",
    "evaluate_cost",
    "solve_open_loop",
]


def _sample_matrix(f, grid: Grid, d1: int, d2: int) -> np.ndarray:
    """Sample a time-dependent matrix weight, shape (n, d1, d2)."""
    n = grid.n
    if f is None:
        return np.zeros((n, d1, d2))
    if isinstance(f, np.ndarray):
        if f.shape == (d1, d2):
            return np.tile(f.astype(float), (n, 1, 1))
        if f.shape == (n, d1, d2):
            return f.astype(float).copy()
        raise ValueError(f"weight has shape {f.shape}, expected {(d1, d2)} or {(n, d1, d2)}")
    if np.isscalar(f):
        if d1 != d2:
            raise ValueError("scalar weight needs a square block")
        return np.tile(float(f) * np.eye(d1), (n, 1, 1))
    out = np.asarray(f(grid.nodes), dtype=float)
    if out.shape != (n, d1, d2):
        out = np.broadcast_to(out, (n, d1, d2)).copy()
    return out


def _terminal_weight(value, shape: tuple, name: str) -> np.ndarray:
    """A terminal weight G or g as a float array of exactly `shape`; None is zero."""
    if value is None:
        return np.zeros(shape)
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"terminal weight {name} has shape {arr.shape}, expected {shape}")
    return arr


def _block_product(blocks: np.ndarray, M: np.ndarray) -> np.ndarray:
    """blockdiag(blocks) @ M for per-node blocks (n, a, b), as one batched product."""
    n, a, b = blocks.shape
    return (blocks @ M.reshape(n, b, -1)).reshape(n * a, -1)


def _plus_block_diagonal(M: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """M + blockdiag(blocks), added through an (n, d, n, d) view of a copy of M."""
    n, d, _ = blocks.shape
    out = M.copy()  # C-contiguous, so the reshape below is a view
    nodes = np.arange(n)
    out.reshape(n, d, n, d)[nodes, :, nodes] += blocks
    return out


def _apply_blocks(blocks: np.ndarray, traj: np.ndarray) -> np.ndarray:
    return np.einsum("iab,ib->ia", blocks, traj)


@dataclass(frozen=True)
class CostData:
    """Weights of the quadratic cost.

    Q, S, R may be callables of t, constant matrices, scalars, or
    pre-sampled (n, ., .) arrays; q, rho trajectories; G, g terminal
    weights of shapes (dx, dx) and (dx,).  delta is the coercivity floor;
    when omitted it defaults to the smallest eigenvalue of R over the grid.
    """

    Q: object = None
    S: object = None
    R: object = None
    q: object = None
    rho: object = None
    G: object = None
    g: object = None
    delta: float | None = None

    def sample(self, grid: Grid, dx: int, du: int) -> "SampledCost":
        Qs = _sample_matrix(self.Q, grid, dx, dx)
        Ss = _sample_matrix(self.S, grid, du, dx)
        Rs = _sample_matrix(self.R, grid, du, du)
        qs = sample_trajectory(self.q, grid, dx)
        rhos = sample_trajectory(self.rho, grid, du)
        G = _terminal_weight(self.G, (dx, dx), "G")
        g = _terminal_weight(self.g, (dx,), "g")
        if self.delta is None:
            delta = float(np.linalg.eigvalsh(Rs).min())
        else:
            delta = float(self.delta)
        return SampledCost(Q=Qs, S=Ss, R=Rs, q=qs, rho=rhos, G=G, g=g, delta=delta)


@dataclass(frozen=True)
class SampledCost:
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    q: np.ndarray
    rho: np.ndarray
    G: np.ndarray
    g: np.ndarray
    delta: float

    @property
    def has_cross_terms(self) -> bool:
        return bool(np.any(self.S != 0.0) or np.any(self.rho != 0.0))

    def R_inverses(self) -> np.ndarray:
        try:
            return np.linalg.inv(self.R)
        except np.linalg.LinAlgError as exc:
            raise AssumptionError("R(t) is not invertible at some node") from exc


def _sampled_cost(cost: CostData | SampledCost, ops: StateOperator) -> SampledCost:
    """Cost weights on the operator's grid; sampled weights pass through.

    A terminal weight G or g is refused here at beta <= 1/2, where X(T) is undefined.
    """
    sc = cost if isinstance(cost, SampledCost) else cost.sample(ops.grid, ops.dx, ops.du)
    terminal = [name for name in ("G", "g") if np.any(getattr(sc, name))]
    if terminal and not ops.beta > 0.5:
        raise AssumptionError(
            f"the terminal cost in {' and '.join(terminal)} needs X(T), which requires "
            f"beta > 1/2; got beta = {ops.beta}"
        )
    return sc


def _validate_cost(sc: SampledCost):
    """Check the standard coercivity block: R >= delta, Q - S^T R^-1 S >= 0, G >= 0."""
    tol = 1e-10
    rmin = np.linalg.eigvalsh(sc.R).min()
    if rmin < sc.delta * (1.0 - 1e-9) - tol:
        raise AssumptionError(
            f"violated: R(t) >= delta I (delta = {sc.delta:.3g}, "
            f"smallest eigenvalue over nodes = {rmin:.3g})"
        )
    if sc.delta <= 0:
        raise AssumptionError("violated: R(t) >= delta I with delta > 0")
    Rinv = sc.R_inverses()
    schur = sc.Q - np.einsum("iax,iab,iby->ixy", sc.S, Rinv, sc.S)
    smin = np.linalg.eigvalsh(schur).min()
    scale = max(1.0, float(np.max(np.abs(sc.Q))))
    if smin < -tol * scale:
        raise AssumptionError(
            f"violated: Q(t) - S(t)^T R(t)^-1 S(t) >= 0 (smallest eigenvalue {smin:.3g})"
        )
    gmin = np.linalg.eigvalsh(sc.G).min() if sc.G.size else 0.0
    if gmin < -tol * max(1.0, float(np.max(np.abs(sc.G)))):
        raise AssumptionError(f"violated: G >= 0 (smallest eigenvalue {gmin:.3g})")


@dataclass(frozen=True)
class DiscreteLQ:
    """Grid-sampled quadratic problem min <Lam u, u> + 2 <ell1, u> + lam0.

    ops is the state operator the form was assembled on: it holds the
    control-to-state map theta (quadrature weights folded in; the
    terminal block row is its last dx rows), the grid weights and the
    free response psi.  lam is stored as the symmetric matrix of the
    quadratic form in plain coordinates, i.e.
    J(u) = u' lam u + 2 (Wu ell1)' u + lam0 with Wu the repeated trapezoid
    weights; ell1 holds nodal values of the affine term.  The causal
    reconstructions and the direct gain of one problem share one
    `truncation_factor`, and the condition warning and the coercivity
    probe share one `weighted_eigenvalues`; both are built on first use
    and kept, so a copy with another lam (`dataclasses.replace`) builds
    its own.
    """

    ops: StateOperator
    lam: np.ndarray
    ell1: np.ndarray
    lam0: float
    cost_samples: SampledCost

    @property
    def n(self) -> int:
        return self.ops.n

    @property
    def du(self) -> int:
        return self.ops.du

    @property
    def wu(self) -> np.ndarray:
        return self.ops.wu

    @property
    def rhs(self) -> np.ndarray:
        """Flat right side Wu ell1 of the optimality system lam u = -rhs."""
        return self.wu * self.ell1

    @cached_property
    def truncation_factor(self):
        """`causal.TruncationFactor` of lam, built on first use and kept."""
        from .causal import TruncationFactor

        return TruncationFactor(self)

    @cached_property
    def weighted_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of Wu^(-1/2) lam Wu^(-1/2), built on first use and kept.

        They are the generalized eigenvalues of lam against the diagonal
        quadrature weights Wu, i.e. the spectrum of the form in the
        weighted inner product of the grid.
        """
        s = 1.0 / np.sqrt(self.wu)
        return np.linalg.eigvalsh(s[:, None] * self.lam * s)


def assemble_quadratic_form(ops: StateOperator, cost: CostData | SampledCost) -> DiscreteLQ:
    """Assemble (Lam, ell1, lam0) from the state maps and cost weights.

    The cost is sampled on the grid of `ops`, whose control-to-state map,
    free response and quadrature weights are reused.  The adjoints used
    throughout are weighted transposes, so <X, Theta u> = <Theta* X, u>
    holds exactly on the grid.  Raises AssumptionError naming the violated inequality
    when the coercivity block fails.  Warns when the weighted form
    Wu^(-1/2) Lam Wu^(-1/2) is severely ill-conditioned, read off
    `DiscreteLQ.weighted_eigenvalues`, which the coercivity probe shares:
    the accuracy of the Cholesky solves depends on the condition number of
    this diagonally scaled form, which does not inherit the spread of the
    grid weights.
    """
    sc = _sampled_cost(cost, ops)
    _validate_cost(sc)
    omega, wx, wu = ops.omega, ops.wx, ops.wu
    theta = ops.theta
    theta_T = theta[-ops.dx :]
    psi = ops.psi

    lam = theta.T @ (wx[:, None] * _block_product(sc.Q, theta))
    lam = _plus_block_diagonal(lam, omega[:, None, None] * sc.R)
    lam += theta_T.T @ sc.G @ theta_T
    if sc.has_cross_terms:
        cross = wu[:, None] * _block_product(sc.S, theta)
        lam += cross + cross.T
    asym = np.max(np.abs(lam - lam.T)) / max(1.0, np.max(np.abs(lam)))
    if asym > 1e-10:
        raise NumericalError(f"assembled quadratic form lost symmetry ({asym:.2e})")
    lam = 0.5 * (lam + lam.T)

    b = theta.T @ (wx * (_apply_blocks(sc.Q, psi).ravel() + sc.q.ravel()))
    b += wu * sc.rho.ravel()
    if sc.has_cross_terms:
        b += wu * _apply_blocks(sc.S, psi).ravel()
    b += theta_T.T @ (sc.G @ psi[-1] + sc.g)
    ell1 = b / wu

    lam0 = float(
        np.einsum("i,ia,ia->", omega, _apply_blocks(sc.Q, psi), psi)
        + 2.0 * np.einsum("i,ia,ia->", omega, sc.q, psi)
        + psi[-1] @ sc.G @ psi[-1]
        + 2.0 * sc.g @ psi[-1]
    )

    dlq = DiscreteLQ(ops=ops, lam=lam, ell1=ell1, lam0=lam0, cost_samples=sc)
    # the weighted form is symmetric: its 2-norm condition number is max |eig| / min |eig|
    eig = np.abs(dlq.weighted_eigenvalues)
    with np.errstate(divide="ignore"):
        cond = eig.max() / eig.min()
    if cond > 1e12:
        warnings.warn(
            f"weighted quadratic form condition number {cond:.2e} exceeds 1e12; "
            "solves may lose accuracy",
            stacklevel=2,
        )
    return dlq


def evaluate_cost(ops: StateOperator, cost: CostData | SampledCost, u) -> float:
    """Run the state and evaluate the cost by grid quadrature.

    ops is the problem's `StateOperator` on the grid of the cost.  A
    nonzero G or g needs X(T), and so beta > 1/2.
    """
    sc = _sampled_cost(cost, ops)
    u_s = sample_trajectory(u, ops.grid, ops.du)
    X = ops.state(u_s)
    omega = ops.omega
    running = (
        np.einsum("i,ia,ia->", omega, _apply_blocks(sc.Q, X), X)
        + 2.0 * np.einsum("i,ia,ia->", omega, _apply_blocks(sc.S, X), u_s)
        + np.einsum("i,ia,ia->", omega, _apply_blocks(sc.R, u_s), u_s)
        + 2.0 * np.einsum("i,ia,ia->", omega, sc.q, X)
        + 2.0 * np.einsum("i,ia,ia->", omega, sc.rho, u_s)
    )
    terminal = X[-1] @ sc.G @ X[-1] + 2.0 * sc.g @ X[-1]
    return float(running + terminal)


def solve_open_loop(dlq: DiscreteLQ) -> np.ndarray:
    """Unique minimizer of the quadratic form, via an SPD solve.

    This is the oracle control: every other characterization is compared
    against it.
    """
    try:
        factor = cho_factor(dlq.lam)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "quadratic form is not positive definite; check the coercivity "
            "assumptions on the cost weights"
        ) from exc
    u = cho_solve(factor, -dlq.rhs)
    return u.reshape(dlq.n, dlq.du)

