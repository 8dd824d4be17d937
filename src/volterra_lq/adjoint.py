"""Backward adjoint equation and the control it characterizes.

The first-order optimality conditions can be written through an adjoint
trajectory Y solving the backward weakly singular equation

    Y(t) = Q X(t) + S' u(t) + q(t)
           + A(T,t)' [G X(T) + g] / (T-t)^(1-beta)
           + int_t^T A(s,t)' Y(s) / (s-t)^(1-beta) ds,

from which the optimal control is recovered as

    u(t) = -R(t)^(-1) [ int_t^T B(s,t)' Y(s)/(s-t)^(1-beta) ds
                        + S X(t) + rho(t)
                        + B(T,t)' [G X(T) + g] / (T-t)^(1-beta) ].

Discretely the backward integral operator is the weighted adjoint of the
forward one, so the equation is an upper-triangular system solved by
reverse substitution (equivalently: reflect time and reuse the forward
stepper).  The terminal coupling enters as a unit-mass source at the last
node, which keeps the computation exactly dual to the forward discrete
dynamics; this module therefore reproduces the direct optimizer to solver
round-off and serves as its independent cross-check.

The pointwise value at t = T involves 1/(T-t)^(1-beta) and is reported as
the solver's algebraic value; pointwise assertions exclude the terminal
node, norm comparisons are weighted-L2.

Both steps reuse the state operator of the problem: `solve_adjoint(ops,
cost, x_bar, u_bar)` and `control_from_adjoint(adjoint, ops, cost, x_bar)`
with ops the `StateOperator` of (problem, grid), as in `dlq.ops`; the
cost may be already sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lq import CostData, SampledCost, _sampled_cost
from .volterra import StateOperator, sample_trajectory

__all__ = ["AdjointTrajectory", "solve_adjoint", "control_from_adjoint"]


@dataclass(frozen=True)
class AdjointTrajectory:
    """Adjoint solution Y and the terminal value zeta = G X(T) + g.

    Y solves the backward equation driven by the regular forcing
    Q X + S' u + q and the terminal coupling A(T,t)' zeta (T - t)^(beta - 1);
    zeta enters the discrete equations as a unit-mass source at the last
    node, and the control formula reads it again.
    """

    Y: np.ndarray
    zeta: np.ndarray


def solve_adjoint(
    ops: StateOperator,
    cost: CostData | SampledCost,
    x_bar: np.ndarray,
    u_bar: np.ndarray,
) -> AdjointTrajectory:
    """Solve the backward adjoint equation for a given state/control pair.

    Requires beta > 1/2 so that X(T), and with it the terminal coupling,
    is defined.
    """
    ops.problem.require_lq()
    sc = _sampled_cost(cost, ops)
    X = sample_trajectory(x_bar, ops.grid, ops.dx)
    u = sample_trajectory(u_bar, ops.grid, ops.du)
    z = np.einsum("iab,ib->ia", sc.Q, X) + np.einsum("ica,ic->ia", sc.S, u) + sc.q
    zeta = sc.G @ X[-1] + sc.g
    vterm = ops.terminal_unit(zeta)
    gamma_a = ops.apply_dual_A(vterm)  # quadrature image of A(T,t)' zeta (T-t)^(b-1)
    Y = ops.solve_dual(z.ravel() + gamma_a).reshape(ops.n, ops.dx)
    return AdjointTrajectory(Y=Y, zeta=zeta)


def control_from_adjoint(
    adjoint: AdjointTrajectory,
    ops: StateOperator,
    cost: CostData | SampledCost,
    x_bar: np.ndarray,
) -> np.ndarray:
    """Evaluate the adjoint-based control formula nodewise.

    The backward integral of B' Y uses the weighted-adjoint product
    quadrature; the terminal coupling B(T,t)' (G X(T) + g) (T-t)^(beta-1)
    is integrated through its factored form (finite at all nodes t < T;
    the last node receives the one-sided quadrature contribution only).
    """
    sc = _sampled_cost(cost, ops)
    X = sample_trajectory(x_bar, ops.grid, ops.dx)
    vterm = ops.terminal_unit(adjoint.zeta)
    backward = ops.apply_dual_B(adjoint.Y.ravel()) + ops.apply_dual_B(vterm)
    total = backward.reshape(ops.n, ops.du)
    total = total + np.einsum("ica,ia->ic", sc.S, X) + sc.rho
    Rinv = sc.R_inverses()
    return -np.einsum("iab,ib->ia", Rinv, total)
