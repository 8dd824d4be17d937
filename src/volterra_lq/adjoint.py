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
cost, x_bar, u_bar)` returns Y, shape (n, dx), and
`control_from_adjoint(Y, ops, cost, x_bar)` forms the terminal value
G X(T) + g again from its own x_bar; ops is the `StateOperator` of
(problem, grid), as in `dlq.ops`, and the cost may be already sampled.
`reduced_gradient(ops, cost, u)` composes the two at the state
`ops.state(u)` of any control u, so it forms no theta.
"""

from __future__ import annotations

import numpy as np

from .lq import CostData, SampledCost, _sampled_cost
from .volterra import StateOperator, sample_trajectory

__all__ = ["solve_adjoint", "control_from_adjoint", "reduced_gradient"]


def solve_adjoint(
    ops: StateOperator,
    cost: CostData | SampledCost,
    x_bar: np.ndarray,
    u_bar: np.ndarray,
) -> np.ndarray:
    """Adjoint trajectory Y, shape (n, dx), of a given state/control pair.

    Y solves the backward equation driven by the regular forcing
    Q X + S' u + q and the terminal coupling A(T,t)' zeta (T - t)^(beta - 1)
    with zeta = G X(T) + g, which enters the discrete equations as a
    unit-mass source at the last node.  A nonzero G or g needs X(T), and
    so beta > 1/2; without them any beta in (0, 1) is accepted.
    """
    sc = _sampled_cost(cost, ops)
    X = sample_trajectory(x_bar, ops.grid, ops.dx)
    u = sample_trajectory(u_bar, ops.grid, ops.du)
    z = np.einsum("iab,ib->ia", sc.Q, X) + np.einsum("ica,ic->ia", sc.S, u) + sc.q
    zeta = sc.G @ X[-1] + sc.g
    vterm = ops.terminal_unit(zeta)
    gamma_a = ops.apply_dual_A(vterm)  # quadrature image of A(T,t)' zeta (T-t)^(b-1)
    return ops.solve_dual(z.ravel() + gamma_a).reshape(ops.n, ops.dx)


def control_from_adjoint(
    Y: np.ndarray,
    ops: StateOperator,
    cost: CostData | SampledCost,
    x_bar: np.ndarray,
) -> np.ndarray:
    """Evaluate the adjoint-based control formula nodewise.

    The backward integral of B' Y uses the weighted-adjoint product
    quadrature; the terminal coupling B(T,t)' (G X(T) + g) (T-t)^(beta-1)
    is integrated through its factored form (finite at all nodes t < T;
    the last node receives the one-sided quadrature contribution only).
    Y and x_bar are read as (n, dx) trajectories; another shape raises
    ValueError.
    """
    sc = _sampled_cost(cost, ops)
    Y = sample_trajectory(Y, ops.grid, ops.dx)
    X = sample_trajectory(x_bar, ops.grid, ops.dx)
    vterm = ops.terminal_unit(sc.G @ X[-1] + sc.g)
    backward = ops.apply_dual_B(Y.ravel()) + ops.apply_dual_B(vterm)
    total = backward.reshape(ops.n, ops.du)
    total = total + np.einsum("ica,ia->ic", sc.S, X) + sc.rho
    Rinv = sc.R_inverses()
    return -np.einsum("iab,ib->ia", Rinv, total)


def reduced_gradient(ops: StateOperator, cost: CostData | SampledCost, u) -> np.ndarray:
    """Reduced gradient g = R (u - u_adj) of a control u, shape (n, du).

    u_adj is `control_from_adjoint` of the adjoint of (`ops.state(u)`, u).
    g is the weighted gradient of J(u)/2, Wu g = Lam u + rhs, and R^(-1) g
    is the distance of u to the control its adjoint gives.
    """
    sc = _sampled_cost(cost, ops)
    u = sample_trajectory(u, ops.grid, ops.du)
    X = ops.state(u)
    u_adj = control_from_adjoint(solve_adjoint(ops, sc, X, u), ops, sc, X)
    return np.einsum("iab,ib->ia", sc.R, u - u_adj)
