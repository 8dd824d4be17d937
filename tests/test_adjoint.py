import numpy as np
import pytest

from volterra_lq import (
    AssumptionError,
    CostData,
    ProblemData,
    control_from_adjoint,
    solve_adjoint,
)
from volterra_lq.volterra import StateOperator

from conftest import rel_l2


def test_homogeneous_forcing_gives_zero_adjoint(rs_pipeline):
    pipe = rs_pipeline
    cost = CostData(R=1.0)
    adj = solve_adjoint(pipe.ops, cost, pipe.x_opt, pipe.u_opt)
    assert np.all(adj.Y == 0.0)
    assert np.all(adj.gamma == 0.0)
    assert np.all(adj.terminal_coeff == 0.0)


def test_no_kernel_coupling_returns_forcing(rs_pipeline):
    # A = 0: the backward integral vanishes and Y equals its forcing
    pipe = rs_pipeline
    p = pipe.problem
    decoupled = ProblemData(
        A=None, B=p.B, phi=p.phi, beta=p.beta, T=p.T,
        n_state=p.n_state, n_control=p.n_control,
    )
    adj = solve_adjoint(StateOperator(decoupled, pipe.grid), pipe.cost, pipe.x_opt, pipe.u_opt)
    assert np.allclose(adj.Y, adj.gamma, atol=1e-14)


def test_resolvent_representation_of_adjoint(rs_pipeline):
    # backward substitution vs the explicit dense resolvent of the dual
    # system: two factorizations of the same discrete equation
    pipe = rs_pipeline
    sc = pipe.dlq.cost_samples
    adj = solve_adjoint(pipe.ops, pipe.cost, pipe.x_opt, pipe.u_opt)
    ops = StateOperator(pipe.problem, pipe.grid)
    n, dx = pipe.grid.n, pipe.problem.n_state
    wx = np.repeat(pipe.omega, dx)
    dual = np.diag(1.0 / wx) @ ops.WA_flat.T @ np.diag(wx)
    z = (
        np.einsum("iab,ib->ia", sc.Q, pipe.x_opt)
        + np.einsum("ica,ic->ia", sc.S, pipe.u_opt)
        + sc.q
    )
    zeta = sc.G @ pipe.x_opt[-1] + sc.g
    vterm = ops.terminal_unit(zeta)
    rmat = np.linalg.inv(np.eye(n * dx) - dual)
    y2 = rmat @ (z.ravel() + dual @ vterm)
    assert rel_l2(pipe.omega, adj.Y, y2.reshape(n, dx)) < 1e-10


def test_control_vanishes_without_data(rs_pipeline):
    pipe = rs_pipeline
    cost = CostData(R=1.0)
    adj = solve_adjoint(pipe.ops, cost, pipe.x_opt, pipe.u_opt)
    u = control_from_adjoint(adj, pipe.ops, cost, pipe.x_opt)
    assert np.all(u == 0.0)


def test_control_vanishes_without_control_kernel(rs_pipeline):
    pipe = rs_pipeline
    p = pipe.problem
    no_b = ProblemData(
        A=p.A, B=None, phi=p.phi, beta=p.beta, T=p.T,
        n_state=p.n_state, n_control=p.n_control,
    )
    cost = CostData(Q=pipe.cost.Q, R=1.0, q=pipe.cost.q, G=pipe.cost.G, g=pipe.cost.g)
    ops = StateOperator(no_b, pipe.grid)
    adj = solve_adjoint(ops, cost, pipe.x_opt, pipe.u_opt)
    assert np.any(adj.Y != 0.0)
    u = control_from_adjoint(adj, ops, cost, pipe.x_opt)
    assert np.all(u == 0.0)


def test_adjoint_satisfies_backward_equation(rs_pipeline):
    # residual of the discrete backward equation at the solved trajectory
    pipe = rs_pipeline
    adj = solve_adjoint(pipe.ops, pipe.cost, pipe.x_opt, pipe.u_opt)
    ops = StateOperator(pipe.problem, pipe.grid)
    zeta = adj.zeta
    forcing = adj.gamma.ravel() + ops.apply_dual_A(ops.terminal_unit(zeta))
    residual = adj.Y.ravel() - forcing - ops.apply_dual_A(adj.Y.ravel())
    scale = 1.0 + np.max(np.abs(adj.Y))
    assert np.max(np.abs(residual)) <= 1e-11 * scale


def test_matches_direct_optimizer(rs_pipeline):
    pipe = rs_pipeline
    adj = solve_adjoint(pipe.ops, pipe.cost, pipe.x_opt, pipe.u_opt)
    u = control_from_adjoint(adj, pipe.ops, pipe.cost, pipe.x_opt)
    unorm = np.sqrt(np.einsum("i,ic,ic->", pipe.omega, pipe.u_opt, pipe.u_opt))
    assert rel_l2(pipe.omega, u, pipe.u_opt) <= 1e-5 * (1.0 + unorm)


def test_agreement_stays_at_round_off_under_refinement():
    import volterra_lq as vlq
    from volterra_lq.catalog import get_problem

    entry = get_problem("random-smooth", 0.75, 1.0, seed=13)
    tols = []
    for n in (16, 32, 64):
        grid = vlq.build_grid(n, 1.0)
        ops = vlq.StateOperator(entry.problem, grid)
        dlq = vlq.assemble_quadratic_form(ops, entry.cost)
        u = vlq.solve_open_loop(dlq)
        x = (ops.psi.ravel() + ops.theta @ u.ravel()).reshape(grid.n, -1)
        adj = solve_adjoint(ops, entry.cost, x, u)
        u2 = control_from_adjoint(adj, ops, entry.cost, x)
        tols.append(rel_l2(grid.trapezoid_weights(), u2, u))
    assert all(t < 1e-10 for t in tols)


def test_rejects_beta_at_or_below_half(rs_pipeline):
    pipe = rs_pipeline
    p = pipe.problem
    bad = ProblemData(A=p.A, B=p.B, phi=p.phi, beta=0.5, T=p.T,
                      n_state=p.n_state, n_control=p.n_control)
    with pytest.raises(AssumptionError, match="beta > 1/2"):
        solve_adjoint(StateOperator(bad, pipe.grid), pipe.cost, pipe.x_opt, pipe.u_opt)


def test_terminal_node_excluded_from_pointwise_claims(rs_pipeline):
    # the terminal value of the adjoint-based control is the solver's
    # algebraic value; interior nodes match the optimizer pointwise
    pipe = rs_pipeline
    adj = solve_adjoint(pipe.ops, pipe.cost, pipe.x_opt, pipe.u_opt)
    u = control_from_adjoint(adj, pipe.ops, pipe.cost, pipe.x_opt)
    interior = np.max(np.abs(u[:-1] - pipe.u_opt[:-1]))
    assert interior <= 1e-10 * (1.0 + np.max(np.abs(pipe.u_opt)))
