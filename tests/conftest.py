import numpy as np
import pytest

import volterra_lq as vlq


def rel_l2(omega, a, b):
    """Weighted relative L2 distance of two trajectories."""
    num = np.sqrt(np.einsum("i,ic,ic->", omega, a - b, a - b))
    den = np.sqrt(np.einsum("i,ic,ic->", omega, b, b))
    return float(num / max(den, 1e-30))


class Pipeline:
    """One fully assembled LQ problem, shared across tests."""

    def __init__(
        self, name, seed, n=48, beta=0.75, T=1.0, with_kernel=False, grid_kind="uniform"
    ):
        self.entry = vlq.get_problem(name, beta=beta, T=T, seed=seed)
        self.problem = self.entry.problem
        self.cost = self.entry.cost
        self.grid = vlq.build_grid(n, T, grid_kind)
        self.kernel = vlq.resolvent(self.problem, self.grid) if with_kernel else None
        self.ops = vlq.StateOperator(self.problem, self.grid)
        self.Psi = vlq.control_kernel(self.ops, self.kernel) if with_kernel else None
        self.theta = self.ops.theta
        self.theta_T = self.theta[-self.ops.dx :]
        self.dlq = vlq.assemble_quadratic_form(self.ops, self.cost)
        self.omega = self.grid.trapezoid_weights()
        self.u_opt = vlq.solve_open_loop(self.dlq)
        self.x_opt = (self.ops.psi.ravel() + self.theta @ self.u_opt.ravel()).reshape(
            self.grid.n, -1
        )


@pytest.fixture(scope="session")
def rs_pipeline():
    return Pipeline("random-smooth", seed=42)


@pytest.fixture(scope="session")
def rs_pipeline_kernel():
    return Pipeline("random-smooth", seed=42, with_kernel=True)


@pytest.fixture(scope="session")
def ct_pipeline():
    return Pipeline("cross-term", seed=7)


@pytest.fixture(
    scope="session",
    params=[
        ("constant-coeff", "uniform"),
        ("constant-coeff", "graded"),
        ("random-smooth", "uniform"),
        ("random-smooth", "graded"),
    ],
    ids=lambda p: "-".join(p),
)
def truncation_case(request):
    """Small pipelines covering du = 1 and du = 2 on uniform and graded grids."""
    name, kind = request.param
    return Pipeline(name, seed=5, n=24, grid_kind=kind)
