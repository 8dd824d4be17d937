"""Built-in problem catalog.

Each entry returns (ProblemData, CostData) pairs scaled so that the
coercivity block holds by construction.  Randomized entries draw low-order
trigonometric coefficients from a seeded generator; the seed fully
determines every sample.
"""

from __future__ import annotations

import numpy as np

from .lq import CostData
from .volterra import ProblemData

__all__ = ["CatalogEntry", "get_problem", "problem_names", "example_2_1_control"]


class CatalogEntry:
    def __init__(self, name, problem, cost, description):
        self.name = name
        self.problem = problem
        self.cost = cost
        self.description = description


def _trig_kernel(rng, d1, d2, amplitude):
    """Smooth random kernel coefficient a0 + a1 sin(w t + p) cos(v s + c)."""
    a0 = rng.uniform(-1.0, 1.0, size=(d1, d2))
    a1 = rng.uniform(-1.0, 1.0, size=(d1, d2))
    w, v = rng.uniform(0.5, 2.5, size=2)
    p, c = rng.uniform(0.0, 2 * np.pi, size=2)
    scale = amplitude / max(np.abs(a0).sum(axis=1).max() + np.abs(a1).sum(axis=1).max(), 1e-9)

    def K(t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        osc = np.atleast_1d(np.sin(w * t + p) * np.cos(v * s + c))  # scalars: (1, d1, d2)
        # one contiguous plane per component (a, b), the component axes moved last
        out = np.moveaxis(np.multiply.outer(a1, osc), (0, 1), (-2, -1))
        out += a0
        out *= scale
        return out

    return K


def _trig_traj(rng, d, amplitude):
    a0 = rng.uniform(-1.0, 1.0, size=d)
    a1 = rng.uniform(-1.0, 1.0, size=d)
    w = rng.uniform(0.5, 3.0)
    p = rng.uniform(0.0, 2 * np.pi)

    def f(t):
        t = np.asarray(t, dtype=float)
        return amplitude * (a0[None, :] + a1[None, :] * np.sin(w * t + p)[:, None])

    return f


def _psd_weight(rng, d, base, amplitude):
    """Time-varying PSD weight base*I + amplitude * L(t) L(t)'."""
    L0 = rng.uniform(-1.0, 1.0, size=(d, d))
    w = rng.uniform(0.5, 2.0)
    p = rng.uniform(0.0, 2 * np.pi)

    def W(t):
        t = np.asarray(t, dtype=float)
        fac = 0.5 * (1.0 + np.sin(w * t + p))
        L = L0[None, :, :] * fac[:, None, None]
        return base * np.eye(d)[None, :, :] + amplitude * np.einsum(
            "ixy,izy->ixz", L, L
        )

    return W


def example_2_1_control(nodes: np.ndarray, T: float = 1.0) -> np.ndarray:
    """The square-integrable control whose state blows up at T for beta <= 1/2.

    u(s) = 1_{[T/2, T)}(s) / (sqrt(T-s) log(T-s)); the indicator is sampled
    closed-left, so the terminal node carries a zero sample.
    """
    s = np.asarray(nodes, dtype=float)
    out = np.zeros_like(s)
    m = (s >= T / 2.0) & (s < T)
    rem = T - s[m]
    out[m] = 1.0 / (np.sqrt(rem) * np.log(rem))
    return out


def _zero_cost(beta, T, seed):
    rng = np.random.default_rng(12345)
    problem = ProblemData(
        A=_trig_kernel(rng, 1, 1, 0.6),
        B=_trig_kernel(rng, 1, 1, 0.8),
        phi=_trig_traj(rng, 1, 1.0),
        beta=beta,
        T=T,
        n_state=1,
        n_control=1,
    )
    cost = CostData(R=1.0)
    return problem, cost, "state cost switched off; the optimal control vanishes"


def _constant_coeff(beta, T, seed, a=1.0, b=1.0):
    problem = ProblemData(
        A=np.array([[a]]),
        B=np.array([[b]]),
        phi=np.ones(1),
        beta=beta,
        T=T,
        n_state=1,
        n_control=1,
    )
    cost = CostData(Q=1.0, R=1.0, G=np.eye(1))
    return problem, cost, "scalar constant coefficients; resolvent has a series form"


def _example_2_1(beta, T, seed):
    problem = ProblemData(
        A=None,
        B=np.ones((1, 1)),
        phi=None,
        beta=beta,
        T=T,
        n_state=1,
        n_control=1,
    )
    cost = CostData(R=1.0)
    return problem, cost, "pure convolution state; demonstrates terminal blow-up"


def _random_smooth(beta, T, seed, dx=2, du=2):
    rng = np.random.default_rng(seed)
    problem = ProblemData(
        A=_trig_kernel(rng, dx, dx, 0.7),
        B=_trig_kernel(rng, dx, du, 0.9),
        phi=_trig_traj(rng, dx, 1.0),
        beta=beta,
        T=T,
        n_state=dx,
        n_control=du,
    )
    cost = CostData(
        Q=_psd_weight(rng, dx, 0.1, 0.8),
        R=_psd_weight(rng, du, 1.0, 0.4),
        q=_trig_traj(rng, dx, 0.6),
        G=_psd_G(rng, dx, 0.5),
        g=rng.uniform(-0.7, 0.7, size=dx),
    )
    return problem, cost, "seeded trigonometric coefficients, no cross terms"


def _psd_G(rng, d, amplitude):
    L = rng.uniform(-1.0, 1.0, size=(d, d))
    return amplitude * (L @ L.T)


def _cross_term(beta, T, seed, dx=2, du=2):
    problem, cost, _ = _random_smooth(beta, T, seed, dx, du)
    rng = np.random.default_rng(seed + 977)
    S = _trig_kernel_time(rng, du, dx, 0.22)
    rho = _trig_traj(rng, du, 0.5)
    Q0, R = cost.Q, cost.R

    def Q(t):
        # completed square: Q0 + S' R^-1 S keeps the reduced state weight
        # equal to the PSD base Q0 for every seed
        Ss = S(t)
        Rinv = np.linalg.inv(R(t))
        return Q0(t) + np.einsum("icx,icd,idy->ixy", Ss, Rinv, Ss)

    # Cross weights drag the coercivity constant of the quadratic form
    # below the eigenvalue floor of R (the control enters the completed
    # square shifted by R^-1 S X); declare a floor with a 20% margin so
    # the operator bounds hold with room to spare across seeds.
    probe = np.linspace(0.0, T, 512)
    rmin = float(np.linalg.eigvalsh(R(probe)).min())
    cost = CostData(
        Q=Q, S=S, R=R, q=cost.q, rho=rho, G=cost.G, g=cost.g, delta=0.8 * rmin
    )
    return problem, cost, "adds cross weights S, rho for the reduction path"


def _trig_kernel_time(rng, d1, d2, amplitude):
    a0 = rng.uniform(-1.0, 1.0, size=(d1, d2))
    a1 = rng.uniform(-1.0, 1.0, size=(d1, d2))
    w = rng.uniform(0.5, 2.0)
    p = rng.uniform(0.0, 2 * np.pi)

    def W(t):
        t = np.asarray(t, dtype=float)
        fac = np.sin(w * t + p)
        return amplitude * (a0[None, :, :] + fac[:, None, None] * a1[None, :, :])

    return W


_BUILDERS = {
    "zero-cost": _zero_cost,
    "constant-coeff": _constant_coeff,
    "example-2-1": _example_2_1,
    "random-smooth": _random_smooth,
    "cross-term": _cross_term,
}


def problem_names():
    return sorted(_BUILDERS)


def get_problem(name: str, beta: float, T: float, seed: int = 0) -> CatalogEntry:
    """Instantiate a catalog problem; seeded entries consume the seed."""
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown catalog problem {name!r}; valid names: {', '.join(problem_names())}"
        )
    problem, cost, desc = _BUILDERS[name](beta, T, seed)
    return CatalogEntry(name, problem, cost, desc)
