"""Time grids and product-integration quadrature for Abel-type kernels.

The integrals handled here have the form

    I(t_i) = int_0^{t_i} (t_i - s)^(beta-1) g(s) ds,      beta in (0, 1),

where g is known only through its samples on the grid.  The weight
(t_i - s)^(beta-1) is integrable but unbounded at s = t_i, so plain
Newton-Cotes rules lose accuracy.  Product integration treats the weight
exactly: g is replaced by its piecewise-linear interpolant and the
moments

    mu0 = int_a^b (t - s)^(beta-1) ds = ((t-a)^beta - (t-b)^beta) / beta,
    mu1 = int_a^b (t - s)^(beta-1) (s - a) ds
        = (t-a) * mu0 - ((t-a)^(beta+1) - (t-b)^(beta+1)) / (beta+1)

are evaluated in closed form on every subinterval.  Constants are therefore
reproduced exactly: the weights of row i always sum to t_i^beta / beta.
`product_weights` returns the weights of every t_i as one plain (n, n)
table, row i for t_i, which `integrate_singular` reads.
`lower_product_weights` is the mirror image with the singularity at the
lower endpoint s_j: one row of weights over [s_j, T], which every target
t_i > s_j shares because its callers weigh tables that vanish for s >= t_i.
`trapezoid_rule` is the plain rule every module shares.
The doubly singular moments behind the resolvent live in `volterra`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "build_grid",
    "product_weights",
    "integrate_singular",
    "check_young_bound",
    "lower_product_weights",
    "trapezoid_rule",
    "segment_moments",
]


@dataclass(frozen=True)
class Grid:
    """Strictly increasing time nodes on [0, T].

    kind is "uniform" or "graded"; graded grids cluster nodes near both
    endpoints (free terms may blow up at 0, terminal couplings at T).
    """

    nodes: np.ndarray
    T: float
    kind: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs at least 3 nodes")
        if nodes[0] != 0.0 or nodes[-1] != self.T:
            raise ValueError("grid must start at 0 and end at T")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError(
                "grid nodes are not strictly increasing; "
                "grading exponent too aggressive for this node count"
            )

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)

    def trapezoid_weights(self) -> np.ndarray:
        """Node weights of the composite trapezoid rule on [0, T]."""
        return trapezoid_rule(self.nodes)


def trapezoid_rule(points: np.ndarray) -> np.ndarray:
    """Node weights of the composite trapezoid rule on increasing points."""
    d = np.diff(points)
    w = np.zeros(points.size)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def build_grid(n: int, T: float, kind: str = "uniform", exponent: float = 2.0) -> Grid:
    """Build an n-node grid on [0, T].

    "uniform" spaces nodes evenly.  "graded" applies the symmetric map

        x <= 1/2:  g(x) = (2x)^r / 2,     x > 1/2:  g(x) = 1 - (2(1-x))^r / 2

    to a uniform parameter grid, clustering nodes near 0 and T with
    grading strength r = exponent >= 1 (r = 1 is uniform).
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {type(n).__name__}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if kind == "uniform":
        nodes = np.linspace(0.0, T, n)
        return Grid(nodes=nodes, T=float(T), kind=kind)
    if kind == "graded":
        r = float(exponent)
        if not r >= 1.0:
            raise ValueError(f"grading exponent must be >= 1, got {exponent}")
        x = np.linspace(0.0, 1.0, n)
        g = np.where(x <= 0.5, 0.5 * (2.0 * x) ** r, 1.0 - 0.5 * (2.0 * (1.0 - x)) ** r)
        nodes = T * g
        nodes[0] = 0.0
        nodes[-1] = T
        return Grid(nodes=nodes, T=float(T), kind=kind)
    raise ValueError(f"unknown grid kind {kind!r} (use 'uniform' or 'graded')")


def segment_moments(t, beta: float, lo, hi):
    """Closed-form moments of (t - s)^(beta-1) over [lo, hi] with lo<=hi<=t.

    Returns (mu0, mu1) where mu1 is taken about lo.  Inputs broadcast.
    """
    a = t - lo
    b = t - hi
    mu0 = (a ** beta - b ** beta) / beta
    mu1 = a * mu0 - (a ** (beta + 1.0) - b ** (beta + 1.0)) / (beta + 1.0)
    return mu0, mu1


def product_weights(grid: Grid, beta: float) -> np.ndarray:
    """Exact-moment product-integration weights against (t_i - s)^(beta-1).

    Returns W of shape (n, n): sum_j W[i, j] g(s_j) approximates
    int_0^{t_i} (t_i - s)^(beta-1) g(s) ds for the piecewise-linear
    interpolant of g.  Hat functions interpolate g: second order, with a
    weight at s_j = t_i.  Weights vanish for s_j > t_i; every row sums to
    t_i^beta / beta exactly.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    nodes = grid.nodes
    n = grid.n
    w = np.zeros((n, n))
    h = grid.spacings
    # chunk rows so the O(n^2) temporaries stay modest on large grids
    chunk = max(1, min(n, int(4e6 // max(n, 1))))
    for i0 in range(1, n, chunk):
        i1 = min(n, i0 + chunk)
        t = nodes[i0:i1, None]
        lo = nodes[None, :-1]
        hi = nodes[None, 1:]
        mask = hi <= t  # segment [s_j, s_{j+1}] fully inside [0, t_i]
        mu0, mu1 = segment_moments(t, beta, np.minimum(lo, t), np.minimum(hi, t))
        mu0 = np.where(mask, mu0, 0.0)
        mu1 = np.where(mask, mu1, 0.0)
        w[i0:i1, :-1] += mu0 - mu1 / h
        w[i0:i1, 1:] += mu1 / h
    return w


def lower_product_weights(grid: Grid, beta: float, j: int) -> np.ndarray:
    """Hat weights against (s - s_j)^(beta-1), singular at the lower endpoint.

    Returns the row w of shape (n - j,): sum_l w[l] g(s_{j+l}) approximates
    int_{s_j}^T (s - s_j)^(beta-1) g(s) ds, exactly for piecewise-linear g.
    Moments are taken in offsets from s_j.  Integrating only up to an
    earlier node t_i drops the segments past t_i, which changes the row
    only at s_l >= t_i; every caller weighs tables that vanish there, so
    all targets share the one row.
    """
    nodes = grid.nodes
    lo = nodes[j:-1] - nodes[j]
    hi = nodes[j + 1 :] - nodes[j]
    h = hi - lo
    mu0 = (hi**beta - lo**beta) / beta
    mu1 = (hi ** (beta + 1.0) - lo ** (beta + 1.0)) / (beta + 1.0) - lo * mu0
    w = np.zeros(grid.n - j)
    w[:-1] += mu0 - mu1 / h
    w[1:] += mu1 / h
    return w


def integrate_singular(w: np.ndarray, i: int, g: np.ndarray):
    """Evaluate int_0^{t_i} (t_i - s)^(beta-1) g(s) ds from grid samples of g.

    w is the (n, n) table of `product_weights`.  Linear in g; g has shape
    (n,) or (n, d).
    """
    g = np.asarray(g, dtype=float)
    n = w.shape[0]
    if g.shape[0] != n:
        raise ValueError(f"sample count {g.shape[0]} does not match grid size {n}")
    if not 0 <= i < n:
        raise ValueError(f"node index {i} out of range")
    return w[i] @ g


def check_young_bound(grid: Grid, beta: float, theta0: np.ndarray, s: float) -> bool:
    """Check the convolution norm bounds on eta(t, s) = int_s^t theta0(tau) (t-tau)^(beta-1) dtau.

    Verifies ||eta(., s)||_{L2(s,T)} <= ((T-s)^beta / beta) ||theta0||_{L2(s,T)}
    and, when beta > 1/2, the sup-norm bound with constant
    (T-s)^(beta-1/2) / sqrt(2 beta - 1).  A 1% slack absorbs discretization
    error of the discrete norms.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (grid.n,):
        raise ValueError("theta0 must be sampled on the grid")
    if not 0.0 <= s < grid.T:
        raise ValueError(f"s must lie in [0, T), got {s}")
    nodes = grid.nodes
    # eta at s and every node beyond it, by the product weights of those
    # points shifted to start at 0; a single last segment is split in two,
    # since a grid needs 3 nodes
    pts = np.concatenate(([s], nodes[nodes > s]))
    if pts.size < 3:
        pts = np.array([s, 0.5 * (s + grid.T), grid.T])
    vals = np.interp(pts, nodes, theta0)
    eta = product_weights(Grid(nodes=pts - s, T=grid.T - s, kind="shifted"), beta) @ vals
    trap = trapezoid_rule(pts)
    norm_eta = np.sqrt(trap @ eta**2)
    norm_theta = np.sqrt(trap @ vals**2)
    slack = 1.01
    ok = norm_eta <= slack * (grid.T - s) ** beta / beta * norm_theta
    if beta > 0.5:
        sup_bound = (grid.T - s) ** (beta - 0.5) / np.sqrt(2.0 * beta - 1.0)
        ok = ok and np.max(np.abs(eta)) <= slack * sup_bound * norm_theta
    return bool(ok)
