"""Time grids and product-integration quadrature for Abel-type kernels.

The integrals handled here have the form

    I(t_i) = int_0^{t_i} (t_i - s)^(beta-1) g(s) ds,      beta in (0, 1),

where g is known only through its samples on the grid.  The weight
(t_i - s)^(beta-1) is integrable but unbounded at s = t_i, so plain
Newton-Cotes rules lose accuracy.  Product integration treats the weight
exactly: g is replaced by its piecewise-linear (or piecewise-constant)
interpolant and the moments

    mu0 = int_a^b (t - s)^(beta-1) ds = ((t-a)^beta - (t-b)^beta) / beta,
    mu1 = int_a^b (t - s)^(beta-1) (s - a) ds
        = (t-a) * mu0 - ((t-a)^(beta+1) - (t-b)^(beta+1)) / (beta+1)

are evaluated in closed form on every subinterval.  Constants are therefore
reproduced exactly: the weights of row i always sum to t_i^beta / beta.
`lower_product_weights` is the mirror image with the singularity at the
lower endpoint, and `trapezoid_rule` the plain rule every module shares.
The doubly singular moments behind the resolvent live in `volterra`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "SingularWeights",
    "build_grid",
    "product_weights",
    "integrate_singular",
    "check_young_bound",
    "lower_product_weights",
    "lower_singular_weights",
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
    exponent: float | None = None

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
        return Grid(nodes=nodes, T=float(T), kind=kind, exponent=r)
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


@dataclass(frozen=True)
class SingularWeights:
    """Product-integration weights against (t_i - s)^(beta-1).

    w[i, j] are node weights such that sum_j w[i, j] g(s_j) approximates
    int_0^{t_i} (t_i - s)^(beta-1) g(s) ds for the chosen interpolation of
    g.  Weights vanish for s_j > t_i ("linear") resp. s_j >= t_i
    ("constant"); every row sums to t_i^beta / beta exactly.
    """

    grid: Grid
    beta: float
    interp: str
    w: np.ndarray


def product_weights(grid: Grid, beta: float, interp: str = "linear") -> SingularWeights:
    """Exact-moment product-integration weights on the grid.

    interp = "linear" uses hat functions (second order, includes a weight
    at s_j = t_i); interp = "constant" uses left-endpoint values (first
    order, nonnegative weights, strictly causal rows).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if interp not in ("linear", "constant"):
        raise ValueError(f"unknown interpolation {interp!r}")
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
        if interp == "constant":
            w[i0:i1, :-1] += mu0
        else:
            mu1 = np.where(mask, mu1, 0.0)
            w[i0:i1, :-1] += mu0 - mu1 / h
            w[i0:i1, 1:] += mu1 / h
    return SingularWeights(grid=grid, beta=beta, interp=interp, w=w)


def lower_product_weights(grid: Grid, beta: float, j: int) -> np.ndarray:
    """Hat weights against (s - s_j)^(beta-1), singular at the lower endpoint.

    Returns W of shape (n - j, n - j): sum_l W[i - j, l] g(s_{j+l})
    approximates int_{s_j}^{t_i} (s - s_j)^(beta-1) g(s) ds for i >= j,
    exactly for piecewise-linear g.  Moments are taken in offsets from s_j.
    """
    nodes = grid.nodes
    lo = nodes[j:-1] - nodes[j]
    hi = nodes[j + 1 :] - nodes[j]
    h = hi - lo
    mu0 = (hi**beta - lo**beta) / beta
    mu1 = (hi ** (beta + 1.0) - lo ** (beta + 1.0)) / (beta + 1.0) - lo * mu0
    wl = mu0 - mu1 / h
    wr = mu1 / h
    m = grid.n - j
    # row i - j integrates over the segments l < i - j
    segs = np.arange(m - 1)[None, :] < np.arange(m)[:, None]
    W = np.zeros((m, m))
    W[:, :-1] += np.where(segs, wl[None, :], 0.0)
    W[:, 1:] += np.where(segs, wr[None, :], 0.0)
    return W


def lower_singular_weights(grid: Grid, beta: float, j: int) -> np.ndarray:
    """Weights v[i] with sum_i v[i] g(t_i) ~ int_{s_j}^{T} (s - s_j)^(beta-1) g(s) ds.

    The full-range row of `lower_product_weights`, zero before s_j.
    """
    v = np.zeros(grid.n)
    v[j:] = lower_product_weights(grid, beta, j)[-1]
    return v


def integrate_singular(weights: SingularWeights, i: int, g: np.ndarray):
    """Evaluate int_0^{t_i} (t_i - s)^(beta-1) g(s) ds from grid samples of g.

    Linear in g; g has shape (n,) or (n, d).
    """
    g = np.asarray(g, dtype=float)
    if g.shape[0] != weights.grid.n:
        raise ValueError(
            f"sample count {g.shape[0]} does not match grid size {weights.grid.n}"
        )
    if not 0 <= i < weights.grid.n:
        raise ValueError(f"node index {i} out of range")
    return weights.w[i] @ g


def check_young_bound(weights: SingularWeights, theta0: np.ndarray, s: float) -> bool:
    """Check the convolution norm bounds on eta(t, s) = int_s^t theta0(tau) (t-tau)^(beta-1) dtau.

    Verifies ||eta(., s)||_{L2(s,T)} <= ((T-s)^beta / beta) ||theta0||_{L2(s,T)}
    and, when beta > 1/2, the sup-norm bound with constant
    (T-s)^(beta-1/2) / sqrt(2 beta - 1).  A 1% slack absorbs discretization
    error of the discrete norms.
    """
    grid = weights.grid
    beta = weights.beta
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (grid.n,):
        raise ValueError("theta0 must be sampled on the grid")
    if not 0.0 <= s < grid.T:
        raise ValueError(f"s must lie in [0, T), got {s}")
    nodes = grid.nodes
    later = np.nonzero(nodes > s)[0]
    # eta at each node beyond s, singular weight integrated exactly per segment
    pts = np.concatenate(([s], nodes[later]))
    vals = np.concatenate(([np.interp(s, nodes, theta0)], theta0[later]))
    eta = np.zeros(pts.size)
    for k in range(1, pts.size):
        t = pts[k]
        lo, hi = pts[:k], pts[1 : k + 1]
        mu0, mu1 = segment_moments(t, beta, lo, hi)
        h = hi - lo
        wl = mu0 - mu1 / h
        wr = mu1 / h
        eta[k] = wl @ vals[:k] + wr @ vals[1 : k + 1]
    trap = trapezoid_rule(pts)
    norm_eta = np.sqrt(trap @ eta**2)
    norm_theta = np.sqrt(trap @ vals**2)
    slack = 1.01
    ok = norm_eta <= slack * (grid.T - s) ** beta / beta * norm_theta
    if beta > 0.5:
        sup_bound = (grid.T - s) ** (beta - 0.5) / np.sqrt(2.0 * beta - 1.0)
        ok = ok and np.max(np.abs(eta)) <= slack * sup_bound * norm_theta
    return bool(ok)
