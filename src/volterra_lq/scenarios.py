"""Experiment scenarios: the pipelines behind the command-line interface.

Each scenario runner builds a problem, runs one verification pipeline and
returns a ScenarioReport: its checks are the pass/fail gates and its
tables map CSV file names to columns in write order.  Runners compute;
run_scenario alone writes.  It writes every table, then the residuals
table (one row per check), each under a comment line with the package
version and the configuration hash, and last the JSON report.  The same
configuration always produces byte identical CSV output.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import control_from_adjoint, solve_adjoint
from .cache import cached_resolvent
from .catalog import example_2_1_control, get_problem
from .causal import (
    abstract_causal_control,
    build_cross_term_reduction,
    causal_trajectories,
    general_causal_control,
)
from .config import RunConfig, _validate
from .fredholm import representation_terms
from .grids import build_grid, integrate_singular, product_weights
from .lq import CostData, assemble_quadratic_form, evaluate_cost, solve_open_loop
# resolvent is unused here; perfbench/tests/test_perfbench.py pins this import site
from .volterra import ProblemData, StateOperator, resolvent, solve_state  # noqa: F401

__all__ = ["Check", "ScenarioReport", "run_scenario"]


@dataclass
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class ScenarioReport:
    scenario: str
    problem: str
    checks: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # measurements reported without a gate
    timings: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, value: float, tolerance: float, larger_ok: bool = False):
        ok = value >= tolerance if larger_ok else value <= tolerance
        self.checks.append(Check(name, float(value), float(tolerance), bool(ok)))

    def summary_lines(self):
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            yield f"[{status}] {c.name}: value {c.value:.6g} vs tolerance {c.tolerance:.6g}"
        for name, value in self.values.items():
            yield f"[value] {name}: {value:.6g}"


def _fmt(x) -> str:
    if isinstance(x, str):
        return f'"{x}"'
    if isinstance(x, bool):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: Path, columns: dict, cfg_hash: str):
    lines = [f"# volterra-lq {__version__} config={cfg_hash}"]
    keys = list(columns)
    lines.append(",".join(keys))
    length = len(next(iter(columns.values())))
    for i in range(length):
        lines.append(",".join(_fmt(columns[k][i]) for k in keys))
    path.write_text("\n".join(lines) + "\n")


def _rel(omega: np.ndarray, diff: np.ndarray, ref: np.ndarray) -> float:
    num = np.sqrt(np.einsum("i,ic,ic->", omega, diff, diff))
    den = np.sqrt(np.einsum("i,ic,ic->", omega, ref, ref))
    return float(num / max(den, 1e-30))


def _materialize(cfg: RunConfig):
    """The problem and cost of a catalog entry or of the inline coefficients."""
    if cfg.problem != "inline":
        entry = get_problem(cfg.problem, cfg.beta, cfg.T, cfg.problem_seed)
        return entry.problem, entry.cost
    c = {k: np.asarray(v, dtype=float).reshape(cfg.inline_shape(k)) for k, v in cfg.inline.items()}
    problem = ProblemData(
        A=c.get("A"), B=c.get("B"), phi=c.get("phi"), beta=cfg.beta, T=cfg.T,
        n_state=cfg.state_dim, n_control=cfg.control_dim,
    )
    cost = CostData(
        Q=c.get("Q"), S=c.get("S"), R=c.get("R"), q=c.get("q"), rho=c.get("rho"),
        G=c.get("G"), g=c.get("g"),
    )
    return problem, cost


def run_scenario(cfg: RunConfig) -> ScenarioReport:
    """Execute one scenario and write its tables, its residuals and its report."""
    _validate(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    runner = {
        "equivalence": _run_equivalence,
        "convergence": _run_convergence,
        "fredholm-methods": _run_fredholm_methods,
        "example-2-1": _run_example_2_1,
        "reduction": _run_reduction,
    }[cfg.scenario]
    t0 = time.perf_counter()
    report = runner(cfg)
    report.tables["residuals.csv"] = {
        "check": [c.name for c in report.checks],
        "value": [c.value for c in report.checks],
        "tolerance": [c.tolerance for c in report.checks],
        "passed": [c.passed for c in report.checks],
    }
    cfg_hash = cfg.config_hash()
    for name, columns in report.tables.items():
        _write_csv(outdir / name, columns, cfg_hash)
    report.timings["total_s"] = time.perf_counter() - t0
    (outdir / "report.json").write_text(
        json.dumps(
            {
                "scenario": report.scenario,
                "problem": report.problem,
                "passed": report.passed,
                "checks": [vars(c) for c in report.checks],
                "values": report.values,
                "timings": report.timings,
                "csv_paths": [str(outdir / name) for name in report.tables],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return report


def _gain_method(cfg: RunConfig) -> dict:
    """The gain-solver keywords of the causal representations."""
    subspace_dim = cfg.galerkin_dim if cfg.m_solver != "direct" else None
    return dict(method=cfg.m_solver, subspace_dim=subspace_dim, iterations=cfg.iterations)


def _gated_gain(report, cfg, name, u_direct, omega, represent):
    """The gain representation of the configured method, gated by what it promises.

    `represent(**gain_keywords)` evaluates the representation for a gain
    method and subspace.  The distance of the configured one to the direct
    solve is reported for every method.  The direct and superconvergent
    gains reproduce the optimizer, so that distance is gated at 1e-6.  A
    Galerkin or iterated gain carries the projection error of subspace
    size q, which no fixed tolerance fits, so its gates are what the
    method promises: the distance falls when q doubles (capped at n), and
    the iterated gain is no farther than the Galerkin one.
    """
    dist = lambda v: _rel(omega, v - u_direct, u_direct)  # noqa: E731
    u = represent(**_gain_method(cfg))
    err = report.values[name] = dist(u)
    method, q = cfg.m_solver, cfg.galerkin_dim
    if method in ("direct", "superconvergent"):
        report.add(name, err, 1e-6)
        return u
    q2 = min(2 * q, cfg.n)
    err2 = dist(represent(**dict(_gain_method(cfg), subspace_dim=q2)))
    report.add(
        f"gain method: {method} distance to direct solve at q = {q2} within q = {q}",
        err2,
        err,
    )
    other = "iterated" if method == "galerkin" else "galerkin"
    err_other = dist(represent(**dict(_gain_method(cfg), method=other)))
    e_gal, e_it = (err, err_other) if method == "galerkin" else (err_other, err)
    report.add(
        f"gain method: iterated distance to direct solve within Galerkin's at q = {q}",
        e_it,
        e_gal,
    )
    return u


def _solved_lq(cfg: RunConfig):
    """Grid, assembled problem, open-loop optimal control and its state."""
    problem, cost = _materialize(cfg)
    grid = build_grid(cfg.n, cfg.T, cfg.grid, cfg.grading_exponent)
    dlq = assemble_quadratic_form(StateOperator(problem, grid), cost)
    u_direct = solve_open_loop(dlq)
    x_bar = (dlq.ops.psi.ravel() + dlq.ops.theta @ u_direct.ravel()).reshape(grid.n, -1)
    return grid, dlq, u_direct, x_bar


def _form_value(dlq, u) -> float:
    """The quadratic form u' Lambda u + 2 rhs' u + lam0 of the assembled problem."""
    return float(u.ravel() @ dlq.lam @ u.ravel() + 2.0 * dlq.rhs @ u.ravel() + dlq.lam0)


def _columns(t, **trajectories) -> dict:
    """CSV columns: t, then name_c for each component c of each trajectory."""
    columns = {"t": t}
    for name, values in trajectories.items():
        for c in range(values.shape[1]):
            columns[f"{name}_{c}"] = values[:, c]
    return columns


# ---------------------------------------------------------------------------


def _run_equivalence(cfg: RunConfig) -> ScenarioReport:
    report = ScenarioReport("equivalence", cfg.problem)
    grid, dlq, u_direct, x_bar = _solved_lq(cfg)
    ops, sc = dlq.ops, dlq.cost_samples
    omega = grid.trapezoid_weights()

    Y = solve_adjoint(ops, sc, x_bar, u_direct)
    u_adjoint = control_from_adjoint(Y, ops, sc, x_bar)
    report.add(
        "control: adjoint-equation characterization vs direct solve",
        _rel(omega, u_adjoint - u_direct, u_direct),
        1e-5,
    )

    traj = causal_trajectories(ops, u_direct)
    u_causal = abstract_causal_control(dlq, traj)
    report.add(
        "control: causal reconstruction vs direct solve",
        _rel(omega, u_causal - u_direct, u_direct),
        1e-8,
    )

    u_feedback = _gated_gain(
        report, cfg, "control: feedback-gain representation vs direct solve",
        u_direct, omega, lambda **kw: representation_terms(dlq, traj, **kw),
    )

    j_quad = evaluate_cost(ops, sc, u_direct)
    j_form = _form_value(dlq, u_direct)
    report.add(
        "cost: direct quadrature vs quadratic form",
        abs(j_quad - j_form) / (1.0 + abs(j_form)),
        1e-8,
    )

    # non-anticipation: future samples must have exactly zero influence
    rng = np.random.default_rng(cfg.seed)
    t_probe = grid.n // 2
    u_pert = u_direct.copy()
    u_pert[t_probe:] += rng.normal(size=u_pert[t_probe:].shape)
    traj_pert = causal_trajectories(ops, u_pert)
    u_causal_pert = abstract_causal_control(dlq, traj_pert)
    drift = max(
        float(np.max(np.abs(traj_pert[t_probe] - traj[t_probe]))),
        float(np.max(np.abs(u_causal_pert[t_probe] - u_causal[t_probe]))),
    )
    report.add("non-anticipation: influence of future control samples", drift, 0.0)

    report.add(
        "coercivity: smallest generalized eigenvalue over delta",
        _coercivity_ratio(dlq),
        1.0 - 1e-6,
        larger_ok=True,
    )
    report.add(
        "optimality: worst seeded cost decrease at the optimizer",
        _optimality_gap(dlq, u_direct, rng, trials=20),
        -1e-10,
        larger_ok=True,
    )

    report.tables = {
        "controls.csv": _columns(
            grid.nodes,
            u_direct=u_direct, u_adjoint=u_adjoint, u_causal=u_causal, u_feedback=u_feedback,
        ),
        "state.csv": _columns(grid.nodes, x=x_bar),
    }
    return report


def _coercivity_ratio(dlq) -> float:
    """Smallest generalized eigenvalue of the form over delta.

    The trailing blocks of W^(-1/2) Lambda W^(-1/2) (W the diagonal
    quadrature weights) are the truncations at each sigma; by Cauchy
    interlacing none has a smaller eigenvalue, so the full form bounds them.
    The scaled form's spectrum is the one the assembly already built for
    its condition warning (`dlq.weighted_eigenvalues`).
    """
    return float(dlq.weighted_eigenvalues[0] / dlq.cost_samples.delta)


def _optimality_gap(dlq, u_opt, rng, trials=20) -> float:
    """Most negative J(u_opt + eps v) - J(u_opt) over seeded directions, or 0.

    J is the quadratic form of `dlq`, so each difference is
    2 eps <Lam u + rhs, v> + eps^2 <Lam v, v>; the directions v are drawn
    one trial after another, each of the shape of u_opt.
    """
    V = rng.normal(size=(trials, u_opt.size))
    slope = 2.0 * V @ (dlq.lam @ u_opt.ravel() + dlq.rhs)
    curvature = np.einsum("ki,ki->k", V @ dlq.lam, V)
    eps = np.array([1e-2, -1e-2, 1e-1, -1e-1])
    return float(min(0.0, np.min(eps * slope[:, None] + eps**2 * curvature[:, None])))


def _run_convergence(cfg: RunConfig) -> ScenarioReport:
    problem, _ = _materialize(cfg)
    report = ScenarioReport("convergence", cfg.problem)
    rows = {"n": [], "res_defining": [], "res_transposed": [], "varconst": [], "series_err": []}
    prev = None
    for level in range(2):
        n_level = (cfg.n - 1) * 2**level + 1
        ops = StateOperator(problem, build_grid(n_level, cfg.T, cfg.grid, cfg.grading_exponent))
        kernel = cached_resolvent(ops, cfg.cache_dir)
        rows["n"].append(n_level)
        for name in ("defining", "transposed"):
            rows[f"res_{name}"].append(kernel.residuals[name])
            if level == 0:
                report.add(
                    f"resolvent: {name} identity residual",
                    kernel.residuals[name],
                    1e-3,
                )
            else:
                report.add(
                    f"resolvent: {name} residual decreases under grid doubling",
                    prev[name] - kernel.residuals[name],
                    0.0,
                    larger_ok=True,
                )
        rows["varconst"].append(_varconst_deviation(ops, kernel, cfg.seed))
        rows["series_err"].append(
            _series_error(ops, kernel) if cfg.problem == "constant-coeff" else np.nan
        )
        if level == 0 and cfg.problem == "constant-coeff":
            report.add(
                "resolvent: agreement with the constant-coefficient series",
                rows["series_err"][-1],
                1e-6,
            )
        elif level == 1:
            v_n, v_2n = rows["varconst"]
            report.add(
                "varconst: stepping vs resolvent solve decreases under grid doubling",
                v_n - v_2n,
                0.0,
                larger_ok=True,
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                order = np.log2(np.divide(v_n, v_2n))
            report.values["varconst: observed order under grid doubling"] = float(order)
        prev = kernel.residuals
        del ops, kernel  # free this level's tables before the finer grid's are built
    report.tables = {"convergence.csv": rows}
    return report


def _varconst_deviation(ops, kernel, seed) -> float:
    """Stepping solve vs the variation-of-constants formula through the kernel.

    The kernel must be `ops`' resolvent, whose singular coefficient is
    `ops.A_samples` itself; any other kernel raises ValueError.  For a
    seeded smooth xi (per component a cos(w t + p)), the factored
    resolvent Phi = A (t-s)^(beta-1) + D gives

        x(t_i) = xi(t_i) + sum_j (sw_ij A_ij + omega_j D_ij) xi(t_j),

    with sw the product-integration weights, so the A part is
    `ops.WA_flat` times xi, and omega = ops.omega the trapezoid rule: D is
    zero for s_j >= t_i, so its sum is the trapezoid rule over [0, t_i].
    The relative distance to `solve_state` is a discretization error of
    both sides, so it falls under grid doubling and moves with every entry
    of D.
    """
    if not np.shares_memory(kernel.singular_coeff, ops.A_samples):
        raise ValueError("the varconst check needs the operator's own resolvent kernel")
    rng = np.random.default_rng(seed)
    n, dx, nodes, omega = ops.n, ops.dx, ops.grid.nodes, ops.omega
    amp, freq, phase = rng.uniform((0.5, 1.0, 0.0), (1.5, 4.0, 2.0 * np.pi), size=(dx, 3)).T
    xi = amp * np.cos(freq * nodes[:, None] + phase)
    x_step = solve_state(ops, xi)
    x_conv = xi + (ops.WA_flat @ xi.ravel()).reshape(n, dx)
    for b in range(dx):  # D is read in place, so no full-size temporary is made
        x_conv += kernel.regular_part[:, :, :, b].transpose(0, 2, 1) @ (omega * xi[:, b])
    return _rel(omega, x_step - x_conv, x_step)


def _series_error(ops, kernel) -> float:
    """Constant-coefficient check against the closed-form series at offsets >= 4h."""
    from scipy.special import gammaln

    a, beta, grid, n = float(ops.A_samples[0, 0, 0, 0]), ops.beta, ops.grid, ops.n
    worst = 0.0
    for d in range(4, n, max(1, (n - 4) // 40)):
        dt = grid.nodes[d] - grid.nodes[0]
        exact = sum(
            np.exp(k * gammaln(beta) - gammaln(k * beta)) * a**k * dt ** (k * beta - 1.0)
            for k in range(1, 80)
        )
        approx = (
            kernel.singular_coeff[d, 0, 0, 0] * dt ** (beta - 1.0)
            + kernel.regular_part[d, 0, 0, 0]
        )
        worst = max(worst, abs(approx - exact) / abs(exact))
    return float(worst)


def _run_fredholm_methods(cfg: RunConfig) -> ScenarioReport:
    from .fredholm import _Projection, _sweep, assemble_fredholm, solve_direct

    report = ScenarioReport("fredholm-methods", cfg.problem)
    grid = build_grid(cfg.n, cfg.T, cfg.grid, cfg.grading_exponent)
    trials = 20
    rows = {"trial": [], "err_galerkin": [], "err_iterated": [], "err_super": [], "ordered": []}
    ordered_count = 0
    sweep_rows = None
    for trial in range(trials):
        entry = get_problem(cfg.problem, cfg.beta, cfg.T, cfg.problem_seed + trial)
        dlq = assemble_quadratic_form(StateOperator(entry.problem, grid), entry.cost)
        sys0 = assemble_fredholm(dlq, 0)
        M_star = solve_direct(sys0)
        wu = dlq.wu
        # iterate 0 is the Galerkin table, 1 the iterated one, 1 + k the
        # result of k five-step sweeps; trial 0 also records a third sweep
        iterates = _sweep(_Projection(sys0, cfg.galerkin_dim, 0), sys0.rhs)
        errs = [
            float(np.sqrt(np.einsum("i,ij,j->", wu, (M - M_star) ** 2, wu)))
            for M in islice(iterates, 5 if trial == 0 else 4)
        ]
        e_gal, e_it, e_sup = errs[0], errs[1], errs[3]
        ordered = e_sup <= e_it <= e_gal
        ordered_count += ordered
        rows["trial"].append(trial)
        rows["err_galerkin"].append(e_gal)
        rows["err_iterated"].append(e_it)
        rows["err_super"].append(e_sup)
        rows["ordered"].append(ordered)
        if trial == 0:
            hist = errs[1:]
            sweep_rows = {"k": list(range(len(hist))), "error": hist}
            floor = 1e-11 * max(1.0, float(np.abs(M_star).max()))
            monotone = all(
                hist[k + 1] < hist[k] or hist[k + 1] <= floor for k in range(len(hist) - 1)
            )
            report.add(
                "gain solvers: superconvergent sweeps decrease to the round-off floor",
                1.0 if monotone else 0.0,
                1.0,
                larger_ok=True,
            )
    report.add(
        "gain solvers: hierarchy direct <= superconvergent <= iterated <= projected "
        "on fraction of trials",
        ordered_count / trials,
        0.9,
        larger_ok=True,
    )
    report.tables = {"fredholm_methods.csv": rows, "superconvergent_sweeps.csv": sweep_rows}
    return report


def _run_example_2_1(cfg: RunConfig) -> ScenarioReport:
    report = ScenarioReport("example-2-1", "example-2-1")
    # control energy on the graded mesh: with rho = T - s, u^2 = g / rho and
    # g = 1 / log^2(rho).  Every segment but the last weighs the hat
    # interpolant of g against 1/rho exactly; the last, where g falls to 0
    # like no hat does, takes its closed form -1/log(h) for width h.  For
    # T < 2 the energy is -1/log(T/2), which is 1/ln 2 at T = 1.
    g_norm = build_grid(max(cfg.n, 4096), cfg.T, "graded", 4.5)
    rho = cfg.T - g_norm.nodes
    g = rho * example_2_1_control(g_norm.nodes, cfg.T) ** 2
    a, d = rho[1:-1], -np.diff(rho[:-1])  # segment j spans rho in [a_j, a_j + d_j]
    log_ratio = np.log1p(d / a)
    near = ((a + d) * log_ratio - d) / d  # weight of g(a_j)
    far = (d - a * log_ratio) / d  # weight of g(a_j + d_j)
    energy = float(near @ g[1:-1] + far @ g[:-2] - 1.0 / np.log(rho[-2]))
    reference = -1.0 / np.log(cfg.T / 2.0)
    report.add(
        "control energy matches the closed form within 2%",
        abs(energy - reference) / reference,
        0.02,
    )

    # terminal-value dichotomy across three grid doublings
    base_n, doublings, grading = 64, 3, 6.5
    rows = {"n": [], "beta": [], "x_terminal": []}
    terminal = {}
    for beta in (0.4, 0.75):
        vals = []
        for k in range(doublings + 1):
            nk = base_n * 2**k
            gk = build_grid(nk, cfg.T, "graded", grading)
            w = product_weights(gk, beta)
            uk = example_2_1_control(gk.nodes, cfg.T)
            x_T = float(integrate_singular(w, gk.n - 1, uk))
            vals.append(abs(x_T))
            rows["n"].append(nk)
            rows["beta"].append(beta)
            rows["x_terminal"].append(x_T)
        terminal[beta] = vals
    report.add(
        "terminal state grows at least 2x across doublings when beta = 0.4",
        terminal[0.4][-1] / terminal[0.4][0],
        2.0,
        larger_ok=True,
    )
    spread = (max(terminal[0.75]) - min(terminal[0.75])) / terminal[0.75][0]
    report.add(
        "terminal state stable within 5% across doublings when beta = 0.75",
        spread,
        0.05,
    )
    report.tables = {
        "norm.csv": {"n": [g_norm.n], "energy": [energy], "reference": [reference]},
        "example_2_1.csv": rows,
    }
    return report


def _run_reduction(cfg: RunConfig) -> ScenarioReport:
    report = ScenarioReport("reduction", cfg.problem)
    grid, dlq, u_direct, x_bar = _solved_lq(cfg)
    omega = grid.trapezoid_weights()
    j_orig = evaluate_cost(dlq.ops, dlq.cost_samples, u_direct)

    reduced = build_cross_term_reduction(dlq)
    v_opt = solve_open_loop(reduced.dlq)
    j_reduced = _form_value(reduced.dlq, v_opt)
    report.add(
        "optimal values agree after the constant-offset correction",
        abs(j_orig - (j_reduced - reduced.value_offset)) / (1.0 + abs(j_orig)),
        1e-8,
    )
    u_mapped = reduced.to_original_control(v_opt, x_bar)
    report.add(
        "optimal controls related by the substitution map",
        _rel(omega, u_mapped - u_direct, u_direct),
        1e-6,
    )

    v_bar = reduced.to_reduced_control(u_direct, x_bar)
    traj = causal_trajectories(reduced.dlq.ops, v_bar)
    u_general = _gated_gain(
        report, cfg, "control: general causal representation vs direct solve",
        u_direct, omega, lambda **kw: general_causal_control(reduced, traj, x_bar, **kw),
    )
    report.add(
        "coercivity: smallest generalized eigenvalue over delta",
        min(_coercivity_ratio(dlq), _coercivity_ratio(reduced.dlq)),
        1.0 - 1e-6,
        larger_ok=True,
    )
    report.tables = {
        "controls.csv": _columns(
            grid.nodes, u_direct=u_direct, u_mapped=u_mapped, u_general=u_general
        ),
        "reduction.csv": {
            "j_original": [j_orig],
            "j_reduced": [j_reduced],
            "offset": [reduced.value_offset],
        },
    }
    return report
