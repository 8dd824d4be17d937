"""Experiment scenarios: the pipelines behind the command-line interface.

Each scenario builds a problem, runs one verification pipeline, writes
deterministic CSV files (first line: a comment with the configuration
hash and package version), and returns a ScenarioReport whose checks are
the pass/fail gates.  The same configuration always produces byte
identical CSV output.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import control_from_adjoint, solve_adjoint
from .cache import cached_resolvent
from .catalog import example_2_1_control, get_problem, problem_names
from .causal import (
    abstract_causal_control,
    build_cross_term_reduction,
    causal_trajectories,
    general_causal_control,
)
from .config import RunConfig, SCENARIOS
from .errors import ConfigError
from .fredholm import feedback_control
from .grids import build_grid, integrate_singular, product_weights
from .lq import CostData, assemble_quadratic_form, evaluate_cost, solve_open_loop
from .volterra import ProblemData, decompose, resolvent, solve_state

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
    timings: dict = field(default_factory=dict)
    csv_paths: list = field(default_factory=list)

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


def _fmt(x) -> str:
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


def _inline_problem(cfg: RunConfig):
    dx, du = cfg.state_dim, cfg.control_dim
    shapes = {
        "A": (dx, dx), "B": (dx, du), "Q": (dx, dx), "S": (du, dx),
        "R": (du, du), "G": (dx, dx), "q": (dx,), "g": (dx,),
        "rho": (du,), "phi": (dx,),
    }
    vals = {}
    for key, shape in shapes.items():
        if key in cfg.inline:
            flat = cfg.inline[key]
            if flat.size != int(np.prod(shape)):
                raise ConfigError(
                    f"field {key!r}: expected {int(np.prod(shape))} entries for "
                    f"shape {shape}, got {flat.size}"
                )
            vals[key] = flat.reshape(shape)
    const = lambda M: (lambda t, s: np.broadcast_to(  # noqa: E731
        M, np.broadcast_shapes(np.shape(t), np.shape(s)) + M.shape
    ))
    traj = lambda v: (lambda t: np.broadcast_to(v, (np.size(t),) + v.shape))  # noqa: E731
    problem = ProblemData(
        A=const(vals["A"]) if "A" in vals else None,
        B=const(vals["B"]) if "B" in vals else None,
        phi=traj(vals["phi"]) if "phi" in vals else None,
        beta=cfg.beta,
        T=cfg.T,
        n_state=dx,
        n_control=du,
    )
    cost = CostData(
        Q=vals.get("Q"),
        S=vals.get("S"),
        R=vals.get("R"),
        q=traj(vals["q"]) if "q" in vals else None,
        rho=traj(vals["rho"]) if "rho" in vals else None,
        G=vals.get("G"),
        g=vals.get("g"),
    )
    return problem, cost, f"inline-{cfg.config_hash()}"


def _materialize(cfg: RunConfig):
    if cfg.problem == "inline":
        return _inline_problem(cfg)
    entry = get_problem(cfg.problem, cfg.beta, cfg.T, cfg.problem_seed)
    return entry.problem, entry.cost, entry.cache_key


def run_scenario(cfg: RunConfig) -> ScenarioReport:
    """Execute one scenario and write its CSV artifacts."""
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; valid scenarios: {', '.join(SCENARIOS)}"
        )
    if cfg.problem != "inline" and cfg.problem not in problem_names():
        raise ConfigError(
            f"unknown catalog problem {cfg.problem!r}; valid names: "
            f"{', '.join(problem_names())}"
        )
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
    report = runner(cfg, outdir)
    report.timings["total_s"] = time.perf_counter() - t0
    (outdir / "report.json").write_text(
        json.dumps(
            {
                "scenario": report.scenario,
                "problem": report.problem,
                "passed": report.passed,
                "checks": [vars(c) for c in report.checks],
                "timings": report.timings,
                "csv_paths": [str(p) for p in report.csv_paths],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return report


def _tol(cfg: RunConfig, name: str, default: float) -> float:
    return float(cfg.tolerances.get(name, default))


# ---------------------------------------------------------------------------


def _run_equivalence(cfg: RunConfig, outdir: Path) -> ScenarioReport:
    problem, cost, _ = _materialize(cfg)
    report = ScenarioReport("equivalence", cfg.problem)
    grid = build_grid(cfg.n, cfg.T, cfg.grid, cfg.grading_exponent)
    dec = decompose(problem, grid, None)
    dlq = assemble_quadratic_form(dec, cost)
    ops, sc = dec.ops, dlq.cost_samples
    omega = grid.trapezoid_weights()

    u_direct = solve_open_loop(dlq)
    x_bar = (dec.psi.ravel() + ops.theta @ u_direct.ravel()).reshape(grid.n, -1)

    adj = solve_adjoint(ops, sc, x_bar, u_direct)
    u_adjoint = control_from_adjoint(adj, ops, sc, x_bar)
    report.add(
        "control: adjoint-equation characterization vs direct solve",
        _rel(omega, u_adjoint - u_direct, u_direct),
        _tol(cfg, "adjoint", 1e-5),
    )

    traj = causal_trajectories(dec, u_direct)
    u_causal = abstract_causal_control(dlq, traj)
    report.add(
        "control: causal reconstruction vs direct solve",
        _rel(omega, u_causal - u_direct, u_direct),
        _tol(cfg, "causal", 1e-8),
    )

    u_feedback = feedback_control(
        dlq,
        method=cfg.m_solver,
        subspace_dim=cfg.galerkin_dim if cfg.m_solver != "direct" else None,
        iterations=cfg.iterations,
    )
    report.add(
        "control: feedback-gain representation vs direct solve",
        _rel(omega, u_feedback - u_direct, u_direct),
        _tol(cfg, "feedback", 1e-6),
    )

    j_quad = evaluate_cost(ops, sc, u_direct)
    j_form = float(
        u_direct.ravel() @ dlq.lam @ u_direct.ravel()
        + 2.0 * dlq.rhs @ u_direct.ravel()
        + dlq.lam0
    )
    report.add(
        "cost: direct quadrature vs quadratic form",
        abs(j_quad - j_form) / (1.0 + abs(j_form)),
        _tol(cfg, "cost", 1e-8),
    )

    # non-anticipation: future samples must have exactly zero influence
    rng = np.random.default_rng(cfg.seed)
    t_probe = grid.n // 2
    u_pert = u_direct.copy()
    u_pert[t_probe:] += rng.normal(size=u_pert[t_probe:].shape)
    traj_pert = causal_trajectories(dec, u_pert)
    drift = max(
        float(np.max(np.abs(traj_pert.x_trunc[t_probe] - traj.x_trunc[t_probe]))),
        float(np.max(np.abs(traj_pert.x_aux[t_probe] - traj.x_aux[t_probe]))),
    )
    u_causal_pert = abstract_causal_control(dlq, traj_pert)
    drift = max(drift, float(np.abs(u_causal_pert[t_probe] - u_causal[t_probe]).max()))
    report.add("non-anticipation: influence of future control samples", drift, 0.0)

    report.add(
        "coercivity: smallest generalized eigenvalue over delta",
        _coercivity_ratio(dlq),
        1.0 - 1e-6,
        larger_ok=True,
    )
    report.add(
        "optimality: worst seeded cost decrease at the optimizer",
        _optimality_gap(ops, sc, u_direct, j_quad, rng, trials=20),
        -1e-10,
        larger_ok=True,
    )

    cfg_hash = cfg.config_hash()
    controls = {"t": grid.nodes}
    for name, u in (
        ("direct", u_direct),
        ("adjoint", u_adjoint),
        ("causal", u_causal),
        ("feedback", u_feedback),
    ):
        for c in range(u.shape[1]):
            controls[f"u_{name}_{c}"] = u[:, c]
    _write_csv(outdir / "controls.csv", controls, cfg_hash)
    state_cols = {"t": grid.nodes}
    for c in range(x_bar.shape[1]):
        state_cols[f"x_{c}"] = x_bar[:, c]
    _write_csv(outdir / "state.csv", state_cols, cfg_hash)
    _write_residuals_csv(outdir, report, cfg_hash)
    report.csv_paths = [outdir / "controls.csv", outdir / "state.csv", outdir / "residuals.csv"]
    return report


def _coercivity_ratio(dlq) -> float:
    """Smallest generalized eigenvalue of the form and its truncations, over delta."""
    from scipy.linalg import eigh

    from .causal import lambda_sigma

    delta = dlq.cost_samples.delta
    worst = eigh(dlq.lam, np.diag(dlq.wu), eigvals_only=True)[0] / delta
    for sigma in range(1, dlq.n, max(1, dlq.n // 12)):
        r = lambda_sigma(dlq, sigma)
        worst = min(worst, r.min_generalized_eigenvalue() / delta)
    return float(worst)


def _optimality_gap(ops, sc, u_opt, j_opt, rng, trials=20) -> float:
    """Most negative J(u_opt + eps v) - J(u_opt) over seeded directions."""
    worst = 0.0
    for _ in range(trials):
        v = rng.normal(size=u_opt.shape)
        for eps in (1e-2, -1e-2, 1e-1, -1e-1):
            j = evaluate_cost(ops, sc, u_opt + eps * v)
            worst = min(worst, j - j_opt)
    return float(worst)


def _write_residuals_csv(outdir: Path, report: ScenarioReport, cfg_hash: str):
    cols = {
        "check": [c.name for c in report.checks],
        "value": [c.value for c in report.checks],
        "tolerance": [c.tolerance for c in report.checks],
        "passed": [float(c.passed) for c in report.checks],
    }
    lines = [f"# volterra-lq {__version__} config={cfg_hash}"]
    lines.append("check,value,tolerance,passed")
    for i in range(len(cols["check"])):
        lines.append(
            f"\"{cols['check'][i]}\",{_fmt(cols['value'][i])},"
            f"{_fmt(cols['tolerance'][i])},{int(cols['passed'][i])}"
        )
    (outdir / "residuals.csv").write_text("\n".join(lines) + "\n")


def _run_convergence(cfg: RunConfig, outdir: Path) -> ScenarioReport:
    problem, cost, key = _materialize(cfg)
    report = ScenarioReport("convergence", cfg.problem)
    rows = {"n": [], "res_defining": [], "res_transposed": [], "varconst": [], "series_err": []}
    prev = None
    for level in range(2):
        n_level = (cfg.n - 1) * 2**level + 1
        grid = build_grid(n_level, cfg.T, cfg.grid, cfg.grading_exponent)
        kernel = cached_resolvent(problem, grid, key, cfg.cache_dir)
        rows["n"].append(n_level)
        rows["res_defining"].append(kernel.residuals["defining"])
        rows["res_transposed"].append(kernel.residuals["transposed"])
        rows["varconst"].append(_varconst_deviation(problem, grid, kernel, cfg.seed))
        rows["series_err"].append(
            _series_error(problem, grid, kernel) if cfg.problem == "constant-coeff" else np.nan
        )
        if level == 0:
            report.add(
                "resolvent: defining identity residual",
                kernel.residuals["defining"],
                _tol(cfg, "resolvent", 1e-3),
            )
            report.add(
                "resolvent: transposed identity residual",
                kernel.residuals["transposed"],
                _tol(cfg, "resolvent", 1e-3),
            )
            if cfg.problem == "constant-coeff":
                report.add(
                    "resolvent: agreement with the constant-coefficient series",
                    rows["series_err"][-1],
                    _tol(cfg, "series", 1e-6),
                )
        else:
            report.add(
                "resolvent: defining residual decreases under grid doubling",
                prev["defining"] - kernel.residuals["defining"],
                0.0,
                larger_ok=True,
            )
            report.add(
                "resolvent: transposed residual decreases under grid doubling",
                prev["transposed"] - kernel.residuals["transposed"],
                0.0,
                larger_ok=True,
            )
        prev = kernel.residuals
    _write_csv(outdir / "convergence.csv", rows, cfg.config_hash())
    report.csv_paths = [outdir / "convergence.csv"]
    return report


def _varconst_deviation(problem, grid, kernel, seed) -> float:
    """Stepping vs resolvent-convolution solve of the same inhomogeneity."""
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(grid.n, problem.n_state))
    x_step = solve_state(problem, grid, xi)
    from .volterra import StateOperator

    ops = StateOperator(problem, grid)
    resolvent_matrix = np.linalg.inv(np.eye(grid.n * ops.dx) - ops.WA_flat) - np.eye(
        grid.n * ops.dx
    )
    x_conv = xi + (resolvent_matrix @ xi.ravel()).reshape(grid.n, ops.dx)
    omega = grid.trapezoid_weights()
    return _rel(omega, x_step - x_conv, x_step)


def _series_error(problem, grid, kernel) -> float:
    """Constant-coefficient check against the closed-form series at offsets >= 4h."""
    from scipy.special import gammaln

    a = float(np.asarray(problem.A(0.0, 0.0)).ravel()[0])
    beta = problem.beta
    worst = 0.0
    n = grid.n
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


def _run_fredholm_methods(cfg: RunConfig, outdir: Path) -> ScenarioReport:
    from .fredholm import (
        assemble_fredholm,
        solve_direct,
        solve_galerkin,
        solve_iterated_galerkin,
        solve_superconvergent,
    )

    report = ScenarioReport("fredholm-methods", cfg.problem)
    grid = build_grid(cfg.n, cfg.T, cfg.grid, cfg.grading_exponent)
    omega = grid.trapezoid_weights()
    trials = 20
    rows = {"trial": [], "err_galerkin": [], "err_iterated": [], "err_super": [], "ordered": []}
    ordered_count = 0
    sweep_rows = None
    for trial in range(trials):
        entry = get_problem(cfg.problem, cfg.beta, cfg.T, cfg.problem_seed + trial)
        dlq = assemble_quadratic_form(decompose(entry.problem, grid, None), entry.cost)
        sys0 = assemble_fredholm(dlq, 0)
        oracle = solve_direct(sys0)
        gal = solve_galerkin(sys0, cfg.galerkin_dim)
        it = solve_iterated_galerkin(sys0, gal)
        sup = solve_superconvergent(sys0, cfg.galerkin_dim, max(cfg.iterations, 2), oracle=oracle)
        wu = np.repeat(omega, dlq.du)

        def dist(k):
            return float(
                np.sqrt(np.einsum("i,ij,j->", wu, (k.flat() - oracle.flat()) ** 2, wu))
            )

        e_gal, e_it = dist(gal), dist(it)
        e_sup = sup.galerkin.error_history[min(2, len(sup.galerkin.error_history) - 1)]
        ordered = e_sup <= e_it <= e_gal
        ordered_count += ordered
        rows["trial"].append(trial)
        rows["err_galerkin"].append(e_gal)
        rows["err_iterated"].append(e_it)
        rows["err_super"].append(e_sup)
        rows["ordered"].append(float(ordered))
        if trial == 0:
            sweeps = solve_superconvergent(sys0, cfg.galerkin_dim, 3, oracle=oracle)
            sweep_rows = {
                "k": list(range(len(sweeps.galerkin.error_history))),
                "error": sweeps.galerkin.error_history,
            }
            floor = 1e-11 * max(1.0, float(np.abs(oracle.flat()).max()))
            hist = sweeps.galerkin.error_history
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
    cfg_hash = cfg.config_hash()
    _write_csv(outdir / "fredholm_methods.csv", rows, cfg_hash)
    _write_csv(outdir / "superconvergent_sweeps.csv", sweep_rows, cfg_hash)
    _write_residuals_csv(outdir, report, cfg_hash)
    report.csv_paths = [
        outdir / "fredholm_methods.csv",
        outdir / "superconvergent_sweeps.csv",
        outdir / "residuals.csv",
    ]
    return report


def _run_example_2_1(cfg: RunConfig, outdir: Path) -> ScenarioReport:
    report = ScenarioReport("example-2-1", "example-2-1")
    # control energy by plain quadrature on the graded mesh
    g_norm = build_grid(max(cfg.n, 4096), cfg.T, "graded", 4.5)
    u = example_2_1_control(g_norm.nodes, cfg.T)
    energy = float(g_norm.trapezoid_weights() @ u**2)
    reference = 1.0 / np.log(2.0)
    report.add(
        "control energy matches the closed form within 2%",
        abs(energy - reference) / reference,
        _tol(cfg, "energy", 0.02),
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
        _tol(cfg, "growth", 2.0),
        larger_ok=True,
    )
    spread = (max(terminal[0.75]) - min(terminal[0.75])) / terminal[0.75][0]
    report.add(
        "terminal state stable within 5% across doublings when beta = 0.75",
        spread,
        _tol(cfg, "stability", 0.05),
    )
    cfg_hash = cfg.config_hash()
    _write_csv(outdir / "norm.csv", {"n": [g_norm.n], "energy": [energy], "reference": [reference]}, cfg_hash)
    _write_csv(outdir / "example_2_1.csv", rows, cfg_hash)
    _write_residuals_csv(outdir, report, cfg_hash)
    report.csv_paths = [outdir / "norm.csv", outdir / "example_2_1.csv", outdir / "residuals.csv"]
    return report


def _run_reduction(cfg: RunConfig, outdir: Path) -> ScenarioReport:
    problem, cost, _ = _materialize(cfg)
    report = ScenarioReport("reduction", cfg.problem)
    grid = build_grid(cfg.n, cfg.T, cfg.grid, cfg.grading_exponent)
    omega = grid.trapezoid_weights()
    dec = decompose(problem, grid, None)
    dlq = assemble_quadratic_form(dec, cost)
    u_direct = solve_open_loop(dlq)
    x_bar = (dec.psi.ravel() + dec.ops.theta @ u_direct.ravel()).reshape(grid.n, -1)
    j_orig = evaluate_cost(dec.ops, dlq.cost_samples, u_direct)

    reduced = build_cross_term_reduction(dlq)
    v_opt = solve_open_loop(reduced.dlq)
    j_reduced = float(
        v_opt.ravel() @ reduced.dlq.lam @ v_opt.ravel()
        + 2.0 * reduced.dlq.rhs @ v_opt.ravel()
        + reduced.dlq.lam0
    )
    report.add(
        "optimal values agree after the constant-offset correction",
        abs(j_orig - (j_reduced - reduced.value_offset)) / (1.0 + abs(j_orig)),
        _tol(cfg, "value", 1e-8),
    )
    u_mapped = reduced.to_original_control(v_opt, x_bar)
    report.add(
        "optimal controls related by the substitution map",
        _rel(omega, u_mapped - u_direct, u_direct),
        _tol(cfg, "map", 1e-6),
    )

    v_bar = reduced.to_reduced_control(u_direct, x_bar)
    traj = causal_trajectories(reduced.dlq.dec, v_bar)
    u_general = general_causal_control(
        reduced, traj, x_bar,
        method=cfg.m_solver,
        subspace_dim=cfg.galerkin_dim if cfg.m_solver != "direct" else None,
        iterations=cfg.iterations,
    )
    report.add(
        "control: general causal representation vs direct solve",
        _rel(omega, u_general - u_direct, u_direct),
        _tol(cfg, "general", 1e-6),
    )
    report.add(
        "coercivity: smallest generalized eigenvalue over delta",
        min(_coercivity_ratio(dlq), _coercivity_ratio(reduced.dlq)),
        1.0 - 1e-6,
        larger_ok=True,
    )
    cfg_hash = cfg.config_hash()
    controls = {"t": grid.nodes}
    for name, u in (("direct", u_direct), ("mapped", u_mapped), ("general", u_general)):
        for c in range(u.shape[1]):
            controls[f"u_{name}_{c}"] = u[:, c]
    _write_csv(outdir / "controls.csv", controls, cfg_hash)
    _write_csv(
        outdir / "reduction.csv",
        {
            "j_original": [j_orig],
            "j_reduced": [j_reduced],
            "offset": [reduced.value_offset],
        },
        cfg_hash,
    )
    _write_residuals_csv(outdir, report, cfg_hash)
    report.csv_paths = [outdir / "controls.csv", outdir / "reduction.csv", outdir / "residuals.csv"]
    return report
