"""Memory ledger: the traced peak of one scenario job, in dense (n du) x (n du) tables.

Each job runs in-process under tracemalloc after one untraced run of the
same configuration, so the weight memo and the imports are already in
place and the peak counts the job's own arrays.  One unit is one float64
table of the gain equation's size, 8 (n du)^2 bytes.
"""

import tracemalloc

import pytest

from volterra_lq import RunConfig, run_scenario
from volterra_lq import scenarios

# (scenario, problem, seed, solver, subspace) -> {n: traced peak in tables}.  A
# reduction that kept the original problem's tables through the gain family
# peaked at 26.6 and 23.8 tables, and an equivalence job that built the direct
# gain rows at 12.3 and 11.8.
LEDGER = {
    ("reduction", "cross-term", 5, "superconvergent", 8): {32: 17.2, 64: 16.0},
    ("equivalence", "random-smooth", 7, "direct", 16): {32: 11.3, 64: 10.8},
}
MARGIN = 0.5  # tables either way: interpreter and library overheads, not a table


def traced_peak(cfg) -> int:
    """Bytes above the starting point at the traced peak of one run of cfg."""
    run_scenario(cfg)  # fills the weight memo of this grid
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert run_scenario(cfg).passed
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("job", list(LEDGER), ids=lambda job: job[0])
def test_traced_peak_matches_the_ledger(tmp_path, job, n):
    scenario, problem, seed, solver, q = job
    cfg = RunConfig(
        problem=problem, problem_seed=seed, scenario=scenario, n=n, m_solver=solver,
        galerkin_dim=q, outdir=str(tmp_path),
    )
    tables = traced_peak(cfg) / (8.0 * (2 * n) ** 2)  # du = 2 on both problems
    assert abs(tables - LEDGER[job][n]) <= MARGIN, f"{tables:.2f} tables"


def test_reduction_coercivity_reads_both_forms(tmp_path, monkeypatch):
    # the original form's ratio is taken before its tables are dropped, and
    # the check still reads the smaller of the original and the reduced one
    name = "coercivity: smallest generalized eigenvalue over delta"
    cfg = RunConfig(problem="cross-term", problem_seed=5, scenario="reduction", n=16,
                    outdir=str(tmp_path))
    ratio = scenarios._coercivity_ratio
    forms = []

    def recording(dlq):
        forms.append(dlq.cost_samples.has_cross_terms)
        return ratio(dlq)

    monkeypatch.setattr(scenarios, "_coercivity_ratio", recording)
    checks = {c.name: c.value for c in run_scenario(cfg).checks}
    assert sorted(forms) == [False, True]  # the reduced form and the original one
    for smaller in (True, False):
        # the form with cross terms (the original) reads 0.5 or 2, the other the opposite
        monkeypatch.setattr(
            scenarios, "_coercivity_ratio",
            lambda dlq, s=smaller: 0.5 if dlq.cost_samples.has_cross_terms == s else 2.0,
        )
        report = run_scenario(cfg)
        assert {c.name: c.value for c in report.checks}[name] == 0.5
        assert not report.passed
    assert checks[name] == min(ratio(dlq) for dlq in _both_forms(cfg))


def _both_forms(cfg):
    """The original assembled problem of cfg and its reduction's."""
    _, dlq, _, _ = scenarios._solved_lq(cfg)
    return dlq, scenarios.build_cross_term_reduction(dlq).dlq
