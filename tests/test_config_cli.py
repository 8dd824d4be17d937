import csv
import json
import sys

import numpy as np
import pytest

from volterra_lq import ConfigError, RunConfig, StateOperator, load_config, run_scenario
from volterra_lq import config, grids, volterra
from volterra_lq.cli import main
from volterra_lq.config import SCENARIOS


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_with_defaults(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            "problem = zero-cost\nbeta = 0.75\nT = 1\nn = 32\nscenario = equivalence\n",
        )
    )
    assert cfg.problem == "zero-cost"
    assert cfg.n == 32
    assert cfg.grid == "uniform"
    assert cfg.m_solver == "direct"
    assert cfg.galerkin_dim == 16
    assert cfg.seed == 0


def test_problem_selector_with_seed(tmp_path):
    cfg = load_config(
        write(tmp_path, "problem = random-smooth(42)\nscenario = equivalence\n")
    )
    assert cfg.problem == "random-smooth"
    assert cfg.problem_seed == 42


def test_comments_and_blank_lines(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            "# a comment\n\nproblem = zero-cost  # trailing comment\nscenario = equivalence\n",
        )
    )
    assert cfg.problem == "zero-cost"


def test_lq_scenario_rejects_small_beta(tmp_path, capsys):
    # random-smooth has a terminal weight, which needs X(T): the config
    # loads, and the run stops where the cost meets the grid, with exit 2
    path = write(
        tmp_path,
        f"problem = random-smooth(7)\nbeta = 0.5\nscenario = equivalence\nn = 16\n"
        f"outdir = {tmp_path / 'out'}\n",
    )
    assert load_config(path).beta == 0.5
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the terminal cost in G and g needs X(T)")
    assert "beta > 1/2; got beta = 0.5" in err
    assert "Traceback" not in err


def test_state_only_scenario_accepts_small_beta(tmp_path):
    cfg = load_config(
        write(tmp_path, "problem = example-2-1\nbeta = 0.4\nscenario = example-2-1\n")
    )
    assert cfg.beta == 0.4


@pytest.mark.parametrize("line", ["wibble = 3", "tol_adjoint = 1"])
def test_unknown_key_rejected_with_line_number(tmp_path, capsys, line):
    # a check's tolerance is fixed in code: no key loosens it
    key = line.split()[0]
    path = write(tmp_path, f"problem = zero-cost\n{line}\nscenario = equivalence\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line 2: unknown key {key!r}\n"


def test_malformed_matrix_row_names_key(tmp_path):
    with pytest.raises(ConfigError, match="'R'"):
        load_config(
            write(
                tmp_path,
                "problem = inline\nscenario = equivalence\nR = 1.0,oops\n",
            )
        )


def test_malformed_number_names_key_and_line(tmp_path):
    with pytest.raises(ConfigError, match="line 3"):
        load_config(
            write(tmp_path, "problem = zero-cost\nscenario = equivalence\nn = many\n")
        )


def test_unknown_scenario_lists_valid_names(tmp_path):
    with pytest.raises(ConfigError, match="equivalence"):
        load_config(write(tmp_path, "problem = zero-cost\nscenario = nonsense\n"))


def test_unknown_problem_lists_catalog(tmp_path):
    with pytest.raises(ConfigError, match="zero-cost"):
        load_config(write(tmp_path, "problem = mystery\nscenario = equivalence\n"))
    with pytest.raises(ConfigError, match="zero-cost"):
        run_scenario(RunConfig(problem="mystery", outdir=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


def test_inline_problem_runs(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            "problem = inline\nscenario = equivalence\nn = 16\n"
            "state_dim = 1\ncontrol_dim = 1\n"
            "A = 0.5\nB = 1.0\nphi = 1.0\nQ = 1.0\nR = 1.0\nG = 1.0\n"
            f"outdir = {tmp_path}/inline-run\n",
        )
    )
    report = run_scenario(cfg)
    assert report.passed


def test_cli_run_round_trip(tmp_path, capsys):
    cfg_path = write(
        tmp_path,
        "problem = zero-cost\nscenario = equivalence\nn = 16\n"
        f"outdir = {tmp_path}/out\n",
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out
    assert (tmp_path / "out" / "controls.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_listings(capsys):
    assert main(["list-problems"]) == 0
    assert "random-smooth" in capsys.readouterr().out
    assert main(["list-scenarios"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(SCENARIOS)


def test_cli_builds_its_parser_once_per_process(capsys):
    from volterra_lq import cli

    parser = cli._parser()
    assert main(["list-scenarios"]) == 0
    with pytest.raises(SystemExit) as info:  # argparse's usage error
        main(["no-such-command"])
    assert info.value.code == 2
    assert main(["list-scenarios"]) == 0
    assert cli._parser() is parser


def test_cli_reports_config_errors(tmp_path, capsys):
    cfg_path = write(tmp_path, "problem = zero-cost\nscenario = nonsense\n")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_reports_unreadable_config_file(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError, match="missing.cfg"):
        load_config(missing)
    assert main(["run", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing.cfg" in err
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"problem = zero\xff-cost\n")
    assert main(["run", "--config", str(binary)]) == 2
    assert "binary.cfg" in capsys.readouterr().err


def test_cli_reports_unwritable_outdir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    cfg_path = write(
        tmp_path,
        f"problem = zero-cost\nscenario = equivalence\nn = 16\noutdir = {blocker}/out\n",
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "fields,match",
    [
        (dict(n=8, m_solver="galerkin", galerkin_dim=16), "galerkin_dim"),
        (dict(problem_seed=-1), "field 'problem_seed': must be >= 0"),
        (dict(problem="inline", inline={"A": np.array([0.5, 0.2])}), "field 'A': got 2 entries"),
    ],
    ids=["galerkin-dim-above-n", "negative-problem-seed", "inline-wrong-size"],
)
def test_run_scenario_validates_configs_built_in_code(tmp_path, fields, match):
    cfg = RunConfig(scenario="equivalence", outdir=str(tmp_path / "out"), **fields)
    with pytest.raises(ConfigError, match=match):
        run_scenario(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,value",
    [
        ("beta", "nan"),
        ("T", "inf"),
        ("grading_exponent", "-inf"),
        ("R", "inf"),
        ("Q", "1, nan"),
        ("A", "nan"),
        ("B", "-inf"),
        ("phi", "inf"),
        ("G", "nan"),
    ],
)
def test_non_finite_values_name_their_field(tmp_path, capsys, key, value):
    base = (
        "problem = inline\nscenario = equivalence\nn = 16\nstate_dim = 1\n"
        "control_dim = 1\nA = 0.5\nB = 1.0\nphi = 1.0\nQ = 1.0\nR = 1.0\nG = 1.0\n"
        f"outdir = {tmp_path}/out\n"
    )
    match = f"field '{key}': must be finite"
    bad = write(tmp_path, base + f"{key} = {value}\n", name="bad.cfg")
    with pytest.raises(ConfigError, match=match):
        load_config(bad)
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {match}") and "Traceback" not in err
    # the same value set on a config built in code
    cfg = load_config(write(tmp_path, base))
    if key in cfg.inline:
        cfg.inline[key] = np.array([float(x) for x in value.split(",")])
    else:
        setattr(cfg, key, float(value))
    with pytest.raises(ConfigError, match=match):
        run_scenario(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra",
    [
        "T = 0\n",
        "T = -1\n",
        "m_solver = galerkin\ngalerkin_dim = 40\n",
        "m_solver = galerkin\ngalerkin_dim = 1\n",
        "scenario = fredholm-methods\nn = 8\n",
        "m_solver = superconvergent\niterations = -1\n",
        "grid = graded\ngrading_exponent = 40\n",
        "scenario = convergence\ngrid = graded\ngrading_exponent = 12\n",
        "problem = inline\nscenario = fredholm-methods\n",
        "problem = inline\nstate_dim = 0\nR = 1\n",
        "problem = inline\ncontrol_dim = 0\nQ = 1\n",
        "seed = -1\n",
        "problem = inline\nA = 0.5, 0.2\n",
        "problem = inline\nstate_dim = 2\nphi = 1.0\n",
        "problem = inline\ncontrol_dim = 2\nS = 1, 2, 3\n",
    ],
    ids=[
        "T-zero",
        "T-negative",
        "galerkin-dim-above-n",
        "galerkin-dim-1",
        "fredholm-methods-small-n",
        "negative-iterations",
        "colliding-graded-nodes",
        "colliding-refined-nodes",
        "inline-fredholm-methods",
        "zero-state-dim",
        "zero-control-dim",
        "negative-seed",
        "inline-A-wrong-size",
        "inline-phi-wrong-size",
        "inline-S-wrong-size",
    ],
)
def test_cli_rejects_out_of_range_parameters(tmp_path, capsys, extra):
    cfg_path = write(
        tmp_path,
        "problem = random-smooth(1)\nscenario = equivalence\nn = 24\n"
        f"outdir = {tmp_path}/out\n" + extra,
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_schema_lists_every_key_the_loader_accepts():
    # the docstring's Schema block and the one declaration name the same keys
    schema = config.__doc__.split("Schema", 1)[1].split("Unknown keys", 1)[0]
    names = [
        key
        for line in schema.splitlines()
        if line.startswith("    ") and not line.startswith("     ")
        for key in line.split()[0].split(",")
    ]
    assert names == list(config._SCALAR_KEYS) + list(config._INLINE_SHAPES)


def test_cli_reports_unexpected_errors_with_exit_3(tmp_path, capsys, monkeypatch):
    import volterra_lq.cli as cli

    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_scenario", broken)
    cfg_path = write(tmp_path, "problem = zero-cost\nscenario = equivalence\nn = 16\n")
    assert main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: boom" in err
    assert err.splitlines()[-1] == "internal error: RuntimeError: boom"
    assert sum(line.startswith("internal error:") for line in err.splitlines()) == 1


@pytest.mark.parametrize(
    "text",
    [
        "problem = random-smooth(1)\nscenario = equivalence\nn = 12\n",
        "problem = cross-term(5)\nscenario = reduction\nn = 12\n",
        "problem = random-smooth(3)\nscenario = convergence\nn = 9\n",
        "problem = random-smooth(100)\nscenario = fredholm-methods\nn = 12\ngalerkin_dim = 4\n",
        "problem = example-2-1\nscenario = example-2-1\n",
    ],
    ids=["equivalence", "reduction", "convergence", "fredholm-methods", "example-2-1"],
)
def test_report_lists_every_csv_and_residuals_match_checks(tmp_path, text):
    outdir = tmp_path / "out"
    cfg = load_config(
        write(tmp_path, text + f"outdir = {outdir}\ncache_dir = {tmp_path}/cache\n")
    )
    report = run_scenario(cfg)
    listed = json.loads((outdir / "report.json").read_text())["csv_paths"]
    assert sorted(listed) == sorted(str(p) for p in outdir.glob("*.csv"))
    assert listed == [str(outdir / name) for name in report.tables]
    assert listed[-1] == str(outdir / "residuals.csv")
    with open(outdir / "residuals.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0].startswith("# volterra-lq ")
    assert rows[1] == ["check", "value", "tolerance", "passed"]
    assert [
        (name, float(value), float(tolerance), passed == "1")
        for name, value, tolerance, passed in rows[2:]
    ] == [(c.name, c.value, c.tolerance, c.passed) for c in report.checks]


# a Galerkin gain whose projection error (2.2e-4) no fixed tolerance fits
GALERKIN_GRADED = (
    "problem = random-smooth(4)\nscenario = equivalence\ngrid = graded\nn = 64\n"
    "m_solver = galerkin\ngalerkin_dim = 12\n"
)


def test_galerkin_feedback_is_gated_by_what_the_method_promises(tmp_path, capsys):
    cfg_path = write(tmp_path, GALERKIN_GRADED + f"outdir = {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    distance = report["values"]["control: feedback-gain representation vs direct solve"]
    assert 1e-6 < distance < 1e-2
    gates = {c["name"]: c for c in report["checks"] if c["name"].startswith("gain method:")}
    assert sorted(gates) == [
        "gain method: galerkin distance to direct solve at q = 24 within q = 12",
        "gain method: iterated distance to direct solve within Galerkin's at q = 12",
    ]
    assert all(c["tolerance"] == distance for c in gates.values())
    assert "[value] control: feedback-gain representation vs direct solve" in capsys.readouterr().out


def test_galerkin_error_that_does_not_fall_fails_its_check(tmp_path, monkeypatch):
    import volterra_lq.scenarios as scenarios

    real = scenarios.representation_terms

    def coarser_at_2q(dlq, traj, **kwargs):
        if kwargs["subspace_dim"] == 24:
            kwargs["subspace_dim"] = 6
        return real(dlq, traj, **kwargs)

    monkeypatch.setattr(scenarios, "representation_terms", coarser_at_2q)
    cfg = load_config(write(tmp_path, GALERKIN_GRADED + f"outdir = {tmp_path}/out\n"))
    failed = [c.name for c in run_scenario(cfg).checks if not c.passed]
    assert failed == ["gain method: galerkin distance to direct solve at q = 24 within q = 12"]


def test_equivalence_solves_the_open_loop_once(tmp_path, monkeypatch):
    import volterra_lq.fredholm as fredholm
    import volterra_lq.lq as lq
    import volterra_lq.scenarios as scenarios

    calls = []
    solve = lq.solve_open_loop

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    for module in (lq, fredholm, scenarios):
        monkeypatch.setattr(module, "solve_open_loop", counting_solve)
    cfg = load_config(
        write(
            tmp_path,
            "problem = random-smooth(7)\nscenario = equivalence\nn = 24\n"
            f"outdir = {tmp_path}/out\n",
        )
    )
    assert run_scenario(cfg).passed
    assert len(calls) == 1


def test_equivalence_factors_the_form_once(tmp_path, monkeypatch):
    # both causal reconstructions and the direct gain family share one
    # reversed Cholesky and one triangular inverse
    import volterra_lq.lq as lq

    calls = {"cholesky": 0, "dtrtri": 0}

    def counting(name):
        real = getattr(lq, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(lq, name, counting(name))
    cfg = load_config(
        write(
            tmp_path,
            "problem = random-smooth(7)\nscenario = equivalence\nn = 24\n"
            f"m_solver = direct\noutdir = {tmp_path}/out\n",
        )
    )
    assert run_scenario(cfg).passed
    assert calls == {"cholesky": 1, "dtrtri": 1}


def test_direct_runs_ignore_an_unread_subspace_dimension(tmp_path):
    cfg = load_config(
        write(tmp_path, "problem = random-smooth(1)\nscenario = equivalence\nn = 8\n")
    )
    assert cfg.galerkin_dim > cfg.n


@pytest.mark.parametrize(
    "problem,scenario,builds",
    [("random-smooth(7)", "equivalence", 1), ("cross-term(5)", "reduction", 2)],
)
def test_one_operator_build_per_problem(tmp_path, monkeypatch, problem, scenario, builds):
    # one bundle per problem: reduction also builds the reduced problem's
    calls = []
    init = StateOperator.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StateOperator, "__init__", counting_init)
    cfg = load_config(
        write(
            tmp_path,
            f"problem = {problem}\nscenario = {scenario}\nn = 24\noutdir = {tmp_path}/out\n",
        )
    )
    assert run_scenario(cfg).passed
    assert len(calls) == builds


@pytest.mark.parametrize("kind", ["uniform", "graded"])
def test_cold_convergence_samples_and_weighs_once_per_grid(
    tmp_path, monkeypatch, weight_memo, kind
):
    # the two grids each build one state operator, which alone samples A and
    # forms the weights; B, which convergence never reads, is not sampled.  A
    # second cold run in the same process samples A again but reads both
    # weight tables from the memo, and writes the same bytes.
    counts = {}
    for original in (volterra.sample_kernel, grids.product_weights):
        name = original.__name__

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("volterra_lq"):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)

    def run(name):
        cfg = load_config(
            write(
                tmp_path,
                f"problem = random-smooth(3)\nscenario = convergence\ngrid = {kind}\nn = 17\n"
                f"outdir = {tmp_path}/{name}\ncache_dir = {tmp_path}/{name}-cache\n",
            )
        )
        assert run_scenario(cfg).passed
        files = sorted((tmp_path / f"{name}-cache").glob("*.vker"))
        files += sorted((tmp_path / name).glob("*.csv"))
        return {f.name: f.read_bytes() for f in files}

    first = run("first")
    assert sum(name.endswith(".vker") for name in first) == 2  # both grids missed
    assert counts == {"sample_kernel": 2, "product_weights": 2}
    assert run("second") == first
    assert counts == {"sample_kernel": 4, "product_weights": 2}


def test_cli_clear_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "resolvent-abc.vker").write_bytes(b"header\n")
    (cache / "keep.txt").write_text("not a kernel")
    assert main(["clear-cache", "--cache-dir", str(cache)]) == 0
    assert not (cache / "resolvent-abc.vker").exists()
    assert (cache / "keep.txt").exists()


def test_byte_identical_reruns(tmp_path):
    base = (
        "problem = random-smooth(42)\nscenario = equivalence\nn = 24\n"
    )
    cfg1 = load_config(write(tmp_path, base + f"outdir = {tmp_path}/a\n", "a.cfg"))
    cfg2 = load_config(write(tmp_path, base + f"outdir = {tmp_path}/b\n", "b.cfg"))
    run_scenario(cfg1)
    run_scenario(cfg2)
    for name in ("controls.csv", "state.csv", "residuals.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_fredholm_methods_builds_one_projection_per_trial(tmp_path, monkeypatch):
    # every error is read off one projection sweep; no whole-table
    # projection solver runs
    import volterra_lq.fredholm as fredholm

    def refuse(*args, **kwargs):
        raise AssertionError("whole-table projection solver called")

    for name in ("solve_galerkin", "solve_iterated_galerkin", "solve_superconvergent"):
        monkeypatch.setattr(fredholm, name, refuse)
    builds = []
    init = fredholm._Projection.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fredholm._Projection, "__init__", counting_init)
    cfg = load_config(
        write(
            tmp_path,
            "problem = random-smooth(100)\nscenario = fredholm-methods\nn = 24\n"
            f"galerkin_dim = 8\noutdir = {tmp_path}/out\n",
        )
    )
    assert run_scenario(cfg).passed
    assert len(builds) == 20


def test_fredholm_methods_on_graded_grid_reruns_byte_identically(tmp_path):
    base = (
        "problem = random-smooth(100)\nscenario = fredholm-methods\nn = 24\n"
        "galerkin_dim = 8\ngrid = graded\n"
    )
    for run in ("a", "b"):
        cfg = load_config(write(tmp_path, base + f"outdir = {tmp_path}/{run}\n", f"{run}.cfg"))
        report = run_scenario(cfg)
        assert report.checks and report.passed
    for name in ("fredholm_methods.csv", "superconvergent_sweeps.csv", "residuals.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_environment_cache_override(tmp_path, monkeypatch):
    from volterra_lq.cache import cache_dir

    monkeypatch.setenv("VOLTERRA_LQ_CACHE", str(tmp_path / "envcache"))
    assert cache_dir() == tmp_path / "envcache"
    assert cache_dir(str(tmp_path / "explicit")) == tmp_path / "explicit"
