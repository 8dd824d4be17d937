import pytest

from volterra_lq import ConfigError, StateOperator, load_config, run_scenario
from volterra_lq.cli import main


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


def test_lq_scenario_rejects_small_beta(tmp_path):
    with pytest.raises(ConfigError, match="beta > 0.5"):
        load_config(
            write(tmp_path, "problem = zero-cost\nbeta = 0.5\nscenario = equivalence\n")
        )


def test_state_only_scenario_accepts_small_beta(tmp_path):
    cfg = load_config(
        write(tmp_path, "problem = example-2-1\nbeta = 0.4\nscenario = example-2-1\n")
    )
    assert cfg.beta == 0.4


def test_unknown_key_rejected_with_line_number(tmp_path):
    with pytest.raises(ConfigError, match="line 2"):
        load_config(
            write(tmp_path, "problem = zero-cost\nwibble = 3\nscenario = equivalence\n")
        )


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
    cfg = load_config(write(tmp_path, "problem = mystery\nscenario = equivalence\n"))
    with pytest.raises(ConfigError, match="zero-cost"):
        run_scenario(cfg)


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
    assert "fredholm-methods" in capsys.readouterr().out


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


def test_environment_cache_override(tmp_path, monkeypatch):
    from volterra_lq.cache import cache_dir

    monkeypatch.setenv("VOLTERRA_LQ_CACHE", str(tmp_path / "envcache"))
    assert cache_dir() == tmp_path / "envcache"
    assert cache_dir(str(tmp_path / "explicit")) == tmp_path / "explicit"
