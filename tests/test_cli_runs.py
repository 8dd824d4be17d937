"""Whole `volterra-lq run` invocations through `cli.main`, in process.

Each test writes its config files under `tmp_path`, runs them and compares
the files the runs leave behind: reruns must be byte-identical, and the
gate rows of `residuals.csv` must pass.
"""

import csv

import pytest

from volterra_lq import volterra
from volterra_lq.cli import main


def run_config(tmp_path, name, text):
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    return main(["run", "--config", str(path)])


def residual_row(outdir, check):
    """The (value, tolerance, passed) fields of one named residuals.csv row."""
    with open(outdir / "residuals.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and row[0] == check]
    assert len(rows) == 1, f"{check!r} appears {len(rows)} times"
    return rows[0][1:]


def test_uniform_resolvent_through_column_0_slices(tmp_path, monkeypatch, weight_memo):
    # n - 1 = 39 is not a power of two, so every column's weights are
    # slices of column 0's and not bit-equal to their own; the series gate
    # passes and a second run into the same cache reads back the same
    # bytes.  A third run into an empty cache computes the kernels again
    # from the pair weights the first run left in the process's memo, and
    # writes the same tables and kernel files.
    cache, fresh = tmp_path / "slice-cache", tmp_path / "fresh-cache"

    def run(name, cache_dir):
        text = (
            "problem = constant-coeff\nscenario = convergence\nn = 40\n"
            f"cache_dir = {cache_dir}\noutdir = {tmp_path / name}\n"
        )
        return run_config(tmp_path, name, text)

    assert run("slice-a", cache) == 0
    assert run("slice-b", cache) == 0
    computed = []
    pair_column = volterra._pair_column

    def counted(*args):
        computed.append(args)
        return pair_column(*args)

    monkeypatch.setattr(volterra, "_pair_column", counted)
    assert run("slice-c", fresh) == 0
    assert computed == []

    _, _, passed = residual_row(
        tmp_path / "slice-a", "resolvent: agreement with the constant-coefficient series"
    )
    assert passed == "1"
    for f in ("convergence.csv", "residuals.csv"):
        a = (tmp_path / "slice-a" / f).read_bytes()
        assert (tmp_path / "slice-b" / f).read_bytes() == a
        assert (tmp_path / "slice-c" / f).read_bytes() == a
    kernels = sorted(p.name for p in cache.glob("*.vker"))
    assert len(kernels) == 2
    assert sorted(p.name for p in fresh.glob("*.vker")) == kernels
    for name in kernels:
        assert (fresh / name).read_bytes() == (cache / name).read_bytes()


INLINE_LQ = (
    "problem = inline\nbeta = 0.4\nn = 32\nA = 0.5\nB = 1.0\nphi = 1.0\nQ = 1.0\nR = 1.0\n"
)


def passed_fields(outdir):
    """The passed field of every residuals.csv row."""
    with open(outdir / "residuals.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    return [row[-1] for row in rows[1:]]


def test_equivalence_without_terminal_weight_at_small_beta(tmp_path, capsys):
    # no G and no g: the cost never reads X(T), so beta = 0.4 runs through
    # the direct gain with every check passing
    out = tmp_path / "eq"
    text = INLINE_LQ + f"scenario = equivalence\noutdir = {out}\n"
    assert run_config(tmp_path, "eq", text) == 0
    assert passed_fields(out) == ["1"] * 7
    capsys.readouterr()
    # a terminal weight, or a projection gain, is refused with its reason
    for name, extra, reason in (
        ("eq-G", "G = 1.0\n", "the terminal cost in G needs X(T)"),
        ("eq-galerkin", "m_solver = galerkin\n", "projection gain solvers need"),
    ):
        assert run_config(tmp_path, name, text + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reason}")
        assert "beta > 1/2; got beta = 0.4" in err
        assert "Traceback" not in err


def test_singular_implicit_step_exits_2(tmp_path, capsys):
    # uniform grids share one diagonal weight, so A = 1 / w_11 makes every
    # implicit step I - w_ii A exactly singular: a numerical error (exit 2)
    # from the state operator, not non-finite states and a failed eigensolve
    from volterra_lq import build_grid, product_weights

    w11 = product_weights(build_grid(16, 1.0), 0.75)[1, 1]
    A = float(1.0 / w11)
    assert 1.0 - w11 * A == 0.0
    text = (
        f"problem = inline\nscenario = equivalence\nn = 16\nbeta = 0.75\nA = {A!r}\n"
        f"B = 1.0\nphi = 1.0\nQ = 1.0\nR = 1.0\nG = 1.0\noutdir = {tmp_path / 'out'}\n"
    )
    capsys.readouterr()
    assert run_config(tmp_path, "singular", text) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: implicit step singular at node 1;")
    assert "Traceback" not in err


def test_negative_control_weight_names_the_positive_floor(tmp_path, capsys):
    # delta defaults to min eig R = -1; the floor delta > 0 is what fails,
    # not R >= delta I, which holds
    text = (
        "problem = inline\nscenario = equivalence\nn = 16\nA = 0.5\nB = 1.0\nphi = 1.0\n"
        f"Q = 1.0\nR = -1\noutdir = {tmp_path / 'out'}\n"
    )
    capsys.readouterr()
    assert run_config(tmp_path, "negative-r", text) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: violated: R(t) >= delta I with delta > 0")
    assert "delta = -1" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "n,T", [(64, 0.1), (64, 0.5), (64, 1.0), (4096, 1.0), (4097, 1.0), (4096, 1.9), (4097, 1.9)]
)
def test_example_2_1_energy_gate_holds_off_the_unit_horizon(tmp_path, n, T):
    # the reference is -1/log(T/2); the log tail near s = T is closed form.
    # The energy grid has an odd node count for every n, and its 1/rho row
    # starts at the middle node T/2, where the control's support starts; an
    # odd n used to weigh the sample at T/2 over the segment left of it too
    # (2.17e-2 at n = 4097, T = 1.9).  At T = 1.9 the beta = 0.75 spread
    # gate still fails (ROADMAP item 1(d)), and it alone
    out = tmp_path / "out"
    text = f"problem = example-2-1\nscenario = example-2-1\nn = {n}\nT = {T}\noutdir = {out}\n"
    status = run_config(tmp_path, "example", text)
    value, _, passed = residual_row(out, "control energy matches the closed form within 2%")
    assert passed == "1" and float(value) <= 5e-4
    with open(out / "residuals.csv", newline="") as fh:
        failed = {row[0] for row in csv.reader(fh) if len(row) == 4 and row[3] == "0"}
    spread = "terminal state stable within 5% across doublings when beta = 0.75"
    assert failed == ({spread} if T == 1.9 else set())
    assert status == (1 if T == 1.9 else 0)


def test_example_2_1_refuses_a_node_count_its_energy_grid_cannot_hold(tmp_path, capsys):
    # n = 8193 nodes graded with exponent 4.5 round the last interior node to T
    out = tmp_path / "out"
    text = f"problem = example-2-1\nscenario = example-2-1\nn = 8193\noutdir = {out}\n"
    capsys.readouterr()
    assert run_config(tmp_path, "example", text) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field 'n': example-2-1's energy grid: grid nodes are not")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("T", [2, 10])
def test_example_2_1_refuses_a_horizon_without_square_integrable_control(tmp_path, capsys, T):
    # at T >= 2, log(T - s) vanishes at s = T - 1, inside [T/2, T)
    out = tmp_path / "out"
    text = f"problem = example-2-1\nscenario = example-2-1\nT = {T}\noutdir = {out}\n"
    capsys.readouterr()
    assert run_config(tmp_path, "example", text) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: field 'T': scenario 'example-2-1' needs T < 2, got {T:.1f}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("a", [-8.0, -3.0])
def test_cancelling_resolvent_series_exits_2(tmp_path, capsys, a):
    # a constant dissipative A = a: the alternating series levels grow to
    # 1.9e8 times max |D| at a = -8, whose D keeps about three digits, and
    # the series is refused; at a = -3 (82 times) the kernels are served
    # and the run reaches its checks
    text = (
        f"problem = inline\nscenario = convergence\nn = 17\nbeta = 0.75\nA = {a}\n"
        f"B = 1.0\nphi = 1.0\noutdir = {tmp_path / 'out'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    capsys.readouterr()
    code = run_config(tmp_path, "cancel", text)
    err = capsys.readouterr().err
    if a == -8.0:
        assert code == 2
        assert err.startswith("error: resolvent series cancels:")
        assert "|A| Gamma(beta) T^beta = 9.8 is too large" in err
        assert "Traceback" not in err
    else:
        assert code != 2 and "error" not in err
        check = "varconst: stepping vs resolvent solve decreases under grid doubling"
        assert residual_row(tmp_path / "out", check)[2] == "1"


@pytest.mark.parametrize(
    "params, error",
    [
        # the pair weights of level 102 carry 1000^102.9, past the largest double
        (
            "beta = 0.999\nT = 1000\nA = -3.91",
            "error: resolvent series level 102: the pair weights of order p + q = 102.9",
        ),
        # the level product itself overflows in its GEMM
        ("beta = 0.001\nT = 10\nA = 2.0", "error: resolvent series level 93 is not finite"),
    ],
    ids=["weights", "product"],
)
def test_overflowing_resolvent_series_exits_2(tmp_path, capsys, params, error):
    # long horizons: with warnings as errors, as here, the run still ends
    # in one typed error line and writes no kernel file
    text = (
        f"problem = inline\nscenario = convergence\nn = 17\n{params}\nB = 1.0\nphi = 1.0\n"
        f"outdir = {tmp_path / 'out'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    capsys.readouterr()
    assert run_config(tmp_path, "overflow", text) == 2
    err = capsys.readouterr().err
    assert err.startswith(error) and err.endswith(" is too large\n")
    assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err
    assert not list((tmp_path / "cache").glob("*.vker"))


@pytest.mark.parametrize("kind", ["uniform", "graded"])
def test_reduction_without_terminal_weight_at_small_beta(tmp_path, kind):
    # rho alone (S = 0) keeps the default delta = min eig R a valid floor
    out = tmp_path / "red"
    text = INLINE_LQ + f"scenario = reduction\ngrid = {kind}\nS = 0.0\nrho = 0.3\noutdir = {out}\n"
    assert run_config(tmp_path, "red", text) == 0
    assert passed_fields(out) == ["1"] * 4


@pytest.mark.parametrize(
    "text,tables,rows,kernels",
    [
        pytest.param(
            "problem = cross-term(5)\nscenario = reduction\nn = 24\n"
            "m_solver = superconvergent\ngalerkin_dim = 8\n",
            ["controls.csv"], {}, 0, id="reduction-superconvergent",
        ),
        # a Galerkin gain is gated by what the method promises: its error
        # falls when the subspace doubles and iterating does not raise it
        pytest.param(
            "problem = random-smooth(4)\nscenario = equivalence\ngrid = graded\nn = 64\n"
            "m_solver = galerkin\ngalerkin_dim = 12\n",
            ["controls.csv"], {}, 0, id="galerkin-graded",
        ),
        # the causal control reads no future control sample
        pytest.param(
            "problem = random-smooth(7)\nscenario = equivalence\nn = 64\nm_solver = direct\n",
            ["controls.csv"],
            {"non-anticipation: influence of future control samples": "0"},
            0, id="direct",
        ),
        # the adjoint control passes and the optimality probe reads exactly 0
        pytest.param(
            "problem = random-smooth(4)\nscenario = equivalence\ngrid = graded\nn = 64\n"
            "m_solver = direct\n",
            ["controls.csv"],
            {
                "control: adjoint-equation characterization vs direct solve": None,
                "optimality: worst seeded cost decrease at the optimizer": "0",
            },
            0, id="direct-graded",
        ),
        pytest.param(
            "problem = random-smooth(100)\nscenario = fredholm-methods\nn = 24\n"
            "galerkin_dim = 8\n",
            ["fredholm_methods.csv", "superconvergent_sweeps.csv"], {}, 0,
            id="fredholm-methods",
        ),
        # the first run misses the kernel cache and writes both grids'
        # kernels; the second hits it, writes none and reads the same bytes,
        # and the variation-of-constants check through them passes
        pytest.param(
            "problem = random-smooth(3)\nscenario = convergence\nn = 17\n",
            ["convergence.csv", "residuals.csv"],
            {"varconst: stepping vs resolvent solve decreases under grid doubling": None},
            2, id="convergence-cache",
        ),
    ],
)
def test_rerun_is_byte_identical(tmp_path, text, tables, rows, kernels):
    # rows maps a residuals.csv check to its exact value field, or None for
    # any value; each must pass.  kernels is the number of kernel files the
    # first run writes into an empty cache; the rerun writes none.
    cache = tmp_path / "cache"
    written = []
    for run in ("a", "b"):
        before = {p.name: p.stat().st_mtime_ns for p in cache.glob("*.vker")}
        config = text + f"cache_dir = {cache}\noutdir = {tmp_path / run}\n"
        assert run_config(tmp_path, run, config) == 0
        after = {p.name: p.stat().st_mtime_ns for p in cache.glob("*.vker")}
        written.append(len([k for k, t in after.items() if before.get(k) != t]))
    assert written == [kernels, 0]
    for f in tables:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    for check, expected in rows.items():
        value, _, passed = residual_row(tmp_path / "a", check)
        assert passed == "1"
        if expected is not None:
            assert value == expected
