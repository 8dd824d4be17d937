from dataclasses import replace

import numpy as np
import pytest

import volterra_lq as vlq
from volterra_lq.cache import (
    cached_resolvent,
    clear_cache,
    load_factored_kernel,
    save_factored_kernel,
)
from volterra_lq.catalog import get_problem
from volterra_lq.cli import main
from volterra_lq.errors import KernelFileError


def test_factored_kernel_round_trip(tmp_path):
    entry = get_problem("random-smooth", 0.75, 1.0, seed=8)
    grid = vlq.build_grid(24, 1.0)
    kernel = vlq.resolvent(vlq.StateOperator(entry.problem, grid))
    path = tmp_path / "k.vker"
    save_factored_kernel(path, kernel)
    loaded = load_factored_kernel(path)
    assert np.array_equal(loaded.singular_coeff, kernel.singular_coeff)
    assert np.array_equal(loaded.regular_part, kernel.regular_part)
    assert loaded.beta == kernel.beta
    assert loaded.residuals == kernel.residuals
    assert np.isfinite(kernel.coeff_bound) and loaded.coeff_bound == kernel.coeff_bound
    header = path.read_bytes().split(b"\n", 1)[0].decode()
    assert "volterra-kernel v1" in header
    assert "n=24" in header


def test_kernel_file_is_the_header_then_the_raw_tables(tmp_path):
    # the tables' buffers go to disk as they lie in memory, C then D
    entry = get_problem("random-smooth", 0.75, 1.0, seed=8)
    kernel = vlq.resolvent(vlq.StateOperator(entry.problem, vlq.build_grid(24, 1.0, "graded")))
    path = tmp_path / "k.vker"
    save_factored_kernel(path, kernel)
    header, data = path.read_bytes().split(b"\n", 1)
    assert header.startswith(b"volterra-kernel v1 n=24 ")
    assert data == kernel.singular_coeff.tobytes() + kernel.regular_part.tobytes()


def test_cached_resolvent_hits_disk_once(tmp_path):
    entry = get_problem("constant-coeff", 0.75, 1.0)
    grid = vlq.build_grid(24, 1.0)
    ops = vlq.StateOperator(entry.problem, grid)
    k1 = cached_resolvent(ops, str(tmp_path))
    files = list(tmp_path.glob("*.vker"))
    assert len(files) == 1
    stamp = files[0].stat().st_mtime_ns
    k2 = cached_resolvent(ops, str(tmp_path))
    assert files[0].stat().st_mtime_ns == stamp
    assert np.array_equal(k1.regular_part, k2.regular_part)
    # a hit carries the fresh kernel's coefficient bound, not the default inf
    assert np.isfinite(k1.coeff_bound) and k2.coeff_bound == k1.coeff_bound
    # a different grid gets its own entry
    cached_resolvent(vlq.StateOperator(entry.problem, vlq.build_grid(12, 1.0)), str(tmp_path))
    assert len(list(tmp_path.glob("*.vker"))) == 2
    assert clear_cache(str(tmp_path)) == 2


def test_cache_key_covers_the_state_kernel(tmp_path):
    # same catalog name, seed, grid and beta; only A differs, as it would
    # after a change to the catalog builder
    entry = get_problem("constant-coeff", 0.75, 1.0)
    grid = vlq.build_grid(16, 1.0)
    other = vlq.StateOperator(
        replace(entry.problem, A=lambda t, s: 0.5 * entry.problem.A(t, s)), grid
    )
    k1 = cached_resolvent(vlq.StateOperator(entry.problem, grid), str(tmp_path))
    k2 = cached_resolvent(other, str(tmp_path))
    assert len(list(tmp_path.glob("*.vker"))) == 2
    assert not np.array_equal(k1.singular_coeff, k2.singular_coeff)
    assert np.array_equal(k2.singular_coeff, vlq.resolvent(other).singular_coeff)


@pytest.mark.parametrize("kind", ["uniform", "graded"])
def test_regular_part_vanishes_on_and_above_the_diagonal(tmp_path, kind):
    # the lower-endpoint row weighs every target alike, which is exact only
    # because D(t_i, s_l) = 0 for l >= i: fresh, read back, and in Psi
    entry = get_problem("random-smooth", 0.75, 1.0, seed=7)
    ops = vlq.StateOperator(entry.problem, vlq.build_grid(17, 1.0, kind))
    fresh = cached_resolvent(ops, str(tmp_path))
    read = cached_resolvent(ops, str(tmp_path))
    on_or_above = np.arange(ops.n)[:, None] <= np.arange(ops.n)
    for kernel in (fresh, read, vlq.control_kernel(ops, read)):
        assert np.any(kernel.regular_part != 0.0)
        assert np.all(kernel.regular_part[on_or_above] == 0.0)


def test_kernel_of_another_grid_is_a_miss(tmp_path):
    # a well-formed file of another n, d1 x d2 or beta under this key is
    # recomputed and overwritten, not handed to the caller
    entry = get_problem("random-smooth", 0.75, 1.0, seed=3)
    grid = vlq.build_grid(17, 1.0)
    ops = vlq.StateOperator(entry.problem, grid)
    good = cached_resolvent(ops, str(tmp_path))
    (path,) = tmp_path.glob("*.vker")
    good_bytes = path.read_bytes()
    foreign = (
        vlq.StateOperator(entry.problem, vlq.build_grid(9, 1.0)),
        vlq.StateOperator(get_problem("constant-coeff", 0.75, 1.0).problem, grid),
        vlq.StateOperator(replace(entry.problem, beta=0.6), grid),
    )
    for other in foreign:
        save_factored_kernel(path, vlq.resolvent(other))
        kernel = cached_resolvent(ops, str(tmp_path))
        assert np.array_equal(kernel.singular_coeff, good.singular_coeff)
        assert np.array_equal(kernel.regular_part, good.regular_part)
        assert kernel.beta == good.beta
        assert path.read_bytes() == good_bytes
    # the same through the CLI: the coarse level's file under the fine one's key
    cache = tmp_path / "cli-cache"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem = random-smooth(3)\nscenario = convergence\nn = 9\n"
        f"outdir = {tmp_path / 'out'}\ncache_dir = {cache}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    tables = [tmp_path / "out" / name for name in ("convergence.csv", "residuals.csv")]
    first = [path.read_bytes() for path in tables]
    small, large = sorted(cache.glob("*.vker"), key=lambda f: f.stat().st_size)
    large_bytes = large.read_bytes()
    large.write_bytes(small.read_bytes())
    assert main(["run", "--config", str(cfg)]) == 0
    assert large.read_bytes() == large_bytes
    assert [path.read_bytes() for path in tables] == first


@pytest.mark.parametrize("kind", ["uniform", "graded"])
def test_zero_state_kernel_convergence_run(tmp_path, kind):
    # no A: the series alone gives the zero kernel with zero residuals and
    # coefficient bound 1, on both levels; two runs into two caches write
    # the same tables and the same kernel files
    runs = []
    for run in ("a", "b"):
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text(
            f"problem = inline\nscenario = convergence\ngrid = {kind}\nn = 17\n"
            f"B = 1.0\nphi = 1.0\noutdir = {tmp_path / run}\n"
            f"cache_dir = {tmp_path / run / 'cache'}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        files = sorted((tmp_path / run / "cache").glob("*.vker"))
        assert len(files) == 2
        for path in files:
            kernel = load_factored_kernel(path)
            assert np.all(kernel.singular_coeff == 0.0)
            assert np.all(kernel.regular_part == 0.0)
            assert kernel.residuals == {"defining": 0.0, "transposed": 0.0}
            assert kernel.coeff_bound == 1.0
        rows = (tmp_path / run / "convergence.csv").read_text().splitlines()[2:]
        assert [r.split(",")[1:4] for r in rows] == [["0", "0", "0"]] * 2
        tables = [tmp_path / run / name for name in ("convergence.csv", "residuals.csv")]
        runs.append([path.read_bytes() for path in tables + files])
    assert runs[0] == runs[1]
    # a third run into the first cache hits both zero kernels: same tables
    text = (tmp_path / "a.cfg").read_text()
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text.replace(f"outdir = {tmp_path / 'a'}\n", f"outdir = {tmp_path / 'c'}\n"))
    assert main(["run", "--config", str(cfg)]) == 0
    hit = [tmp_path / "c" / name for name in ("convergence.csv", "residuals.csv")]
    assert [path.read_bytes() for path in hit] == runs[0][:2]


def _damage(data: bytes, how: str) -> bytes:
    head = data.index(b"\n") + 1
    half = (len(data) - head) // 16 * 8
    if how == "truncated-odd":
        return data[: head + half + 3]
    if how == "truncated-even":
        return data[: head + half]
    if how == "padded":
        return data + bytes(8)
    # same fields and length under another format's magic
    return data.replace(b"volterra-kernel v1 ", b"some-other-format v1 ", 1)


@pytest.mark.parametrize("how", ["truncated-odd", "truncated-even", "padded", "foreign-header"])
def test_damaged_cache_file_is_a_miss(tmp_path, how):
    cache = tmp_path / "cache"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem = random-smooth(3)\nscenario = convergence\nn = 9\n"
        f"outdir = {tmp_path / 'out'}\ncache_dir = {cache}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    files = sorted(cache.glob("*.vker"))
    good = files[0].read_bytes()
    files[0].write_bytes(_damage(good, how))
    with pytest.raises(KernelFileError):
        load_factored_kernel(files[0])
    assert main(["run", "--config", str(cfg)]) == 0
    assert files[0].read_bytes() == good
    load_factored_kernel(files[0])
    assert sorted(p.name for p in cache.iterdir()) == [p.name for p in files]
