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
    kernel = vlq.resolvent(entry.problem, grid)
    path = tmp_path / "k.vker"
    save_factored_kernel(path, kernel)
    loaded = load_factored_kernel(path)
    assert np.array_equal(loaded.singular_coeff, kernel.singular_coeff)
    assert np.array_equal(loaded.regular_part, kernel.regular_part)
    assert loaded.beta == kernel.beta
    assert loaded.residuals == kernel.residuals
    header = path.read_bytes().split(b"\n", 1)[0].decode()
    assert "volterra-kernel v1" in header
    assert "n=24" in header


def test_cached_resolvent_hits_disk_once(tmp_path):
    entry = get_problem("constant-coeff", 0.75, 1.0)
    grid = vlq.build_grid(24, 1.0)
    k1 = cached_resolvent(entry.problem, grid, str(tmp_path))
    files = list(tmp_path.glob("*.vker"))
    assert len(files) == 1
    stamp = files[0].stat().st_mtime_ns
    k2 = cached_resolvent(entry.problem, grid, str(tmp_path))
    assert files[0].stat().st_mtime_ns == stamp
    assert np.array_equal(k1.regular_part, k2.regular_part)
    # a different grid gets its own entry
    cached_resolvent(entry.problem, vlq.build_grid(12, 1.0), str(tmp_path))
    assert len(list(tmp_path.glob("*.vker"))) == 2
    assert clear_cache(str(tmp_path)) == 2


def test_cache_key_covers_the_state_kernel(tmp_path):
    # same catalog name, seed, grid and beta; only A differs, as it would
    # after a change to the catalog builder
    entry = get_problem("constant-coeff", 0.75, 1.0)
    grid = vlq.build_grid(16, 1.0)
    other = replace(entry.problem, A=lambda t, s: 0.5 * entry.problem.A(t, s))
    k1 = cached_resolvent(entry.problem, grid, str(tmp_path))
    k2 = cached_resolvent(other, grid, str(tmp_path))
    assert len(list(tmp_path.glob("*.vker"))) == 2
    assert not np.array_equal(k1.singular_coeff, k2.singular_coeff)
    assert np.array_equal(k2.singular_coeff, vlq.resolvent(other, grid).singular_coeff)


def _damage(data: bytes, how: str) -> bytes:
    head = data.index(b"\n") + 1
    half = (len(data) - head) // 16 * 8
    if how == "truncated-odd":
        return data[: head + half + 3]
    if how == "truncated-even":
        return data[: head + half]
    # same fields and length under another format's magic
    return data.replace(b"volterra-kernel v1 ", b"some-other-format v1 ", 1)


@pytest.mark.parametrize("how", ["truncated-odd", "truncated-even", "foreign-header"])
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
