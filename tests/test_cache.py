import numpy as np
import pytest

import volterra_lq as vlq
from volterra_lq.cache import (
    cached_resolvent,
    clear_cache,
    load_factored_kernel,
    load_feedback_kernel,
    save_factored_kernel,
    save_feedback_kernel,
)
from volterra_lq.catalog import get_problem
from volterra_lq.cli import main
from volterra_lq.errors import KernelFileError
from volterra_lq.fredholm import FeedbackKernel


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


def test_feedback_kernel_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    kernel = FeedbackKernel(
        M=rng.normal(size=(6, 6, 2, 2)),
        method="direct",
        sigma_index=3,
        beta=0.8,
        residual=1.5e-12,
    )
    path = tmp_path / "m.vker"
    save_feedback_kernel(path, kernel)
    loaded = load_feedback_kernel(path)
    assert np.array_equal(loaded.M, kernel.M)
    assert loaded.method == "direct"
    assert loaded.sigma_index == 3
    assert loaded.beta == 0.8
    assert loaded.residual == kernel.residual


@pytest.mark.parametrize("how", ["cut-5", "cut-8", "padded-8", "foreign-magic"])
def test_damaged_gain_file_is_rejected(tmp_path, how):
    kernel = FeedbackKernel(
        M=np.ones((4, 4, 2, 2)), method="direct", sigma_index=1, beta=0.75, residual=0.0
    )
    path = tmp_path / "m.vker"
    save_feedback_kernel(path, kernel)
    data = path.read_bytes()
    damaged = {
        "cut-5": data[:-5],
        "cut-8": data[:-8],
        "padded-8": data + bytes(8),
        # same fields and length under the resolvent files' magic
        "foreign-magic": data.replace(b"feedback-kernel v1 ", b"volterra-kernel v1 ", 1),
    }[how]
    path.write_bytes(damaged)
    with pytest.raises(KernelFileError):
        load_feedback_kernel(path)


def test_cached_resolvent_hits_disk_once(tmp_path):
    entry = get_problem("constant-coeff", 0.75, 1.0)
    grid = vlq.build_grid(24, 1.0)
    k1 = cached_resolvent(entry.problem, grid, entry.cache_key, str(tmp_path))
    files = list(tmp_path.glob("*.vker"))
    assert len(files) == 1
    stamp = files[0].stat().st_mtime_ns
    k2 = cached_resolvent(entry.problem, grid, entry.cache_key, str(tmp_path))
    assert files[0].stat().st_mtime_ns == stamp
    assert np.array_equal(k1.regular_part, k2.regular_part)
    # a different grid gets its own entry
    cached_resolvent(entry.problem, vlq.build_grid(12, 1.0), entry.cache_key, str(tmp_path))
    assert len(list(tmp_path.glob("*.vker"))) == 2
    assert clear_cache(str(tmp_path)) == 2


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
