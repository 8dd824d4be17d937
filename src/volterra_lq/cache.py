"""Kernel persistence and the on-disk cache.

Kernel files are flat binary with a single ASCII header line documenting
the exact layout, e.g.

    volterra-kernel v1 n=64 beta=0.75 d1=2 d2=2 res_def=1e-4 res_tr=2e-4 layout=row-major-float64-le C-then-D

followed by the raw row-major float64 little-endian bytes of the singular
coefficient table and then the regular part.  Feedback-gain kernels use
the analogous header with sigma index and method tag.  The cache directory
defaults to ~/.cache/volterra-lq and is overridden by the
VOLTERRA_LQ_CACHE environment variable.

Files are written to a temporary name in the target directory and moved
into place, so a reader never sees a partial file.  A cached kernel whose
header or length is wrong counts as a miss and is recomputed.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import KernelFileError
from .grids import Grid
from .volterra import FactoredKernel, ProblemData, resolvent
from .fredholm import FeedbackKernel

__all__ = [
    "save_factored_kernel",
    "load_factored_kernel",
    "save_feedback_kernel",
    "load_feedback_kernel",
    "cache_dir",
    "cached_resolvent",
    "clear_cache",
]

_EXT = ".vker"
_MAGIC = "volterra-kernel v1 "


def cache_dir(override: str | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get("VOLTERRA_LQ_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "volterra-lq"


def save_factored_kernel(path, kernel: FactoredKernel):
    C = np.ascontiguousarray(kernel.singular_coeff, dtype="<f8")
    D = np.ascontiguousarray(kernel.regular_part, dtype="<f8")
    n, _, d1, d2 = C.shape
    res = kernel.residuals or {}
    header = (
        f"{_MAGIC}n={n} beta={kernel.beta!r} d1={d1} d2={d2} "
        f"res_def={res.get('defining', float('nan'))!r} "
        f"res_tr={res.get('transposed', float('nan'))!r} "
        f"layout=row-major-float64-le C-then-D\n"
    )
    _write_atomic(path, header, C, D)


def load_factored_kernel(path) -> FactoredKernel:
    """Read a kernel file; KernelFileError when its header or length is wrong."""
    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    try:
        text = header.decode("ascii")
        if not text.startswith(_MAGIC):
            raise ValueError("header magic missing")
        fields = dict(tok.split("=", 1) for tok in text.split() if "=" in tok)
        n, d1, d2 = int(fields["n"]), int(fields["d1"]), int(fields["d2"])
        if min(n, d1, d2) < 1:
            raise ValueError("nonpositive table dimension")
        beta = float(fields["beta"])
        residuals = {
            "defining": float(fields["res_def"]),
            "transposed": float(fields["res_tr"]),
        }
    except (KeyError, ValueError) as exc:
        raise KernelFileError(f"{path}: not a volterra-kernel v1 file ({exc})") from None
    expected = 2 * n * n * d1 * d2 * 8
    if len(body) != expected:
        raise KernelFileError(
            f"{path}: expected {expected} data bytes after the header, found {len(body)}"
        )
    C, D = np.frombuffer(body, dtype="<f8").reshape(2, n, n, d1, d2)
    kernel = FactoredKernel(singular_coeff=C.copy(), regular_part=D.copy(), beta=beta)
    kernel.residuals = residuals
    return kernel


def save_feedback_kernel(path, kernel: FeedbackKernel):
    M = np.ascontiguousarray(kernel.M, dtype="<f8")
    n, _, du, _ = M.shape
    header = (
        f"feedback-kernel v1 n={n} beta={kernel.beta!r} du={du} "
        f"sigma={kernel.sigma_index} method={kernel.method} "
        f"residual={kernel.residual!r} layout=row-major-float64-le\n"
    )
    _write_atomic(path, header, M)


def _write_atomic(path, header: str, *tables: np.ndarray):
    """Write header and tables to a temporary file, then move it onto path."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header.encode())
            for table in tables:
                fh.write(table.tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_feedback_kernel(path) -> FeedbackKernel:
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        fields = dict(tok.split("=", 1) for tok in header.split() if "=" in tok)
        n = int(fields["n"])
        du = int(fields["du"])
        M = np.frombuffer(fh.read(n * n * du * du * 8), dtype="<f8").reshape(
            n, n, du, du
        )
    return FeedbackKernel(
        M=M.copy(),
        method=fields["method"],
        sigma_index=int(fields["sigma"]),
        beta=float(fields["beta"]),
        residual=float(fields["residual"]),
    )


def _grid_key(grid: Grid) -> str:
    return f"n{grid.n}-{grid.kind}" + (
        f"-r{grid.exponent:.6g}" if grid.exponent else ""
    )


def cached_resolvent(
    problem: ProblemData,
    grid: Grid,
    problem_key: str,
    directory: str | None = None,
) -> FactoredKernel:
    """Resolvent with a file cache keyed by (problem key, grid, beta)."""
    d = cache_dir(directory)
    d.mkdir(parents=True, exist_ok=True)
    raw = f"{problem_key}|{_grid_key(grid)}|beta{problem.beta:.12g}"
    digest = hashlib.sha256(raw.encode()).hexdigest()[:24]
    path = d / f"resolvent-{digest}{_EXT}"
    if path.exists():
        try:
            return load_factored_kernel(path)
        except KernelFileError:
            pass  # damaged or foreign file: a miss, overwritten below
    kernel = resolvent(problem, grid)
    save_factored_kernel(path, kernel)
    return kernel


def clear_cache(directory: str | None = None) -> int:
    """Remove cached kernel files; returns the number of files removed."""
    d = cache_dir(directory)
    if not d.is_dir():
        return 0
    removed = 0
    for p in d.glob(f"*{_EXT}"):
        p.unlink()
        removed += 1
    return removed
