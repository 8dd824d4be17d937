"""Kernel persistence and the on-disk cache.

Kernel files are flat binary with a single ASCII header line documenting
the exact layout, e.g.

    volterra-kernel v1 n=64 beta=0.75 d1=2 d2=2 res_def=1e-4 res_tr=2e-4 bound=1.5 layout=row-major-float64-le C-then-D

followed by the raw row-major float64 little-endian bytes of the singular
coefficient table and then the regular part.  The cache directory
defaults to ~/.cache/volterra-lq and is overridden by the
VOLTERRA_LQ_CACHE environment variable.  A cached kernel is keyed by what
it is computed from: a key version, beta, the grid nodes and the sampled
state kernel A, read from the state operator as `ops.A_samples`; a miss
computes `resolvent(ops)` from the same operator.  The header keeps the
residuals and the coefficient bound, so a loaded kernel equals the fresh one.

Files are written to a temporary name in the target directory and moved
into place, so a reader never sees a partial file.  The loader checks the
magic, the header fields and the exact data length and raises
KernelFileError otherwise; a cached kernel that fails the check, or whose
shape or beta is not the operator's, counts as a miss and is recomputed.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import KernelFileError
from .volterra import FactoredKernel, StateOperator, resolvent

__all__ = [
    "save_factored_kernel",
    "load_factored_kernel",
    "cache_dir",
    "cached_resolvent",
    "clear_cache",
]

_EXT = ".vker"
_MAGIC = "volterra-kernel v1 "
# changes with the file format or the resolvent series, so that no kernel
# computed by another version is read back
_KEY_VERSION = "volterra-kernel v1 with bound; resolvent series v5"


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
        f"res_tr={res.get('transposed', float('nan'))!r} bound={float(kernel.coeff_bound)!r} "
        f"layout=row-major-float64-le C-then-D\n"
    )
    _write_atomic(path, header, C, D)


def load_factored_kernel(path) -> FactoredKernel:
    """Read a kernel file; KernelFileError when its header or length is wrong.

    A wrong magic, a missing or malformed field, or a data length other
    than the two tables' is rejected.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            text = header.decode("ascii")
            if not text.startswith(_MAGIC):
                raise ValueError("header magic missing")
            f = dict(tok.split("=", 1) for tok in text.split() if "=" in tok)
            shape = (2, int(f["n"]), int(f["n"]), int(f["d1"]), int(f["d2"]))
            beta = float(f["beta"])
            residuals = {"defining": float(f["res_def"]), "transposed": float(f["res_tr"])}
            bound = float(f["bound"])
            if min(shape) < 1:
                raise ValueError("nonpositive table dimension")
        except (KeyError, ValueError) as exc:
            raise KernelFileError(f"{path}: not a {_MAGIC.strip()} file ({exc})") from None
        expected = 8 * int(np.prod(shape))
        found = os.fstat(fh.fileno()).st_size - len(header)
        if found == expected:  # read straight into the tables: no bytes copy, no table copies
            tables = np.empty(shape, dtype="<f8")
            found = fh.readinto(tables.reshape(-1).view(np.uint8))
    if found != expected:
        raise KernelFileError(
            f"{path}: expected {expected} data bytes after the header, found {found}"
        )
    C, D = tables
    return FactoredKernel(
        singular_coeff=C, regular_part=D, beta=beta, coeff_bound=bound, residuals=residuals
    )


def _write_atomic(path, header: str, *tables: np.ndarray):
    """Write header and tables to a temporary file, then move it onto path.

    Each table must be C-contiguous: its buffer is written as it lies in
    memory, without a bytes copy.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header.encode())
            for table in tables:
                fh.write(table.data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cached_resolvent(ops: StateOperator, directory: str | None = None) -> FactoredKernel:
    """`resolvent(ops)` with a file cache keyed by beta, the nodes and the sampled A."""
    d = cache_dir(directory)
    d.mkdir(parents=True, exist_ok=True)
    A = ops.A_samples
    key = hashlib.sha256(f"{_KEY_VERSION}|beta={ops.beta!r}|A{A.shape}".encode())
    key.update(np.ascontiguousarray(ops.grid.nodes, dtype="<f8"))
    key.update(np.ascontiguousarray(A, dtype="<f8"))
    path = d / f"resolvent-{key.hexdigest()[:24]}{_EXT}"
    if path.exists():
        try:
            kernel = load_factored_kernel(path)
            if kernel.singular_coeff.shape == A.shape and kernel.beta == ops.beta:
                return kernel
        except KernelFileError:
            pass  # damaged, foreign or of another grid: a miss, overwritten below
    kernel = resolvent(ops)
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
