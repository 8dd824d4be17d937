"""Kernel persistence and the on-disk cache.

Kernel files are flat binary with a single ASCII header line documenting
the exact layout, e.g.

    volterra-kernel v3 n=64 beta=0.75 d1=2 d2=2 res_def=1e-4 res_tr=2e-4 bound=1.5
    crc32=5d1e0c7a layout=row-major-float64-le D

(one line, crc32 in hex) followed by the raw row-major float64
little-endian bytes of the regular part D alone, n*n*d1*d2*8 bytes.  The
cache directory defaults to ~/.cache/volterra-lq and is overridden by the
VOLTERRA_LQ_CACHE environment variable.  A cached kernel is keyed by what
it is computed from: a key version, beta, the grid nodes and the sampled
state kernel A, read from the state operator as `ops.A_samples`.  That A
is also the resolvent's singular coefficient, so no file stores it: a
loaded kernel shares the operator's table, and a miss computes
`resolvent(ops)`.  The header keeps the residuals and the coefficient
bound, so a loaded kernel equals the fresh one.

Files are written to a temporary name in the target directory and moved
into place, so a reader never sees a partial file.  The loader checks the
magic, the header fields, that n, d1 and d2 are the coefficient's, the
exact data length and the checksum of the data, and raises
KernelFileError otherwise; a cached kernel that fails the check, or whose
beta is not the operator's, counts as a miss and is recomputed.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zlib
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
_MAGIC = "volterra-kernel v3 "
# changes with the file format, the resolvent series or the kernels it refuses,
# so that no kernel computed by another version is read back
_KEY_VERSION = "volterra-kernel v3 D only, crc32; resolvent series v8"


def cache_dir(override: str | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get("VOLTERRA_LQ_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "volterra-lq"


def save_factored_kernel(path, kernel: FactoredKernel):
    """Write the header and D's buffer, no bytes copy, to a temporary file, then move it."""
    D = np.ascontiguousarray(kernel.regular_part, dtype="<f8")
    n, _, d1, d2 = D.shape
    res = kernel.residuals or {}
    header = (
        f"{_MAGIC}n={n} beta={kernel.beta!r} d1={d1} d2={d2} "
        f"res_def={res.get('defining', float('nan'))!r} "
        f"res_tr={res.get('transposed', float('nan'))!r} bound={float(kernel.coeff_bound)!r} "
        f"crc32={zlib.crc32(D.data):08x} layout=row-major-float64-le D\n"
    )
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header.encode())
            fh.write(D.data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_factored_kernel(path, singular_coeff: np.ndarray) -> FactoredKernel:
    """Read a kernel file whose singular coefficient is `singular_coeff`.

    The file holds the regular part only; the coefficient is the table the
    cache key pins, for a resolvent `ops.A_samples`, and the kernel keeps a
    read-only view of it.  KernelFileError when the magic is wrong, a field
    is missing or malformed, n, d1 or d2 is not the coefficient's, the
    data length is not the regular part's, or the data's CRC-32 is not the
    header's.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            text = header.decode("ascii")
            if not text.startswith(_MAGIC):
                raise ValueError("header magic missing")
            f = dict(tok.split("=", 1) for tok in text.split() if "=" in tok)
            shape = (int(f["n"]), int(f["n"]), int(f["d1"]), int(f["d2"]))
            beta = float(f["beta"])
            residuals = {"defining": float(f["res_def"]), "transposed": float(f["res_tr"])}
            bound = float(f["bound"])
            crc = int(f["crc32"], 16)
        except (KeyError, ValueError) as exc:
            raise KernelFileError(f"{path}: not a {_MAGIC.strip()} file ({exc})") from None
        if shape != singular_coeff.shape:
            raise KernelFileError(
                f"{path}: holds a kernel of n, d1, d2 = {shape[1:]}, "
                f"but its coefficient has {singular_coeff.shape[1:]}"
            )
        expected = 8 * int(np.prod(shape))
        found = os.fstat(fh.fileno()).st_size - len(header)
        if found == expected:  # read straight into the table: no bytes copy
            D = np.empty(shape, dtype="<f8")
            found = fh.readinto(D.reshape(-1).view(np.uint8))
    if found != expected:
        raise KernelFileError(
            f"{path}: expected {expected} data bytes after the header, found {found}"
        )
    if zlib.crc32(D.data) != crc:
        raise KernelFileError(f"{path}: data does not match the header's crc32")
    return FactoredKernel(singular_coeff, D, beta, coeff_bound=bound, residuals=residuals)


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
            kernel = load_factored_kernel(path, A)
            if kernel.beta == ops.beta:
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
