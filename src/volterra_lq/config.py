"""Run configuration: flat key = value files.

Schema (all keys optional unless noted; '#' starts a comment):

    problem           catalog selector, e.g. random-smooth(42) or inline  [required]
    scenario          equivalence | convergence | fredholm-methods |
                      example-2-1 | reduction                             [required]
    beta              singularity order in (0, 1); LQ scenarios need > 1/2
    T                 horizon (default 1.0)
    n                 grid size (default 64)
    grid              uniform | graded (default uniform)
    grading_exponent  >= 1 (default 2.0)
    m_solver          direct | galerkin | iterated | superconvergent
    galerkin_dim      projection subspace dimension (default 16)
    iterations        superconvergent sweep count (default 2)
    outdir            output directory (default runs)
    seed              seed for randomized coefficients and probes (default 0)
    cache_dir         kernel cache override
    state_dim         state dimension for inline problems
    control_dim       control dimension for inline problems
    tol_<name>        tolerance overrides for scenario checks
    A,B,Q,S,R,G,q,g,rho,phi   inline constant coefficients, row-major
                      comma-separated (problem = inline only)

Unknown keys are rejected.  The same configuration always produces
byte-identical CSV output.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .catalog import problem_names
from .errors import ConfigError
from .grids import build_grid

__all__ = ["RunConfig", "load_config", "SCENARIOS", "STATE_ONLY_SCENARIOS"]

SCENARIOS = (
    "equivalence",
    "convergence",
    "fredholm-methods",
    "example-2-1",
    "reduction",
)
# scenarios that never evaluate X(T) inside a cost and accept any beta
STATE_ONLY_SCENARIOS = ("example-2-1", "convergence")

_SCALAR_KEYS = {
    "problem": str,
    "scenario": str,
    "beta": float,
    "T": float,
    "n": int,
    "grid": str,
    "grading_exponent": float,
    "m_solver": str,
    "galerkin_dim": int,
    "iterations": int,
    "outdir": str,
    "seed": int,
    "cache_dir": str,
    "state_dim": int,
    "control_dim": int,
}
_MATRIX_KEYS = ("A", "B", "Q", "S", "R", "G", "q", "g", "rho", "phi")


@dataclass
class RunConfig:
    problem: str = "random-smooth"
    problem_seed: int = 0
    scenario: str = "equivalence"
    beta: float = 0.75
    T: float = 1.0
    n: int = 64
    grid: str = "uniform"
    grading_exponent: float = 2.0
    m_solver: str = "direct"
    galerkin_dim: int = 16
    iterations: int = 2
    outdir: str = "runs"
    seed: int = 0
    cache_dir: str | None = None
    state_dim: int = 1
    control_dim: int = 1
    tolerances: dict = field(default_factory=dict)
    inline: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        """Digest of the semantic fields (output locations excluded)."""
        parts = []
        for k in sorted(_SCALAR_KEYS):
            if k in ("outdir", "cache_dir"):
                continue
            v = f"{self.problem}({self.problem_seed})" if k == "problem" else getattr(self, k)
            parts.append(f"{k}={v}")
        for k in sorted(self.tolerances):
            parts.append(f"tol_{k}={self.tolerances[k]!r}")
        for k in sorted(self.inline):
            parts.append(f"{k}={np.asarray(self.inline[k]).tolist()}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


_SELECTOR_RE = re.compile(r"^([a-z0-9-]+)(?:\((\d+)\))?$")


def _parse_selector(value: str, line: int):
    m = _SELECTOR_RE.match(value.strip())
    if not m:
        raise ConfigError(
            f"malformed problem selector {value!r}; expected name or name(seed)", line
        )
    return m.group(1), int(m.group(2)) if m.group(2) else None


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    cfg = RunConfig()
    seen_problem = False
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not text: {exc.reason}") from None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"expected key = value, got {text!r}", lineno)
        key, value = (part.strip() for part in text.split("=", 1))
        if key == "problem":
            name, seed = _parse_selector(value, lineno)
            cfg.problem = name
            if seed is not None:
                cfg.problem_seed = seed
            seen_problem = True
        elif key in _SCALAR_KEYS:
            try:
                setattr(cfg, key, _SCALAR_KEYS[key](value))
            except ValueError as exc:
                raise ConfigError(f"field {key!r}: {exc}", lineno) from None
        elif key.startswith("tol_"):
            try:
                cfg.tolerances[key[4:]] = float(value)
            except ValueError:
                raise ConfigError(f"field {key!r}: not a number: {value!r}", lineno) from None
        elif key in _MATRIX_KEYS:
            try:
                cfg.inline[key] = np.array(
                    [float(x) for x in value.replace(";", ",").split(",") if x.strip()]
                )
            except ValueError:
                raise ConfigError(
                    f"field {key!r}: malformed matrix row {value!r}", lineno
                ) from None
        else:
            raise ConfigError(f"unknown key {key!r}", lineno)
    if not seen_problem:
        raise ConfigError("missing required key 'problem'")
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    numbers = [(k, getattr(cfg, k)) for k, kind in _SCALAR_KEYS.items() if kind is float]
    numbers += [(f"tol_{k}", v) for k, v in cfg.tolerances.items()]
    numbers += list(cfg.inline.items())
    for key, value in numbers:
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"field {key!r}: must be finite, got {value}")
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; valid scenarios: {', '.join(SCENARIOS)}"
        )
    if cfg.problem != "inline" and cfg.problem not in problem_names():
        raise ConfigError(
            f"unknown catalog problem {cfg.problem!r}; valid names: "
            f"{', '.join(problem_names())}"
        )
    if not 0.0 < cfg.beta < 1.0:
        raise ConfigError(f"field 'beta': must lie in (0, 1), got {cfg.beta}")
    if cfg.scenario not in STATE_ONLY_SCENARIOS and not cfg.beta > 0.5:
        raise ConfigError(
            f"field 'beta': scenario {cfg.scenario!r} solves an LQ problem, whose "
            f"terminal cost needs the state continuous at T; this requires "
            f"beta > 0.5, got {cfg.beta}"
        )
    if not cfg.T > 0.0:
        raise ConfigError(f"field 'T': must be positive, got {cfg.T}")
    if cfg.n < 3:
        raise ConfigError(f"field 'n': grid needs at least 3 nodes, got {cfg.n}")
    if cfg.grid not in ("uniform", "graded"):
        raise ConfigError(f"field 'grid': unknown kind {cfg.grid!r}")
    if cfg.grid == "graded" and cfg.grading_exponent < 1.0:
        raise ConfigError("field 'grading_exponent': must be >= 1")
    # convergence also runs the once-refined grid, whose nodes include these
    n_finest = 2 * cfg.n - 1 if cfg.scenario == "convergence" else cfg.n
    try:
        build_grid(n_finest, cfg.T, cfg.grid, cfg.grading_exponent)
    except ValueError as exc:
        raise ConfigError(f"field 'grading_exponent': {exc}") from None
    if cfg.m_solver not in ("direct", "galerkin", "iterated", "superconvergent"):
        raise ConfigError(f"field 'm_solver': unknown solver {cfg.m_solver!r}")
    if cfg.iterations < 0:
        raise ConfigError(f"field 'iterations': must be >= 0, got {cfg.iterations}")
    reads_subspace = cfg.scenario == "fredholm-methods" or cfg.m_solver != "direct"
    if reads_subspace and not 2 <= cfg.galerkin_dim <= cfg.n:
        raise ConfigError(
            f"field 'galerkin_dim': must lie in [2, n = {cfg.n}], got {cfg.galerkin_dim}"
        )
    if cfg.problem == "inline" and cfg.scenario == "fredholm-methods":
        raise ConfigError(
            "field 'problem': scenario 'fredholm-methods' seeds its trials from "
            "the catalog and cannot run an inline problem"
        )
    for key in ("state_dim", "control_dim"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"field {key!r}: must be >= 1, got {getattr(cfg, key)}")
    if cfg.problem != "inline" and cfg.inline:
        raise ConfigError(
            "inline coefficient keys are only valid with problem = inline"
        )
