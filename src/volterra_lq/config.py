"""Run configuration: flat key = value files.

Schema (all keys optional unless noted; '#' starts a comment):

    problem           catalog selector, e.g. random-smooth(42) or inline  [required]
    scenario          equivalence | convergence | fredholm-methods |
                      example-2-1 | reduction                             [required]
    beta              singularity order in (0, 1) (default 0.75); a terminal
                      weight G or g and the projection gain solvers need > 1/2
    T                 horizon (default 1.0)
    n                 grid size (default 64)
    grid              uniform | graded (default uniform)
    grading_exponent  >= 1 (default 2.0)
    m_solver          direct | galerkin | iterated | superconvergent
    galerkin_dim      projection subspace dimension (default 16)
    iterations        superconvergent sweep count (default 2)
    outdir            output directory (default runs)
    seed              seed for randomized coefficients and probes, >= 0 (default 0)
    cache_dir         kernel cache override
    state_dim         state dimension for inline problems
    control_dim       control dimension for inline problems
    A,B,Q,S,R,G,q,g,rho,phi   inline constant coefficients, row-major
                      comma-separated (problem = inline only); their sizes
                      follow state_dim and control_dim and are checked at load

Unknown keys are rejected.  Each scenario check's tolerance is fixed in
code and recorded in residuals.csv.  The same configuration always
produces byte-identical CSV output.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .catalog import problem_names
from .errors import ConfigError
from .grids import Grid, build_grid

__all__ = ["RunConfig", "load_config", "SCENARIOS"]

SCENARIOS = {
    "equivalence": "all control characterizations against the direct solve",
    "convergence": "resolvent identities under grid refinement",
    "fredholm-methods": "projection solvers for the gain kernel vs the dense oracle",
    "example-2-1": "terminal blow-up dichotomy and the closed-form control energy",
    "reduction": "cross-term elimination and the general causal representation",
}

# each inline coefficient's shape in state (x) and control (u) dimensions
_INLINE_SHAPES = dict(
    A="xx", B="xu", Q="xx", S="ux", R="uu", G="xx", q="x", g="x", rho="u", phi="x"
)


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
    inline: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        """Digest of the semantic fields (output locations excluded)."""
        parts = []
        for k in sorted(_SCALAR_KEYS):
            if k in ("outdir", "cache_dir"):
                continue
            v = f"{self.problem}({self.problem_seed})" if k == "problem" else getattr(self, k)
            parts.append(f"{k}={v}")
        for k in sorted(self.inline):
            parts.append(f"{k}={np.asarray(self.inline[k]).tolist()}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    def inline_shape(self, key: str) -> tuple:
        dims = {"x": self.state_dim, "u": self.control_dim}
        return tuple(dims[c] for c in _INLINE_SHAPES[key])


# the file's scalar keys and their parsers, read off the fields above; the
# selector sets problem_seed, and the inline keys are parsed as rows
_PARSERS = {"str": str, "int": int, "float": float, "str | None": str}
_SCALAR_KEYS = {
    f.name: _PARSERS[f.type] for f in fields(RunConfig) if f.name not in ("problem_seed", "inline")
}


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
        elif key in _INLINE_SHAPES:
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


def _energy_grid(n: int, T: float) -> Grid:
    """example-2-1's energy grid: graded and odd, so that its middle node is T/2 up to rounding."""
    return build_grid(max(n, 4096) | 1, T, "graded", 4.5)


def _validate(cfg: RunConfig):
    numbers = [(k, getattr(cfg, k)) for k, kind in _SCALAR_KEYS.items() if kind is float]
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
    if not cfg.T > 0.0:
        raise ConfigError(f"field 'T': must be positive, got {cfg.T}")
    if cfg.scenario == "example-2-1" and not cfg.T < 2.0:
        raise ConfigError(
            f"field 'T': scenario 'example-2-1' needs T < 2, got {cfg.T}; its control "
            "1/(sqrt(T-s) log(T-s)) is not square-integrable where log(T-s) = 0"
        )
    if cfg.n < 3:
        raise ConfigError(f"field 'n': grid needs at least 3 nodes, got {cfg.n}")
    if cfg.scenario == "example-2-1":
        try:
            _energy_grid(cfg.n, cfg.T)
        except ValueError as exc:
            raise ConfigError(f"field 'n': example-2-1's energy grid: {exc}") from None
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
    for key in ("iterations", "seed", "problem_seed"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"field {key!r}: must be >= 0, got {getattr(cfg, key)}")
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
    for key, value in cfg.inline.items():
        if key not in _INLINE_SHAPES:
            raise ConfigError(f"unknown key {key!r}")
        shape = cfg.inline_shape(key)
        if np.size(value) != np.prod(shape):
            raise ConfigError(f"field {key!r}: got {np.size(value)} entries for shape {shape}")
