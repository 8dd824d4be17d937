"""volterra-lq benchmark: scenario jobs through the CLI, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload lq-direct --seed 1 --seconds 15 --trace 0

Each job is one in-process `volterra-lq run --config FILE` on a config
generated from the seed (see workloads.py); the next job starts when the
previous one returns.  BLAS is pinned to one thread before numpy loads.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it alternates untraced and traced jobs over two configs
and reports the per-layer metrics from the spans (see spans.py), which it
writes to `.perfbench/spans-<workload>.jsonl`.  Every
job is checked: exit code, every check in report.json, CSVs byte-identical
to the first job of the same config in the run, and on kernel-warm no
cache file written.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  Scratch files live under `.perfbench/` in the repository
and are removed at exit.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, config_text, job_order  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
SETUP_REPEATS = 3
TRACED_CONFIGS = 2
# oracle errors are clamped here before taking log10, so an exact match stays finite
ORACLE_FLOOR = 1e-20


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_threads() -> dict:
    """Pin BLAS/OpenMP to one thread; returns the caller's original settings."""
    original = {k: os.environ.get(k) for k in PINNED}
    if "numpy" in sys.modules and any(v != "1" for v in original.values()):
        raise BenchError(f"numpy was loaded before threads were pinned: {original}")
    for k in PINNED:
        os.environ[k] = "1"
    return original


def import_package():
    if not (SRC / "volterra_lq" / "__init__.py").is_file():
        raise BenchError(f"no volterra_lq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import volterra_lq
    from volterra_lq import cli

    if Path(volterra_lq.__file__).resolve().parent != SRC / "volterra_lq":
        raise BenchError(f"imported volterra_lq from {volterra_lq.__file__}, not {SRC}")
    return volterra_lq, cli


def provenance(seed: int, original_threads: dict) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "volterra_lq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {k: os.environ.get(k) for k in PINNED},
        "threads_before_pinning": original_threads,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def cache_snapshot(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    return {
        e.name: (e.stat().st_size, e.stat().st_mtime_ns, e.inode())
        for e in os.scandir(directory)
    }


class Run:
    """One benchmark run: set-up, the measured closed loop, and the checks."""

    def __init__(self, workload, seed, tiny, workdir, cli):
        self.work = workload
        self.order = job_order(workload, seed)
        self.tiny = tiny
        self.workdir = workdir
        self.cli = cli
        self.jobs = []
        self.csv_refs = {}  # (problem seed, n) -> {csv name: bytes}

    # -- jobs ---------------------------------------------------------------

    def job(self, problem_seed, cache_dir=None, traced=False, expect_hit=False, small=False):
        """Run one job; its checks happen later, in verify().

        With `expect_hit`, any change to the cache directory's files during
        the job marks it as a cache miss.  With `small`, the job runs at the
        workload's tiny grid size.
        """
        n = self.work.tiny_n if self.tiny or small else self.work.n
        jobdir = self.workdir / f"job{len(self.jobs)}"
        jobdir.mkdir()
        if cache_dir is None:  # cold and cache-free workloads: empty cache per job
            cache_dir = jobdir / "cache"
        cfg = jobdir / "run.cfg"
        cfg.write_text(
            config_text(self.work, problem_seed, n, jobdir / "out", cache_dir)
        )
        record = {
            "index": len(self.jobs), "seed": problem_seed, "n": n, "dir": jobdir,
            "traced": traced, "rc": None, "error": None,
        }
        before = cache_snapshot(cache_dir) if expect_hit else None
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                record["rc"] = self.cli.main(["run", "--config", str(cfg)])
        except SystemExit as exc:
            record["rc"] = exc.code
        except Exception as exc:  # a job that raises is a failed job, not a crash
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - start
        record["output"] = out.getvalue()
        record["cache_written"] = expect_hit and cache_snapshot(cache_dir) != before
        self.jobs.append(record)
        return record

    def setup(self):
        """One set-up: the warm-up job(s); on kernel-warm, fill a fresh cache."""
        if self.work.warm:
            cache = self.workdir / f"cache{len(self.jobs)}"
            for problem_seed in self.order:
                self.job(problem_seed, cache_dir=cache)
            return cache
        self.job(self.order[0], small=self.work.small_warmup)
        return None

    def timed_loop(self, seconds, warm_cache):
        """Jobs back to back; none starts that would likely end after `seconds`."""
        jobs = []
        start = time.perf_counter()
        while not jobs or (
            time.perf_counter() - start + median([j["seconds"] for j in jobs]) <= seconds
        ):
            problem_seed = self.order[len(jobs) % len(self.order)]
            jobs.append(self.job(problem_seed, warm_cache, expect_hit=bool(warm_cache)))
        return jobs, time.perf_counter() - start

    def traced_loop(self, seconds, warm_cache, tracer):
        """Whole cycles over the first configs, each job untraced then traced.

        Whole cycles keep the per-job medians, and so the counts, identical
        between runs with the same seed however many cycles fit.
        """
        first = len(self.jobs)
        start = cycle_start = time.perf_counter()
        cycle = 0.0
        while len(self.jobs) == first or cycle_start - start + cycle <= seconds:
            for problem_seed in self.order[:TRACED_CONFIGS]:
                self.job(problem_seed, warm_cache, expect_hit=bool(warm_cache))
                tracer.job = len(self.jobs)  # the index of the next job
                tracer.install()
                try:
                    self.job(problem_seed, warm_cache, traced=True, expect_hit=bool(warm_cache))
                finally:
                    tracer.uninstall()
            cycle = time.perf_counter() - cycle_start
            cycle_start += cycle
        return self.jobs[first:]

    # -- checks -------------------------------------------------------------

    def verify(self, record):
        """Fill record['ok'], ['why'], ['oracle'] and ['csv_bytes']."""
        record.update(ok=False, oracle=None, csv_bytes=0)
        if record["error"] or record["rc"] != 0:
            record["why"] = record["error"] or f"exit code {record['rc']}"
            return
        try:
            report = json.loads((record["dir"] / "out" / "report.json").read_text())
            csvs = {Path(p).name: Path(p).read_bytes() for p in report["csv_paths"]}
        except (OSError, ValueError, KeyError) as exc:
            record["why"] = f"unreadable report or CSV: {exc}"
            return
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        oracle = [c["value"] for c in report["checks"] if self.work.oracle_check(c["name"])]
        ref = self.csv_refs.setdefault((record["seed"], record["n"]), csvs)
        if not report["passed"] or failing:
            record["why"] = f"failed checks: {failing}"
        elif not oracle:
            record["why"] = "report has no oracle comparison check"
        elif csvs != ref:
            record["why"] = "CSVs differ from an earlier job of the same config"
        elif record["cache_written"]:
            record["why"] = "cache miss: a kernel file was written during a warm job"
        else:
            record.update(ok=True, why="", oracle=max(max(oracle), ORACLE_FLOOR))
        record["csv_bytes"] = sum(len(b) for b in csvs.values())


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setup_s, jobs, wall):
    passed = [j for j in jobs if j["ok"]]
    errors = [j["oracle"] for j in passed]
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(passed) / wall,
        "oracle_digits": median([-math.log10(e) for e in errors]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {
        "job_s.p50": median([j["seconds"] for j in passed or jobs]),
        "failed_frac": (len(jobs) - len(passed)) / len(jobs),
        "oracle_err_log10": math.log10(max(errors)) if errors else 0.0,
    }


def per_layer(names, jobs, tracer):
    profiles = tracer.job_profiles()
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not j["traced"]]
    rows = []
    for j in traced:
        prof = dict(profiles.get(j["index"], {}))
        lookups = prof.get("cache.hits", 0) + prof.get("cache.misses", 0)
        prof["cache.hit_ratio"] = prof.get("cache.hits", 0) / lookups if lookups else 0.0
        prof["scenarios.csv_bytes"] = j["csv_bytes"]
        rows.append(prof)
    values = {name: median([row.get(name, 0) for row in rows]) for name in names}
    values["trace.overhead_frac"] = (
        median([j["seconds"] for j in traced]) / median([j["seconds"] for j in plain]) - 1.0
    )
    return values


def print_table(rows):
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:>14.6g} {unit:8s} {note}")


def run(args, spec, original_threads):
    volterra_lq, cli = import_package()
    work = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{work.name}-", dir=scratch))
    try:
        bench = Run(work, args.seed, args.tiny, workdir, cli)
        before_setup = time.perf_counter() - T_START
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            warm_cache = bench.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = before_setup + statistics.median(setup_times)
        setup_jobs = list(bench.jobs)

        if args.trace:
            from spans import Tracer

            tracer = Tracer(volterra_lq)
            jobs = bench.traced_loop(args.seconds, warm_cache, tracer)
            wall = None
        else:
            jobs, wall = bench.timed_loop(args.seconds, warm_cache)
        for record in bench.jobs:
            bench.verify(record)
        env = provenance(args.seed, original_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_ok = all(j["ok"] for j in setup_jobs)
    failed = [j for j in jobs if not j["ok"]]
    bad = [j for j in setup_jobs if not j["ok"]] + failed
    for j in bad:
        print(f"perfbench: job on {work.family}({j['seed']}) failed: {j['why']}", file=sys.stderr)
    if bad:
        print(bad[0]["output"][-2000:], file=sys.stderr)

    print(f"workload {work.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  problem seeds {bench.order}")
    if args.trace:
        section = spec["per_layer"]
        values = per_layer([m["name"] for m in section], jobs, tracer)
        tracer.write(ROOT / ".perfbench" / f"spans-{work.name}.jsonl")
        note = f"median of {sum(j['traced'] for j in jobs)} traced jobs"
        print_table([(m["name"], values[m["name"]], m["unit"], note) for m in section])
    else:
        section = spec["end_to_end"]
        values, extra = end_to_end(setup_s, jobs, wall)
        n = len(jobs)
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups, plus imports",
            "jobs_per_s": f"{n - len(failed)} passing jobs in {wall:.3f} s",
            "oracle_digits": f"median over {n} jobs of -log10(job's worst oracle error)",
            "peak_rss_mb": "whole process",
        }
        print_table([(m["name"], values[m["name"]], m["unit"], notes[m["name"]]) for m in section])
        print_table([
            ("job_s.p50", extra["job_s.p50"], "s", f"median of {n} jobs"),
            ("failed_frac", extra["failed_frac"], "ratio", f"{len(failed)} of {n} jobs"),
            ("oracle_err_log10", extra["oracle_err_log10"], "log10", f"worst over {n} jobs"),
        ])
    print("# provenance " + json.dumps(env, sort_keys=True))
    return {
        "correct": setup_ok and not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small grids, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    try:
        original_threads = pin_threads()
        os.environ.pop("VOLTERRA_LQ_CACHE", None)
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            raise BenchError(f"missing {spec_path}")
        result = run(args, json.loads(spec_path.read_text()), original_threads)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
