"""In-memory span recorder for the benchmark's traced run.

`Tracer.install()` wraps every public function of every module of the
package (the names in the module's `__all__`, or its non-underscore names
when it has none) and the `__init__` of every plain public class, so that
each call records a span: name, start, end, parent span and job id.

The package imports names into other modules (`from .volterra import
StateOperator`), so a wrapper is bound under every module-level name that
holds the original object, in every module of the package.  Imports made
inside a function body resolve at call time and pick the wrapper up from
the defining module.  Classes keep their identity: only their `__init__`
is replaced, so attribute access and isinstance checks are unchanged.

Spans stay in memory until the run ends.  The untraced run never imports
this module.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

__all__ = ["Tracer"]

# functions whose first argument is a kernel file: bytes moved per call
_FILE_COUNTERS = {
    "cache.load_factored_kernel": "cache.bytes_read",
    "cache.save_factored_kernel": "cache.bytes_written",
}


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return names


class Tracer:
    def __init__(self, package):
        self.package = package
        self.job = -1
        # (name, start, end, parent index or -1, job id), in call order
        self.spans = []
        self.file_bytes = []  # (job id, counter, bytes)
        self._open = []
        self._undo = []

    # -- installing the wrappers ------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (m is self.package or name.startswith(prefix))
        ]

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers = {}  # id(original) -> (original, wrapper)
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr in _public_names(module):
                obj = getattr(module, attr, None)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                label = f"{short}.{attr}"
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(label, obj))
                elif (
                    inspect.isclass(obj)
                    and "__init__" in vars(obj)
                    and not dataclasses.is_dataclass(obj)
                    and not issubclass(obj, BaseException)
                ):
                    init = vars(obj)["__init__"]
                    obj.__init__ = self._wrap(label, init)
                    self._undo.append((obj, "__init__", init))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._open
        counter = _FILE_COUNTERS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.job)
                if counter is not None:
                    path = args[0] if args else kwargs.get("path")
                    if path is not None and os.path.exists(path):
                        self.file_bytes.append((self.job, counter, os.path.getsize(path)))

        return wrapper

    # -- reading the spans back -------------------------------------------

    def job_profiles(self):
        """Per job: `{name}.calls`, `{name}.s` (self time) and byte counters.

        Self time is a span's duration minus the time its direct child
        spans cover.  A `cache.cached_resolvent` span counts as a miss when
        a `volterra.resolvent` span runs inside it, otherwise as a hit.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        missed = set()
        for name, _, _, parent, _ in spans:
            if name != "volterra.resolvent":
                continue
            while parent >= 0 and spans[parent][0] != "cache.cached_resolvent":
                parent = spans[parent][3]
            if parent >= 0:
                missed.add(parent)
        profiles = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, job) in enumerate(spans):
            prof = profiles[job]
            prof[f"{name}.calls"] += 1
            prof[f"{name}.s"] += (end - start) - child_time[i]
            if name == "cache.cached_resolvent":
                prof["cache.misses" if i in missed else "cache.hits"] += 1
        for job, counter, nbytes in self.file_bytes:
            profiles[job][counter] += nbytes
        return profiles

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                ) + "\n")
