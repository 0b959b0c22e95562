"""In-memory span tracing of the morseshed modules, installed from outside.

`install(tracer)` replaces each traced public function at every module
attribute that names it (``morseshed.watershed.minima`` as well as
``morseshed.stacks.minima``) and the traced methods on their classes, so
callers that look a name up at call time reach the wrapper.  Nothing under
``src/`` is edited.  The hot leaf helpers ``proper_subfaces``, ``face_key``
and ``make_face`` are deliberately not wrapped: they run millions of times
per job and a wrapper would dominate what it measures.

A span is ``(name, start, end, parent, job)``; spans stay in memory until
the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

ROOT_SPAN = "job"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a job's root span
    job: int


def _nbytes(obj) -> int:
    """Bytes of the numpy arrays held by obj: computed from array sizes,
    not a measurement of memory traffic."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, tuple):
        return sum(_nbytes(x) for x in obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name)) for f in fields(obj))
    return 0


def _bytes_in(args, kwargs, result) -> int:
    return len(args[0].encode()) if args and isinstance(args[0], str) else 0


def _bytes_out(args, kwargs, result) -> int:
    return len(result.encode()) if isinstance(result, str) else 0


def _array_bytes(args, kwargs, result) -> int:
    return _nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(result)


# (module, attribute or Class.method, span name, counter name, counter)
TARGETS = [
    ("io", "parse_stack", "io.parse_stack", "io.bytes_in", _bytes_in),
    ("io", "serialize_labels", "io.serialize_labels", "io.bytes_out", _bytes_out),
    ("complexes", "Complex.__init__", "complexes.Complex_init", None, None),
    ("complexes", "closure", "complexes.closure", None, None),
    ("complexes", "Complex.packed", "complexes.packed", None, None),
    ("complexes", "connected_components", "complexes.connected_components", None, None),
    ("stacks", "minima", "stacks.minima", None, None),
    ("stacks", "validate_stack", "stacks.validate_stack", None, None),
    ("stacks", "Stack.alt_array", "stacks.alt_array", None, None),
    ("stacks", "ultimate_d_collapse", "stacks.ultimate_d_collapse", None, None),
    ("morse", "is_morse", "morse.is_morse", None, None),
    ("_kernels", "flat_matching_offender", "kernels.flat_matching_offender",
     "kernels.array_bytes", _array_bytes),
    ("_kernels", "top_adjacency", "kernels.top_adjacency", "kernels.array_bytes", _array_bytes),
    ("_kernels", "minimum_facets", "kernels.minimum_facets", "kernels.array_bytes", _array_bytes),
    ("_kernels", "flood", "kernels.flood", "kernels.array_bytes", _array_bytes),
    ("watershed", "morse_watershed", "watershed.morse_watershed", None, None),
    ("watershed", "watershed_collapse", "watershed.watershed_collapse", None, None),
    ("watershed", "verify_cut", "watershed.verify_cut", None, None),
    ("watershed", "verify_drop_of_water", "watershed.verify_drop_of_water", None, None),
    ("forest", "verify_msf_theorem", "forest.verify_msf_theorem", None, None),
    ("forest", "build_facet_graph", "forest.build_facet_graph", None, None),
    ("forest", "watershed_forest", "forest.watershed_forest", None, None),
    ("cli", "main", "cli.main", None, None),
]


class Tracer:
    """Collects spans and per-job counters for one benchmark phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self.job = -1

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job: int) -> None:
        self.job = job
        self._enter(ROOT_SPAN)

    def end_job(self) -> None:
        self._exit(self._stack[0])

    def wrap(self, name, fn, counter_name=None, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if counter is not None:
                tracer.counters[tracer.job][counter_name] += counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job]) + "\n")


def _lookup(mod_name: str, attr: str):
    """(owner, key, function) for a target, or None when the program has
    no such function (a later version may remove or rename it)."""
    owner = sys.modules.get(f"morseshed.{mod_name}")
    *path, key = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = vars(owner).get(key) if owner is not None else None
    return (owner, key, fn) if callable(fn) else None


def install(tracer: Tracer):
    """Wrap every target.  Returns a function that restores the originals,
    and the targets the program does not have."""
    undo, missing = [], []
    package = [m for n, m in sys.modules.items() if n == "morseshed" or n.startswith("morseshed.")]
    for mod_name, attr, span, counter_name, counter in TARGETS:
        found = _lookup(mod_name, attr)
        if found is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        owner, key, original = found
        if isinstance(owner, type):
            setattr(owner, key, tracer.wrap(span, original, counter_name, counter))
            undo.append((owner, key, original))
            continue
        wrapper = tracer.wrap(span, original, counter_name, counter)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore, missing


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its direct children cover.
    Calls are sequential in one thread, so children never overlap."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def check_tree(spans: list[Span], tol: float = 1e-9) -> list[str]:
    """Problems with the span tree: a span outside its parent, a parent
    from another job, or self times that do not sum to the job span."""
    problems = []
    roots = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if s.parent < 0:
            if s.name != ROOT_SPAN:
                problems.append(f"span {i} {s.name} has no parent")
            roots[s.job] = i
            continue
        p = spans[s.parent]
        if p.job != s.job:
            problems.append(f"span {i} {s.name} and its parent belong to different jobs")
        if s.start < p.start or s.end > p.end:
            problems.append(f"span {i} {s.name} lies outside its parent {p.name}")
    selfs = self_times(spans)
    per_job: dict[int, float] = defaultdict(float)
    for s, t in zip(spans, selfs):
        per_job[s.job] += t
    for job, i in roots.items():
        root = spans[i]
        if abs(per_job[job] - (root.end - root.start)) > tol:
            problems.append(f"job {job}: self times do not sum to its duration")
    return problems


def layer_totals(tracer: Tracer, scale: list[float]) -> tuple[dict[str, float], dict[str, int], int]:
    """Self time per span name, each job's spans multiplied by scale[job],
    the call count per span name, and the job count."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    jobs = set()
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        self_s[s.name] += t * scale[s.job]
        calls[s.name] += 1
        jobs.add(s.job)
    return self_s, calls, len(jobs)
