"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a function or method under the name its caller binds
it to (for example ``awgnauth.simulate.normals``, the streams function as
``simulate`` sees it) with a wrapper that records a span: name, parent,
thread, start and end.  Spans are appended under a lock, kept in memory
and written out when the benchmark ends.  The package itself is never
edited; everything here is installed from outside at run time.

Parenting: a span's parent is the innermost open span on its own thread.
A span opened on a thread with no open span (a thread-pool worker) takes
the main thread's innermost open span as parent, which is the call that
started the pool (``estimate`` in this package).  Self time subtracts the
*union* of the children's intervals, so two worker threads running at
once are not subtracted twice.

Only the standard library is used, so the module can be imported by the
parent process and by the tests without numpy.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict[str, Any] = field(default_factory=dict)
    site: str = ""          # the wrapped call site, as given to wrap()

    @property
    def duration(self) -> float:
        return self.end - self.start


CountFn = Callable[[inspect.BoundArguments, Any], dict[str, Any]]


def resolve(path: str) -> tuple[Any, str]:
    """Split a dotted path into (owner object, attribute name), importing
    the longest module prefix: ``awgnauth.cli.subprocess.run`` gives the
    ``subprocess`` module bound in ``awgnauth.cli`` and ``"run"``."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        if not hasattr(owner, parts[-1]):
            raise AttributeError(f"{path}: no attribute {parts[-1]!r}")
        return owner, parts[-1]
    raise ModuleNotFoundError(f"{path}: no importable module prefix")


class Tracer:
    """Records spans around wrapped call sites; thread-safe."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.targets: dict[str, str] = {}     # path -> span name
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str, site: str = "") -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(threading.main_thread().ident, [])
                parent = main[-1] if main else None
            span = Span(next(self._ids), name, parent, tid, self.clock(),
                        site=site)
            stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        with self._lock:
            self._stacks[span.thread].remove(span.id)
            self.spans.append(span)

    # -- installation ----------------------------------------------------
    def wrap(self, path: str, name: str, count: CountFn | None = None) -> None:
        """Replace ``path`` by a recording wrapper under span ``name``.
        ``count`` maps (bound arguments, result) to counts stored on the
        span; it runs after the span closes, so it is not timed."""
        owner, attr = resolve(path)
        original = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        if isinstance(owner, type):
            fn = original          # plain function stored on the class
        signature = inspect.signature(fn) if count is not None else None
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, path)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.counts = count(signature.bind(*args, **kwargs), result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self.targets[path] = name

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def calls_by_target(self) -> dict[str, int]:
        calls = dict.fromkeys(self.targets, 0)
        for s in self.spans:
            if s.site in calls:
                calls[s.site] += 1
        return calls

    def dump(self) -> list[dict[str, Any]]:
        return [{"id": s.id, "name": s.name, "site": s.site,
                 "parent": s.parent, "thread": s.thread, "start": s.start,
                 "end": s.end, "counts": s.counts} for s in self.spans]


# -- arithmetic on recorded spans --------------------------------------------
def covered(intervals: Iterable[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_time(span: Span, kids: dict[int, list[Span]]) -> float:
    """Duration minus the part of it that child spans cover."""
    return span.duration - covered(
        ((c.start, c.end) for c in kids.get(span.id, [])), span.start, span.end)


def distinct_draws(draws: Iterable[tuple[Any, Any, int, int, int]]) -> int:
    """Distinct (seed, role, trial, coordinate) cells among draws given as
    (seed, role, start trial, trials, width); every draw covers
    coordinates 0..width-1 of its trials."""
    by_stream: dict[tuple[Any, Any], list[tuple[int, int, int]]] = {}
    for seed, role, t0, trials, width in draws:
        if trials > 0:
            by_stream.setdefault((seed, role), []).append((t0, t0 + trials, width))
    total = 0
    for rects in by_stream.values():
        edges = sorted({e for t0, t1, _ in rects for e in (t0, t1)})
        for a, b in zip(edges, edges[1:]):
            widest = max((w for t0, t1, w in rects if t0 <= a and b <= t1),
                         default=0)
            total += (b - a) * widest
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced workload execution.  Span names
    are those given to :meth:`Tracer.wrap` by the workload module."""
    kids = children(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def spans_of(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s.duration for s in spans_of(name))

    def self_total(name: str) -> float:
        return sum(self_time(s, kids) for s in spans_of(name))

    def count(name: str, key: str) -> int:
        return sum(int(s.counts.get(key, 0)) for s in spans_of(name))

    draws = [(s.counts["seed"], s.counts["role"], s.counts["start"],
              s.counts["trials"], s.counts["width"])
             for s in spans_of("streams.uniforms")]
    values = sum(d[3] * d[4] for d in draws)
    estimates = spans_of("simulate.estimate")
    est_wall = sum(s.duration for s in estimates)
    est_child = sum(c.duration for s in estimates for c in kids.get(s.id, []))
    block_rows = [s.counts["rows"] for s in spans_of("authcode.encode")]

    return {
        "streams.uniforms.s": total("streams.uniforms"),
        "streams.normals.self_s": self_total("streams.normals"),
        "streams.values": values,
        "streams.unique_frac": distinct_draws(draws) / values if values else 0.0,
        "adversary.attack.s": total("adversary.attack"),
        "adversary.attack.rows": count("adversary.attack", "rows"),
        "authcode.encode.s": total("authcode.encode"),
        "authcode.encode.rows": count("authcode.encode", "rows"),
        "authcode.detect.s": total("authcode.detect"),
        "authcode.detect.rows": count("authcode.detect", "rows"),
        "authcode.detect.groups": count("authcode.detect", "groups"),
        "authcode.inject.s": total("authcode.inject"),
        "authcode.inject.attempts": count("authcode.inject", "attempts"),
        "authcode.decimate.s": total("authcode.decimate"),
        "basecode.decode.s": total("basecode.decode"),
        "basecode.decode.rows": count("basecode.decode", "rows"),
        "basecode.decode.bytes": count("basecode.decode", "score_bytes"),
        "basecode.build.s": total("basecode.build"),
        "overlay.construct.self_s": self_total("overlay.construct"),
        "overlay.verify.s": total("overlay.verify"),
        "overlay.verify.calls": len(spans_of("overlay.verify")),
        "overlay.attempts": count("overlay.construct", "attempts"),
        "overlay.level_matrix.s": total("overlay.level_matrix"),
        "simulate.estimate.calls": len(estimates),
        "simulate.estimate.self_s": self_total("simulate.estimate"),
        "simulate.blocks": len(block_rows),
        "simulate.block_rows.p50": (statistics.median(block_rows)
                                    if block_rows else 0),
        "simulate.parallel_frac": est_child / est_wall if est_wall else 0.0,
        "cli.make_report.self_s": self_total("cli.make_report"),
        "cli.build_pipeline.calls": len(spans_of("cli.build_pipeline")),
        "cli.git_spawns": len(spans_of("cli.git")),
        "bounds.report.s": total("bounds.report"),
    }
