"""Outside-in span tracing of the serving stack.

The benchmark does not edit the program to trace it.  Instead
:func:`install` swaps a timing wrapper in for each layer entry point
(a class attribute or a module global that the caller looks up at call
time), and :func:`uninstall` puts the originals back.  Each call opens a
span — name, start, end, parent span, query id — kept in memory in the
process that made it.

Shard workers are forked after :func:`install`, so they inherit the
wrappers.  The wrapper around the pool's worker loop clears the
inherited spans when a worker starts and writes the worker's spans to
``<run dir>/worker-<pid>.pkl`` when it exits (at service close); the
parent merges them with :func:`collect_workers`.  That wrapper is also
installed untraced (``spans_on=False``), where it only records the
worker's peak resident memory.

A span's *self* time is its duration minus its children's durations,
so within one process the self times of a span tree add up to its
root's duration; :mod:`layers` checks that the *reported* layers do,
which fails when a span inside the serve window has no metric.
"""

from __future__ import annotations

import functools
import os
import pickle
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import _pool
from repro.core import hybrid, two_phase
from repro.network.live import LiveNetwork
from repro.network.simulator import NetworkSimulator
from repro.network.walker import WalkCursor
from repro.service import backend, scheduler
from repro.service.service import QueryService

_now = time.perf_counter_ns  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """Spans of one process, as parallel lists."""

    def __init__(self) -> None:
        self.reset()
        self.enabled = False
        self.run_dir: Optional[Path] = None

    def reset(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.qids: List[int] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def open(self, name: str, qid: int = -1) -> int:
        index = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if qid < 0 and parent >= 0:
            qid = self.qids[parent]
        self.names.append(name)
        self.parents.append(parent)
        self.qids.append(qid)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(_now())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _now()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def table(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "qids": self.qids,
            "counts": self.counts,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }


RECORDER = Recorder()


def span(name: str, qid: int = -1):
    """Context manager for a span opened by the benchmark's client code."""
    return _Span(name, qid)


class _Span:
    __slots__ = ("name", "qid", "index")

    def __init__(self, name: str, qid: int) -> None:
        self.name = name
        self.qid = qid

    def __enter__(self) -> "_Span":
        self.index = RECORDER.open(self.name, self.qid) if RECORDER.enabled else -1
        return self

    def __exit__(self, *exc: object) -> None:
        if self.index >= 0:
            RECORDER.close(self.index)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

Hook = Callable[[tuple, Any], None]


def _timed(name: str, original: Callable, qid_of=None, after: Optional[Hook] = None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        if not rec.enabled:
            return original(*args, **kwargs)
        index = rec.open(name, qid_of(args) if qid_of else -1)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _timed_steps(name: str, original: Callable):
    """Wrap a method returning a stepwise generator: time every resume."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        steps = original(*args, **kwargs)
        if not RECORDER.enabled:
            return steps
        return _resume_timed(name, steps)

    return wrapper


def _resume_timed(name: str, steps):
    try:
        value = None
        while True:
            index = RECORDER.open(name)
            try:
                checkpoint = steps.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                RECORDER.close(index)
            value = yield checkpoint
    finally:
        steps.close()


def _worker_main(original: Callable, spans_on: bool):
    @functools.wraps(original)
    def wrapper(index, handler, inbox, outbox):
        RECORDER.reset()
        RECORDER.enabled = spans_on
        try:
            original(index, handler, inbox, outbox)
        finally:
            RECORDER.enabled = False
            path = RECORDER.run_dir / f"worker-{os.getpid()}.pkl"
            with open(path, "wb") as handle:
                pickle.dump(RECORDER.table(), handle, pickle.HIGHEST_PROTOCOL)

    return wrapper


def _qid_job(args: tuple) -> int:
    job = args[-1]
    return getattr(job, "query_id", -1)


def _qid_task(args: tuple) -> int:
    return args[0].ticket.query_id


def _count_visit(args: tuple, result: Any) -> None:
    RECORDER.count("simulator.visit_batch.peers", len(args[1]))


def _count_take(args: tuple, result: Any) -> None:
    RECORDER.count("walker.take.selections", len(result.peers))
    RECORDER.count("walker.take.hops", result.hops)


def _count_export(args: tuple, result: Any) -> None:
    RECORDER.count("shm.export.bytes", result.manifest.nbytes)


def _submitted_qid(args: tuple, result: Any) -> None:
    # The id is assigned inside submit; stamp it on the span just closed.
    index = len(RECORDER.names) - 1
    while RECORDER.names[index] != "service.submit":
        index -= 1
    RECORDER.qids[index] = result.query_id


def _targets(spans_on: bool) -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
    """(owner, attribute, wrapper factory) for every traced entry point."""
    def timed(name, qid_of=None, after=None):
        return lambda original: _timed(name, original, qid_of, after)

    targets = [(_pool, "_worker_main", lambda o: _worker_main(o, spans_on))]
    if not spans_on:
        return targets
    return targets + [
        (NetworkSimulator, "session", timed("simulator.session")),
        (NetworkSimulator, "visit_aggregate_batch", timed("simulator.visit_batch", after=_count_visit)),
        (NetworkSimulator, "walk_hops", timed("simulator.walk_hops")),
        (WalkCursor, "take", timed("walker.take", after=_count_take)),
        (hybrid.PlanCache, "lookup", timed("hybrid.plan_lookup")),
        (hybrid.HybridEngine, "run_stepwise", lambda o: _timed_steps("hybrid.step", o)),
        (two_phase, "analyze_phase_one", timed("planner.analyze")),
        (two_phase, "observations_from_replies", timed("estimators.observations")),
        (hybrid, "observations_from_replies", timed("estimators.observations")),
        (two_phase.TwoPhaseEngine, "_final_estimate", timed("estimators.final_estimate")),
        (scheduler, "advance_task", timed("scheduler.advance", _qid_task)),
        (backend, "advance_task", timed("scheduler.advance", _qid_task)),
        (backend, "build_task", timed("backend.build_task", _qid_job)),
        (QueryService, "submit", timed("service.submit", after=_submitted_qid)),
        (QueryService, "tick", timed("service.tick")),
        (QueryService, "rebind", timed("service.rebind")),
        (QueryService, "close", timed("service.close")),
        (backend.InlineBackend, "__init__", timed("backend.start")),
        (backend.ForkedBackend, "__init__", timed("backend.start")),
        (backend.InlineBackend, "pump", timed("backend.pump")),
        (backend.ForkedBackend, "pump", timed("backend.pump")),
        (backend.InlineBackend, "rebind", timed("backend.rebind")),
        (backend.ForkedBackend, "rebind", timed("backend.rebind")),
        (backend.ForkedBackend, "close", timed("backend.close")),
        (backend._ShardWorker, "__call__", timed("worker.job", _qid_job)),
        (_pool.ForkPool, "send_many", timed("pool.send_many")),
        (_pool.ForkPool, "recv_many", timed("pool.recv_many")),
        (backend, "encode_reply", timed("codec.encode")),
        (backend, "decode_reply", timed("codec.decode")),
        (backend, "export_snapshot", timed("shm.export", after=_count_export)),
        (backend, "attach_snapshot", timed("shm.attach")),
        (LiveNetwork, "snapshot", timed("live.snapshot")),
    ]


_SAVED: List[Tuple[Any, str, Any]] = []


def install(run_dir: Path, spans_on: bool) -> None:
    """Swap the wrappers in; ``spans_on=False`` installs only the
    worker-loop wrapper (peak memory of workers, no spans)."""
    if _SAVED:
        raise RuntimeError("span wrappers are already installed")
    RECORDER.reset()
    RECORDER.run_dir = run_dir
    for owner, attribute, factory in _targets(spans_on):
        original = owner.__dict__[attribute]
        _SAVED.append((owner, attribute, original))
        setattr(owner, attribute, factory(original))
    RECORDER.enabled = spans_on


def uninstall() -> None:
    RECORDER.enabled = False
    while _SAVED:
        owner, attribute, original = _SAVED.pop()
        setattr(owner, attribute, original)


def collect_workers(run_dir: Path) -> List[Dict[str, Any]]:
    """Every worker span table written under ``run_dir`` (then removed)."""
    tables = []
    for path in sorted(run_dir.glob("worker-*.pkl")):
        with open(path, "rb") as handle:
            tables.append(pickle.load(handle))
        path.unlink()
    return tables
