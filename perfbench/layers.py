"""Per-layer metrics from the traced run's spans.

The metric names and units are the ``per_layer`` list of BENCHMARK.json;
each is emitted on every workload (0 where the layer does not run, e.g.
transport on the inline workloads).  ``self_ms`` sums a layer's self
time over the traced run (its one set-up, the serve window and the
workers); ``calls`` counts spans; ``wait_ms`` is time blocked on the
worker reply queue.

The reconciliation adds up what those metrics report, not the span
tree: the client process's serve-window share of every reported
``<span>.self_ms`` (and of ``pool.recv_many``, reported as
``pool.recv_many.wait_ms``) plus the unattributed remainder, and compares
the total with the client's own wall clock.  A span under the serve
window that no reported metric covers leaves its time out of the total
and is listed by name.
"""

from __future__ import annotations

import pickle
import statistics
from typing import Dict, List, Sequence, Tuple

from workloads import ServeResult

#: Layer name prefixes whose self time is query computation (the
#: "engine" share of the churn split), wherever it runs.
ENGINE = (
    "simulator.",
    "walker.",
    "hybrid.",
    "planner.",
    "estimators.",
    "scheduler.",
    "backend.build_task",
)

#: Largest gap allowed between the reported layers (plus unattributed)
#: and the client's wall clock for the serve window, as a share of it.
RECONCILE_TOLERANCE = 0.03


class Table:
    """One process's spans with durations and self times (ns)."""

    def __init__(self, raw: Dict) -> None:
        self.names: List[str] = raw["names"]
        self.starts: List[int] = raw["starts"]
        self.parents: List[int] = raw["parents"]
        self.qids: List[int] = raw["qids"]
        self.counts: Dict[str, float] = raw["counts"]
        self.maxrss_kb: int = raw["maxrss_kb"]
        n = len(self.names)
        self.durations = [raw["ends"][i] - self.starts[i] for i in range(n)]
        child = [0] * n
        self.roots = [0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.durations[i]
                self.roots[i] = self.roots[parent]
            else:
                self.roots[i] = i
        self.self_ns = [self.durations[i] - child[i] for i in range(n)]

    def under(self, i: int, name: str) -> bool:
        parent = self.parents[i]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False


def _aggregate(tables: Sequence[Table]) -> Dict[str, List[float]]:
    """name -> [calls, self_ns, total_ns] over every table."""
    out: Dict[str, List[float]] = {}
    for table in tables:
        for i, name in enumerate(table.names):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += table.self_ns[i]
            row[2] += table.durations[i]
    return out


def covered_spans(names: Sequence[str]) -> set:
    """Span names whose self time the metrics ``names`` report."""
    covered = {name[: -len(".self_ms")] for name in names if name.endswith(".self_ms")}
    if "pool.recv_many.wait_ms" in names:
        covered.add("pool.recv_many")
    return covered


def reconcile(
    serve_self_ms: Dict[str, float],
    unattributed_ms: float,
    client_serve_ms: float,
    names: Sequence[str],
) -> Tuple[float, List[str]]:
    """(relative gap, uncovered span names) between the reported layers
    plus unattributed and the client's wall clock for the serve window.

    ``serve_self_ms`` is the client process's self time per span name
    inside the serve window, the ``serve`` roots excluded.
    """
    covered = covered_spans(names)
    accounted = unattributed_ms + sum(
        ms for name, ms in serve_self_ms.items() if name in covered
    )
    uncovered = sorted(name for name in serve_self_ms if name not in covered)
    error = abs(accounted - client_serve_ms) / client_serve_ms if client_serve_ms else 0.0
    return error, uncovered


def layer_metrics(
    parent_raw: Dict,
    worker_raws: Sequence[Dict],
    result: ServeResult,
    untraced_qps: float,
    names: Sequence[str],
) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """(per-layer metrics named ``names``, the client's serve-window self
    ms per span name, problems)."""
    parent = Table(parent_raw)
    workers = [Table(raw) for raw in worker_raws]
    tables = [parent] + workers
    problems = [
        f"span {table.names[i]} has a negative self time"
        for table in tables
        for i in range(len(table.names))
        if table.self_ns[i] < 0
    ][:5]
    agg = _aggregate(tables)
    counts: Dict[str, float] = {}
    for table in tables:
        for key, value in table.counts.items():
            counts[key] = counts.get(key, 0) + value

    def calls(name: str) -> float:
        return agg.get(name, [0, 0, 0])[0]

    def self_ms(name: str) -> float:
        return agg.get(name, [0, 0, 0])[1] / 1e6

    def last_duration_ms(name: str) -> float:
        indices = [i for i, n in enumerate(parent.names) if n == name]
        return parent.durations[indices[-1]] / 1e6 if indices else 0.0

    serve_roots = [
        i for i, n in enumerate(parent.names) if n == "serve" and parent.parents[i] < 0
    ]
    serve_ns = sum(parent.durations[i] for i in serve_roots)
    serve_ms = serve_ns / 1e6
    serve_set = set(serve_roots)
    serve_self_ms: Dict[str, float] = {}
    for i, name in enumerate(parent.names):
        if parent.roots[i] in serve_set and i not in serve_set:
            serve_self_ms[name] = serve_self_ms.get(name, 0.0) + parent.self_ns[i] / 1e6
    unattributed_ms = sum(parent.self_ns[i] for i in serve_roots) / 1e6
    reconcile_error, uncovered = reconcile(
        serve_self_ms, unattributed_ms, result.serve_s * 1e3, names
    )
    if uncovered:
        problems.append(f"serve-window spans no per-layer metric reports: {uncovered}")
    if reconcile_error > RECONCILE_TOLERANCE:
        problems.append(
            f"per-layer self times plus unattributed miss serve wall time by "
            f"{reconcile_error:.1%}"
        )

    def wait_under_ms(name: str) -> float:
        """Time the client spent blocked on worker replies inside ``name``."""
        return sum(
            parent.durations[i]
            for i, n in enumerate(parent.names)
            if n == "pool.recv_many" and parent.under(i, name)
        ) / 1e6

    pump_wait_ms = wait_under_ms("backend.pump")
    # A lazy trace read waits for its fetch round trip to the worker.
    trace_wait_ms = wait_under_ms("tracer.read")

    # Queue wait: submit returned (parent) -> first chunk started (anywhere).
    submitted = {
        parent.qids[i]: parent.starts[i] + parent.durations[i]
        for i, n in enumerate(parent.names)
        if n == "service.submit"
    }
    first_chunk: Dict[int, int] = {}
    for table in tables:
        for i, n in enumerate(table.names):
            if n == "scheduler.advance":
                qid = table.qids[i]
                start = table.starts[i]
                if qid not in first_chunk or start < first_chunk[qid]:
                    first_chunk[qid] = start
    waits = [
        (first_chunk[q] - submitted[q]) / 1e6 for q in submitted if q in first_chunk
    ]

    answers = result.answers
    done = [a for a in answers if a.outcome is not None and a.outcome.status == "done"]
    n_done = max(len(done), 1)
    stats = result.stats
    runs = stats.warm_runs + stats.cold_runs + stats.delta_runs
    lookups = stats.cache_hits + stats.cache_misses
    salvage = stats.delta_hits + stats.churn_invalidations
    traced = [a for a in answers if a.trace_lines is not None]
    trace_bytes = sum(
        len(pickle.dumps(tuple(a.trace_lines), pickle.HIGHEST_PROTOCOL)) for a in traced
    )
    transport_bytes = result.transport.total_bytes if result.transport is not None else 0

    engine_ms = sum(
        self_ms(name) for name in agg if name.startswith(ENGINE)
    )
    transport_ms = self_ms("pool.send_many") + self_ms("codec.encode") + self_ms("codec.decode")
    shm_ms = self_ms("shm.export") + self_ms("shm.attach")
    refresh_ms = sum(
        parent.durations[i]
        for i, n in enumerate(parent.names)
        if n == "client.refresh"
    ) / 1e6
    selections = counts.get("walker.take.selections", 0)

    def share(ms: float) -> float:
        return ms / serve_ms if serve_ms else 0.0

    values = {
        "simulator.session.calls": calls("simulator.session"),
        "simulator.session.self_ms": self_ms("simulator.session"),
        "simulator.session.share": share(self_ms("simulator.session")),
        "simulator.visit_batch.calls": calls("simulator.visit_batch"),
        "simulator.visit_batch.self_ms": self_ms("simulator.visit_batch"),
        "simulator.visit_batch.peers": counts.get("simulator.visit_batch.peers", 0),
        "simulator.walk_hops.self_ms": self_ms("simulator.walk_hops"),
        "walker.take.calls": calls("walker.take"),
        "walker.take.self_ms": self_ms("walker.take"),
        "walker.take.selections": selections,
        "walker.hops_per_selection": (
            counts.get("walker.take.hops", 0) / selections if selections else 0.0
        ),
        "hybrid.plan_lookup.calls": calls("hybrid.plan_lookup"),
        "hybrid.plan_lookup.self_ms": self_ms("hybrid.plan_lookup"),
        "hybrid.step.self_ms": self_ms("hybrid.step"),
        "hybrid.cache_hit_ratio": stats.cache_hits / lookups if lookups else 0.0,
        "hybrid.warm_share": stats.warm_runs / runs if runs else 0.0,
        "hybrid.cold_share": stats.cold_runs / runs if runs else 0.0,
        "hybrid.delta_share": stats.delta_runs / runs if runs else 0.0,
        "hybrid.delta_hit_ratio": stats.delta_hits / salvage if salvage else 0.0,
        "hybrid.churn_invalidations": stats.churn_invalidations,
        "planner.analyze.self_ms": self_ms("planner.analyze"),
        "estimators.observations.self_ms": self_ms("estimators.observations"),
        "estimators.final_estimate.self_ms": self_ms("estimators.final_estimate"),
        "scheduler.advance.calls": calls("scheduler.advance"),
        "scheduler.advance.self_ms": self_ms("scheduler.advance"),
        "scheduler.chunks_per_query": sum(a.outcome.chunks for a in done) / n_done,
        "scheduler.queue_wait_p50_ms": statistics.median(waits) if waits else 0.0,
        "backend.build_task.self_ms": self_ms("backend.build_task"),
        "service.submit.self_ms": self_ms("service.submit"),
        "service.tick.self_ms": self_ms("service.tick"),
        "backend.pump.self_ms": self_ms("backend.pump"),
        "backend.pump.wait_ms": pump_wait_ms,
        "backend.start_ms": last_duration_ms("backend.start"),
        "backend.rebind.self_ms": self_ms("backend.rebind"),
        "backend.close_ms": last_duration_ms("backend.close"),
        "pool.send_many.calls": calls("pool.send_many"),
        "pool.send_many.self_ms": self_ms("pool.send_many"),
        "pool.recv_many.wait_ms": agg.get("pool.recv_many", [0, 0, 0])[2] / 1e6,
        "codec.encode.self_ms": self_ms("codec.encode"),
        "codec.decode.self_ms": self_ms("codec.decode"),
        "transport.bytes_per_query": transport_bytes / n_done,
        "transport.trace_bytes_per_query": trace_bytes / n_done,
        "shm.export.self_ms": self_ms("shm.export"),
        "shm.export.bytes": counts.get("shm.export.bytes", 0),
        "shm.attach.calls": calls("shm.attach"),
        "shm.attach.self_ms": self_ms("shm.attach"),
        "tracer.lines_per_query": sum(len(a.trace_lines) for a in traced) / n_done,
        "tracer.read.self_ms": self_ms("tracer.read"),
        "tracer.read.wait_ms": trace_wait_ms,
        "live.snapshot.self_ms": self_ms("live.snapshot"),
        "worker.job.self_ms": self_ms("worker.job"),
        "split.engine_share": share(engine_ms),
        "split.transport_share": share(transport_ms),
        "split.wait_share": share(pump_wait_ms),
        "split.shm_share": share(shm_ms),
        "split.trace_share": share(self_ms("tracer.read") + trace_wait_ms),
        "split.refresh_share": share(refresh_ms),
        "client.refresh.self_ms": self_ms("client.refresh"),
        "service.rebind.self_ms": self_ms("service.rebind"),
        "serve_ms": serve_ms,
        "reconcile_error": reconcile_error,
        "unattributed_share": unattributed_ms / serve_ms if serve_ms else 0.0,
        "tracing_overhead_ratio": (
            (len(done) / result.serve_s) / untraced_qps if untraced_qps else 0.0
        ),
    }
    missing = [name for name in names if name not in values]
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {missing}")
    return {name: values[name] for name in names}, serve_self_ms, problems
