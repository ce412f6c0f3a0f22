"""The tracer and its zero-overhead activation switch.

Tracing is off by default: :func:`active_tracer` returns ``None`` and
every instrumented site guards its emission with a single ``is not
None`` check, so an untraced run executes the exact same instruction
stream it did before the observability layer existed (no RNG draws, no
allocation, no I/O).  The bit-identity property tests pin this.

Activation is scoped with a :class:`contextvars.ContextVar` rather
than module state, so traced and untraced code can nest and the fork-
based parallel trial runner inherits a clean default in its workers::

    with tracing(Tracer()) as tracer:
        engine.execute(query, 0.1, sink=0)
    print(tracer.digest())

A tracer assigns each event a monotone sequence number, keeps the
canonical JSONL line (and, optionally, streams it), and feeds every
event into its :class:`~repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import IO, Callable, Iterator, List, Optional, Protocol, Tuple

from .events import (
    ChurnEpochEvent,
    EstimateEvent,
    LateDeliveryEvent,
    ProbeEvent,
    QueryLifecycleEvent,
    RetryEvent,
    StaleReplyEvent,
    TimelineEvent,
    TraceCost,
    TraceEvent,
    WalkEvent,
)
from .jsonl import digest_of_lines, event_line
from .registry import MetricsRegistry

__all__ = [
    "TraceLike",
    "Tracer",
    "active_tracer",
    "tracing",
]


class TraceLike(Protocol):
    """What a completed trace looks like to its consumers.

    The serving layer hands traces around behind this protocol:
    :class:`Tracer` satisfies it directly, and so does
    :class:`~repro.service.codec.TraceRecord`, the lines and digest a
    sharded worker ships back inside its reply.  Consumers
    (``write_traces``, the trace-diff gates) only ever need the
    canonical lines and their digest, so they never observe which
    side of a process boundary the events were recorded on.
    """

    @property
    def lines(self) -> List[str]:
        """The canonical JSONL lines, in emission order."""
        ...

    @property
    def num_events(self) -> int:
        """How many events the trace holds."""
        ...

    def digest(self) -> str:
        """sha256 over the canonical lines."""
        ...


class Tracer:
    """Collects typed events from one (or more) seeded runs.

    Parameters
    ----------
    stream:
        Optional writable text stream; every event's canonical JSONL
        line is written (and newline-terminated) as it is emitted.
    registry:
        The metrics registry to aggregate into; a fresh one is created
        when omitted.
    capture:
        Keep events and lines in memory (default).  Disable for
        stream-only tracing of very long runs.
    time_source:
        Optional zero-argument callable returning the current virtual
        time in milliseconds (e.g. an event-driven simulator clock's
        ``read``).  When set, each emitted line is stamped with a
        ``vt`` field — but only while the reading is positive, so a
        clock that never advances leaves the lines byte-identical to
        an untimed run's.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        registry: Optional[MetricsRegistry] = None,
        capture: bool = True,
        time_source: Optional[Callable[[], float]] = None,
    ):
        self._stream = stream
        self._registry = registry if registry is not None else MetricsRegistry()
        self._capture = capture
        self._time_source = time_source
        self._events: List[Tuple[int, TraceEvent]] = []
        self._lines: List[str] = []
        self._seq = 0
        self._cost = TraceCost()

    @property
    def time_source(self) -> Optional[Callable[[], float]]:
        """The virtual-clock reader stamping ``vt``, if any."""
        return self._time_source

    @time_source.setter
    def time_source(self, source: Optional[Callable[[], float]]) -> None:
        self._time_source = source

    # ------------------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry this tracer aggregates into."""
        return self._registry

    @property
    def events(self) -> List[TraceEvent]:
        """The captured events, in emission order."""
        return [event for _, event in self._events]

    @property
    def sequenced_events(self) -> List[Tuple[int, TraceEvent]]:
        """``(seq, event)`` pairs, in emission order."""
        return list(self._events)

    @property
    def lines(self) -> List[str]:
        """The canonical JSONL lines, in emission order."""
        return list(self._lines)

    @property
    def num_events(self) -> int:
        """How many events have been emitted."""
        return self._seq

    @property
    def cost_total(self) -> TraceCost:
        """Running sum of every event's ledger charge."""
        return self._cost

    # ------------------------------------------------------------------

    def emit(self, event: TraceEvent) -> int:
        """Record one event; returns its sequence number."""
        seq = self._seq
        self._seq = seq + 1
        vt = (
            self._time_source()
            if self._time_source is not None
            else None
        )
        line = event_line(seq, event, vt=vt)
        if self._capture:
            self._events.append((seq, event))
            self._lines.append(line)
        if self._stream is not None:
            self._stream.write(line)
            self._stream.write("\n")
        cost = event.cost()
        self._cost = self._cost + cost
        self._aggregate(event, cost)
        return seq

    def _aggregate(self, event: TraceEvent, cost: TraceCost) -> None:
        registry = self._registry
        registry.counter("events_total").inc()
        registry.counter(f"events.{event.kind}").inc()
        if cost.messages:
            registry.counter("cost.messages").inc(cost.messages)
        if cost.hops:
            registry.counter("cost.hops").inc(cost.hops)
        if cost.visits:
            registry.counter("cost.visits").inc(cost.visits)
        if cost.timeouts:
            registry.counter("cost.timeouts").inc(cost.timeouts)
        if isinstance(event, WalkEvent):
            registry.histogram("walk.hops").observe(float(event.hops))
        elif isinstance(event, ProbeEvent):
            if event.outcome != "ok":
                registry.counter(
                    f"probe.failures.{event.outcome}"
                ).inc()
        elif isinstance(event, RetryEvent):
            registry.counter("retries_total").inc()
            registry.histogram("retry.backoff_ms").observe(event.backoff_ms)
        elif isinstance(event, ChurnEpochEvent):
            registry.gauge("churn.epoch").set(float(event.epoch))
            registry.gauge("churn.peers").set(float(event.peers))
        elif isinstance(event, EstimateEvent):
            registry.gauge(f"estimate.{event.engine}").set(event.estimate)
        elif isinstance(event, QueryLifecycleEvent):
            registry.counter(f"query.{event.status}").inc()
        elif isinstance(event, TimelineEvent):
            registry.counter(f"sim.timeline.{event.action}").inc()
            registry.gauge("sim.epoch").set(float(event.epoch))
        elif isinstance(event, LateDeliveryEvent):
            registry.counter("sim.late_deliveries").inc()
            registry.histogram("sim.late_by_ms").observe(
                event.delivered_ms - event.sent_ms
            )
        elif isinstance(event, StaleReplyEvent):
            registry.counter("sim.stale_replies").inc()

    # ------------------------------------------------------------------

    def digest(self) -> str:
        """sha256 over the captured canonical lines.

        With a fixed engine, seed and topology this value is a pure
        function of the run — the golden-trace tests pin it.
        """
        return digest_of_lines(self._lines)


_ACTIVE: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_active_tracer", default=None
)


def active_tracer() -> Optional[Tracer]:
    """The tracer in effect for this context, or ``None``.

    This is the whole fast path when tracing is disabled: one context-
    variable read per instrumented site, compared against ``None``.
    """
    return _ACTIVE.get()


@contextlib.contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Activate ``tracer`` for the dynamic extent of the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
