"""The three served workloads: inputs, set-up and closed-loop clients.

Every workload is a closed loop: a fixed number of clients (analysts, a
dashboard) each wait for their answer before sending the next query, so
a slower service receives proportionally less load.  All load comes
from this one process; the sharded workload adds its two workers.

* ``panel-2k`` — a dashboard over a 2,000-peer network: 80% of traffic
  refreshes six fixed panels (so warm plans dominate: walk kernel, batch
  visit, estimator and plan cache do the work), 20% is seeded ad-hoc
  ranges.  Inline backend, 4 outstanding queries, ``max_in_flight=4``.
  Its ~1.6 MB flat column fits in cache.
* ``adhoc-200k`` — every query a distinct seeded range over COUNT, SUM
  and AVG on a 200,000-peer network, served serially: the plan cache is
  bypassed and per-query session set-up dominates.  The ~32 MB working
  set exceeds cache.
* ``churn-sharded-2k`` — a churning 2,000-peer ``LiveNetwork`` served by
  two forked shard workers with traces and delta re-estimation on.  Each
  epoch runs churn steps (workload generation, not timed), then
  ``snapshot()`` + ``rebind()`` (timed as a refresh), then a burst of
  repeated dashboard signatures whose trace lines the client reads as
  part of handling every answer.  The only workload that crosses
  processes: pool, codec, shared memory and trace shipping.

The workload seed makes the traffic: the ad-hoc ranges and the query
order after the quality panel, and the churn.  The network (generated
once from NETWORK_SEED and cached), the six dashboard panels, the
quality panel's query text and the service's sampling seed (both
PANEL_SEED) are part of the workload's definition and do not vary with
it.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.core.two_phase import TwoPhaseConfig
from repro.errors import AdmissionError
from repro.network.churn import ChurnConfig
from repro.network.live import LiveNetwork
from repro.network.simulator import NetworkSimulator
from repro.query.model import AggregationQuery
from repro.service import QueryService
from repro.service.backend import EngineSettings, ForkedBackend

from inputs import Network, NetworkParams
from quality import exact_answers
from spans import span

DASHBOARD: Tuple[str, ...] = tuple(
    f"SELECT {agg}(A) FROM T WHERE A BETWEEN {lo} AND {hi}"
    for lo, hi in ((1, 40), (41, 100))
    for agg in ("COUNT", "SUM", "AVG")
)
AGGREGATES = ("COUNT", "SUM", "AVG")
NETWORK_SEED = 2006
#: Seed of the quality panel's query text (see QueryStream) and of the
#: simulator's and service's sampling.  Answers depend only on the
#: submission order, so the panel's answers, and the accuracy and cost
#: metrics computed over them, are the same for every workload seed on
#: the inline workloads, and vary only with the churn on the churn one.
PANEL_SEED = 1006
#: Set-ups are timed in two rounds, one before the serve window and one
#: after it, so their median covers the run instead of one moment of a
#: machine whose speed drifts.  Each round repeats until SETUP_SECONDS are
#: spent (at least once, at most SETUP_MAX times); setup_s is the
#: median over both rounds.
SETUP_SECONDS = 1.0
#: The service's admission bound (the clients keep far fewer outstanding).
MAX_QUEUE = 64
SETUP_MAX = 100


@dataclasses.dataclass(frozen=True)
class Workload:
    """Everything that defines one workload (its config hash covers it)."""

    name: str
    network: NetworkParams
    clients: int
    max_in_flight: int
    workers: Optional[int]
    dashboard_share: float
    #: Answers (in submission order, the quality panel) the accuracy and
    #: cost metrics are computed over.  The run serves at least this many
    #: even when ``--seconds`` is shorter.
    quality_queries: int
    #: Upper bound on queries/s, used only to size the pre-generated stream.
    rate_cap: float
    churn_steps: int = 0
    #: Per-step join and leave probability of the churn process.
    churn_rate: float = 0.0
    burst_repeats: int = 0
    delta_req: float = 0.1
    chunk_peers: int = 8
    config: TwoPhaseConfig = TwoPhaseConfig(max_phase_two_peers=400)

    @property
    def churn(self) -> bool:
        return self.churn_steps > 0

    def scaled(self, peers: int, edges: int, tuples: int, quality: int) -> "Workload":
        """A smaller copy (self-test)."""
        return dataclasses.replace(
            self,
            network=NetworkParams(peers, edges, tuples, NETWORK_SEED),
            quality_queries=quality,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="panel-2k",
            network=NetworkParams(2_000, 10_000, 200_000, NETWORK_SEED),
            clients=4,
            max_in_flight=4,
            workers=None,
            dashboard_share=0.8,
            quality_queries=600,
            rate_cap=1_000,
        ),
        Workload(
            name="adhoc-200k",
            network=NetworkParams(200_000, 1_000_000, 4_000_000, NETWORK_SEED),
            clients=1,
            max_in_flight=1,
            workers=None,
            dashboard_share=0.0,
            quality_queries=24,
            rate_cap=40,
        ),
        Workload(
            name="churn-sharded-2k",
            network=NetworkParams(2_000, 10_000, 200_000, NETWORK_SEED),
            clients=4,
            max_in_flight=4,
            workers=2,
            dashboard_share=1.0,
            quality_queries=288,
            rate_cap=1_000,
            # 20 steps at join/leave rate 0.5 per epoch, as in the repo's
            # churn micro-benchmark (test_warm_requery_after_churn).
            churn_steps=20,
            churn_rate=0.5,
            # Reads per refresh are a free choice (nothing in the repo
            # fixes one): 16 refreshes of each of the six panels, so the
            # epoch's reads outweigh its one rebind (see README.md).
            burst_repeats=16,
        ),
    )
}


# ---------------------------------------------------------------------------
# Query streams (generated before the timed window)
# ---------------------------------------------------------------------------


def _adhoc_ranges() -> Tuple[Tuple[int, int], ...]:
    """Every ad-hoc range: width 30..60 inside 1..100, dashboard ranges excluded."""
    dashboard = {(1, 40), (41, 100)}
    return tuple(
        (lo, lo + width - 1)
        for width in range(30, 61)
        for lo in range(1, 102 - width)
        if (lo, lo + width - 1) not in dashboard
    )


ADHOC_RANGES = _adhoc_ranges()


class _Deck:
    """One aggregate's ad-hoc ranges, dealt without repeats.

    A range repeats only once all of them have been dealt (the deck is
    then refilled), so generation never stalls however long the stream.
    """

    def __init__(self) -> None:
        self._unused: List[Tuple[int, int]] = []

    def deal(self, rng: np.random.Generator) -> Tuple[int, int]:
        if not self._unused:
            self._unused = list(ADHOC_RANGES)
        i = int(rng.integers(len(self._unused)))
        self._unused[i], self._unused[-1] = self._unused[-1], self._unused[i]
        return self._unused.pop()


class QueryStream:
    """Query text in submission order, parsed once per distinct signature.

    The first ``quality_queries`` queries (the quality panel) are drawn
    from PANEL_SEED, the same on every run; the rest from the workload
    seed.
    """

    def __init__(self, workload: Workload, seed: int):
        self._panel_rng = np.random.default_rng([PANEL_SEED, 0xA9])
        self._traffic_rng = np.random.default_rng([seed, 0xA9])
        self._parsed: Dict[str, AggregationQuery] = {}
        self._decks = {agg: _Deck() for agg in AGGREGATES}
        self._adhoc_index = 0
        self._drawn = 0
        self._workload = workload

    def _rng(self) -> np.random.Generator:
        if self._drawn < self._workload.quality_queries:
            return self._panel_rng
        return self._traffic_rng

    def _query(self, sql: str) -> AggregationQuery:
        query = self._parsed.get(sql)
        if query is None:
            query = self._parsed[sql] = repro.parse_query(sql)
        return query

    def _adhoc(self, rng: np.random.Generator) -> str:
        agg = AGGREGATES[self._adhoc_index % len(AGGREGATES)]
        self._adhoc_index += 1
        lo, hi = self._decks[agg].deal(rng)
        return f"SELECT {agg}(A) FROM T WHERE A BETWEEN {lo} AND {hi}"

    def mixed(self, count: int) -> List[AggregationQuery]:
        """Dashboard refreshes and ad-hoc ranges in the workload's mix."""
        share = self._workload.dashboard_share
        out = []
        for _ in range(count):
            rng = self._rng()
            if share > 0 and rng.random() < share:
                sql = DASHBOARD[int(rng.integers(len(DASHBOARD)))]
            else:
                sql = self._adhoc(rng)
            out.append(self._query(sql))
            self._drawn += 1
        return out

    def burst(self) -> List[AggregationQuery]:
        """Every dashboard signature ``burst_repeats`` times, seeded order."""
        sqls = list(DASHBOARD) * self._workload.burst_repeats
        order = self._rng().permutation(len(sqls))
        self._drawn += len(sqls)
        return [self._query(sqls[i]) for i in order]


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Answer:
    """One query as the client saw it."""

    query_id: int
    query: AggregationQuery
    epoch: int
    submitted_ns: int
    done_ns: int = 0
    outcome: object = None
    trace_lines: Optional[List[str]] = None
    trace_digest: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done_ns - self.submitted_ns) / 1e6


@dataclasses.dataclass
class ServeResult:
    """What one timed serve window produced."""

    answers: List[Answer]
    refused: int
    serve_s: float
    refresh_ms: List[float]
    #: (epoch, signature) -> exact answer, computed outside the window.
    exact: Dict[Tuple[int, str], float]
    stats: object = None
    transport: object = None
    exhausted: bool = False


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Deployment:
    """A service ready for its first query (plus what built it)."""

    service: QueryService
    snapshot: NetworkSimulator
    live: Optional[LiveNetwork]


def deploy(
    workload: Workload,
    network: Network,
    seed: int,
    *,
    inline_replay: bool = False,
    measure_transport: bool = False,
) -> Deployment:
    """Build the simulator (or live network) and the service over it.

    ``inline_replay`` serves on the inline backend with traces on (the
    churn workload's serial reference); ``measure_transport`` turns on
    the sharded backend's byte accounting (traced runs only).
    """
    workers = None if inline_replay else workload.workers
    capture_traces = inline_replay or workload.churn
    live = None
    if workload.churn:
        live = LiveNetwork(
            network.topology,
            network.databases,
            churn_config=ChurnConfig(
                join_rate=workload.churn_rate, leave_rate=workload.churn_rate
            ),
            tuples_per_new_peer=100,
            seed=seed,
        )
        snapshot = live.snapshot()
    else:
        snapshot = NetworkSimulator(
            network.topology, network.databases, seed=PANEL_SEED
        )
    kwargs = dict(
        seed=PANEL_SEED,
        max_in_flight=workload.max_in_flight,
        max_queue=MAX_QUEUE,
        chunk_peers=workload.chunk_peers,
        capture_traces=capture_traces,
        delta_reestimation=workload.churn,
    )
    if workers and measure_transport:
        backend = ForkedBackend(
            snapshot,
            EngineSettings(
                config=workload.config,
                chunk_peers=workload.chunk_peers,
                max_age=25,
                decay=0.7,
                delta_reestimation=workload.churn,
            ),
            workers,
            measure_transport=True,
        )
        service = QueryService(snapshot, workload.config, backend=backend, **kwargs)
    else:
        service = QueryService(snapshot, workload.config, workers=workers, **kwargs)
    return Deployment(service=service, snapshot=snapshot, live=live)


def timed_setup(
    workload: Workload, network: Network, seed: int, on_discard=None
) -> Tuple[Deployment, List[float]]:
    """One round of timed set-ups; returns the last deployment (open).

    ``on_discard`` runs after each discarded deployment is closed (the
    caller collects or drops worker span files there).
    """
    times: List[float] = []
    deployment = None
    while not times or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        if deployment is not None:
            deployment.service.close()
            deployment = None
            if on_discard is not None:
                on_discard()
        gc.collect()
        started = time.perf_counter()
        deployment = deploy(workload, network, seed)
        times.append(time.perf_counter() - started)
    assert deployment is not None
    return deployment, times


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------


def _closed_loop(
    service: QueryService,
    queries: Iterator[AggregationQuery],
    clients: int,
    delta_req: float,
    epoch: int,
    keep_going,
    read_traces: bool,
    answers: List[Answer],
) -> Tuple[int, bool]:
    """Serve ``queries`` with ``clients`` outstanding until ``keep_going``
    turns false or the stream ends; returns (refused, exhausted)."""
    pending: Dict[int, Answer] = {}
    refused = 0
    exhausted = False

    def submit() -> bool:
        nonlocal refused, exhausted
        query = next(queries, None)
        if query is None:
            exhausted = True
            return False
        submitted = time.perf_counter_ns()
        try:
            ticket = service.submit(query, delta_req)
        except AdmissionError:
            refused += 1
            return True
        answer = Answer(ticket.query_id, query, epoch, submitted)
        pending[ticket.query_id] = answer
        answers.append(answer)
        return True

    for _ in range(clients):
        if not submit():
            break
    while pending:
        for outcome in service.tick():
            answer = pending.pop(outcome.ticket.query_id)
            answer.outcome = outcome
            if read_traces:
                trace = service.trace(outcome.ticket)
                with span("tracer.read", answer.query_id):
                    answer.trace_lines = trace.lines
                answer.trace_digest = trace.digest()
            answer.done_ns = time.perf_counter_ns()
            if not exhausted and keep_going():
                submit()
    return refused, exhausted


def serve(
    workload: Workload,
    deployment: Deployment,
    stream: QueryStream,
    seconds: float,
) -> ServeResult:
    """Run the workload's client for ``seconds`` (and at least
    ``quality_queries`` answers); the serve window excludes churn steps."""
    service = deployment.service
    answers: List[Answer] = []
    refused_total = 0
    exhausted = False
    if not workload.churn:
        budget = int(seconds * workload.rate_cap) + workload.quality_queries
        queries = iter(stream.mixed(budget))
        started = time.perf_counter()

        def keep_going() -> bool:
            return (
                time.perf_counter() - started < seconds
                or len(answers) < workload.quality_queries
            )

        with span("serve"):
            refused_total, exhausted = _closed_loop(
                service, queries, workload.clients, workload.delta_req, 0,
                keep_going, False, answers,
            )
        serve_s = time.perf_counter() - started
        exact: Dict[Tuple[int, str], float] = {}
        exact_answers(deployment.snapshot, 0, answers, exact)
        return ServeResult(
            answers, refused_total, serve_s, [], exact,
            stats=service.stats(), exhausted=exhausted,
        )

    # Churn: epochs of (step, refresh, burst).  Bursts are generated for
    # the most epochs the rate cap allows, before the clock starts.
    live = deployment.live
    assert live is not None
    per_burst = len(DASHBOARD) * workload.burst_repeats
    max_epochs = int(seconds * workload.rate_cap / per_burst) + 1 + (
        -(-workload.quality_queries // per_burst)
    )
    bursts = [stream.burst() for _ in range(max_epochs)]
    snapshot = deployment.snapshot
    exact = {}
    refresh_ms: List[float] = []
    serve_s = 0.0
    for epoch, burst in enumerate(bursts):
        if epoch:
            live.step(workload.churn_steps)
        started = time.perf_counter()
        with span("serve"):
            if epoch:
                with span("client.refresh"):
                    snapshot = live.snapshot()
                    service.rebind(snapshot)
                refresh_ms.append((time.perf_counter() - started) * 1e3)
            first = len(answers)
            refused, _ = _closed_loop(
                service, iter(burst), workload.clients, workload.delta_req,
                epoch, lambda: True, True, answers,
            )
        refused_total += refused
        serve_s += time.perf_counter() - started
        # Outside the window: snapshots are not kept past their epoch.
        exact_answers(snapshot, epoch, answers[first:], exact)
        if serve_s >= seconds and len(answers) >= workload.quality_queries:
            break
    else:
        exhausted = True
    return ServeResult(
        answers, refused_total, serve_s, refresh_ms, exact,
        stats=service.stats(), exhausted=exhausted,
    )


def replay_inline(
    workload: Workload, network: Network, seed: int, answers: Sequence[Answer]
) -> Dict[int, Tuple[object, str]]:
    """Serve the churn epochs of ``answers`` with the run's exact
    submission sequence on the inline backend (untimed); returns query
    id -> (outcome, trace digest)."""
    deployment = deploy(workload, network, seed, inline_replay=True)
    service = deployment.service
    live = deployment.live
    assert live is not None
    replayed: Dict[int, Tuple[object, str]] = {}
    epochs = max(a.epoch for a in answers) + 1
    by_epoch: List[List[Answer]] = [[] for _ in range(epochs)]
    for answer in answers:
        by_epoch[answer.epoch].append(answer)
    for epoch, group in enumerate(by_epoch):
        if epoch:
            live.step(workload.churn_steps)
            service.rebind(live.snapshot())
        group.sort(key=lambda a: a.query_id)
        for first in range(0, len(group), MAX_QUEUE):
            for answer in group[first : first + MAX_QUEUE]:
                ticket = service.submit(answer.query, workload.delta_req)
                if ticket.query_id != answer.query_id:
                    raise AssertionError("replay diverged from the submission order")
            for outcome in service.run():
                replayed[outcome.ticket.query_id] = (
                    outcome,
                    service.trace(outcome.ticket).digest(),
                )
    service.close()
    return replayed


def replay_prefix(answers: Sequence[Answer], count: int) -> List[Answer]:
    """The first ``count`` answers in submission order."""
    return sorted(answers, key=lambda a: a.query_id)[:count]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")
