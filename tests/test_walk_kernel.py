"""Vectorized walk kernel: bit-parity, fallback matrix, delta re-use.

The kernel's contract (``src/repro/network/walk_kernel.py``) is not
"statistically equivalent" but *bit-identical*: for every eligible
configuration the vectorized cursor must select the same peers, charge
the same hops, and leave the shared RNG at the same stream position as
the stepwise walker.  The property tests here drive both paths from
identical seeds over random topologies, variants, strides and take
chunkings and compare everything observable.  The delta re-estimation
tests pin the churn-salvage semantics layered on top of the kernel.
"""

import json

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid import HybridEngine
from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.data.localdb import LocalDatabase
from repro.errors import ConfigurationError, TopologyError
from repro.network.churn import ChurnConfig
from repro.network.faults import FaultPlan
from repro.network.generators import (
    power_law_topology,
    random_regular_topology,
)
from repro.network.live import LiveNetwork
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.network.walk_kernel import (
    AliasTable,
    WalkKernel,
    kernel_tables,
    stationary_alias,
)
from repro.network.walker import (
    RandomWalkConfig,
    RandomWalker,
    WalkCursor,
    WeightedMetropolisWalker,
)
from repro.obs import Tracer, tracing
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query
from repro.service import QueryService

VARIANTS = ("simple", "lazy", "self-inclusive", "metropolis-uniform")

TOPOLOGIES = (
    power_law_topology(60, 180, seed=3),
    random_regular_topology(40, 4, seed=5),
    Topology(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
)

SUM_ALL = parse_query("SELECT SUM(A) FROM T")
AVG_ALL = parse_query("SELECT AVG(A) FROM T")


def walker_pair(topology, variant, jump, burn_in, seed, start=0):
    """Stepwise and vectorized walkers with identical RNG streams."""
    walkers = []
    for kernel in ("stepwise", "vectorized"):
        config = RandomWalkConfig(
            variant=variant, jump=jump, burn_in=burn_in, kernel=kernel
        )
        walkers.append(RandomWalker(topology, config, seed=seed))
    return tuple(walkers)


def assert_stream_parity(stepwise, vectorized):
    """Both RNGs must sit at the same stream position afterwards."""
    assert stepwise._rng.random() == vectorized._rng.random()


# ---------------------------------------------------------------------------
# Alias-method sampling
# ---------------------------------------------------------------------------


class TestAliasTable:
    def test_mass_conservation_is_exact_in_structure(self):
        """Each outcome's total column mass equals its normalized weight.

        The Vose invariant: outcome ``i`` owns ``prob[i]`` of its own
        column plus ``1 - prob[j]`` of every column aliased to it, and
        columns weigh ``1/n`` each.
        """
        weights = [5.0, 1.0, 3.0, 0.0, 11.0]
        table = AliasTable(weights)
        n = len(table)
        mass = np.zeros(n)
        for column in range(n):
            mass[column] += table.probabilities[column]
            alias = int(table.aliases[column])
            if alias != column:
                mass[alias] += 1.0 - table.probabilities[column]
        np.testing.assert_allclose(
            mass / n, np.asarray(weights) / sum(weights), atol=1e-12
        )

    def test_uniform_weights_degenerate_to_identity(self):
        table = AliasTable([2.0] * 7)
        assert list(table.probabilities) == [1.0] * 7
        assert list(table.aliases) == list(range(7))

    def test_pick_matches_vectorized_sample(self):
        table = AliasTable([1.0, 4.0, 2.0])
        rng = np.random.default_rng(17)
        columns = rng.integers(len(table), size=200)
        keep = rng.random(200)
        scalar = [
            table.pick((c + 0.5) / len(table), k)
            for c, k in zip(columns.tolist(), keep.tolist())
        ]
        rng2 = np.random.default_rng(17)
        vector = table.sample(rng2, 200)
        assert scalar == vector.tolist()

    def test_sample_is_seed_deterministic(self):
        table = AliasTable([1.0, 2.0, 3.0, 4.0])
        first = table.sample(np.random.default_rng(9), 64)
        second = table.sample(np.random.default_rng(9), 64)
        np.testing.assert_array_equal(first, second)

    def test_empirical_law_tracks_weights(self):
        weights = np.asarray([1.0, 6.0, 3.0])
        table = AliasTable(weights)
        draws = table.sample(np.random.default_rng(23), 60_000)
        freq = np.bincount(draws, minlength=3) / draws.size
        np.testing.assert_allclose(freq, weights / weights.sum(), atol=0.02)

    @pytest.mark.parametrize(
        "bad", [[], [-1.0, 2.0], [np.inf, 1.0], [0.0, 0.0]]
    )
    def test_rejects_degenerate_weights(self, bad):
        with pytest.raises(ConfigurationError):
            AliasTable(bad)

    def test_rejects_negative_sample_size(self):
        with pytest.raises(ConfigurationError):
            AliasTable([1.0]).sample(np.random.default_rng(0), -1)


class TestStationaryAlias:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_weights_match_variant_stationary_law(self, variant):
        topology = TOPOLOGIES[0]
        table = stationary_alias(topology, variant)
        walker = RandomWalker(
            topology, RandomWalkConfig(variant=variant), seed=1
        )
        stationary = walker.stationary_probabilities()
        draws = table.sample(np.random.default_rng(31), 120_000)
        freq = np.bincount(draws, minlength=topology.num_peers) / draws.size
        np.testing.assert_allclose(freq, stationary, atol=0.01)

    def test_memoized_per_topology_and_variant(self):
        topology = TOPOLOGIES[1]
        assert stationary_alias(topology, "simple") is stationary_alias(
            topology, "simple"
        )
        assert stationary_alias(topology, "simple") is not stationary_alias(
            topology, "lazy"
        )

    def test_unknown_variant_and_edgeless_graph(self):
        with pytest.raises(ConfigurationError):
            stationary_alias(TOPOLOGIES[0], "levy-flight")
        with pytest.raises(TopologyError):
            stationary_alias(Topology(3, []), "simple")


class TestKernelTables:
    def test_neighbors_mirror_csr_order(self):
        topology = TOPOLOGIES[0]
        tables = kernel_tables(topology)
        indptr = topology.indptr.tolist()
        indices = topology.indices.tolist()
        for peer in range(topology.num_peers):
            row = indices[indptr[peer]: indptr[peer + 1]]
            assert tables.neighbors[peer] == row
            assert tables.degrees[peer] == len(row)

    def test_memoized_per_topology(self):
        topology = TOPOLOGIES[1]
        assert kernel_tables(topology) is kernel_tables(topology)


# ---------------------------------------------------------------------------
# Bit parity: cursor level
# ---------------------------------------------------------------------------


class TestCursorParity:
    @settings(max_examples=60, deadline=None)
    @given(
        topology_index=st.integers(0, len(TOPOLOGIES) - 1),
        variant=st.sampled_from(VARIANTS),
        jump=st.integers(0, 12),
        burn_in=st.one_of(st.none(), st.integers(0, 15)),
        seed=st.integers(0, 2**32 - 1),
        chunks=st.lists(st.integers(0, 9), min_size=1, max_size=5),
    )
    def test_chunked_takes_are_bit_identical(
        self, topology_index, variant, jump, burn_in, seed, chunks
    ):
        topology = TOPOLOGIES[topology_index]
        stepwise, vectorized = walker_pair(
            topology, variant, jump, burn_in, seed
        )
        start = seed % topology.num_peers
        cursor_s = stepwise.cursor(start)
        cursor_v = vectorized.cursor(start)
        assert cursor_v._kernel is not None  # eligible by construction
        for count in chunks:
            result_s = cursor_s.take(count)
            result_v = cursor_v.take(count)
            np.testing.assert_array_equal(result_s.peers, result_v.peers)
            assert result_s.hops == result_v.hops
            assert cursor_s.position == cursor_v.position
            assert cursor_s.total_hops == cursor_v.total_hops
        assert_stream_parity(stepwise, vectorized)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("jump,burn_in", [(10, None), (1, 0), (3, 7), (0, 5), (2, 0)])
    def test_sample_peers_parity_across_strides(self, variant, jump, burn_in):
        topology = TOPOLOGIES[0]
        stepwise, vectorized = walker_pair(
            topology, variant, jump, burn_in, seed=42
        )
        result_s = stepwise.sample_peers(7, 25)
        result_v = vectorized.sample_peers(7, 25)
        np.testing.assert_array_equal(result_s.peers, result_v.peers)
        assert result_s.hops == result_v.hops
        assert_stream_parity(stepwise, vectorized)

    def test_weighted_metropolis_parity(self):
        topology = TOPOLOGIES[0]
        weights = np.random.default_rng(19).uniform(
            0.5, 3.0, topology.num_peers
        )
        walkers = []
        for kernel in ("stepwise", "vectorized"):
            config = RandomWalkConfig(jump=4, burn_in=6, kernel=kernel)
            walkers.append(
                WeightedMetropolisWalker(topology, weights, config, seed=8)
            )
        stepwise, vectorized = walkers
        result_s = stepwise.sample_peers(3, 40)
        result_v = vectorized.sample_peers(3, 40)
        np.testing.assert_array_equal(result_s.peers, result_v.peers)
        assert result_s.hops == result_v.hops
        assert_stream_parity(stepwise, vectorized)

    def test_trace_digest_parity(self):
        topology = TOPOLOGIES[0]
        digests = []
        for kernel in ("stepwise", "vectorized"):
            config = RandomWalkConfig(
                variant="lazy", jump=5, burn_in=3, kernel=kernel
            )
            walker = RandomWalker(topology, config, seed=77)
            tracer = Tracer()
            with tracing(tracer):
                cursor = walker.cursor(2)
                cursor.take(6)
                cursor.take(9)
            digests.append(tracer.digest())
        assert digests[0] == digests[1]

    def test_first_take_with_zero_burn_in_selects_the_start(self):
        topology = TOPOLOGIES[2]
        _, vectorized = walker_pair(
            topology, "simple", jump=3, burn_in=0, seed=4
        )
        result = vectorized.cursor(1).take(4)
        assert result.peers[0] == 1
        assert result.hops == 9  # (count - 1) * jump, burn-in free

    def test_empty_and_negative_takes_bypass_the_kernel(self):
        topology = TOPOLOGIES[2]
        _, vectorized = walker_pair(
            topology, "simple", jump=2, burn_in=1, seed=4
        )
        cursor = vectorized.cursor(0)
        assert len(cursor.take(0)) == 0
        with pytest.raises(ConfigurationError):
            cursor.take(-1)

    def test_auto_mode_dispatches_into_take_vectorized(self, monkeypatch):
        """``kernel='auto'`` on an eligible config runs the kernel path."""
        calls = []
        original = WalkCursor._take_vectorized

        def spy(self, count):
            calls.append(count)
            return original(self, count)

        monkeypatch.setattr(WalkCursor, "_take_vectorized", spy)
        topology = TOPOLOGIES[0]
        walker = RandomWalker(topology, RandomWalkConfig(), seed=6)
        walker.cursor(0).take(5)
        assert calls == [5]

    def test_stepwise_mode_dispatches_into_take(self, monkeypatch):
        calls = []
        original = WalkCursor._take

        def spy(self, count):
            calls.append(count)
            return original(self, count)

        monkeypatch.setattr(WalkCursor, "_take", spy)
        topology = TOPOLOGIES[0]
        config = RandomWalkConfig(kernel="stepwise")
        walker = RandomWalker(topology, config, seed=6)
        walker.cursor(0).take(5)
        assert calls == [5]


# ---------------------------------------------------------------------------
# Fallback matrix
# ---------------------------------------------------------------------------


class _CustomStepping(RandomWalker):
    def _walk_segment(self, current, hops):
        return current  # teleport-nowhere stepping the kernel can't fuse


class TestFallbackMatrix:
    def test_eligible_config_reports_no_reason(self):
        walker = RandomWalker(TOPOLOGIES[0], RandomWalkConfig(), seed=1)
        assert walker.kernel_ineligibility() is None

    def test_distinct_peer_mode_falls_back(self):
        config = RandomWalkConfig(allow_revisits=False)
        walker = RandomWalker(TOPOLOGIES[0], config, seed=1)
        assert "distinct-peer" in walker.kernel_ineligibility()
        assert walker.cursor(0)._kernel is None  # auto: silent stepwise

    def test_oversized_jump_segment_falls_back(self):
        config = RandomWalkConfig(jump=9000)
        walker = RandomWalker(TOPOLOGIES[0], config, seed=1)
        assert "jump segment" in walker.kernel_ineligibility()

    def test_oversized_burn_in_segment_falls_back(self):
        config = RandomWalkConfig(jump=2, burn_in=9000)
        walker = RandomWalker(TOPOLOGIES[0], config, seed=1)
        assert "burn-in segment" in walker.kernel_ineligibility()

    def test_metropolis_halves_the_segment_budget(self):
        # 2 uniforms per hop: 5000-hop jumps exceed the 8192 block.
        config = RandomWalkConfig(variant="metropolis-uniform", jump=5000)
        walker = RandomWalker(TOPOLOGIES[0], config, seed=1)
        assert walker.kernel_ineligibility() is not None
        simple = RandomWalker(
            TOPOLOGIES[0], RandomWalkConfig(jump=5000), seed=1
        )
        assert simple.kernel_ineligibility() is None

    def test_subclassed_stepping_falls_back(self):
        walker = _CustomStepping(TOPOLOGIES[0], RandomWalkConfig(), seed=1)
        assert "custom _walk_segment" in walker.kernel_ineligibility()
        assert walker.cursor(0)._kernel is None

    def test_monkeypatched_instance_falls_back(self):
        walker = RandomWalker(TOPOLOGIES[0], RandomWalkConfig(), seed=1)
        walker.__dict__["_walk_segment"] = lambda current, hops: current
        assert walker.kernel_ineligibility() is not None

    def test_forced_vectorized_raises_when_ineligible(self):
        config = RandomWalkConfig(allow_revisits=False, kernel="vectorized")
        walker = RandomWalker(TOPOLOGIES[0], config, seed=1)
        with pytest.raises(ConfigurationError, match="not available"):
            walker.cursor(0)

    def test_kernel_rejects_bad_parameters(self):
        tables = kernel_tables(TOPOLOGIES[0])
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            WalkKernel(tables, rng, "simple", jump=0, burn_in=0)
        with pytest.raises(ConfigurationError):
            WalkKernel(tables, rng, "levy-flight", jump=1, burn_in=0)
        kernel = WalkKernel(tables, rng, "simple", jump=1, burn_in=0)
        with pytest.raises(ConfigurationError):
            kernel.take(0, 0, True)

    def test_invalid_kernel_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomWalkConfig(kernel="turbo")
        with pytest.raises(ConfigurationError):
            TwoPhaseConfig(walk_kernel="turbo")


# ---------------------------------------------------------------------------
# Bit parity: engine level
# ---------------------------------------------------------------------------


class TestEngineParity:
    def _run(
        self, small_topology, small_dataset, kernel, fault_plan=None
    ):
        simulator = NetworkSimulator(
            small_topology,
            small_dataset.databases,
            seed=7,
            fault_plan=fault_plan,
        )
        config = TwoPhaseConfig(phase_one_peers=30, walk_kernel=kernel)
        engine = TwoPhaseEngine(simulator, config=config, seed=11)
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(SUM_ALL, 0.15, sink=0)
        return result, tracer.digest()

    def test_estimates_costs_and_traces_match(
        self, small_topology, small_dataset
    ):
        result_s, digest_s = self._run(
            small_topology, small_dataset, "stepwise"
        )
        result_v, digest_v = self._run(
            small_topology, small_dataset, "vectorized"
        )
        assert result_s.estimate == result_v.estimate
        assert result_s.cost == result_v.cost
        assert result_s.confidence_interval == result_v.confidence_interval
        assert digest_s == digest_v

    def test_parity_survives_fault_injection(
        self, small_topology, small_dataset
    ):
        plan = FaultPlan(seed=3, reply_loss=0.15)
        result_s, digest_s = self._run(
            small_topology, small_dataset, "stepwise", fault_plan=plan
        )
        result_v, digest_v = self._run(
            small_topology, small_dataset, "vectorized", fault_plan=plan
        )
        assert result_s.estimate == result_v.estimate
        assert result_s.cost == result_v.cost
        assert digest_s == digest_v

    def test_auto_equals_vectorized_on_eligible_config(
        self, small_topology, small_dataset
    ):
        result_a, digest_a = self._run(small_topology, small_dataset, "auto")
        result_v, digest_v = self._run(
            small_topology, small_dataset, "vectorized"
        )
        assert result_a.estimate == result_v.estimate
        assert digest_a == digest_v


# ---------------------------------------------------------------------------
# Delta re-estimation across churn epochs
# ---------------------------------------------------------------------------


def make_live_network(seed=5):
    topology = power_law_topology(120, 400, seed=2)
    rng = np.random.default_rng(3)
    databases = [
        LocalDatabase({"A": rng.integers(1, 101, 80)})
        for _ in range(topology.num_peers)
    ]
    return LiveNetwork(
        topology,
        databases,
        churn_config=ChurnConfig(join_rate=0.5, leave_rate=0.5),
        seed=seed,
    )


def churned_pair():
    """Two snapshots of one live network with churn in between.

    Returns ``(net1, net2, live)`` where net2's population differs
    from net1's plan stamp (the churn process at these rates never
    leaves both peer and edge counts untouched over 20 steps).
    """
    live = make_live_network()
    net1 = live.snapshot(seed=11)
    live.step(20)
    net2 = live.snapshot(seed=13)
    assert (
        net2.topology.num_peers != net1.topology.num_peers
        or net2.topology.num_edges != net1.topology.num_edges
    )
    return net1, net2, live


class TestDeltaReestimation:
    CONFIG = TwoPhaseConfig(phase_one_peers=20)

    def test_churn_salvages_the_plan_instead_of_invalidating(self):
        net1, net2, _ = churned_pair()
        engine = HybridEngine(
            net1, self.CONFIG, seed=7, delta_reestimation=True
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.execute(SUM_ALL, 0.2, sink=0)
        assert (engine.cold_runs, engine.warm_runs) == (1, 1)
        engine.rebind(net2)
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(SUM_ALL, 0.2, sink=0)
        assert engine.delta_runs == 1
        assert engine.cache.delta_hits == 1
        assert engine.cache.churn_invalidations == 0
        assert not result.degraded
        assert result.effective_sample_size == result.requested_sample_size
        events = [json.loads(line) for line in tracer.lines]
        reuse = [e for e in events if e["kind"] == "delta-reuse"]
        assert len(reuse) == 1
        assert reuse[0]["survivors"] + reuse[0]["deficit"] >= (
            result.requested_sample_size
        )
        assert reuse[0]["dropped"] >= 0

    def test_warm_and_delta_avg_intervals_share_the_cold_scale(self):
        """Regression: warm and delta AVG answers reported their
        half-width on the SUM scale, thousands of times too wide."""
        net1, net2, _ = churned_pair()
        engine = HybridEngine(
            net1, self.CONFIG, seed=7, delta_reestimation=True
        )
        cold = engine.execute(AVG_ALL, 0.2, sink=0)
        warm = engine.execute(AVG_ALL, 0.2, sink=0)
        engine.rebind(net2)
        delta = engine.execute(AVG_ALL, 0.2, sink=0)
        assert (engine.cold_runs, engine.warm_runs, engine.delta_runs) == (
            1, 1, 1,
        )
        exact = evaluate_exact(AVG_ALL, net1.databases())
        cold_width = cold.confidence_interval.half_width
        assert 0 < cold_width < abs(exact)
        for result in (warm, delta):
            width = result.confidence_interval.half_width
            assert cold_width / 10 < width < 10 * cold_width
            assert width < abs(exact)

    def test_delta_topup_is_cheaper_than_cold_rewalk(self):
        net1, net2, live = churned_pair()
        engine = HybridEngine(
            net1, self.CONFIG, seed=7, delta_reestimation=True
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.rebind(net2)
        delta_result = engine.execute(SUM_ALL, 0.2, sink=0)
        cold_engine = HybridEngine(live.snapshot(seed=13), self.CONFIG, seed=7)
        cold_result = cold_engine.execute(SUM_ALL, 0.2, sink=0)
        assert delta_result.cost.hops < cold_result.cost.hops
        assert delta_result.cost.peers_visited < cold_result.cost.peers_visited

    def test_delta_estimate_honors_the_cold_contract(self):
        """The salvaged estimate obeys the same contract as a cold run:
        finite, interval-bracketed, and close to the exact answer."""
        net1, net2, _ = churned_pair()
        engine = HybridEngine(
            net1, self.CONFIG, seed=7, delta_reestimation=True
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.rebind(net2)
        result = engine.execute(SUM_ALL, 0.2, sink=0)
        exact = evaluate_exact(SUM_ALL, net2.databases())
        assert np.isfinite(result.estimate)
        interval = result.confidence_interval
        assert interval.low <= result.estimate <= interval.high
        assert abs(result.estimate - exact) / exact < 0.5
        assert result.phase_two is None  # delta is a one-phase top-up

    def test_plan_is_restamped_so_the_next_run_is_warm(self):
        net1, net2, _ = churned_pair()
        engine = HybridEngine(
            net1, self.CONFIG, seed=7, delta_reestimation=True
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.rebind(net2)
        engine.execute(SUM_ALL, 0.2, sink=0)
        plan = engine.cached_plan(SUM_ALL)
        assert plan.matches_population(
            net2.topology.num_peers, net2.topology.num_edges
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        assert engine.delta_runs == 1
        assert engine.warm_runs == 2

    def test_retained_survivors_drop_departed_peers(self):
        net1, net2, _ = churned_pair()
        engine = HybridEngine(
            net1, self.CONFIG, seed=7, delta_reestimation=True
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        plan = engine.cached_plan(SUM_ALL)
        retained = plan.retained
        assert retained is not None
        live_labels = set(net2.peer_labels)
        survivors = sum(
            1 for label in retained.labels if label in live_labels
        )
        engine.rebind(net2)
        tracer = Tracer()
        with tracing(tracer):
            engine.execute(SUM_ALL, 0.2, sink=0)
        events = [json.loads(line) for line in tracer.lines]
        reuse = [e for e in events if e["kind"] == "delta-reuse"][0]
        # Survivors in the event can only be <= label survival: peers
        # whose degree collapsed to zero are dropped too.
        assert reuse["survivors"] <= survivors
        assert reuse["survivors"] + reuse["dropped"] == len(retained.labels)

    def test_delta_defaults_off_and_churn_invalidates(self):
        net1, net2, _ = churned_pair()
        engine = HybridEngine(net1, self.CONFIG, seed=7)
        assert not engine.delta_reestimation
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.rebind(net2)
        engine.execute(SUM_ALL, 0.2, sink=0)
        assert engine.delta_runs == 0
        assert engine.cache.delta_hits == 0
        assert engine.cache.churn_invalidations == 1
        assert engine.cold_runs == 2

    def test_service_level_delta_counters(self):
        net1, net2, _ = churned_pair()
        service = QueryService(
            net1, self.CONFIG, seed=19, delta_reestimation=True
        )
        service.submit(SUM_ALL, 0.2, sink=0)
        service.run()
        service.submit(SUM_ALL, 0.2, sink=0)
        service.run()
        service.rebind(net2)
        service.submit(SUM_ALL, 0.2, sink=0)
        service.run()
        stats = service.stats()
        assert stats.delta_runs == 1
        assert stats.delta_hits == 1
        assert stats.warm_runs == 1
        assert stats.cold_runs == 1
