"""Unit tests for repro.runtime.distributed_gossip."""

import numpy as np
import pytest

from repro.core.gossip import SPARSE_AUTO_MIN_RANKS, GossipConfig, run_inform_stage
from repro.core.knowledge import PackedKnowledgeBitmap, SparseKnowledge
from repro.core.tempered import TemperedConfig
from repro.obs import StatsRegistry
from repro.runtime.amt import AMTRuntime
from repro.runtime.distributed_gossip import DistributedGossip
from repro.runtime.lbmanager import LBManager
from repro.sim.process import System
from repro.sim.rng import RankStreams


def loads_two_hot(n=16):
    loads = np.ones(n)
    loads[0] = loads[1] = 10.0
    return loads


class TestDistributedGossip:
    def test_knowledge_covers_underloaded(self):
        sys_ = System(16)
        g = DistributedGossip(sys_, loads_two_hot(), fanout=4, rounds=5)
        out = g.run()
        assert out.knowledge.coverage(out.underloaded) > 0.8

    def test_overloaded_never_advertised(self):
        sys_ = System(16)
        out = DistributedGossip(sys_, loads_two_hot(), fanout=3, rounds=4).run()
        assert not out.knowledge.rows[:, 0].any()
        assert not out.knowledge.rows[:, 1].any()

    def test_elapsed_time_positive_and_small(self):
        sys_ = System(16)
        out = DistributedGossip(sys_, loads_two_hot(), fanout=3, rounds=4).run()
        # Gossip is a lightweight protocol: microseconds to milliseconds.
        assert 0 < out.elapsed < 0.1

    def test_message_bound(self):
        n = 32
        sys_ = System(n)
        out = DistributedGossip(sys_, loads_two_hot(n), fanout=3, rounds=4).run()
        # Coalesced per (rank, round): at most P*k forwards of f messages
        # plus the U initiator sends.
        assert out.n_messages <= n * 4 * 3 + (n - 2) * 3

    def test_no_underloaded_is_quiet(self):
        sys_ = System(8)
        out = DistributedGossip(sys_, np.ones(8)).run()
        assert out.n_messages == 0
        assert out.knowledge.counts().sum() == 0

    def test_deterministic_given_streams(self):
        def run():
            sys_ = System(16)
            g = DistributedGossip(
                sys_, loads_two_hot(), fanout=3, rounds=4, streams=RankStreams(16, seed=5)
            )
            return g.run()

        a, b = run(), run()
        np.testing.assert_array_equal(a.knowledge.rows, b.knowledge.rows)
        assert a.n_messages == b.n_messages
        assert a.elapsed == b.elapsed

    def test_to_gossip_result_roundtrip(self):
        sys_ = System(16)
        out = DistributedGossip(sys_, loads_two_hot(), fanout=3, rounds=4).run()
        res = out.to_gossip_result()
        assert res.average_load == out.average_load
        np.testing.assert_array_equal(res.load_snapshot, out.load_snapshot)

    def test_coverage_comparable_to_phase_level(self):
        # Event-level and phase-level gossip should reach similar
        # knowledge coverage for the same (f, k).
        loads = loads_two_hot(64)
        sys_ = System(64)
        event = DistributedGossip(sys_, loads, fanout=4, rounds=6).run()
        phase = run_inform_stage(loads, GossipConfig(fanout=4, rounds=6), rng=0)
        assert abs(event.knowledge.coverage(event.underloaded) - phase.coverage()) < 0.3

    def test_wrong_load_count(self):
        sys_ = System(4)
        with pytest.raises(ValueError, match="one load per rank"):
            DistributedGossip(sys_, np.ones(3))


class TestSparseEventLevel:
    """The event-level pipeline on the sparse knowledge backend.

    The message-level protocol exchanges sorted rank-id arrays and all
    backends answer ``unknown_targets`` / ``known`` identically, so a
    zero-fault stage must be bit-identical across packed and sparse —
    down to the RNG stream and the registry counters of a full LB
    episode.
    """

    def test_knowledge_knob_validated(self):
        sys_ = System(8)
        with pytest.raises(ValueError, match="knowledge"):
            DistributedGossip(sys_, np.ones(8), knowledge="csr")

    def test_backend_selection(self):
        loads = loads_two_hot(16)
        explicit = DistributedGossip(System(16), loads, knowledge="sparse").run()
        assert isinstance(explicit.knowledge, SparseKnowledge)
        # Auto switches at the scalar-merge crossover; event-level rank
        # counts sit far below it, so auto resolves to packed.
        assert 16 < SPARSE_AUTO_MIN_RANKS
        auto = DistributedGossip(System(16), loads, knowledge="auto").run()
        assert isinstance(auto.knowledge, PackedKnowledgeBitmap)

    def test_packed_sparse_bit_identity_20_seeds(self):
        n = 24
        for seed in range(20):
            rng = np.random.default_rng(seed)
            loads = rng.gamma(3.0, 0.5, size=n)
            loads[: n // 8] *= 20.0
            outs = {}
            for backend in ("packed", "sparse"):
                out = DistributedGossip(
                    System(n),
                    loads,
                    fanout=3,
                    rounds=4,
                    streams=RankStreams(n, seed=seed + 1),
                    knowledge=backend,
                ).run()
                outs[backend] = out
            ref, new = outs["packed"], outs["sparse"]
            np.testing.assert_array_equal(new.knowledge.rows, ref.knowledge.rows)
            np.testing.assert_array_equal(new.underloaded, ref.underloaded)
            assert new.n_messages == ref.n_messages
            assert new.bytes_sent == ref.bytes_sent
            assert new.elapsed == ref.elapsed

    def test_lb_episode_bit_identity_including_registry(self):
        def episode(backend):
            rng = np.random.default_rng(7)
            n_ranks, n_tasks = 8, 48
            task_loads = rng.gamma(4.0, 0.25, size=n_tasks)
            rt = AMTRuntime(
                n_ranks,
                task_loads,
                np.zeros(n_tasks, dtype=np.int64),
                task_overhead=0.001,
            )
            rt.execute_phase()
            registry = StatsRegistry()
            cfg = TemperedConfig(
                n_trials=2, n_iters=2, fanout=3, rounds=4, knowledge=backend
            )
            res = LBManager(rt, cfg, seed=3, registry=registry).run_episode()
            return res, registry

        res_p, reg_p = episode("packed")
        res_s, reg_s = episode("sparse")
        np.testing.assert_array_equal(res_s.assignment, res_p.assignment)
        assert res_s.final_imbalance == res_p.final_imbalance
        assert res_s.t_lb == res_p.t_lb
        assert reg_s.counters == reg_p.counters
