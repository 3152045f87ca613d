"""The scaling stack is bit-identical to the reference stacks.

``knowledge="sparse"`` gossip (the fused driver) exists purely for
memory and wall-time at high rank counts — every decision it makes must
be the one the packed bitmap makes, and the one the per-receiver sparse
oracle makes. These tests drive full inform+transfer episodes over 20
seeds at 512 and 4,096 ranks: production sparse inform + production
transfer against packed inform + the Algorithm 2 oracle, and the fused
driver against :func:`tests.oracles.sparse_inform_oracle`. They require
exact equality of the knowledge matrix, the per-round sender/message
accounting, the transferred assignment and the decision counters — plus
the final RNG state, so the stacks consume the identical stream and
stay interchangeable mid-episode.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.gossip import (
    SPARSE_AUTO_MIN_RANKS,
    SPARSE_AUTO_MIN_RANKS_FAST,
    GossipConfig,
    run_inform_stage,
)
from repro.core.tempered import TemperedConfig
from repro.core.transfer import TransferConfig, transfer_stage
from tests.oracles import sparse_inform_oracle, transfer_stage_oracle

SEEDS = range(20)


def _scenario(n_ranks, n_tasks, seed):
    rng = np.random.default_rng(seed)
    task_loads = rng.gamma(3.0, 0.3, size=n_tasks)
    # All load on a hot prefix: plenty of overloaded senders and a wide
    # underloaded gossip population.
    assignment = rng.integers(0, max(2, n_ranks // 32), size=n_tasks)
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    return assignment, task_loads, loads


def _inform(inform, loads, gossip_cfg, seed):
    rng = np.random.default_rng(seed + 1)
    return inform(loads, gossip_cfg, rng), rng.bit_generator.state


def _run_stack(inform, transfer, loads, assignment, task_loads, gossip_cfg, seed):
    gossip, inform_state = _inform(inform, loads, gossip_cfg, seed)
    moved = np.array(assignment, copy=True)
    rng = np.random.default_rng(seed + 2)
    stats = transfer(moved, task_loads, gossip, None, rng)
    # The oracle rebuilds the CMF where production updates it in place,
    # so only the decisions are compared, not the CMF cost counters.
    decisions = {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name not in ("cmf_builds", "cmf_updates")
    }
    return (gossip, inform_state), (moved, decisions, rng.bit_generator.state)


def _packed(loads, config, rng):
    return run_inform_stage(loads, dataclasses.replace(config, knowledge="packed"), rng)


def _sparse(loads, config, rng):
    return run_inform_stage(loads, dataclasses.replace(config, knowledge="sparse"), rng)


def _assert_informs_equal(ref, new):
    (g_ref, state_ref), (g_new, state_new) = ref, new
    np.testing.assert_array_equal(g_new.knowledge.rows, g_ref.knowledge.rows)
    assert g_new.n_messages == g_ref.n_messages
    assert g_new.bytes_sent == g_ref.bytes_sent
    assert g_new.per_round_senders == g_ref.per_round_senders
    assert g_new.per_round_messages == g_ref.per_round_messages
    assert g_new.rounds_run == g_ref.rounds_run
    assert state_new == state_ref


def _assert_transfers_equal(ref, new):
    (a_ref, s_ref, state_ref), (a_new, s_new, state_new) = ref, new
    np.testing.assert_array_equal(a_new, a_ref)
    assert s_new == s_ref
    assert state_new == state_ref


class TestStackEquivalence:
    @pytest.mark.parametrize(
        "n_ranks,n_tasks,gossip_cfg",
        [
            (512, 1_500, GossipConfig(fanout=3, rounds=4)),
            (512, 1_500, GossipConfig(fanout=3, rounds=4, max_known=48)),
            (
                512,
                1_500,
                GossipConfig(
                    fanout=3, rounds=4, max_known=48, trim_policy="lowest"
                ),
            ),
            (
                4_096,
                6_000,
                GossipConfig(
                    fanout=3, rounds=3, max_known=64, trim_policy="lowest"
                ),
            ),
            (4_096, 6_000, GossipConfig(fanout=3, rounds=3, max_known=64)),
        ],
        ids=["512-uncapped", "512-random", "512-lowest", "4k-lowest", "4k-random"],
    )
    def test_sparse_soa_equals_packed_lists_20_seeds(
        self, n_ranks, n_tasks, gossip_cfg
    ):
        for seed in SEEDS:
            assignment, task_loads, loads = _scenario(n_ranks, n_tasks, seed)
            args = (loads, assignment, task_loads, gossip_cfg, seed)
            new_inform, new_transfer = _run_stack(_sparse, transfer_stage, *args)
            ref_inform, ref_transfer = _run_stack(_packed, transfer_stage_oracle, *args)
            _assert_informs_equal(ref_inform, new_inform)
            _assert_transfers_equal(ref_transfer, new_transfer)
            oracle = _inform(sparse_inform_oracle, loads, gossip_cfg, seed)
            _assert_informs_equal(oracle, new_inform)


class TestKnowledgeKnob:
    def test_sparse_requires_batched_coalesced(self):
        with pytest.raises(ValueError):
            GossipConfig(knowledge="sparse", engine="loop")
        with pytest.raises(ValueError):
            GossipConfig(knowledge="sparse", mode="per_message")

    def test_sparse_rejects_bias_and_faults(self):
        from repro.sim.faults import FaultConfig

        with pytest.raises(ValueError):
            GossipConfig(knowledge="sparse", ranks_per_node=8, intra_node_bias=0.5)
        with pytest.raises(ValueError):
            GossipConfig(knowledge="sparse", faults=FaultConfig(loss_rate=0.1))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            GossipConfig(knowledge="csr")

    def test_auto_resolution_rule(self):
        # The threshold follows the measured packed/sparse crossover of
        # the fused sparse driver: sparse wins from the 8k rung.
        capped = GossipConfig(max_known=512)
        assert capped.resolve_knowledge(SPARSE_AUTO_MIN_RANKS_FAST) == "sparse"
        assert capped.resolve_knowledge(SPARSE_AUTO_MIN_RANKS_FAST - 1) == "packed"
        # No cap -> shards are O(P^2) too; auto stays packed.
        assert GossipConfig().resolve_knowledge(SPARSE_AUTO_MIN_RANKS) == "packed"
        # Packed-only features keep auto on packed at any rank count.
        biased = GossipConfig(max_known=512, ranks_per_node=8, intra_node_bias=0.5)
        assert biased.resolve_knowledge(SPARSE_AUTO_MIN_RANKS) == "packed"
        # Explicit selection wins regardless of rank count.
        assert GossipConfig(knowledge="sparse").resolve_knowledge(8) == "sparse"
        assert (
            GossipConfig(knowledge="packed").resolve_knowledge(SPARSE_AUTO_MIN_RANKS)
            == "packed"
        )

    def test_explicit_sparse_matches_packed_at_tiny_scale(self):
        # The backend knob is a pure representation choice even far
        # below the auto threshold.
        loads = np.array([9.0, 0.5, 0.25, 0.25, 4.0, 0.0, 1.0, 0.0])
        results = {}
        for backend in ("packed", "sparse"):
            results[backend] = run_inform_stage(
                loads,
                GossipConfig(fanout=2, rounds=3, knowledge=backend),
                np.random.default_rng(5),
            )
        np.testing.assert_array_equal(
            results["sparse"].knowledge.rows, results["packed"].knowledge.rows
        )
        assert results["sparse"].n_messages == results["packed"].n_messages


class TestTemperedPassthrough:
    def test_knobs_reach_stage_configs(self):
        config = TemperedConfig(knowledge="sparse", max_known=128)
        assert config.gossip_config().knowledge == "sparse"
        assert config.gossip_config().max_known == 128

    def test_defaults_are_auto_soa_python(self):
        # Knowledge defaults to auto; the transfer and sparse-inform
        # stages each have one path, so no knob selects between paths.
        config = TemperedConfig()
        assert config.gossip_config().knowledge == "auto"
        fields = {
            f.name
            for cls in (TemperedConfig, GossipConfig, TransferConfig)
            for f in dataclasses.fields(cls)
        }
        removed = {
            "kernel",
            "cmf_update",
            "gossip_kernel",
            "transfer_engine",
            "transfer_kernel",
        }
        assert not fields & removed
        assert "engine" not in {f.name for f in dataclasses.fields(TransferConfig)}

    def test_invalid_knowledge_rejected_at_construction(self):
        with pytest.raises(ValueError):
            TemperedConfig(knowledge="bitset")
