"""The fused sparse inform driver against the per-receiver oracle.

``run_inform_stage(..., GossipConfig(knowledge="sparse"))`` runs the
fused driver (priority-space "lowest" trim, interned shards, skipped
no-op merges); :func:`tests.oracles.sparse_inform_oracle` merges and
trims every receiver of every round literally. They must agree on the
knowledge, the traffic and the RNG stream.
"""

import numpy as np
import pytest

from repro.core.gossip import GossipConfig, run_inform_stage
from tests.oracles import sparse_inform_oracle


def gamma_loads(n, seed):
    rng = np.random.default_rng(seed)
    loads = rng.gamma(3.0, 0.5, size=n)
    loads[: max(1, n // 16)] *= 25.0
    return loads


class TestBitIdentity:
    """The fused driver against the oracle, down to the RNG stream."""

    CONFIGS = (
        {},  # uncapped
        {"max_known": 48, "trim_policy": "lowest"},
        {"max_known": 48, "trim_policy": "random"},
    )

    @pytest.mark.parametrize("overrides", CONFIGS, ids=("uncapped", "lowest", "random"))
    def test_kernel_vs_python_20_seeds(self, overrides):
        config = GossipConfig(fanout=4, rounds=6, knowledge="sparse", **overrides)
        for seed in range(20):
            loads = gamma_loads(256, seed)
            ref_rng = np.random.default_rng(seed + 1)
            ref = sparse_inform_oracle(loads, config, ref_rng)
            new_rng = np.random.default_rng(seed + 1)
            new = run_inform_stage(loads, config, new_rng)
            np.testing.assert_array_equal(new.knowledge.rows, ref.knowledge.rows)
            assert new.n_messages == ref.n_messages
            assert new.bytes_sent == ref.bytes_sent
            assert new.per_round_messages == ref.per_round_messages
            assert new.per_round_senders == ref.per_round_senders
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state
