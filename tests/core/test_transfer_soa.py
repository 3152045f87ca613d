"""The production transfer stage against the Algorithm 2 oracle.

:func:`repro.core.transfer.transfer_stage` walks CSR rank state
(:class:`RankTaskState`) and maintains the recipient CMF incrementally;
:func:`tests.oracles.transfer_stage_oracle` keeps per-rank Python lists
and rebuilds the CMF from scratch after every accepted transfer, as the
paper writes it. Neither representation may change a single decision:
every config variant must produce the identical assignment, moves,
counters and final RNG state under the same seed.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.soa import RankTaskState
from repro.core.transfer import TransferConfig, transfer_stage
from tests.oracles import transfer_stage_oracle

VARIANTS = {
    "default": TransferConfig(),
    "lbaf-view": TransferConfig(view="shared", max_passes=None, cascade=True),
    "nacks": TransferConfig(nacks=True),
    "no-recompute": TransferConfig(recompute_cmf=False),
    "original": TransferConfig(criterion="original", cmf="original"),
    "arbitrary-3pass": TransferConfig(ordering="arbitrary", max_passes=3),
    "lightest": TransferConfig(ordering="lightest"),
}

#: Counters that describe *how* the CMF was maintained, not what it
#: decided: the oracle rebuilds where production updates in place.
CMF_COST_FIELDS = ("cmf_builds", "cmf_updates")


def _episode(seed, n_ranks=24, tasks_per_rank=20):
    rng = np.random.default_rng(seed)
    n_tasks = n_ranks * tasks_per_rank
    task_loads = rng.gamma(3.0, 0.3, size=n_tasks)
    assignment = rng.integers(0, max(2, n_ranks // 4), size=n_tasks)
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    gossip = run_inform_stage(
        loads, GossipConfig(fanout=3, rounds=4), np.random.default_rng(seed + 1)
    )
    return assignment, task_loads, gossip


def _run(stage, config, assignment, task_loads, gossip, seed):
    moved = np.array(assignment, copy=True)
    rng = np.random.default_rng(seed + 2)
    stats = stage(moved, task_loads, gossip, config, rng)
    decisions = {
        k: v for k, v in dataclasses.asdict(stats).items() if k not in CMF_COST_FIELDS
    }
    return moved, decisions, rng.bit_generator.state


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", list(VARIANTS))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_soa_matches_lists(self, name, seed):
        config = VARIANTS[name]
        assignment, task_loads, gossip = _episode(seed)
        ref = _run(transfer_stage_oracle, config, assignment, task_loads, gossip, seed)
        new = _run(transfer_stage, config, assignment, task_loads, gossip, seed)
        np.testing.assert_array_equal(new[0], ref[0])
        # Assignment, moves, transfers, rejections, nacks, stalls, ...
        assert new[1] == ref[1]
        # Both consume the identical RNG stream — they stay
        # interchangeable mid-trial.
        assert new[2] == ref[2]


class TestRankTaskState:
    def test_matches_naive_lists(self):
        rng = np.random.default_rng(3)
        n_ranks, n_tasks = 7, 40
        assignment = rng.integers(0, n_ranks, size=n_tasks)
        state = RankTaskState(assignment, n_ranks)
        naive = [[] for _ in range(n_ranks)]
        for task, rank in enumerate(assignment.tolist()):
            naive[rank].append(task)
        assert state.to_lists() == naive

    def test_append_and_set_tasks(self):
        assignment = np.array([0, 0, 1, 2])
        state = RankTaskState(assignment, 3)
        state.append(1, 0)  # task 0 arrives at rank 1
        state.set_tasks(0, np.array([1], dtype=np.int32))
        assert list(state.tasks(0)) == [1]
        assert list(state.tasks(1)) == [2, 0]  # arrivals after originals
        assert list(state.tasks(2)) == [3]

    def test_untouched_rank_returns_shared_view(self):
        assignment = np.array([0, 1, 1, 2])
        state = RankTaskState(assignment, 3)
        view = state.tasks(1)
        assert view.base is not None  # a slice of the CSR buffer
        assert list(view) == [1, 2]

    def test_empty_ranks(self):
        state = RankTaskState(np.array([2, 2]), 4)
        assert state.tasks(0).size == 0
        assert state.tasks(3).size == 0
        assert list(state.tasks(2)) == [0, 1]
