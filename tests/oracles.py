"""Reference implementations that the production stages are tested against.

Each oracle is the literal, unoptimized form of a stage that production
runs through a faster formulation. The two must make identical
decisions and consume the identical RNG stream, so every comparison is
exact:

:func:`transfer_stage_oracle`
    Algorithm 2 as the paper writes it: per-rank Python task lists, and
    a full ``build_cmf`` + ``sample_cmf`` after every accepted transfer
    (l.7). Production: :func:`repro.core.transfer.transfer_stage`, which
    keeps CSR rank state and an O(log n) :class:`IncrementalCMF`.
:func:`sparse_inform_oracle`
    The sparse inform stage with one concat / sort / dedup / trim per
    receiver per round. Production: the fused sparse driver behind
    ``run_inform_stage(..., GossipConfig(knowledge="sparse"))``, which
    interns shards, skips no-op merges and fuses the "lowest" trim.

Only tests import this module; nothing under ``src/`` may.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import numpy as np

from repro.core.cmf import build_cmf, sample_cmf
from repro.core.criteria import CRITERIA
from repro.core.gossip import (
    ENTRY_BYTES,
    HEADER_BYTES,
    SPARSE_AUTO_MIN_RANKS_FAST,
    GossipConfig,
    GossipResult,
    _finalize_rounds,
    _sample_packed_rows,
    _SparseComplementCandidates,
    _trim_rows_sparse,
)
from repro.core.knowledge import SparseKnowledge
from repro.core.ordering import order_tasks
from repro.core.transfer import (
    _PASS_CAP,
    VIEW_SHARED,
    TransferConfig,
    TransferStats,
)
from repro.util.validation import coerce_rng

__all__ = ["transfer_stage_oracle", "sparse_inform_oracle"]


# -- Algorithm 2 --------------------------------------------------------------


def transfer_stage_oracle(
    assignment: np.ndarray,
    task_loads: np.ndarray,
    gossip: GossipResult,
    config: TransferConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> TransferStats:
    """Algorithm 2 over every overloaded rank; mutates ``assignment``.

    Same signature and semantics as
    :func:`repro.core.transfer.transfer_stage` (minus the registry).
    ``cmf_builds`` counts one full build per (re)computation, and
    ``cmf_updates`` stays 0.
    """
    config = config or TransferConfig()
    rng = coerce_rng(rng)
    n_ranks = gossip.knowledge.n_ranks
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks).astype(
        np.float64
    )
    threshold_load = config.threshold * gossip.average_load
    stats = TransferStats()
    overloaded = np.flatnonzero(loads > threshold_load)
    stats.overloaded_ranks = overloaded.size
    rank_tasks: list[list[int]] = [[] for _ in range(n_ranks)]
    for task, rank in enumerate(np.asarray(assignment).tolist()):
        rank_tasks[rank].append(task)

    queue = deque(int(p) for p in overloaded)
    queued = set(queue)
    budget = 20 * n_ranks + 100
    while queue:
        p = queue.popleft()
        queued.discard(p)
        if loads[p] <= threshold_load:
            continue
        if stats.rank_processings >= budget:
            stats.budget_exhausted = True
            break
        stats.rank_processings += 1
        recipients = _transfer_from_rank(
            p, rank_tasks, assignment, task_loads, loads, gossip, config, rng, stats
        )
        if config.cascade:
            for r in recipients:
                if loads[r] > threshold_load and r not in queued:
                    queue.append(r)
                    queued.add(r)
    return stats


def _transfer_from_rank(
    p: int,
    rank_tasks: list[list[int]],
    assignment: np.ndarray,
    task_loads: np.ndarray,
    loads: np.ndarray,
    gossip: GossipResult,
    config: TransferConfig,
    rng: np.random.Generator,
    stats: TransferStats,
) -> set[int]:
    """TRANSFER for one overloaded rank ``p``; returns the recipients."""
    candidates = gossip.knowledge.known(p)
    candidates = candidates[candidates != p]
    if candidates.size == 0:
        stats.stalled_ranks += 1
        return set()
    l_ave = gossip.average_load
    shared = config.view == VIEW_SHARED
    if shared:
        known = loads[candidates]
    else:
        known = gossip.load_snapshot[candidates].copy()
    cmf = build_cmf(known, l_ave, config.cmf)
    stats.cmf_builds += 1

    def refresh(idx: int, new_load: float) -> None:
        nonlocal cmf
        known[idx] = new_load
        if config.recompute_cmf:
            cmf = build_cmf(known, l_ave, config.cmf)
            stats.cmf_builds += 1

    criterion = CRITERIA[config.criterion]
    threshold_load = config.threshold * l_ave
    touched: set[int] = set()
    max_passes = config.max_passes if config.max_passes is not None else _PASS_CAP
    for _ in range(max_passes):
        tasks = rank_tasks[p]
        if loads[p] <= threshold_load or not tasks:
            break
        order = order_tasks(
            config.ordering,
            np.asarray(tasks, dtype=np.int64),
            task_loads,
            l_ave,
            float(loads[p]),
        )
        accepted: list[int] = []
        for task in order.tolist():
            if loads[p] <= threshold_load or cmf is None:
                break
            o_load = float(task_loads[task])
            idx = sample_cmf(cmf, rng)
            l_x = float(loads[candidates[idx]]) if shared else float(known[idx])
            if not criterion(l_x, o_load, l_ave, float(loads[p])):
                stats.rejections += 1
                continue
            recipient = int(candidates[idx])
            if config.nacks and loads[recipient] + o_load > threshold_load:
                stats.nacked += 1
                if not shared:
                    refresh(idx, float(loads[recipient]))
                continue
            loads[p] -= o_load
            loads[recipient] += o_load
            assignment[task] = recipient
            rank_tasks[recipient].append(task)
            accepted.append(task)
            touched.add(recipient)
            stats.transfers += 1
            stats.moves.append((task, p, recipient))
            refresh(idx, float(loads[recipient]) if shared else l_x + o_load)
        if not accepted:
            break
        remaining = set(accepted)
        rank_tasks[p] = [t for t in tasks if t not in remaining]
        if cmf is None:
            break
    if cmf is None and loads[p] > threshold_load:
        stats.stalled_ranks += 1
    return touched


# -- Algorithm 1, sparse backend ---------------------------------------------


def sparse_inform_oracle(
    rank_loads: np.ndarray,
    config: GossipConfig,
    rng: np.random.Generator | int | None = None,
) -> GossipResult:
    """The coalesced inform stage on :class:`SparseKnowledge`, merged
    receiver by receiver.

    Same result as ``run_inform_stage(rank_loads, config, rng)`` with
    ``config.knowledge`` forced to "sparse" (no registry, no faults).
    """
    config = dataclasses.replace(config, knowledge="sparse")
    rng = coerce_rng(rng)
    loads = np.ascontiguousarray(rank_loads, dtype=np.float64)
    l_ave = float(loads.mean())
    know = SparseKnowledge(loads.size)
    result = GossipResult(
        knowledge=know,
        underloaded=loads < l_ave,
        load_snapshot=loads.copy(),
        average_load=l_ave,
        knowledge_backend="sparse",
        auto_threshold=SPARSE_AUTO_MIN_RANKS_FAST,
    )
    seeds = np.flatnonzero(result.underloaded)
    if seeds.size:
        know.add_self(seeds)
        _sparse_rounds(know, seeds, config, rng, result)
        _finalize_rounds(result)
    return result


def _sparse_rounds(
    know: SparseKnowledge,
    seeds: np.ndarray,
    config: GossipConfig,
    rng: np.random.Generator,
    result: GossipResult,
) -> None:
    n_ranks = know.n_ranks
    rpn = config.ranks_per_node
    template = np.packbits(np.ones(n_ranks, dtype=bool))
    senders = seeds.astype(np.int64)
    initiating = True
    for _round in range(config.rounds):
        result.per_round_messages.append(0)
        result.per_round_senders.append(int(senders.size))
        # Shard references are the round's payload snapshot: every
        # SparseKnowledge mutation replaces a shard array, so same-round
        # merges cannot leak into these payloads.
        snap = [know.shards[s] for s in senders.tolist()]
        lens = np.fromiter((s.size for s in snap), np.int64, senders.size)
        if initiating or not config.avoid_known:
            counts = np.full(senders.size, n_ranks - 1, dtype=np.int64)
            cand = _SparseComplementCandidates(
                n_ranks, senders, None, None, None, template
            )
        else:
            # Flat keys `row * P + id` over the row-major shard concat
            # are globally sorted (shards are sorted, rows ascend), so
            # membership for a whole wave is one searchsorted.
            flat_keys = np.repeat(
                np.arange(senders.size, dtype=np.int64) * n_ranks, lens
            ) + np.concatenate(snap).astype(np.int64)
            self_keys = np.arange(senders.size, dtype=np.int64) * n_ranks + senders
            knows_self = np.isin(self_keys, flat_keys)
            counts = n_ranks - lens - (~knows_self)
            cand = _SparseComplementCandidates(
                n_ranks, senders, snap, lens, flat_keys, template
            )
        want = np.minimum(config.fanout, counts)
        row_idx, targets = _sample_packed_rows(rng, cand, counts, want, n_ranks)
        if targets.size == 0:
            break
        n = int(targets.size)
        result.n_messages += n
        result.bytes_sent += n * HEADER_BYTES + ENTRY_BYTES * int(lens[row_idx].sum())
        result.per_round_messages[-1] = n
        result.inter_node_messages += int(
            np.count_nonzero(targets // rpn != senders[row_idx] // rpn)
        )
        # Group messages by receiver; each receiver's new shard is the
        # sorted, deduplicated union of its own shard with every payload
        # addressed to it.
        order = np.argsort(targets, kind="stable")
        targets_sorted = targets[order]
        sources = row_idx[order].tolist()
        receivers, starts = np.unique(targets_sorted, return_index=True)
        bounds = np.append(starts, targets_sorted.size).tolist()
        for i, r in enumerate(receivers.tolist()):
            merged = np.concatenate(
                [know.shards[r]] + [snap[j] for j in sources[bounds[i] : bounds[i + 1]]]
            )
            merged.sort()
            keep = np.empty(merged.size, dtype=bool)
            keep[:1] = True
            np.not_equal(merged[1:], merged[:-1], out=keep[1:])
            know.shards[r] = merged[keep]
        _trim_rows_sparse(know, receivers, result.load_snapshot, config, rng)
        initiating = False
        senders = receivers
