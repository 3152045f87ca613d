"""Algorithm 2 — the transfer stage.

Every overloaded rank (``l^p > h * l_ave``) walks its tasks in the
configured order and, for each candidate, samples a potential recipient
from the CMF over the underloaded ranks it learned about during the
inform stage, then applies the transfer criterion.

Two *view* semantics are provided, because the paper uses both:

``snapshot`` (default — the distributed system)
    A sender's knowledge of recipient loads is the inform-stage snapshot
    plus only its *own* accepted transfers. Concurrent transfers from
    other overloaded ranks are invisible (no negative acknowledgements,
    § V-A), so a recipient can be overfilled by several senders at once.

``shared`` (the LBAF analysis tool of § V-B/V-D)
    All ranks observe live proposed loads, as in a sequential simulation
    with global state. This is the semantics that reproduces the paper's
    per-iteration transfer/rejection tables (e.g. >10^4 transfers in one
    iteration — tasks moving more than once via cascading).

Orthogonally, ``max_passes`` lets a rank cycle over its task list until
it stops being overloaded or a full pass accepts nothing (the paper's
rejection counts imply such retrying), and ``cascade`` re-queues ranks
that *become* overloaded during the stage.

The stage mutates a *proposed* assignment; actual migrations happen only
once at the end of Algorithm 3 (see :mod:`repro.core.refinement`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.cmf import CMF_MODIFIED, CMF_ORIGINAL, IncrementalCMF
from repro.core.criteria import CRITERIA, CRITERION_RELAXED
from repro.core.gossip import GossipResult
from repro.core.ordering import ORDER_ARBITRARY, ORDERINGS, order_tasks
from repro.core.soa import RankTaskState
from repro.obs import StatsRegistry
from repro.util.validation import check_in, check_positive, coerce_rng

__all__ = ["TransferConfig", "TransferStats", "transfer_stage", "transfer_from_rank"]

VIEW_SNAPSHOT = "snapshot"
VIEW_SHARED = "shared"

#: Hard cap on full passes when ``max_passes`` is None ("until no progress").
_PASS_CAP = 1000


@dataclass(frozen=True)
class TransferConfig:
    """Knobs of Algorithm 2 (the § V proposed changes toggle these)."""

    criterion: str = CRITERION_RELAXED  #: "original" (l.35) or "relaxed" (l.37)
    cmf: str = CMF_MODIFIED  #: "original" (l.23) or "modified" (l.25)
    recompute_cmf: bool = True  #: rebuild F per candidate (l.7) vs once (l.5)
    ordering: str = ORDER_ARBITRARY  #: § V-E traversal order
    threshold: float = 1.0  #: h — relative imbalance threshold
    view: str = VIEW_SNAPSHOT  #: "snapshot" (distributed) or "shared" (LBAF)
    max_passes: int | None = 1  #: passes over the task list; None = no-progress
    cascade: bool = False  #: process ranks overloaded mid-stage
    nacks: bool = False  #: Menon-style negative acknowledgements (§ V-A)

    def __post_init__(self) -> None:
        check_in("criterion", self.criterion, CRITERIA)
        check_in("cmf", self.cmf, (CMF_ORIGINAL, CMF_MODIFIED))
        check_in("ordering", self.ordering, ORDERINGS)
        check_positive("threshold", self.threshold)
        check_in("view", self.view, (VIEW_SNAPSHOT, VIEW_SHARED))
        if self.max_passes is not None:
            check_positive("max_passes", self.max_passes)


@dataclass
class TransferStats:
    """Acceptance/rejection accounting for one transfer stage.

    ``transfers`` and ``rejections`` correspond to the columns of the
    § V-B / § V-D tables (a task moving twice counts twice).
    ``stalled_ranks`` counts overloaded ranks that stopped early because
    no CMF could be built (no known candidate with positive mass).
    """

    transfers: int = 0
    rejections: int = 0
    nacked: int = 0  #: transfers vetoed by the recipient (nacks mode)
    overloaded_ranks: int = 0
    stalled_ranks: int = 0
    rank_processings: int = 0
    cmf_builds: int = 0  #: full O(n) CMF builds (one per sender, plus l_s moves)
    cmf_updates: int = 0  #: O(log n) incremental mass updates (l.7)
    budget_exhausted: bool = False
    moves: list[tuple[int, int, int]] = field(default_factory=list)  #: (task, src, dst)

    @property
    def proposed(self) -> int:
        """Criterion evaluations: accepted + rejected proposals."""
        return self.transfers + self.rejections

    @property
    def rejection_rate(self) -> float:
        """Rejected / attempts, as a fraction in [0, 1]."""
        attempts = self.transfers + self.rejections
        return self.rejections / attempts if attempts else 0.0

    def merge(self, other: "TransferStats") -> None:
        """Accumulate another stage's counters into this one."""
        self.transfers += other.transfers
        self.rejections += other.rejections
        self.nacked += other.nacked
        self.overloaded_ranks += other.overloaded_ranks
        self.stalled_ranks += other.stalled_ranks
        self.rank_processings += other.rank_processings
        self.cmf_builds += other.cmf_builds
        self.cmf_updates += other.cmf_updates
        self.budget_exhausted |= other.budget_exhausted
        self.moves.extend(other.moves)

    def record(self, registry: StatsRegistry, prefix: str = "transfer") -> None:
        """Add this stage's counters to a registry under ``prefix``."""
        registry.inc(f"{prefix}.stages")
        registry.inc(f"{prefix}.proposed", self.proposed)
        registry.inc(f"{prefix}.accepted", self.transfers)
        registry.inc(f"{prefix}.rejected", self.rejections)
        registry.inc(f"{prefix}.nacked", self.nacked)
        registry.inc(f"{prefix}.cmf_builds", self.cmf_builds)
        registry.inc(f"{prefix}.cmf_updates", self.cmf_updates)
        registry.inc(f"{prefix}.overloaded_ranks", self.overloaded_ranks)
        registry.inc(f"{prefix}.stalled_ranks", self.stalled_ranks)


def transfer_stage(
    assignment: np.ndarray,
    task_loads: np.ndarray,
    gossip: GossipResult,
    config: TransferConfig | None = None,
    rng: np.random.Generator | int | None = None,
    registry: StatsRegistry | None = None,
) -> TransferStats:
    """Run Algorithm 2 on every overloaded rank, mutating ``assignment``.

    Parameters
    ----------
    assignment:
        Proposed task->rank mapping; mutated in place with accepted
        transfers.
    task_loads:
        Global per-task loads (read-only).
    gossip:
        Result of the matching inform stage; provides each rank's
        knowledge ``S^p`` and the load snapshot ``LOAD^p``.
    config:
        Algorithm 2 knobs; defaults to the TemperedLB configuration.
    rng:
        Seed or generator for CMF sampling.
    registry:
        Optional :class:`~repro.obs.StatsRegistry`; records the stage's
        proposal/acceptance counters under the ``transfer.`` prefix.
        Never consumes RNG.
    """
    config = config or TransferConfig()
    rng = coerce_rng(rng)
    n_ranks = gossip.knowledge.n_ranks
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks).astype(
        np.float64
    )
    l_ave = gossip.average_load
    threshold_load = config.threshold * l_ave
    stats = TransferStats()

    overloaded = np.flatnonzero(loads > threshold_load)
    stats.overloaded_ranks = overloaded.size
    if overloaded.size == 0:
        if registry is not None and registry.enabled:
            stats.record(registry)
        return stats

    # Mutable per-rank task state. Senders only consult their own tasks;
    # recipient arrivals are maintained so cascaded processing sees them.
    state = RankTaskState(assignment, n_ranks)

    queue: deque[int] = deque(int(p) for p in overloaded)
    queued = set(queue)
    # Budget against pathological re-queue cycles; generous because the
    # relaxed criterion guarantees monotone progress (Lemma 1).
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
            p, state, assignment, task_loads, loads, l_ave, gossip, config, rng, stats
        )
        if config.cascade:
            for r in recipients:
                if loads[r] > threshold_load and r not in queued:
                    queue.append(r)
                    queued.add(r)
    if registry is not None and registry.enabled:
        stats.record(registry)
    return stats


def transfer_from_rank(
    p: int,
    assignment: np.ndarray,
    task_loads: np.ndarray,
    gossip: GossipResult,
    config: TransferConfig | None = None,
    rng: np.random.Generator | int | None = None,
    registry: StatsRegistry | None = None,
) -> TransferStats:
    """Run Algorithm 2 for a single rank ``p`` (the per-rank view an
    event-level runtime charges each rank for). Mutates ``assignment``
    with ``p``'s accepted proposals and returns ``p``'s own stats."""
    config = config or TransferConfig()
    rng = coerce_rng(rng)
    n_ranks = gossip.knowledge.n_ranks
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks).astype(
        np.float64
    )
    stats = TransferStats()
    if loads[p] <= config.threshold * gossip.average_load:
        return stats
    stats.overloaded_ranks = 1
    stats.rank_processings = 1
    _transfer_from_rank(
        int(p),
        RankTaskState(assignment, n_ranks),
        assignment,
        task_loads,
        loads,
        gossip.average_load,
        gossip,
        config,
        rng,
        stats,
    )
    if registry is not None and registry.enabled:
        stats.record(registry)
    return stats


def _transfer_from_rank(
    p: int,
    state: RankTaskState,
    assignment: np.ndarray,
    task_loads: np.ndarray,
    loads: np.ndarray,
    l_ave: float,
    gossip: GossipResult,
    config: TransferConfig,
    rng: np.random.Generator,
    stats: TransferStats,
) -> set[int]:
    """Algorithm 2 TRANSFER for one overloaded rank ``p``.

    The sender's tasks come from the :class:`RankTaskState` CSR view and
    recipients are drawn from an :class:`IncrementalCMF`, which keeps
    l.7's recomputation at O(log n) per accepted transfer. Without
    recomputation (l.5) the distribution built up front stays fixed and
    a correction only writes the sender's known load.

    Returns the set of ranks that received tasks (for cascading).
    """
    candidates = gossip.knowledge.known(p)
    candidates = candidates[candidates != p]
    if candidates.size == 0:
        stats.stalled_ranks += 1
        return set()

    shared = config.view == VIEW_SHARED
    if shared:
        # Live view: per-use loads are re-read from the global proposed
        # loads; the sampler's gather is point-updated on each accept
        # (only the recipient's entry can change between refreshes).
        known_loads = loads[candidates]
    else:
        # Local view: inform-time snapshot + this sender's own transfers.
        known_loads = gossip.load_snapshot[candidates].copy()
    sampler = IncrementalCMF(known_loads, l_ave, config.cmf, copy=False)
    known_loads = sampler.loads  # single source of truth for l_x reads

    criterion = CRITERIA[config.criterion]
    threshold_load = config.threshold * l_ave
    tasks = state.tasks(p)
    touched: set[int] = set()

    max_passes = config.max_passes if config.max_passes is not None else _PASS_CAP
    for _ in range(max_passes):
        if loads[p] <= threshold_load or tasks.size == 0:
            break
        order = order_tasks(
            config.ordering,
            tasks.astype(np.int64, copy=False),
            task_loads,
            l_ave,
            float(loads[p]),
        )
        o_loads = task_loads[order]
        accepted: list[int] = []
        for task, o_load in zip(order.tolist(), o_loads.tolist()):
            if loads[p] <= threshold_load:
                break
            if sampler.exhausted:
                break
            idx = sampler.sample(rng)
            if shared:
                l_x = float(loads[candidates[idx]])
            else:
                l_x = float(known_loads[idx])
            if criterion(l_x, o_load, l_ave, float(loads[p])):
                recipient = int(candidates[idx])
                if config.nacks and loads[recipient] + o_load > threshold_load:
                    # Menon-style negative acknowledgement: the recipient
                    # vetoes a transfer that would overload it (checked
                    # against its *true* load). The sender corrects its
                    # knowledge and keeps the task.
                    stats.nacked += 1
                    if not shared:
                        if config.recompute_cmf:
                            sampler.update(idx, float(loads[recipient]))
                        else:
                            known_loads[idx] = loads[recipient]
                    continue
                loads[p] -= o_load
                loads[recipient] += o_load
                assignment[task] = recipient
                state.append(recipient, task)
                accepted.append(task)
                touched.add(recipient)
                stats.transfers += 1
                stats.moves.append((task, p, recipient))
                if config.recompute_cmf:
                    new_known = float(loads[recipient]) if shared else l_x + o_load
                    sampler.update(idx, new_known)
                elif not shared:
                    known_loads[idx] = l_x + o_load
            else:
                stats.rejections += 1
        if accepted:
            # Set-filter beats np.isin here: task lists are short and
            # np.isin's per-call dispatch dominates at this grain.
            remaining = set(accepted)
            tasks = np.asarray(
                [t for t in tasks.tolist() if t not in remaining],
                dtype=tasks.dtype,
            )
            state.set_tasks(p, tasks)
        else:
            break
        if sampler.exhausted:
            break
    stats.cmf_builds += sampler.builds
    stats.cmf_updates += sampler.updates
    if sampler.exhausted and loads[p] > threshold_load:
        stats.stalled_ranks += 1
    return touched
