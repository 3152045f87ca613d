"""Production inform and transfer against their oracles at 32,768 ranks.

The tier-1 suites compare production with :mod:`tests.oracles` at up to
4,096 ranks. This script repeats the comparison at the quick size of
the ``repro bench --scale 32k`` rung (32,768 ranks, 100k tasks,
``max_known=512`` with the "lowest" trim, 10 gossip rounds), where the
per-receiver inform oracle alone takes tens of seconds — too slow for
the test suite, so pytest does not collect this file. Run it from the
repository root::

    PYTHONPATH=src python -m tests.scale_oracle_check

It exits nonzero on the first divergence in knowledge, traffic,
assignment, transfer decisions or RNG state.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np

from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.transfer import transfer_stage
from repro.perf.bench import LADDER_MAX_KNOWN, SCALE_RUNGS
from repro.workloads.synthetic import paper_analysis_scenario
from tests.oracles import sparse_inform_oracle, transfer_stage_oracle

RUNG = "32k"
SEED = 0


def _timed(label: str, fn):
    start = time.perf_counter()
    value = fn()
    print(f"  {label}: {time.perf_counter() - start:.1f}s", flush=True)
    return value


def _check(ok: bool, what: str, failures: list[str]) -> None:
    if not ok:
        failures.append(what)
        print(f"  MISMATCH: {what}", flush=True)


def main() -> int:
    spec = SCALE_RUNGS[RUNG]
    n_ranks = spec["n_ranks"]
    dist = paper_analysis_scenario(
        n_tasks=spec["tasks_quick"],
        n_loaded_ranks=spec["n_loaded"],
        n_ranks=n_ranks,
        seed=SEED,
    )
    loads = np.bincount(dist.assignment, weights=dist.task_loads, minlength=n_ranks)
    config = GossipConfig(
        rounds=10, max_known=LADDER_MAX_KNOWN, trim_policy="lowest", knowledge="sparse"
    )
    print(f"{n_ranks} ranks, {dist.n_tasks} tasks, cap {LADDER_MAX_KNOWN}, 10 rounds")
    failures: list[str] = []

    new_rng = np.random.default_rng(SEED + 1)
    new = _timed("inform (fused)", lambda: run_inform_stage(loads, config, new_rng))
    ref_rng = np.random.default_rng(SEED + 1)
    ref = _timed("inform (oracle)", lambda: sparse_inform_oracle(loads, config, ref_rng))
    same_shards = all(
        np.array_equal(a, b)
        for a, b in zip(new.knowledge.shards, ref.knowledge.shards)
    )
    _check(same_shards, "inform knowledge shards", failures)
    for field in ("n_messages", "bytes_sent", "per_round_messages", "per_round_senders"):
        _check(getattr(new, field) == getattr(ref, field), f"inform {field}", failures)
    _check(
        new_rng.bit_generator.state == ref_rng.bit_generator.state,
        "inform RNG state",
        failures,
    )

    outcomes = []
    for label, stage in (("production", transfer_stage), ("oracle", transfer_stage_oracle)):
        assignment = np.array(dist.assignment, copy=True)
        rng = np.random.default_rng(SEED + 2)
        stats = _timed(
            f"transfer ({label})",
            lambda: stage(assignment, dist.task_loads, new, None, rng),
        )
        decisions = dataclasses.asdict(stats)
        del decisions["cmf_builds"], decisions["cmf_updates"]
        outcomes.append((assignment, decisions, rng.bit_generator.state))
    (a_new, d_new, s_new), (a_ref, d_ref, s_ref) = outcomes
    _check(np.array_equal(a_new, a_ref), "transfer assignment", failures)
    for key in d_new:
        _check(d_new[key] == d_ref[key], f"transfer {key}", failures)
    _check(s_new == s_ref, "transfer RNG state", failures)

    print(
        f"{new.n_messages} messages, {d_new['transfers']} transfers, "
        f"{d_new['rejections']} rejections"
    )
    if failures:
        print(f"FAILED: {len(failures)} divergences", file=sys.stderr)
        return 1
    print("OK: production matches both oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
