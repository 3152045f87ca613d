"""Fault bench: imbalance degradation versus gossip loss rate.

``repro bench faults`` sweeps the phase-level TemperedLB pipeline over
a grid of gossip loss rates (with and without the stubborn retransmit
layer) and writes ``BENCH_faults.json`` — the degradation envelope the
fault-tolerance docs and the CI fault-matrix job gate against. The
``loss=0`` row runs through the fault layer with every knob at zero
and must match the fault-free balancer exactly (zero-fault
invisibility), which the harness asserts.
"""

from __future__ import annotations

import platform
from typing import Any

import numpy as np

from repro.core.distribution import Distribution
from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.tempered import TemperedConfig, TemperedLB
from repro.sim.faults import FaultConfig
from repro.workloads import paper_analysis_scenario

__all__ = ["LOSS_RATES", "run_fault_bench", "format_fault_report"]

#: The sweep grid: lossless baseline plus the satellite test's pinned
#: degradation points.
LOSS_RATES = (0.0, 0.01, 0.05, 0.10)

#: (n_tasks, n_loaded_ranks, n_ranks) per scale.
FULL_SCALE = (10_000, 16, 1024)
QUICK_SCALE = (2_000, 8, 256)


def _rebalance(
    dist: Distribution, faults: FaultConfig | None, seed: int
) -> dict[str, Any]:
    lb = TemperedLB(
        TemperedConfig(n_trials=2, n_iters=4, faults=faults)
    )
    result = lb.rebalance(dist, rng=np.random.default_rng(seed))
    return {
        "initial_imbalance": float(result.initial_imbalance),
        "final_imbalance": float(result.final_imbalance),
        "n_migrations": int(result.n_migrations),
    }


def _coverage(
    loads: np.ndarray, average_load: float, faults: FaultConfig | None, seed: int
) -> dict[str, Any]:
    stage = run_inform_stage(
        loads,
        GossipConfig(faults=faults),
        np.random.default_rng(seed),
        average_load=average_load,
    )
    return {
        "coverage": float(stage.knowledge.coverage(stage.underloaded)),
        "messages": int(stage.n_messages),
        "dropped": int(stage.dropped),
        "delayed": int(stage.delayed),
        "duplicated": int(stage.duplicated),
        "retransmits": int(stage.retransmits),
        "expired": int(stage.expired),
    }


def run_fault_bench(
    quick: bool = False, seed: int = 0, fault_seed: int = 0
) -> dict[str, Any]:
    """Sweep loss rates and return the ``BENCH_faults.json`` payload.

    Each row reports the inform-stage coverage, message counters and
    the end-to-end refined imbalance at one loss rate, both with the
    bare lossy link and with retransmission switched on (the
    ``*_retransmit`` recovery columns).
    """
    n_tasks, n_loaded, n_ranks = QUICK_SCALE if quick else FULL_SCALE
    dist = paper_analysis_scenario(
        n_tasks=n_tasks, n_loaded_ranks=n_loaded, n_ranks=n_ranks, seed=seed
    )
    loads = np.bincount(
        dist.assignment, weights=dist.task_loads, minlength=dist.n_ranks
    )
    baseline = _rebalance(dist, None, seed)
    rows: list[dict[str, Any]] = []
    for loss in LOSS_RATES:
        faults = (
            FaultConfig(loss_rate=loss, seed=fault_seed) if loss > 0.0 else None
        )
        row: dict[str, Any] = {"loss_rate": loss}
        row.update(_coverage(loads, dist.average_load, faults, seed + 1))
        row.update(_rebalance(dist, faults, seed))
        if loss > 0.0:
            recovered = FaultConfig(
                loss_rate=loss, seed=fault_seed, retransmit=True, max_retries=None
            )
            row["final_imbalance_retransmit"] = _rebalance(dist, recovered, seed)[
                "final_imbalance"
            ]
            recovery = _coverage(loads, dist.average_load, recovered, seed + 1)
            row["coverage_retransmit"] = recovery["coverage"]
            row["dropped_retransmit"] = recovery["dropped"]
            row["retransmits_retransmit"] = recovery["retransmits"]
        else:
            # Zero-fault invisibility: the lossless row IS the baseline.
            if row["final_imbalance"] != baseline["final_imbalance"]:
                raise AssertionError(
                    "loss=0 run diverged from the fault-free baseline: "
                    f"{row['final_imbalance']} != {baseline['final_imbalance']}"
                )
            row["final_imbalance_retransmit"] = row["final_imbalance"]
            row["coverage_retransmit"] = row["coverage"]
            row["dropped_retransmit"] = row["dropped"]
            row["retransmits_retransmit"] = row["retransmits"]
        rows.append(row)
    return {
        "meta": {
            "suite": "faults",
            "quick": bool(quick),
            "seed": int(seed),
            "fault_seed": int(fault_seed),
            "scale": {
                "n_tasks": n_tasks,
                "n_loaded_ranks": n_loaded,
                "n_ranks": n_ranks,
            },
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "baseline": baseline,
        "rows": rows,
    }


def format_fault_report(payload: dict[str, Any]) -> str:
    """Human-readable degradation table for a :func:`run_fault_bench`
    payload."""
    meta = payload["meta"]
    scale = meta["scale"]
    lines = [
        f"fault bench ({'quick' if meta['quick'] else 'full'} scale: "
        f"{scale['n_tasks']} tasks, {scale['n_ranks']} ranks; "
        f"baseline I = {payload['baseline']['final_imbalance']:.4f})",
        "",
        f"  {'loss':>6}  {'coverage':>8}  {'dropped':>7}  {'final I':>8}  "
        f"{'I (retx)':>8}  {'retx':>6}  {'migrations':>10}",
    ]
    for row in payload["rows"]:
        lines.append(
            f"  {row['loss_rate']:>6.2f}  {row['coverage']:>8.3f}  "
            f"{row['dropped']:>7d}  {row['final_imbalance']:>8.4f}  "
            f"{row['final_imbalance_retransmit']:>8.4f}  "
            f"{row['retransmits_retransmit']:>6d}  "
            f"{row['n_migrations']:>10d}"
        )
    return "\n".join(lines)
