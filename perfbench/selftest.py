#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark (a few seconds on 2 cores).

    python3 perfbench/selftest.py

For every workload, at reduced size, it checks that the measured run
emits each end-to-end metric of BENCHMARK.json with its unit, that the
traced run emits each per-layer metric with its unit and observes the
layers its workload runs, and that neither run fails. It then corrupts
results on purpose and checks that every output check fires, that a
failing check is counted in ``failed``, and that the traced run reports
a result that differs from the untraced one. Exits 1 on any failure.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import run

#: Per-layer metrics each workload's traced run cannot observe (they read
#: 0); every other per-layer metric must be observed.
NOT_OBSERVED = {
    "lb-sparse-16k": ("empire.", "net."),
    "lb-packed-4k": ("empire.", "net."),
    "empire-bdot": ("gossip.knowledge_mb", "net."),
    "net-loopback-64": (
        "gossip.busy_s",
        "gossip.knowledge_mb",
        "gossip.us_per_message",
        "transfer.busy_s",
        "transfer.us_per_proposal",
        "refinement.",
        "empire.",
    ),
}

OUT = run.RESULTS / "selftest"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_line(result: dict, specs: list[dict], label: str) -> None:
    line = run.result_line(result, specs)
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    ok = line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expect(ok, f"{label}: no failures")
    expected = {s["name"]: s["unit"] for s in specs}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    expect(got == expected, f"{label}: every metric with its unit")


def corrupted_checks(workloads: dict) -> None:
    import numpy as np

    from workloads import check_empire, check_lb, check_net, check_reference, expected_lb_calls

    lb = workloads["lb-packed-4k"]
    inputs = lb.setup(1, small=True)
    dist = inputs[0]
    good = lb.refine(inputs, 7)
    expect(check_lb(dist, good) == [], "lb check passes on a real result")
    bad = {
        "short assignment": dataclasses.replace(good, best_assignment=good.best_assignment[:-1]),
        "rank out of range": dataclasses.replace(
            good, best_assignment=np.concatenate([[dist.n_ranks], good.best_assignment[1:]])
        ),
        "wrong best_imbalance": dataclasses.replace(good, best_imbalance=good.best_imbalance * 0.5),
        "worse than initial": dataclasses.replace(
            good, best_imbalance=good.initial_imbalance + 1
        ),
    }
    for what, result in bad.items():
        expect(check_lb(dist, result) != [], f"lb check fires on {what}")

    config = workloads["empire-bdot"].sizes[True]
    calls = expected_lb_calls(config)
    expect(check_empire(config, calls, 1.0) == [], "empire check passes on a sound run")
    expect(check_empire(config, calls - 1, 1.0) != [], "empire check fires on a missing LB call")
    expect(check_empire(config, calls, math.nan) != [], "empire check fires on a NaN t_total")

    from repro.net import run_episode_sim

    inputs = workloads["net-loopback-64"].setup(1, small=True)
    seed = next(iter(inputs.specs))
    spec, reference = inputs.spec(seed), inputs.reference(seed)
    expect(check_net(reference, run_episode_sim(spec)) == [], "net check passes on equal results")
    moved = dataclasses.replace(reference, assignment=np.roll(reference.assignment, 1))
    expect(check_net(moved, reference) != [], "net check fires on a different assignment")
    expect(check_reference(spec, reference) == [], "net reference check passes on a real result")
    bad = {
        "short assignment": dataclasses.replace(reference, assignment=reference.assignment[:-1]),
        "rank out of range": dataclasses.replace(
            reference, assignment=np.full_like(reference.assignment, spec.n_ranks)
        ),
        "wrong final_imbalance": dataclasses.replace(
            reference, final_imbalance=reference.final_imbalance + 1
        ),
    }
    for what, result in bad.items():
        expect(check_reference(spec, result) != [], f"net reference check fires on {what}")

    # A check failure inside a measured episode is counted in `failed`.
    class CorruptLB(type(lb)):
        def refine(self, inputs, seed, registry=None):
            result = super().refine(inputs, seed, registry)
            return dataclasses.replace(result, best_imbalance=-1.0)

    measured = run.measured_run(CorruptLB(lb.name, *lb.sizes.values()), 1, 0.0, small=True)
    expect(measured["failed"] == measured["attempted"] >= 1, "failed episodes are counted")

    # A traced result that differs from the untraced one is reported.
    class DriftingLB(type(lb)):
        def drive_trials(self, inputs, seed):
            imb, best, spans = super().drive_trials(inputs, seed)
            return imb, np.roll(best, 1), spans

    per_layer = [s["name"] for s in run.load_contract()["per_layer"]]
    traced = run.traced_run(
        DriftingLB(lb.name, *lb.sizes.values()), 1, per_layer, small=True, out_dir=OUT
    )
    expect(traced["failed"] == 1, "lb traced run reports a differing assignment")

    empire = workloads["empire-bdot"]

    class DriftingEmpire(type(empire)):
        def tempered(self, config):
            return dataclasses.replace(super().tempered(config), n_iters=config.n_iters + 1)

    traced = run.traced_run(DriftingEmpire(), 1, per_layer, small=True, out_dir=OUT)
    expect(traced["failed"] == 1, "empire traced run reports a differing t_total")


def main() -> int:
    if not run.import_repro():
        print("error: no importable src/repro", file=sys.stderr)
        return 2
    from workloads import make_workloads

    contract = run.load_contract()
    workloads = make_workloads(run.RESULTS / "tmp")
    expect(sorted(workloads) == sorted(w["name"] for w in contract["workloads"]), "workload names")
    per_layer = [s["name"] for s in contract["per_layer"]]
    for name, workload in workloads.items():
        measured = run.measured_run(workload, 1, 0.0, small=True)
        check_line(measured, contract["end_to_end"], f"{name} measured")
        traced = run.traced_run(workload, 1, per_layer, small=True, out_dir=OUT)
        check_line(traced, contract["per_layer"], f"{name} traced")
        expected = [m for m in per_layer if m.startswith(NOT_OBSERVED[name])]
        expect(traced["unobserved"] == expected, f"{name} traced: observes its layers")
    corrupted_checks(workloads)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
