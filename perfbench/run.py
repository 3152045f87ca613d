#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print the metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lb-packed-4k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The program is pure Python and is imported from ``src/`` of the checkout
this file sits in; nothing is compiled. A checkout without ``src/repro``
exits with code 2 and prints no result.

``--trace 0`` measures episodes for ``--seconds`` with tracing off and
reports the end-to-end metrics. ``--trace 1`` runs one
traced episode, reports the per-layer metrics and writes the spans as
Chrome trace-event JSON. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Everything
else a claim needs to be re-checked (environment, resolved backends,
episode seeds, raw samples) goes to
``perfbench/results/<workload>/seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
#: Setup is short next to an episode, so it is repeated and the median kept.
SETUP_REPEATS = 7


def import_repro() -> bool:
    """Put the checkout's ``src/`` first on the path; True if ``repro`` is there."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return Path(repro.__file__).resolve() == package.resolve()


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict[str, Any]:
    import numpy

    from repro.util.parallel import effective_cpu_count

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "effective_cpu_count": effective_cpu_count(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children.

    The sum bounds the combined peak from above (forked pool workers
    share pages with this process until they write them).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def run_episode(workload, inputs, seed: int):
    """One episode; an exception or overrun counts as a failed episode."""
    from workloads import EPISODE_TIMEOUT_S, Episode

    start = time.perf_counter()
    try:
        episode = workload.episode(inputs, seed)
    except Exception as exc:  # keep measuring; the failure is counted
        traceback.print_exc(file=sys.stderr)
        return Episode(seed, time.perf_counter() - start, math.nan, 0, [f"raised {exc!r}"])
    if episode.wall > EPISODE_TIMEOUT_S:
        episode.errors.append(f"timed out: {episode.wall:.1f} s > {EPISODE_TIMEOUT_S} s")
    return episode


def measured_run(workload, seed: int, seconds: float, small: bool = False) -> dict[str, Any]:
    """Tracing off: set up, warm up, then run episodes until ``seconds`` of
    timing have passed."""
    from workloads import episode_seed

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous build outside the timed region
        start = time.perf_counter()
        inputs = workload.setup(seed, small)
        setup_samples.append(time.perf_counter() - start)
    # Quality is judged on the timed episodes, unless the workload has a
    # bit-identical reference engine cheap enough to judge it on more inputs.
    pool = workload.quality_seeds(inputs) if hasattr(workload, "judge") else []
    quality = []
    warmup = [run_episode(workload, inputs, episode_seed(seed, i)) for i in range(workload.warmup)]
    episodes = []
    origin = time.perf_counter()
    while not episodes or time.perf_counter() - origin < seconds:
        index = len(warmup) + len(episodes)
        episodes.append(run_episode(workload, inputs, episode_seed(seed, index)))
        # Judge for about as long as the episode took, so that the timed
        # episodes sample the host's speed over the whole run.
        judge_start = time.perf_counter()
        while pool and time.perf_counter() - judge_start < episodes[-1].wall:
            quality.append(workload.judge(inputs, pool.pop(0)))
        origin += time.perf_counter() - judge_start  # judging is not timing
    quality += [workload.judge(inputs, s) for s in pool]
    good = [e for e in episodes if not e.errors] or episodes
    judged = quality or good
    everything = quality + warmup + episodes
    return {
        "metrics": {
            "setup_s": statistics.median(setup_samples),
            "episode_s": statistics.median(e.wall for e in good),
            "imbalance_after": statistics.median(e.imbalance_after for e in judged),
            "migrated_tasks": statistics.median(e.migrated for e in judged),
            "peak_rss_mb": peak_rss_mb(),
        },
        "attempted": len(everything),
        "failed": sum(1 for e in everything if e.errors),
        "setup_samples": setup_samples,
        "quality_episodes": [vars(e) for e in quality],
        "warmup_episodes": [vars(e) for e in warmup],
        "episodes": [vars(e) for e in episodes],
    }


def traced_run(
    workload, seed: int, per_layer: list[str], small: bool = False, out_dir: Path = RESULTS
) -> dict[str, Any]:
    """Tracing on: one traced episode, checked against an untraced one."""
    from spans import Tracer, write_chrome_trace
    from workloads import episode_seed

    inputs = workload.setup(seed, small)
    tracer = Tracer()
    seed0 = episode_seed(seed, 0)
    try:
        observed, errors = workload.traced(inputs, seed0, tracer)
    except Exception as exc:  # report the run as failed instead of crashing
        traceback.print_exc(file=sys.stderr)
        observed, errors = {}, [f"raised {exc!r}"]
    unknown = sorted(set(observed) - set(per_layer))
    if unknown:
        raise KeyError(f"{workload.name} emits metrics not in BENCHMARK.json: {unknown}")
    trace_path = out_dir / workload.name / f"trace-seed{seed}.json"
    write_chrome_trace(trace_path, tracer.spans, {"workload": workload.name, "seed": seed0})
    return {
        # A layer the workload does not run (or that the traced run
        # cannot see from outside) reads 0; the results file lists them.
        "metrics": {name: observed.get(name, 0.0) for name in per_layer},
        "unobserved": [name for name in per_layer if name not in observed],
        "attempted": 1,
        "failed": 1 if errors else 0,
        "errors": errors,
        "episode_seed": seed0,
        "chrome_trace": str(trace_path),
    }


def result_line(run: dict[str, Any], specs: list[dict[str, Any]]) -> dict[str, Any]:
    """The final stdout object; a non-finite value only occurs on a failed run."""
    metrics = {}
    for spec in specs:
        value = float(run["metrics"][spec["name"]])
        value = value if math.isfinite(value) else 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def run_one(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    from workloads import make_workloads

    workload = make_workloads(RESULTS / "tmp")[args.workload]
    if args.trace:
        specs = contract["per_layer"]
        run = traced_run(workload, args.seed, [s["name"] for s in specs])
    else:
        specs = contract["end_to_end"]
        run = measured_run(workload, args.seed, args.seconds)
    line = result_line(run, specs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **{k: v for k, v in run.items() if k != "metrics"},
        **line,
    }
    out = RESULTS / args.workload / f"seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    env = record["environment"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: "
        f"python {env['python']}, numpy {env['numpy']}, numba={env['numba_importable']}, "
        f"cpus={env['effective_cpu_count']}"
    )
    for episode in run.get("warmup_episodes", []) + run.get("episodes", []):
        print(
            f"#   episode seed={episode['seed']} wall={episode['wall']:.4f}s "
            f"resolved={episode['resolved']} errors={episode['errors']}"
        )
    quality = run.get("quality_episodes", [])
    if quality:
        print(
            f"#   quality judged on {len(quality)} reference episodes, "
            f"{sum(1 for e in quality if e['errors'])} failed their check"
        )
    for error in run.get("errors", []):
        print(f"#   check failed: {error}")
    for name, metric in line["metrics"].items():
        print(f"#   {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(f"# results: {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


def run_all(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    failed = 0
    for workload in contract["workloads"]:
        name = workload["name"]
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            failed += 1
            continue
        line = json.loads(lines[-1])
        failed += line["failed"] > 0
        print(f"{name}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}")
        for metric, value in line["metrics"].items():
            print(f"  {metric:<28} {value['value']:>16.6g} {value['unit']}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not import_repro():
        print(f"error: no importable src/repro under {ROOT}", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload == "all":
        return run_all(args, contract)
    if args.workload not in names:
        parser.error(f"--workload must be 'all' or one of {names}")
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
