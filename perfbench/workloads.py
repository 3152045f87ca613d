"""The benchmark's four workloads.

Each workload builds its inputs from the run seed (:meth:`setup`), runs
one measured episode with tracing off (:meth:`episode`), checks that
episode's outputs, and has a separate traced run (:meth:`traced`) that
records spans around the calls into each layer and returns per-layer
metrics. The program is driven only through its public API; nothing in
``repro`` is patched or changed.

Why these four (see README.md for the full map):

- ``lb-sparse-16k``: inform dominates at large P; the fused sparse
  knowledge driver and the process-pool trial executor do the work.
- ``lb-packed-4k``: transfer dominates; packed knowledge (the other side
  of the auto crossover) and the plain serial trial loop.
- ``empire-bdot``: the paper's time-varying app, many small packed LB
  episodes inside a PIC loop, so fixed per-call LB cost shows.
- ``net-loopback-64``: the socket runtime (codec, dispatcher, barriers)
  is most of the cost.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import GossipConfig, imbalance, iterative_refinement, run_inform_stage
from repro.core import TemperedConfig, TemperedLB, transfer_stage
from repro.core.transfer import TransferConfig
from repro.empire import BDotScenario, ColorWorkloadModel, EmpireConfig, EmpireRun
from repro.empire import FieldSolveModel, Mesh2D, PICSimulation, run_empire
from repro.empire.pic import LBCostModel, default_lb_schedule
from repro.net import EpisodeSpec, NetOptions, run_episode_net, run_episode_sim
from repro.net.analyze import analyze_logs
from repro.net.logging_jsonl import iter_records
from repro.obs import StatsRegistry
from repro.util.parallel import TrialExecutor, spawn_streams
from repro.workloads import paper_analysis_scenario

from spans import Tracer, busy, of

#: An episode that takes longer than this counts as failed (timed out).
EPISODE_TIMEOUT_S = 120.0
MB = float(1 << 20)


@dataclass
class Episode:
    """One measured episode: its wall time, quality and check failures."""

    seed: int
    wall: float
    imbalance_after: float
    migrated: int
    errors: list[str] = field(default_factory=list)
    resolved: dict[str, Any] = field(default_factory=dict)


def episode_seed(seed: int, index: int) -> int:
    """The seed of the ``index``-th episode of a run with seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _executor_backend(n_workers: int | None, executor: str | None, n_trials: int) -> str:
    """The trial backend ``iterative_refinement`` resolves these knobs to."""
    if n_workers is None and executor is None:
        return "serial-shared-stream"
    pool = TrialExecutor(executor, min(n_workers or 1, n_trials))
    return pool.backend_for(n_trials)


# -- LB workloads -------------------------------------------------------------


@dataclass(frozen=True)
class LBSize:
    n_tasks: int
    n_loaded_ranks: int
    n_ranks: int
    n_trials: int
    n_iters: int
    gossip: GossipConfig
    #: None = the historical shared-stream serial trial loop.
    n_workers: int | None
    executor: str | None


@dataclass(frozen=True)
class _TrialInputs:
    """What every traced trial reads; shipped to pool workers once."""

    task_loads: np.ndarray
    original: np.ndarray
    n_ranks: int
    l_ave: float
    n_iters: int
    gossip: GossipConfig
    transfer: TransferConfig


def _traced_trial(
    shared: _TrialInputs, payload: tuple[int, np.random.Generator]
) -> tuple[float, np.ndarray | None, list[dict[str, Any]]]:
    """One trial of Algorithm 3 with a span around each stage call.

    The calls and their order are those of the refinement's own trial
    loop, so with the same stream the best proposal is bit-identical.
    Span arguments are read after each call returns and draw no RNG.
    """
    trial, rng = payload
    tracer = Tracer()
    working = np.array(shared.original, copy=True)
    best_imbalance, best = math.inf, None
    with tracer.span(f"trial {trial}", "trial", trial=trial):
        for iteration in range(1, shared.n_iters + 1):
            loads = np.bincount(working, weights=shared.task_loads, minlength=shared.n_ranks)
            where = {"trial": trial, "iteration": iteration}
            with tracer.span("run_inform_stage", "gossip", **where) as span:
                inform = run_inform_stage(loads, shared.gossip, rng, average_load=shared.l_ave)
            span["args"].update(
                messages=inform.n_messages,
                bytes=inform.bytes_sent,
                rounds=inform.rounds_run,
                coverage=float(inform.coverage()),
                knowledge_bytes=inform.knowledge.memory_bytes(),
                backend=inform.knowledge_backend,
            )
            with tracer.span("transfer_stage", "transfer", **where) as span:
                stats = transfer_stage(working, shared.task_loads, inform, shared.transfer, rng)
            span["args"].update(
                proposed=stats.proposed,
                accepted=stats.transfers,
                rejected=stats.rejections,
                cmf_builds=stats.cmf_builds,
                cmf_updates=stats.cmf_updates,
            )
            loads = np.bincount(working, weights=shared.task_loads, minlength=shared.n_ranks)
            proposal = imbalance(loads)
            if proposal < best_imbalance:
                best_imbalance, best = proposal, np.array(working, copy=True)
    return best_imbalance, best, tracer.spans


def check_lb(dist, result) -> list[str]:
    """Output checks on one refinement result."""
    errors = []
    assignment = np.asarray(result.best_assignment)
    if assignment.shape != (dist.n_tasks,):
        errors.append(f"assignment has shape {assignment.shape}, expected ({dist.n_tasks},)")
    elif assignment.size and (assignment.min() < 0 or assignment.max() >= dist.n_ranks):
        errors.append("assignment names a rank out of range")
    else:
        loads = np.bincount(assignment, weights=dist.task_loads, minlength=dist.n_ranks)
        if imbalance(loads) != result.best_imbalance:
            errors.append(
                f"best_imbalance {result.best_imbalance!r} != recomputed {imbalance(loads)!r}"
            )
    if not result.best_imbalance <= result.initial_imbalance:
        errors.append(
            f"best_imbalance {result.best_imbalance!r} above initial {result.initial_imbalance!r}"
        )
    return errors


class LBWorkload:
    """One ``iterative_refinement`` call per episode on a § V scenario."""

    #: Untimed episodes before the measured ones (see EmpireWorkload).
    warmup = 0

    def __init__(self, name: str, full: LBSize, small: LBSize) -> None:
        self.name = name
        self.sizes = {False: full, True: small}

    def setup(self, seed: int, small: bool) -> tuple[Any, LBSize]:
        size = self.sizes[small]
        dist = paper_analysis_scenario(
            n_tasks=size.n_tasks,
            n_loaded_ranks=size.n_loaded_ranks,
            n_ranks=size.n_ranks,
            seed=seed,
        )
        return dist, size

    def refine(self, inputs, seed: int, registry: StatsRegistry | None = None):
        dist, size = inputs
        return iterative_refinement(
            dist,
            n_trials=size.n_trials,
            n_iters=size.n_iters,
            gossip=size.gossip,
            transfer=TransferConfig(),
            rng=seed,
            registry=registry,
            n_workers=size.n_workers,
            executor=size.executor,
        )

    @staticmethod
    def resolved(inputs) -> dict[str, Any]:
        dist, size = inputs
        return {
            "knowledge": size.gossip.resolve_knowledge(dist.n_ranks),
            "executor": _executor_backend(size.n_workers, size.executor, size.n_trials),
        }

    def episode(self, inputs, seed: int) -> Episode:
        dist = inputs[0]
        start = time.perf_counter()
        result = self.refine(inputs, seed)
        wall = time.perf_counter() - start
        return Episode(
            seed=seed,
            wall=wall,
            imbalance_after=float(result.best_imbalance),
            migrated=int(np.count_nonzero(result.best_assignment != dist.assignment)),
            errors=check_lb(dist, result),
            resolved=self.resolved(inputs),
        )

    def drive_trials(self, inputs, seed: int) -> tuple[float, np.ndarray, list[dict[str, Any]]]:
        """Algorithm 3 driven stage by stage, as the refinement would run it."""
        dist, size = inputs
        shared = _TrialInputs(
            task_loads=dist.task_loads,
            original=dist.assignment,
            n_ranks=dist.n_ranks,
            l_ave=dist.average_load,
            n_iters=size.n_iters,
            gossip=size.gossip,
            transfer=TransferConfig(),
        )
        rng = np.random.default_rng(seed)
        if size.n_workers is None and size.executor is None:
            outcomes = [
                _traced_trial(shared, (trial, rng)) for trial in range(1, size.n_trials + 1)
            ]
        else:
            streams = spawn_streams(rng, size.n_trials)
            pool = TrialExecutor(size.executor, min(size.n_workers or 1, size.n_trials))
            payloads = [(trial + 1, streams[trial]) for trial in range(size.n_trials)]
            outcomes = pool.map(_traced_trial, payloads, shared)
        best_imbalance, best = dist.imbalance(), np.array(dist.assignment, copy=True)
        spans: list[dict[str, Any]] = []
        for trial_best_imbalance, trial_best, trial_spans in outcomes:
            spans.extend(trial_spans)
            # Strict < keeps the lowest trial index on ties, as the refinement does.
            if trial_best is not None and trial_best_imbalance < best_imbalance:
                best_imbalance, best = trial_best_imbalance, trial_best
        return best_imbalance, best, spans

    def traced(self, inputs, seed: int, tracer: Tracer) -> tuple[dict[str, float], list[str]]:
        dist = inputs[0]
        with tracer.span("iterative_refinement", "episode", seed=seed):
            reference = self.refine(inputs, seed)
        errors = check_lb(dist, reference)

        # The second, warm untraced run: the refinement's own registry
        # attached, no benchmark spans inside it.
        registry = StatsRegistry()
        with tracer.span("iterative_refinement(registry)", "episode", seed=seed) as span:
            instrumented = self.refine(inputs, seed, registry)
        untraced_wall = span["end"] - span["start"]
        if not np.array_equal(instrumented.best_assignment, reference.best_assignment):
            errors.append("registry-attached refinement differs from the untraced one")

        with tracer.span("traced refinement", "episode", seed=seed) as span:
            best_imbalance, best, trial_spans = self.drive_trials(inputs, seed)
        traced_wall = span["end"] - span["start"]
        tracer.extend(trial_spans, parent=span["id"])
        if best_imbalance != reference.best_imbalance or not np.array_equal(
            best, reference.best_assignment
        ):
            errors.append("traced refinement differs from the untraced one")

        timers = registry.timers
        stage_busy = timers.get("wall.inform", 0.0) + timers.get("wall.transfer", 0.0)
        metrics = _gossip_metrics(trial_spans) | _transfer_metrics(trial_spans)
        metrics |= {
            "refinement.wall_s": timers.get("wall.refinement", 0.0),
            "refinement.stage_busy_s": stage_busy,
            "refinement.utilization": _ratio(stage_busy, timers.get("wall.refinement", 0.0)),
            "trace.overhead": traced_wall / untraced_wall - 1.0,
        }
        return metrics, errors


def _sum_arg(spans: list[dict[str, Any]], key: str) -> float:
    return sum(s["args"][key] for s in spans)


def _gossip_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    calls = of(spans, "gossip")
    busy_s = busy(spans, "gossip")
    messages = _sum_arg(calls, "messages")
    return {
        "gossip.busy_s": busy_s,
        "gossip.calls": len(calls),
        "gossip.messages": messages,
        "gossip.bytes": _sum_arg(calls, "bytes"),
        "gossip.rounds": _sum_arg(calls, "rounds"),
        "gossip.coverage": statistics.fmean(s["args"]["coverage"] for s in calls),
        "gossip.knowledge_mb": max(s["args"]["knowledge_bytes"] for s in calls) / MB,
        "gossip.us_per_message": _ratio(busy_s * 1e6, messages),
    }


def _transfer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    calls = of(spans, "transfer")
    busy_s = busy(spans, "transfer")
    proposed = _sum_arg(calls, "proposed")
    return {
        "transfer.busy_s": busy_s,
        "transfer.proposed": proposed,
        "transfer.accepted": _sum_arg(calls, "accepted"),
        "transfer.rejected": _sum_arg(calls, "rejected"),
        "transfer.accept_ratio": _ratio(_sum_arg(calls, "accepted"), proposed),
        "transfer.cmf_builds": _sum_arg(calls, "cmf_builds"),
        "transfer.cmf_updates": _sum_arg(calls, "cmf_updates"),
        "transfer.us_per_proposal": _ratio(busy_s * 1e6, proposed),
    }


def _counter_metrics(counters: dict[str, float]) -> dict[str, float]:
    """Gossip/transfer counts from a registry's counters (EMPIRE, net)."""
    proposed = counters.get("transfer.proposed", 0)
    accepted = counters.get("transfer.accepted", 0)
    return {
        "gossip.messages": counters.get("gossip.messages", 0),
        "gossip.bytes": counters.get("gossip.bytes", 0),
        "transfer.proposed": proposed,
        "transfer.accepted": accepted,
        "transfer.rejected": counters.get("transfer.rejected", 0),
        "transfer.accept_ratio": _ratio(accepted, proposed),
        "transfer.cmf_builds": counters.get("transfer.cmf_builds", 0),
        "transfer.cmf_updates": counters.get("transfer.cmf_updates", 0),
    }


# -- EMPIRE -------------------------------------------------------------------


class _TimedPopulation:
    """Delegate that times ``count_per_color``; forwards everything else."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self._tracer = tracer

    def count_per_color(self, mesh):
        with self._tracer.span("count_per_color", "empire.count"):
            return self.inner.count_per_color(mesh)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class _TimedScenario:
    """Delegate that times the per-step particle advance and injection."""

    def __init__(self, inner: BDotScenario, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def initialize(self) -> _TimedPopulation:
        return _TimedPopulation(self._inner.initialize(), self._tracer)

    def step(self, population: _TimedPopulation, step_index: int) -> None:
        with self._tracer.span("scenario.step", "empire.push", step=step_index):
            self._inner.step(population.inner, step_index)


class _TimedBalancer:
    """Delegate that times each ``rebalance`` call of the real balancer."""

    def __init__(self, inner: TemperedLB, tracer: Tracer) -> None:
        self.inner = inner
        self.config = inner.config
        self._tracer = tracer

    def rebalance(self, dist, rng=None):
        with self._tracer.span("TemperedLB.rebalance", "empire.lb"):
            return self.inner.rebalance(dist, rng=rng)


def expected_lb_calls(config: EmpireConfig) -> int:
    """LB steps of a run: the schedule, from step 1 (step 0 has no loads yet)."""
    schedule = default_lb_schedule(config.lb_period, config.lb_first_step)
    return sum(1 for step in range(1, config.n_steps) if schedule(step))


def check_empire(config: EmpireConfig, lb_calls: int, t_total: float) -> list[str]:
    errors = []
    if lb_calls != expected_lb_calls(config):
        errors.append(f"{lb_calls} LB invocations, expected {expected_lb_calls(config)}")
    if not math.isfinite(t_total):
        errors.append(f"t_total is {t_total!r}")
    return errors


def _run_quality(config: EmpireConfig, series) -> tuple[float, int]:
    """Mean per-step imbalance from the first LB step on, and tasks migrated.

    Averaging every step the LB decisions govern (Fig. 4c) makes this a
    measure of how well they hold up under the time-varying load.
    """
    per_step = np.asarray(series.series("imbalance"))[config.lb_first_step :]
    return float(per_step.mean()), int(np.nansum(series.series("migrations")))


class EmpireWorkload:
    """One whole ``run_empire`` per episode (600 steps, 6 TemperedLB calls)."""

    name = "empire-bdot"
    # The first run_empire in a process is 20-30% slower than later ones
    # (glibc's dynamic mmap threshold has not grown yet; pinning it
    # removes the gap), so one untimed episode runs first.
    warmup = 1
    sizes = {
        False: EmpireConfig(configuration="tempered"),
        True: EmpireConfig(
            configuration="tempered",
            n_ranks=64,
            n_steps=90,
            lb_period=40,
            initial_particles=4_000,
            injection_per_step=40,
            n_trials=1,
            n_iters=2,
        ),
    }

    def setup(self, seed: int, small: bool) -> EmpireConfig:
        """Builds the mesh, scenario and initial population ``run_empire``
        builds before its loop; each episode's ``run_empire`` builds its own."""
        config = dataclasses.replace(self.sizes[small], seed=seed)
        Mesh2D(config.n_ranks, colors_per_rank=config.colors_per_rank)
        BDotScenario(
            initial_particles=config.initial_particles,
            injection_per_step=config.injection_per_step,
            seed=config.seed,
        ).initialize()
        return config

    @staticmethod
    def tempered(config: EmpireConfig) -> TemperedConfig:
        """The balancer configuration ``run_empire`` builds for "tempered"."""
        return TemperedConfig(
            n_trials=config.n_trials,
            n_iters=config.n_iters,
            fanout=config.fanout,
            rounds=config.rounds,
            ordering=config.ordering,
            n_workers=config.n_workers,
            executor=config.executor,
        )

    def resolved(self, config: EmpireConfig) -> dict[str, Any]:
        tempered = self.tempered(config)
        return {
            "knowledge": tempered.gossip_config().resolve_knowledge(config.n_ranks),
            "executor": _executor_backend(
                tempered.n_workers, tempered.executor, tempered.n_trials
            ),
        }

    def episode(self, inputs, seed: int) -> Episode:
        config = dataclasses.replace(inputs, seed=seed)
        start = time.perf_counter()
        run = run_empire(config)
        wall = time.perf_counter() - start
        after, migrated = _run_quality(config, run.series)
        return Episode(
            seed=seed,
            wall=wall,
            imbalance_after=after,
            migrated=migrated,
            errors=check_empire(config, run.extra["lb_invocations"], run.t_total),
            resolved=self.resolved(config),
        )

    def traced(self, inputs, seed: int, tracer: Tracer) -> tuple[dict[str, float], list[str]]:
        config = dataclasses.replace(inputs, seed=seed)
        with tracer.span("run_empire", "episode", seed=seed):
            reference = run_empire(config)
        errors = check_empire(config, reference.extra["lb_invocations"], reference.t_total)
        # The first run in a process is the slowest; time a warm one.
        with tracer.span("run_empire", "episode", seed=seed) as span:
            warm = run_empire(config)
        untraced_wall = span["end"] - span["start"]
        if warm.t_total != reference.t_total:
            errors.append("run_empire is not deterministic for one config")

        # The parts run_empire assembles for the structured "tempered"
        # configuration, with timing delegates around scenario,
        # population and balancer, and the program's own registry
        # attached to the balancer for the inform/transfer timers.
        registry = StatsRegistry()
        balancer = TemperedLB(self.tempered(config)).instrument(registry)
        with tracer.span("traced run", "episode", seed=seed) as span:
            sim = PICSimulation(
                Mesh2D(config.n_ranks, colors_per_rank=config.colors_per_rank),
                _TimedScenario(
                    BDotScenario(
                        initial_particles=config.initial_particles,
                        injection_per_step=config.injection_per_step,
                        seed=config.seed,
                    ),
                    tracer,
                ),
                workload=ColorWorkloadModel(),
                fields=FieldSolveModel(seed=config.seed + 1),
                mode="amt",
                balancer=_TimedBalancer(balancer, tracer),
                lb_schedule=default_lb_schedule(config.lb_period, config.lb_first_step),
                amt_overhead=config.amt_overhead,
                lb_cost=LBCostModel(),
                seed=config.seed + 2,
            )
            run = EmpireRun(config=config, series=sim.run(config.n_steps))
        traced_wall = span["end"] - span["start"]
        if run.t_total != reference.t_total:
            errors.append(f"traced t_total {run.t_total!r} != untraced {reference.t_total!r}")
        errors += check_empire(config, sim.lb_invocations, run.t_total)

        lb_s = busy(tracer.spans, "empire.lb")
        timers, counters = registry.timers, registry.counters
        stages = registry.series_rows("gossip.stage")
        inform_s, transfer_s = timers.get("wall.inform", 0.0), timers.get("wall.transfer", 0.0)
        refinement_s = timers.get("wall.refinement", 0.0)
        metrics = _counter_metrics(counters) | {
            "gossip.busy_s": inform_s,
            "gossip.calls": counters.get("gossip.stages", 0),
            "gossip.rounds": sum(row["rounds_run"] for row in stages),
            "gossip.coverage": statistics.fmean(row["coverage"] for row in stages),
            "gossip.us_per_message": _ratio(inform_s * 1e6, counters.get("gossip.messages", 0)),
            "transfer.busy_s": transfer_s,
            "transfer.us_per_proposal": _ratio(
                transfer_s * 1e6, counters.get("transfer.proposed", 0)
            ),
            "refinement.wall_s": refinement_s,
            "refinement.stage_busy_s": inform_s + transfer_s,
            "refinement.utilization": _ratio(inform_s + transfer_s, refinement_s),
            "empire.push_s": busy(tracer.spans, "empire.push"),
            "empire.count_s": busy(tracer.spans, "empire.count"),
            "empire.lb_s": lb_s,
            "empire.lb_calls": sim.lb_invocations,
            "empire.lb_ms_per_call": _ratio(lb_s * 1e3, sim.lb_invocations),
            "empire.particles": sim.population.count,
            "empire.step_ms": untraced_wall * 1e3 / config.n_steps,
            "empire.app_time_model_s": run.t_total,
            "empire.t_lb_model_s": run.t_lb,
            "empire.t_particle_model_s": run.t_particle,
            "trace.overhead": traced_wall / untraced_wall - 1.0,
        }
        return metrics, errors


# -- net ----------------------------------------------------------------------


def check_net(result, reference) -> list[str]:
    if result.to_dict() != reference.to_dict():
        return ["socket result differs from run_episode_sim on the same spec"]
    return []


def check_reference(spec: EpisodeSpec, result) -> list[str]:
    """Output checks on one ``run_episode_sim`` result."""
    assignment = np.asarray(result.assignment)
    if assignment.shape != (len(spec.assignment),):
        return [f"assignment has shape {assignment.shape}, expected ({len(spec.assignment)},)"]
    if assignment.size and (assignment.min() < 0 or assignment.max() >= spec.n_ranks):
        return ["assignment names a rank out of range"]
    loads = np.bincount(assignment, weights=spec.task_loads, minlength=spec.n_ranks)
    if imbalance(loads) != result.final_imbalance:
        return [f"final_imbalance {result.final_imbalance!r} != recomputed {imbalance(loads)!r}"]
    return []


@dataclass
class NetInputs:
    """The run's specs by episode seed, and their ``run_episode_sim`` results."""

    n_ranks: int
    n_iters: int
    specs: dict[int, EpisodeSpec] = field(default_factory=dict)
    references: dict[int, Any] = field(default_factory=dict)

    def spec(self, seed: int) -> EpisodeSpec:
        """The episode's spec: pooled, or synthesised from its seed."""
        if seed not in self.specs:
            self.specs[seed] = EpisodeSpec.synthetic(self.n_ranks, seed=seed, n_iters=self.n_iters)
        return self.specs[seed]

    def reference(self, seed: int):
        if seed not in self.references:
            self.references[seed] = run_episode_sim(self.spec(seed))
        return self.references[seed]


class NetWorkload:
    """One ``run_episode_net`` over loopback TCP per episode.

    Every episode has its own input: the spec is synthesised from the
    episode seed. One 64-rank episode leaves an imbalance that varies by
    about 30% from input to input, and only about five socket episodes fit
    in a run, so the quality metrics are judged instead on the setup's
    pool of specs through ``run_episode_sim``, which the timed episodes
    check to be bit-identical to the socket runtime.
    """

    name = "net-loopback-64"
    warmup = 0
    sizes = {False: (64, 6), True: (16, 2)}  # (ranks, iterations)
    pool = {False: 48, True: 3}  # specs judged for quality
    workers = 2

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def setup(self, seed: int, small: bool) -> NetInputs:
        inputs = NetInputs(*self.sizes[small])
        for i in range(self.pool[small]):
            inputs.spec(episode_seed(seed, i))
        return inputs

    def options(self, log_dir: Path | None = None) -> NetOptions:
        return NetOptions(
            workers=self.workers,
            log_dir=None if log_dir is None else str(log_dir),
            timeout=EPISODE_TIMEOUT_S,
        )

    def resolved(self) -> dict[str, Any]:
        return {"transport": f"loopback-tcp, {self.workers} coroutine workers, 1 process"}

    def quality_seeds(self, inputs: NetInputs) -> list[int]:
        return list(inputs.specs)

    def judge(self, inputs: NetInputs, seed: int) -> Episode:
        """One checked ``run_episode_sim`` episode on a pooled spec."""
        start = time.perf_counter()
        try:
            spec, reference = inputs.spec(seed), inputs.reference(seed)
        except Exception as exc:  # keep judging; the failure is counted
            traceback.print_exc(file=sys.stderr)
            return Episode(seed, time.perf_counter() - start, math.nan, 0, [f"raised {exc!r}"])
        return Episode(
            seed=seed,
            wall=time.perf_counter() - start,
            imbalance_after=float(reference.final_imbalance),
            migrated=int(np.count_nonzero(reference.assignment != np.asarray(spec.assignment))),
            errors=check_reference(spec, reference),
            resolved={"transport": "run_episode_sim"},
        )

    def episode(self, inputs: NetInputs, seed: int) -> Episode:
        spec, reference = inputs.spec(seed), inputs.reference(seed)  # untimed
        start = time.perf_counter()
        result = run_episode_net(spec, self.options())
        wall = time.perf_counter() - start
        return Episode(
            seed=seed,
            wall=wall,
            imbalance_after=float(result.final_imbalance),
            migrated=int(np.count_nonzero(result.assignment != np.asarray(spec.assignment))),
            errors=check_net(result, reference),
            resolved=self.resolved(),
        )

    def traced(
        self, inputs: NetInputs, seed: int, tracer: Tracer
    ) -> tuple[dict[str, float], list[str]]:
        spec = inputs.spec(seed)
        with tracer.span("run_episode_sim", "net.sim", seed=seed) as span:
            reference = run_episode_sim(spec)
        sim_s = span["end"] - span["start"]
        errors = []
        # The first episode in a process is the slowest; time a warm one.
        for _ in range(2):
            with tracer.span("run_episode_net", "episode", seed=seed) as span:
                untraced = run_episode_net(spec, self.options())
            errors += check_net(untraced, reference)
        untraced_wall = span["end"] - span["start"]

        log_dir = self.scratch / f"netlogs-{seed}"
        shutil.rmtree(log_dir, ignore_errors=True)
        log_dir.mkdir(parents=True)
        try:
            with tracer.span("run_episode_net(logs)", "episode", seed=seed) as span:
                traced = run_episode_net(spec, self.options(log_dir))
            traced_wall = span["end"] - span["start"]
            errors += check_net(traced, reference)
            totals = analyze_logs(log_dir)
            rounds = _round_spans(log_dir)
        finally:
            shutil.rmtree(log_dir, ignore_errors=True)
        for (iteration, rnd), (first, last, skew) in sorted(rounds.items()):
            tracer.spans.append(
                {
                    "name": f"iter {iteration} round {rnd}",
                    "cat": "net.round",
                    "start": first,
                    "end": last,
                    "pid": span["pid"],
                    "id": f"net:{iteration}:{rnd}",
                    "parent": span["id"],
                    "args": {"skew_ms": skew * 1e3},
                }
            )

        frames = sum(totals["per_tag_tx"].values())
        skews = [skew for _, _, skew in rounds.values()]
        metrics = _counter_metrics(traced.counters) | {
            "gossip.calls": spec.n_iters,
            "gossip.rounds": len(traced.per_round_messages),
            "gossip.coverage": traced.coverage,
            "net.frames": frames,
            "net.frame_bytes": totals["frame_bytes"],
            "net.model_bytes": totals["model_bytes"],
            "net.bytes_ratio": _ratio(totals["frame_bytes"], totals["model_bytes"]),
            "net.retries": totals["retries"],
            "net.rounds": len(totals["rounds"]),
            "net.frames_per_s": frames / traced_wall,
            "net.round_skew_ms": statistics.median(skews) * 1e3 if skews else 0.0,
            "net.sim_ref_s": sim_s,
            "net.transport_share": 1.0 - sim_s / untraced_wall,
            "trace.overhead": traced_wall / untraced_wall - 1.0,
        }
        return metrics, errors


def _round_spans(log_dir: Path) -> dict[tuple[int, int], tuple[float, float, float]]:
    """Per gossip round: first event, last event, and the spread across
    ranks of each rank's last receive (the barrier skew)."""
    first: dict[tuple[int, int], float] = {}
    last: dict[tuple[int, int], float] = {}
    last_rx: dict[tuple[int, int], dict[int, float]] = {}
    for path in sorted(log_dir.glob("wire_rank*.jsonl")):
        for row in iter_records(path):
            if row["round"] is None or row["dir"] == "retry":
                continue
            key = (int(row["iter"]), int(row["round"]))
            t = row["t_mono"]
            first[key] = min(first.get(key, t), t)
            last[key] = max(last.get(key, t), t)
            if row["dir"] == "rx":
                ranks = last_rx.setdefault(key, {})
                ranks[row["rank"]] = max(ranks.get(row["rank"], t), t)
    out = {}
    for key in first:
        times = list(last_rx.get(key, {}).values())
        out[key] = (first[key], last[key], max(times) - min(times) if times else 0.0)
    return out


def _lb_sizes() -> dict[str, tuple[LBSize, LBSize]]:
    sparse_gossip = GossipConfig(knowledge="auto", rounds=10, max_known=512, trim_policy="lowest")
    return {
        "lb-sparse-16k": (
            LBSize(50_000, 32, 16_384, 2, 2, sparse_gossip, n_workers=2, executor="auto"),
            # Forced sparse so the reduced size runs the same backend.
            LBSize(
                2_000, 8, 1_024, 2, 1,
                dataclasses.replace(sparse_gossip, knowledge="sparse"),
                n_workers=2, executor="auto",
            ),
        ),
        "lb-packed-4k": (
            LBSize(200_000, 64, 4_096, 1, 3, GossipConfig(), n_workers=None, executor=None),
            LBSize(4_000, 16, 512, 1, 2, GossipConfig(), n_workers=None, executor=None),
        ),
    }


def make_workloads(scratch: Path) -> dict[str, Any]:
    """Every workload by name; ``scratch`` holds the net wire logs briefly."""
    workloads: dict[str, Any] = {
        name: LBWorkload(name, full, small) for name, (full, small) in _lb_sizes().items()
    }
    workloads["empire-bdot"] = EmpireWorkload()
    workloads["net-loopback-64"] = NetWorkload(scratch)
    return workloads
