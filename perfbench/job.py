"""One benchmark job in a fresh interpreter.

``run.py`` starts this script once per job, so every timed job pays the
same cold costs a user's ``repro`` process pays, sees a fresh result store
and never meets an in-process memo (``experiments/sweeps.py``'s
``_sweep_memo``) filled by an earlier job.

    PYTHONPATH=src:perfbench python3 perfbench/job.py \
        --workload fig07-static --seed 3 --mode run --state-dir .perfbench

Modes:

``setup``
    Import, build the inputs, create the store, report the ready instant
    and exit.  ``run.py`` times set-up from process start to that instant.
``run``
    Set up, then time the workload's public call with the benchmark's
    tracing off (``probed-dynamic`` keeps its own probed telemetry session:
    that is the workload).
``plain``
    Like ``run``, but with telemetry off even where the workload itself
    turns it on (``probed-dynamic``): the untraced side of
    ``obs.trace_overhead_ratio``.
``traced``
    Set up, then time the public call under ``repro.obs.telemetry_session``
    with spans of the benchmark's own around it, rebuild each layer call
    the public call makes so that it can be timed on its own, and derive
    the per-layer metrics (see ``layers.py``).

The last line on standard output is one JSON object that ``run.py`` reads.
Nothing here changes what the program computes: the workloads call the
public entry points with their defaults and pass no engine selection.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from layers import layer_metrics

MODES = ("setup", "run", "plain", "traced")

#: Overlay sizes of the fig07 sweep (the benchmark-reduced paper sweep).
FIG07_SIZES = (100, 200, 400)
#: Overlay size of the probed dynamic pair.
PROBED_SIZE = 400
#: Shape of the sharded universe run.
UNIVERSE_NAME = "lineup-mini"
UNIVERSE_REPETITIONS = 4
UNIVERSE_SHARDS = 4
UNIVERSE_WORKERS = 2


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON form (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_summary(result: Any) -> Dict[str, Any]:
    """The simulated statistics of one ``SessionResult``, host time left out."""
    return {
        "algorithm": result.algorithm,
        "n_nodes": result.config.n_nodes,
        "seed": result.config.seed,
        "metrics": asdict(result.metrics),
        "n_peers": result.n_peers,
        "n_rounds": result.n_rounds,
        "average_degree": result.average_degree,
        "overhead_ratio": result.overhead_ratio,
        "stop_reason": result.stop_reason,
        "fabric_stats": dict(result.fabric_stats),
    }


def pair_failures(label: str, normal: Any, fast: Any) -> List[List[str]]:
    """The failed output checks of one paired run, as ``[attempt, message]``."""
    problems = []
    for result in (normal, fast):
        if result.metrics.unfinished:
            problems.append(
                [label, f"{result.algorithm}: {result.metrics.unfinished} unfinished peers"]
            )
    if not fast.metrics.avg_switch_time < normal.metrics.avg_switch_time:
        problems.append([
            label,
            f"fast switch time {fast.metrics.avg_switch_time:.4f} s is not "
            f"below normal {normal.metrics.avg_switch_time:.4f} s",
        ])
    return problems


def peak_rss_mb(who: int) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """Inputs, public call and output check of one benchmark workload.

    ``prepare`` builds the inputs and the store (set-up), ``call`` is the
    timed public call, ``outcome`` reads the simulated results back and
    checks them, and ``layer_calls`` times, one by one, the layer calls the
    public call made (traced mode only).
    """

    def __init__(self, name: str, seed: int, store_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.store_dir = store_dir

    #: Registered figure that traced mode re-renders from the warm store.
    figure: Optional[str] = None
    #: Whether the simulation runs in pool workers rather than in this process.
    pooled = False

    def prepare(self) -> None:
        from repro.experiments.store import ResultStore

        self.store = ResultStore(self.store_dir)

    def call(self, telemetry: bool) -> Any:
        """The public call; ``telemetry=False`` keeps even the workload's own off."""
        raise NotImplementedError

    def outcome(self, result: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def layer_calls(self, tel: Any) -> None:
        """Rebuild the overlays and sessions of the job under bench spans."""
        from repro.streaming.session import SwitchSession, build_session_overlay

        for config in self.session_configs():
            for algorithm in ("normal", "fast"):
                cfg = config.with_algorithm(algorithm)
                with tel.span("bench.overlay.build", n_nodes=cfg.n_nodes):
                    overlay = build_session_overlay(
                        cfg.n_nodes,
                        cfg.seed,
                        min_degree=cfg.min_degree,
                        trace_mean_degree=cfg.trace_mean_degree,
                    )
                with tel.span("bench.session.setup", n_nodes=cfg.n_nodes):
                    SwitchSession(cfg, overlay=overlay)

    def session_configs(self) -> List[Any]:
        """Configs of the paired sessions the public call runs in-process."""
        return []

    def figure_params(self) -> Dict[str, Any]:
        return {"store": self.store}


class Fig07Static(Workload):
    """``figure7(sizes=(100, 200, 400))``, serial, into a fresh store."""

    figure = "fig7-switch-static"

    def prepare(self) -> None:
        from repro.experiments.parallel import build_sweep_tasks

        super().prepare()
        self.tasks = build_sweep_tasks(FIG07_SIZES, seed=self.seed)

    def call(self, telemetry: bool) -> Any:
        from repro.experiments.figures import figure7

        return figure7(sizes=FIG07_SIZES, seed=self.seed, store=self.store)

    def session_configs(self) -> List[Any]:
        return [task.config for task in self.tasks]

    def outcome(self, figure: Any) -> Dict[str, Any]:
        from repro.experiments.store import pair_fingerprint

        pairs, failures, results = [], [], []
        for task in self.tasks:
            stored = self.store.load_pair(pair_fingerprint(task.config))
            if stored is None:
                failures.append([f"n={task.n_nodes}", "pair missing from the store"])
                continue
            normal, fast = stored
            pairs.append([result_summary(normal), result_summary(fast)])
            results.extend(stored)
            failures.extend(pair_failures(f"n={task.n_nodes}", normal, fast))
        return {
            "attempted": len(self.tasks),
            "failures": failures,
            "digests": {"rows": digest(figure.rows), "pairs": digest(pairs)},
            "peer_rounds": sum(r.n_peers * r.n_rounds for r in results),
            "zaps": sum(FIG07_SIZES),
            "results": results,
        }

    def figure_params(self) -> Dict[str, Any]:
        return {"sizes": FIG07_SIZES, "seed": self.seed, "store": self.store}


class UniverseSharded(Workload):
    """``run_universe(lineup-mini, repetitions=4, shards=4, workers=2)``."""

    figure = "universe-summary"
    pooled = True

    def prepare(self) -> None:
        from repro import get_universe

        super().prepare()
        self.spec = get_universe(UNIVERSE_NAME)

    def call(self, telemetry: bool) -> Any:
        from repro import run_universe

        return run_universe(
            self.spec,
            seed=self.seed,
            repetitions=UNIVERSE_REPETITIONS,
            shards=UNIVERSE_SHARDS,
            workers=UNIVERSE_WORKERS,
            store=self.store,
        )

    def outcome(self, universe: Any) -> Dict[str, Any]:
        from repro.channels.runner import rep_to_dict
        from repro.dist import ShardPlan

        rep_seeds = [self.seed + rep for rep in range(UNIVERSE_REPETITIONS)]
        plan = ShardPlan.build(self.spec, rep_seeds, UNIVERSE_SHARDS)
        unfinished: Dict[tuple, int] = {}
        reps = []
        for rep in universe.reps:
            reps.append({"rep": rep_to_dict(rep), "aggregates": rep.aggregates})
            for outcome in rep.normal + rep.fast:
                key = (rep.seed, outcome.channel)
                unfinished[key] = unfinished.get(key, 0) + outcome.unfinished
        failures = []
        for shard in plan.shards:
            stuck = sum(unfinished.get((u.rep_seed, u.channel), 0) for u in shard.units)
            if stuck:
                failures.append([f"shard {shard.shard_id}", f"{stuck} unfinished viewers"])
        # These checks cover the whole run, so every shard fails with them.
        run_problems = []
        if len(universe.reps) != UNIVERSE_REPETITIONS:
            run_problems.append(f"{len(universe.reps)} repetitions returned")
        if not universe.mean_reduction > 0:
            run_problems.append(
                f"fast zap time not below normal (reduction {universe.mean_reduction:.4f})"
            )
        failures.extend(
            [f"shard {shard.shard_id}", problem]
            for problem in run_problems
            for shard in plan.shards
        )
        viewer_periods = (
            self.spec.n_viewers * self.spec.n_periods * 2 * UNIVERSE_REPETITIONS
        )
        return {
            "attempted": plan.n_shards,
            "failures": failures,
            "digests": {"reps": digest(reps)},
            "peer_rounds": viewer_periods,
            "zaps": universe.n_zaps,
            "results": [],
        }


class ProbedDynamic(Workload):
    """``run_pair(make_session_config(400, dynamic=True))`` with probes on."""

    def prepare(self) -> None:
        from repro import make_session_config

        super().prepare()
        self.config = make_session_config(PROBED_SIZE, seed=self.seed, dynamic=True)
        self.probes: Any = None

    def call(self, telemetry: bool) -> Any:
        from repro import run_pair
        from repro.obs import get_telemetry, telemetry_session

        if not telemetry:
            return run_pair(self.config)
        # Traced mode already holds a probed session; otherwise open one.
        active = get_telemetry()
        with (nullcontext(active) if active.enabled else telemetry_session(probes=True)) as tel:
            pair = run_pair(self.config)
        self.probes = tel.probes
        return pair

    def session_configs(self) -> List[Any]:
        return [self.config]

    def outcome(self, pair: Any) -> Dict[str, Any]:
        summary = [result_summary(pair.normal), result_summary(pair.fast)]
        digests = {"pair": digest(summary)}
        if self.probes is not None:
            lifecycle = self.probes.lifecycle
            digests["probes"] = digest({
                "stages": lifecycle.stage_counts(),
                "drop_reasons": lifecycle.drop_reason_counts(),
                "lifecycle_dropped": lifecycle.dropped,
                "health_periods": len(self.probes.health),
            })
        return {
            "attempted": 1,
            "failures": pair_failures(f"n={PROBED_SIZE}", pair.normal, pair.fast),
            "digests": digests,
            "peer_rounds": sum(r.n_peers * r.n_rounds for r in (pair.normal, pair.fast)),
            "zaps": PROBED_SIZE,
            "results": [pair.normal, pair.fast],
        }


WORKLOAD_TYPES: Dict[str, Callable[[str, int, Path], Workload]] = {
    "fig07-static": Fig07Static,
    "universe-sharded": UniverseSharded,
    "probed-dynamic": ProbedDynamic,
}
WORKLOADS = tuple(WORKLOAD_TYPES)


def store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--state-dir", required=True, type=Path)
    args = parser.parse_args(argv)

    import repro  # noqa: F401  -- set-up covers the package import

    scratch = Path(tempfile.mkdtemp(prefix="job-", dir=args.state_dir / "tmp"))
    try:
        workload = WORKLOAD_TYPES[args.workload](args.workload, args.seed, scratch / "store")
        workload.prepare()
        report: Dict[str, Any] = {"ready": time.monotonic()}
        if args.mode == "setup":
            print(json.dumps(report))
            return 0
        if args.mode == "traced":
            report.update(traced_job(workload, args.state_dir))
        else:
            telemetry = args.mode == "run"
            started = time.perf_counter()
            result = workload.call(telemetry)
            report["wall_s"] = time.perf_counter() - started
            report.update(_public_outcome(workload.outcome(result)))
        report["rss_self_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
        # The peak of the processes that simulate: the pool workers where
        # there is a pool, else this process (serial workloads have none).
        report["rss_sim_mb"] = peak_rss_mb(
            resource.RUSAGE_CHILDREN if workload.pooled else resource.RUSAGE_SELF
        )
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _public_outcome(outcome: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-safe part of an outcome (``results`` stays in-process)."""
    return {k: v for k, v in outcome.items() if k != "results"}


def traced_job(workload: Workload, state_dir: Path) -> Dict[str, Any]:
    """Run the workload once under telemetry and derive its per-layer metrics."""
    from repro.obs import telemetry_session, write_chrome_trace

    with telemetry_session(probes=isinstance(workload, ProbedDynamic)) as tel:
        started = time.perf_counter()
        with tel.span("bench.job", workload=workload.name):
            result = workload.call(True)
        wall = time.perf_counter() - started
        # The exact counters belong to the public call alone.
        counters = dict(tel.snapshot()["counters"])
        if workload.figure is not None:
            from repro.figures import render_figure

            with tel.span("bench.figures.render", figure=workload.figure):
                render_figure(workload.figure, **workload.figure_params())
        workload.layer_calls(tel)
    outcome = workload.outcome(result)
    trace_path = state_dir / "traces" / f"{workload.name}-seed{workload.seed}.json"
    write_chrome_trace(tel, trace_path)
    metrics, counters, self_times = layer_metrics(
        tel,
        counters,
        wall_s=wall,
        results=outcome["results"],
        sizes=FIG07_SIZES,
        workers=UNIVERSE_WORKERS,
        store_bytes=store_bytes(workload.store_dir),
    )
    report = _public_outcome(outcome)
    report.update(
        wall_s=wall,
        layers=metrics,
        counters=counters,
        self_times=self_times,
        trace=str(trace_path),
    )
    return report


if __name__ == "__main__":
    sys.exit(main())
