"""Layered benchmark of the paired-switch simulator.

    python3 perfbench/run.py --workload fig07-static --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout.  Each job runs in a fresh
interpreter (``job.py``) with the checkout's ``src`` on ``PYTHONPATH``; one
job is in flight at a time and a job starts at most two pool workers.

``--trace 0`` first times set-up alone in several fresh interpreters, then
runs untraced jobs for about ``--seconds`` (at least one) and reports the
end-to-end metrics as medians over the jobs.  ``--trace 1``
runs one untraced and one traced job and reports the per-layer metrics;
the traced job writes its spans to ``.perfbench/traces/``.

Every job's simulated statistics are digested and checked: jobs of one
run must agree, a seed recorded in ``reference.json`` must match it, and a
seed run before on the same source tree must repeat (``.perfbench/``).
Traced runs check the simulated counters the same way.  An attempt (a
pair or a shard) fails when its job raises, leaves peers unfinished, or
has the fast algorithm no faster than the normal one; when a digest
differs, every attempt of the run fails.

Metric names, units and bounds come from ``BENCHMARK.json``; see
``perfbench/METRICS.md`` for what each one measures.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from job import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
#: Fresh interpreters timed for set-up alone, after one untimed warm-up.
SETUP_PROBES = 5
#: Every job must have ended this long after start.
DEADLINE_S = 170.0
#: Seconds one speed-probe kernel takes on the baseline host at full speed;
#: host times are reported at this speed (see ``SpeedProbe``).
REFERENCE_PROBE_S = 0.0013
#: Seconds between speed-probe samples while a job runs.
PROBE_PERIOD_S = 0.1


def probe_kernel() -> None:
    """A fixed pure-Python load: dict updates, float arithmetic and a sort."""
    rng = random.Random(12345)
    data = [rng.random() for _ in range(3000)]
    table: Dict[int, float] = {}
    for i, x in enumerate(data):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0.0) + x * x
    sorted(range(len(data)), key=data.__getitem__)


class SpeedProbe:
    """Times ``probe_kernel`` every ``PROBE_PERIOD_S`` while a job runs.

    The host's CPU speed swings by up to 2x within minutes (other tenants
    share it), and process CPU time swings with it.  The probe runs in
    this otherwise idle harness process, alongside the job, so its median
    kernel time follows the speed the job saw; ``normalised`` rescales a
    job's host seconds to the speed at which the kernel takes
    ``REFERENCE_PROBE_S``.  It costs about 1% of one CPU.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            started = time.perf_counter()
            probe_kernel()
            self.samples.append(time.perf_counter() - started)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()


def normalised(report: Dict[str, Any], key: str) -> float:
    """``report[key]`` host seconds at the reference speed."""
    return report[key] * REFERENCE_PROBE_S / statistics.median(report["probe_s"])


class JobFailed(RuntimeError):
    """A job process exited non-zero, timed out or printed no result."""


def _job_env() -> Dict[str, str]:
    env = dict(os.environ)
    # The benchmark owns its stores and sizes: replay directories and the
    # paper-scale switch of the user's environment must not leak in.
    env.pop("REPRO_RESULTS_DIR", None)
    env.pop("REPRO_PAPER_SCALE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["TMPDIR"] = str(STATE / "tmp")
    return env


def run_job(workload: str, seed: int, mode: str, deadline: float) -> Dict[str, Any]:
    """Run one job process and return its report, with ``setup_s`` added."""
    command = [
        sys.executable, str(HERE / "job.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--state-dir", str(STATE),
    ]
    with SpeedProbe() as probe:
        started = time.monotonic()
        process = subprocess.Popen(
            command, cwd=ROOT, env=_job_env(), stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise JobFailed(f"{mode} job timed out") from None
        finally:
            # The job's pool workers share its process group; none may outlive it.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise JobFailed(f"{mode} job exited with code {process.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - started
    report["probe_s"] = probe.samples
    return report


def source_digest() -> str:
    """Digest of the simulator sources: the key of the cross-run check."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def compare(label: str, expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Mismatches between two records over the keys both hold."""
    return [
        f"{label}: {key} is {actual[key]}, expected {expected[key]}"
        for key in sorted(set(expected) & set(actual))
        if expected[key] != actual[key]
    ]


class Checks:
    """The reference and cross-run records of one (workload, seed)."""

    def __init__(self, workload: str, seed: int) -> None:
        self.key = f"{workload}/seed{seed}/{source_digest()}"
        self.cache_path = STATE / "records.json"
        reference = json.loads((HERE / "reference.json").read_text())
        self.reference = reference.get(workload, {}).get(str(seed), {})
        self.cache = (
            json.loads(self.cache_path.read_text()) if self.cache_path.exists() else {}
        )

    def check(self, kind: str, record: Dict[str, Any]) -> List[str]:
        """Compare ``record`` with the reference and earlier runs, then keep it."""
        problems = compare(f"reference {kind}", self.reference.get(kind, {}), record)
        earlier = self.cache.setdefault(self.key, {}).setdefault(kind, {})
        problems += compare(f"earlier run's {kind}", earlier, record)
        earlier.update(record)
        return problems

    def save(self) -> None:
        partial = self.cache_path.with_suffix(".tmp")
        partial.write_text(json.dumps(self.cache, indent=1, sort_keys=True))
        os.replace(partial, self.cache_path)


def agreeing_digests(jobs: List[Dict[str, Any]]) -> Tuple[Dict[str, str], List[str]]:
    """The union of the jobs' digests, and every disagreement between them."""
    merged: Dict[str, str] = {}
    problems: List[str] = []
    for job in jobs:
        problems += compare("digest between jobs", merged, job["digests"])
        merged.update({k: v for k, v in job["digests"].items() if k not in merged})
    return merged, problems


def timed_run(workload: str, seed: int, seconds: int, deadline: float) -> Tuple[Dict, List]:
    """Set-up probes, then untraced jobs for ``seconds``: end-to-end metrics."""
    run_job(workload, seed, "setup", deadline)  # fills the bytecode caches
    setups = [run_job(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES)]
    jobs: List[Dict[str, Any]] = []
    started = time.monotonic()
    while True:
        job_started = time.monotonic()
        jobs.append(run_job(workload, seed, "run", deadline))
        # Start another job only if it should end within ``seconds``.
        now = time.monotonic()
        if now - started + (now - job_started) > seconds:
            break
    walls = [normalised(job, "wall_s") for job in jobs]
    setup_times = [normalised(report, "setup_s") for report in setups + jobs]
    metrics = {
        "wall_s": statistics.median(walls),
        "peer_rounds_per_s": statistics.median(j["peer_rounds"] / w for j, w in zip(jobs, walls)),
        "zaps_per_s": statistics.median(j["zaps"] / w for j, w in zip(jobs, walls)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(j["rss_self_mb"] for j in jobs),
        "peak_rss_children_mb": statistics.median(j["rss_sim_mb"] for j in jobs),
    }
    print(f"jobs: {len(jobs)}  walls (s): " + ", ".join(
        f"{job['wall_s']:.3f} measured = {wall:.3f} normalised" for job, wall in zip(jobs, walls)
    ))
    print(f"set-up samples: {len(setup_times)}  normalised (s): "
          + ", ".join(f"{s:.3f}" for s in setup_times))
    return metrics, jobs


def traced_run(workload: str, seed: int, deadline: float) -> Tuple[Dict, List]:
    """One untraced and one traced job: per-layer metrics."""
    plain = run_job(workload, seed, "plain", deadline)
    traced = run_job(workload, seed, "traced", deadline)
    metrics = dict(traced["layers"])
    metrics["obs.traced_wall_s"] = normalised(traced, "wall_s")
    metrics["obs.untraced_wall_s"] = normalised(plain, "wall_s")
    metrics["obs.trace_overhead_ratio"] = (
        metrics["obs.traced_wall_s"] / metrics["obs.untraced_wall_s"]
    )
    print(
        f"trace overhead (normalised walls): traced {metrics['obs.traced_wall_s']:.3f} s / "
        f"untraced {metrics['obs.untraced_wall_s']:.3f} s = "
        f"{metrics['obs.trace_overhead_ratio']:.4f}  (measured {traced['wall_s']:.3f} s / "
        f"{plain['wall_s']:.3f} s; span times below are measured)"
    )
    curve = [k for k in sorted(metrics) if k.startswith("period.peer_rounds_per_s.")]
    print("period-loop peer-rounds/s by size: " + ", ".join(
        f"{k.rsplit('.', 1)[1]}={metrics[k]:.1f}" for k in curve
    ))
    print(f"{'span':<28}{'count':>7}{'total s':>11}{'self s':>11}")
    for name, row in traced["self_times"].items():
        print(f"{name:<28}{int(row['count']):>7}{row['total_s']:>11.4f}{row['self_s']:>11.4f}")
    print(f"spans written to {traced['trace']}")
    return metrics, [plain, traced]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    checks = Checks(args.workload, args.seed)

    try:
        if args.trace:
            metrics, jobs = traced_run(args.workload, args.seed, deadline)
        else:
            metrics, jobs = timed_run(args.workload, args.seed, args.seconds, deadline)
    except JobFailed as error:
        print(f"benchmark job failed: {error}", file=sys.stderr)
        return 1

    attempted = sum(job["attempted"] for job in jobs)
    failed_attempts = {(i, label) for i, job in enumerate(jobs) for label, _ in job["failures"]}
    problems = [f"{label}: {message}" for job in jobs for label, message in job["failures"]]
    digests, run_problems = agreeing_digests(jobs)
    run_problems += checks.check("digests", digests)
    if args.trace:
        run_problems += checks.check("counters", jobs[-1]["counters"])
        print("simulated counters: " + ", ".join(
            f"{k}={v}" for k, v in sorted(jobs[-1]["counters"].items())
        ))
    checks.save()
    failed = attempted if run_problems else len(failed_attempts)
    for problem in problems + run_problems:
        print(f"CHECK FAILED {problem}")

    if set(metrics) != set(units):
        print(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
