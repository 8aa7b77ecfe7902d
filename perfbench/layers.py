"""Per-layer metrics from one traced job.

The traced job leaves two things in its ``repro.obs`` telemetry: the span
events (those ``src/`` already emits plus the benchmark's own ``bench.*``
spans) and the counter snapshot taken right after the public call.  This
module turns them into the per-layer metrics named in ``METRICS.md``.

Spans nest by time on each track: a span's parent is the innermost span
that contains it.  Self time is a span's duration minus the durations of
its direct children, so ``engine.run``'s self time is the period loop
outside the decide/exchange/flush phases and ``session.run``'s self time
is what the session spends outside ``engine.run``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

#: Containment slack in microseconds (event timestamps are rounded to ns).
_SLACK_US = 0.002


class SpanNode:
    """One complete span event with its children on the same track."""

    __slots__ = ("name", "begin", "end", "args", "children")

    def __init__(self, event: Dict[str, Any]) -> None:
        self.name = event["name"]
        self.begin = float(event["ts"])
        self.end = self.begin + float(event["dur"])
        self.args = event.get("args", {})
        self.children: List["SpanNode"] = []

    @property
    def duration_s(self) -> float:
        return (self.end - self.begin) / 1e6

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration_s - sum(c.duration_s for c in self.children))


def span_forest(events: Sequence[Dict[str, Any]]) -> List[SpanNode]:
    """All complete spans, each linked to its children; returns every node.

    ``shard.execute`` spans are rebuilt by the parent from worker messages
    and carry the worker id as ``tid``, so they get tracks of their own
    rather than nesting under whatever the parent did meanwhile.
    """
    tracks: Dict[Tuple[str, int], List[SpanNode]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        track = ("worker" if event["name"] == "shard.execute" else "main", event["tid"])
        tracks.setdefault(track, []).append(SpanNode(event))
    nodes: List[SpanNode] = []
    for track_nodes in tracks.values():
        track_nodes.sort(key=lambda n: (n.begin, -n.end))
        stack: List[SpanNode] = []
        for node in track_nodes:
            while stack and not (
                node.begin >= stack[-1].begin - _SLACK_US
                and node.end <= stack[-1].end + _SLACK_US
            ):
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            stack.append(node)
        nodes.extend(track_nodes)
    return nodes


def self_time_table(nodes: Sequence[SpanNode]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total seconds and self seconds."""
    table: Dict[str, Dict[str, float]] = {}
    for node in nodes:
        row = table.setdefault(node.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += node.duration_s
        row["self_s"] += node.self_s
    return dict(sorted(table.items()))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tel: Any,
    counters: Dict[str, float],
    *,
    wall_s: float,
    results: Sequence[Any],
    sizes: Sequence[int],
    workers: int,
    store_bytes: int,
) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, Dict[str, float]]]:
    """``(per-layer metrics, exact counters, self-time table)`` of one traced job.

    ``results`` are the job's ``SessionResult`` objects (empty when the
    sessions ran in pool workers, whose telemetry is off); ``wall_s`` is
    the traced wall of the public call.
    """
    nodes = span_forest(tel.tracer.events())
    table = self_time_table(nodes)

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def count(name: str) -> int:
        return int(table.get(name, {}).get("count", 0))

    def counter(name: str) -> int:
        return int(counters.get(name, 0))

    peer_rounds = sum(r.n_peers * r.n_rounds for r in results)
    metrics: Dict[str, float] = {
        "overlay.build_s": total("bench.overlay.build"),
        "session.setup_s": total("bench.session.setup"),
        "session.run_s": total("session.run"),
        "session.finalize_s": self_s("session.run"),
        "period.decide_s": total("period.decide"),
        "period.exchange_s": total("period.exchange"),
        "period.flush_s": total("period.flush"),
        "period.other_s": self_s("engine.run"),
        "period.decide_us_per_peer_round": _ratio(total("period.decide") * 1e6, peer_rounds),
    }

    # Period-loop throughput per overlay size: peer-rounds of the sessions
    # of that size over the engine.run time inside their session.run spans.
    engine_by_size: Dict[int, float] = {}
    for node in nodes:
        if node.name == "session.run":
            n_nodes = int(node.args.get("n_nodes", 0))
            engine_by_size[n_nodes] = engine_by_size.get(n_nodes, 0.0) + sum(
                c.duration_s for c in node.children if c.name == "engine.run"
            )
    for size in sizes:
        size_rounds = sum(r.n_peers * r.n_rounds for r in results if r.config.n_nodes == size)
        metrics[f"period.peer_rounds_per_s.n{size}"] = _ratio(
            size_rounds, engine_by_size.get(size, 0.0)
        )

    assigned, unassigned = counter("scheduler.assigned"), counter("scheduler.unassigned")
    requests, failed = counter("fabric.requests"), counter("fabric.requests_failed")
    # Counts of simulated work: they must repeat exactly for one workload,
    # seed and source tree, and they are the denominators of host time.
    exact = {
        "sim.events": counter("engine.events"),
        "period.count": counter("session.periods"),
        "net.requests": requests,
        "net.requests_failed": failed,
        "net.control_pulls": counter("fabric.control_pulls"),
        "core.assigned": assigned,
        "core.unassigned": unassigned,
    }
    metrics.update(exact)
    metrics["core.assign_ratio"] = _ratio(assigned, assigned + unassigned)
    metrics["net.request_success_ratio"] = _ratio(requests - failed, requests)

    pair_time = metrics["overlay.build_s"] + metrics["session.setup_s"] + metrics["session.run_s"]
    shard_total = total("shard.execute")
    metrics.update({
        "store.save_s": total("store.save"),
        "store.load_s": total("store.load"),
        "store.saves": count("store.save"),
        "store.loads": count("store.load"),
        "store.bytes": store_bytes,
        "figures.render_s": total("bench.figures.render"),
        "sweep.overhead_s": wall_s - pair_time if results else 0.0,
        "dist.shard_execute_s": shard_total,
        "dist.shard_max_s": max(
            (n.duration_s for n in nodes if n.name == "shard.execute"), default=0.0
        ),
        "dist.busy_ratio": _ratio(shard_total, workers * wall_s),
        "dist.worker_spawns": counter("pool.worker_spawn") + counter("pool.worker_respawn"),
        "dist.retries": counter("pool.shard_retry"),
        "dist.failures": counter("pool.shard_failure"),
        "obs.lifecycle_events": len(tel.probes.lifecycle) + tel.probes.lifecycle.dropped,
        "obs.health_samples": len(tel.probes.health) + tel.probes.health.dropped,
        "obs.trace_dropped": tel.tracer.dropped,
    })
    return metrics, exact, table
