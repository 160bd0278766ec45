"""Per-layer numbers: counter scrapes and direct calls into each layer.

Two sources feed the per-layer metrics:

* the program's own ``/v1/metrics?format=json`` and ``/v1/healthz``,
  read from the daemon (or from the router and each replica) before
  and after the timed window and turned into deltas;
* direct calls from this process into ``repro.core``,
  ``repro.core.fast_eval``, ``repro.persist`` and ``repro.telemetry``
  on the workload's own inputs, each wrapped in a span.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from repro.core import TaskMapping
from repro.core.fast_eval import IncrementalEvaluator
from repro.persist import Journal
from repro.server import ServerError
from repro.telemetry import MetricsRegistry

from stats import mean, median


# -- scrapes ------------------------------------------------------------
def scrape(endpoints: dict) -> dict:
    """``{label: {"metrics": ..., "health": ..., "scrape_s": ...}}`` now."""
    out = {}
    for label, client in endpoints.items():
        started = time.perf_counter()
        metrics = client.metrics()
        elapsed = time.perf_counter() - started
        out[label] = {"metrics": metrics, "health": client.healthz(), "scrape_s": elapsed}
    return out


def _matches(labels: dict, match: dict) -> bool:
    return all(labels.get(key) == value for key, value in match.items())


def counter_total(metrics: dict, name: str, **match) -> float:
    family = metrics.get(name)
    if family is None:
        return 0.0
    return sum(s["value"] for s in family["samples"] if _matches(s["labels"], match))


def histogram_total(metrics: dict, name: str, **match) -> tuple[int, float]:
    family = metrics.get(name)
    if family is None:
        return 0, 0.0
    samples = [s for s in family["samples"] if _matches(s["labels"], match)]
    return sum(s["count"] for s in samples), sum(s["sum"] for s in samples)


class Deltas:
    """Counter and histogram deltas summed over a set of endpoints."""

    def __init__(self, pairs: list[tuple[dict, dict]]):
        self._pairs = pairs  # (metrics before, metrics after) per endpoint and window

    def counter(self, name: str, **match) -> float:
        return sum(counter_total(a, name, **match) - counter_total(b, name, **match)
                   for b, a in self._pairs)

    def histogram(self, name: str, **match) -> tuple[int, float]:
        count = total = 0.0
        for b, a in self._pairs:
            (cb, sb), (ca, sa) = histogram_total(b, name, **match), histogram_total(a, name, **match)
            count += ca - cb
            total += sa - sb
        return int(count), total

    def mean_ms(self, name: str, **match) -> float:
        count, total = self.histogram(name, **match)
        return 1e3 * total / count if count else 0.0


# -- direct calls -------------------------------------------------------
def probe_core(oracle, mappings_by_key: dict, recorder, limit: int = 64) -> dict:
    """``core.predict_ms`` and ``core.compare_ms`` on the workload's mappings."""
    predict_s, compare_s = [], []
    for (app, fingerprint), mappings in sorted(mappings_by_key.items()):
        evaluator = oracle.evaluator(app, fingerprint)
        chosen = [TaskMapping(m) for m in mappings[:limit]]
        for mapping in chosen:
            with recorder.span("core.predict", "core"):
                started = time.perf_counter()
                evaluator.predict(mapping)
                predict_s.append(time.perf_counter() - started)
        for i in range(0, len(chosen) - 7, 8):
            with recorder.span("core.compare", "core"):
                started = time.perf_counter()
                evaluator.compare(chosen[i : i + 8])
                compare_s.append(time.perf_counter() - started)
    return {"core.predict_ms": 1e3 * mean(predict_s), "core.compare_ms": 1e3 * mean(compare_s)}


def probe_fast_eval(oracle, app: str, fingerprint: str, seed: int, recorder) -> dict:
    """Context build, single-rank ``propose`` and ``evaluate_many`` timings."""
    rng = random.Random(f"fast_eval:{seed}")
    service = oracle.service
    snapshot = oracle.snapshot(fingerprint)
    nodes = service.cluster.node_ids()
    nprocs = service.profile(app).nprocs
    build_s = []
    for _ in range(3):
        evaluator = service.evaluator(app, snapshot=snapshot)
        with recorder.span("fast_eval.context_build", "fast_eval"):
            started = time.perf_counter()
            context = evaluator.fast_context()
            build_s.append(time.perf_counter() - started)
    current = rng.sample(nodes, nprocs)
    incremental = IncrementalEvaluator(context, TaskMapping(current))
    propose_s = []
    for step in range(400):
        candidate = list(current)
        candidate[rng.randrange(nprocs)] = rng.choice(nodes)
        with recorder.span("fast_eval.propose", "fast_eval"):
            started = time.perf_counter()
            incremental.propose(TaskMapping(candidate))
            propose_s.append(time.perf_counter() - started)
        if step % 2:
            incremental.commit()
            current = candidate
        else:
            incremental.reject()
    population = [TaskMapping(rng.sample(nodes, nprocs)) for _ in range(64)]
    many_s = []
    for _ in range(5):
        with recorder.span("fast_eval.evaluate_many", "fast_eval"):
            started = time.perf_counter()
            context.evaluate_many(population)
            many_s.append(time.perf_counter() - started)
    return {
        "fast_eval.context_build_ms": 1e3 * median(build_s),
        "fast_eval.propose_us": 1e6 * mean(propose_s),
        "fast_eval.evaluate_many_us": 1e6 * median(many_s) / len(population),
    }


def probe_journal(directory: Path, record: dict, recorder, count: int = 100) -> float:
    """Mean ms of ``Journal.append`` with ``fsync=always`` on this filesystem."""
    times = []
    with Journal(directory / "probe.journal", fsync="always") as journal:
        for index in range(count):
            doc = {"op": "create", "id": f"probe-{index}", **record}
            with recorder.span("persist.append", "persist"):
                started = time.perf_counter()
                journal.append(doc)
                times.append(time.perf_counter() - started)
    return 1e3 * median(times)


def probe_telemetry(recorder, count: int = 20000) -> dict:
    """Per-update cost of a labelled counter and histogram, in microseconds."""
    registry = MetricsRegistry()
    counter = registry.counter("probe_total", "Probe counter.", ("route",))
    histogram = registry.histogram("probe_seconds", "Probe histogram.", ("route",))
    with recorder.span("telemetry.counter_inc", "telemetry"):
        started = time.perf_counter()
        for _ in range(count):
            counter.inc(route="/v1/jobs")
        inc_s = time.perf_counter() - started
    with recorder.span("telemetry.histogram_observe", "telemetry"):
        started = time.perf_counter()
        for index in range(count):
            histogram.observe(index * 1e-6, route="/v1/jobs")
        observe_s = time.perf_counter() - started
    return {
        "telemetry.counter_inc_us": 1e6 * inc_s / count,
        "telemetry.histogram_observe_us": 1e6 * observe_s / count,
    }


def probe_fleet_hop(router, replicas: list, job_ids: list[str], recorder) -> float:
    """Median GET through the router minus median GET on the owning replica, ms."""
    routed, direct = [], []
    for job_id in job_ids:
        owner = None
        for replica in replicas:
            try:
                replica.job(job_id)
            except ServerError:  # 404: not this replica's job
                continue
            owner = replica
            break
        if owner is None:
            continue
        with recorder.span("fleet.get_routed", "fleet"):
            started = time.perf_counter()
            router.job(job_id)
            routed.append(time.perf_counter() - started)
        with recorder.span("fleet.get_direct", "fleet"):
            started = time.perf_counter()
            owner.job(job_id)
            direct.append(time.perf_counter() - started)
    return 1e3 * (median(routed) - median(direct))
