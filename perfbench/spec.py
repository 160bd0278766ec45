"""What the benchmark measures: workloads and metrics, in one place.

``run.py`` prints exactly these metrics, and ``BENCHMARK.json`` at the
root of the repository is this module's output::

    python3 perfbench/spec.py > BENCHMARK.json

Every per-layer metric names the end-to-end metric and workload it is
expected to move (``moves``).  This list is the only copy of that
mapping: ``run.py --trace 1`` prints it next to each value.
"""

from __future__ import annotations

import json

#: Every workload draws its requests from ``--seed`` (default 1); the
#: ``why`` says so, because BENCHMARK.json has no field for the seed.
WORKLOADS = [
    {
        "name": "estimate",
        "why": (
            "open loop, Poisson 50/s predict (90%) and compare-of-8 into one in-memory "
            "daemon: ~0.5 ms of compute behind the HTTP, queue and poll path; seed 1"
        ),
    },
    {
        "name": "schedule",
        "why": (
            "closed loop CS (2 in 3) and GA searches, workers=2, cg.A/lu.A at 16 ranks on "
            "128-node Centurion: schedulers, fast_eval and the warm search pool; seed 1"
        ),
    },
    {
        "name": "ingest",
        "why": (
            "closed loop 32-job predict batches plus wait_many through a 2-replica fleet, "
            "fsync=always: the journal, router and listing sweeps work only here; seed 1"
        ),
    },
]

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("throughput_jobs_s", "1/s", "higher", 0.25),
    ("ontime_share", "share", "higher", 0.05),
    ("cpu_ms_per_job", "ms", "lower", 0.25),
    # schedule's peak memory depends on which pool worker ran which
    # restart (README, findings): runs of one commit read 655-737 MiB.
    ("rss_mb", "MiB", "lower", 0.15),
    ("mapping_cost_s", "s", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

# name, unit, better, moves: "end-to-end metric on workload(s)"
PER_LAYER = [
    ("setup.calibrate_s", "s", "lower", "setup_s, all"),
    ("setup.profile_s", "s", "lower", "setup_s, all"),
    ("setup.ready_s", "s", "lower", "setup_s, all"),
    ("setup.warm_s", "s", "lower", "setup_s, all"),
    ("client.submit_ms", "ms", "lower", "latency_p50_ms on estimate"),
    ("client.submit_batch_ms", "ms", "lower", "latency_p50_ms on ingest"),
    ("client.gets_per_job", "count", "lower", "cpu_ms_per_job and latency_tail_ms on estimate"),
    ("client.result_lag_ms_p50", "ms", "lower", "latency_p50_ms on estimate"),
    ("client.result_lag_ms_tail", "ms", "lower", "latency_tail_ms on estimate"),
    ("client.sweeps_per_batch", "count", "lower", "throughput_jobs_s on ingest"),
    ("client.listed_jobs_per_sweep", "count", "lower", "throughput_jobs_s on ingest"),
    ("server.request_ms.submit", "ms", "lower", "latency_p50_ms on estimate"),
    ("server.request_ms.get", "ms", "lower", "latency_p50_ms on estimate"),
    ("server.request_ms.list", "ms", "lower", "latency_p50_ms and throughput_jobs_s on ingest"),
    ("server.request_ms.batch", "ms", "lower", "latency_p50_ms on ingest"),
    ("server.request_ms.metrics", "ms", "lower", "cpu_ms_per_job on estimate"),
    ("server.connections_opened", "count", "lower", "cpu_ms_per_job on estimate"),
    ("jobs.queue_wait_ms", "ms", "lower", "latency_p50_ms on estimate"),
    ("jobs.run_ms", "ms", "lower", "latency_p50_ms on estimate and schedule"),
    ("jobs.store_size_end", "count", "lower", "throughput_jobs_s on ingest"),
    ("core.predict_ms", "ms", "lower", "cpu_ms_per_job on estimate"),
    ("core.compare_ms", "ms", "lower", "cpu_ms_per_job on estimate"),
    ("fast_eval.context_build_ms", "ms", "lower", "setup_s and latency_tail_ms on schedule"),
    ("fast_eval.propose_us", "us", "lower", "latency_p50_ms on schedule"),
    ("fast_eval.evaluate_many_us", "us", "lower", "latency_p50_ms on schedule"),
    ("fast_eval.context_hit_ratio", "ratio", "higher", "latency_p50_ms on schedule"),
    ("schedulers.evaluations_per_job", "count", "lower", "latency_p50_ms and mapping_cost_s on schedule"),
    ("schedulers.wall_ms", "ms", "lower", "latency_p50_ms and throughput_jobs_s on schedule"),
    ("schedulers.evals_per_s", "1/s", "higher", "latency_p50_ms and throughput_jobs_s on schedule"),
    ("search.pool_spawns", "count", "lower", "setup_s and latency_tail_ms on schedule"),
    ("search.spec_resends", "count", "lower", "setup_s and latency_tail_ms on schedule"),
    ("search.worker_cache_hit_ratio", "ratio", "higher", "latency_p50_ms on schedule"),
    ("search.task_ms", "ms", "lower", "latency_p50_ms on schedule"),
    ("search.tasks_per_job", "count", "lower", "latency_p50_ms on schedule"),
    ("search.dispatch_ms", "ms", "lower", "latency_p50_ms and cpu_ms_per_job on schedule"),
    ("persist.appends_per_job", "count", "lower", "throughput_jobs_s on ingest"),
    ("persist.bytes_per_job", "bytes", "lower", "throughput_jobs_s on ingest"),
    ("persist.compactions", "count", "lower", "throughput_jobs_s on ingest"),
    ("persist.append_ms", "ms", "lower", "latency_p50_ms on ingest"),
    ("fleet.hop_ms", "ms", "lower", "latency_p50_ms on ingest"),
    ("fleet.backend_requests_per_job", "count", "lower", "cpu_ms_per_job and ontime_share on ingest"),
    ("fleet.retries", "count", "lower", "cpu_ms_per_job and ontime_share on ingest"),
    ("fleet.unhealthy_events", "count", "lower", "ontime_share on ingest"),
    ("telemetry.scrape_ms", "ms", "lower", "cpu_ms_per_job on estimate"),
    ("telemetry.counter_inc_us", "us", "lower", "cpu_ms_per_job on estimate"),
    ("telemetry.histogram_observe_us", "us", "lower", "cpu_ms_per_job on estimate"),
    ("gen.late_tail_ms", "ms", "lower", "validity of estimate latency (not gated)"),
    ("ops.attempted", "count", "higher", "validity (not gated)"),
    ("ops.ok", "count", "higher", "validity (not gated)"),
    ("ops.failed", "count", "lower", "ontime_share, all (not gated)"),
    ("ops.refused", "count", "lower", "ontime_share, all (not gated)"),
    ("ops.wrong", "count", "lower", "ontime_share, all (not gated)"),
    ("ops.miss_share", "share", "lower", "ontime_share, all (not gated)"),
    ("trace.overhead_ratio", "ratio", "lower", "validity of the traced run (not gated)"),
    ("host.ref_ms", "ms", "lower",
     "none: the host's speed, which scales the end-to-end figures of CPU work (not gated)"),
]

RUN_SECONDS = 10


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _moves in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
