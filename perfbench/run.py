#!/usr/bin/env python3
"""CBES service benchmark: set up, drive, check and report one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each run builds the program's bytecode, then sets the program up from
scratch several times (fresh profile database -> ``repro calibrate`` ->
``repro profile`` -> ``repro serve`` or ``repro fleet`` healthy ->
warm-up) and reports the median set-up time.  The last set-up serves a
timed window of ``--seconds``, after which every answer is checked
against a direct computation.  End-to-end figures of CPU work are
reported at a reference host speed (see ``host.py``).  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` records spans and prints
the per-layer metrics.
The last line of standard output is one JSON object; the exit code is
non-zero on any wrong answer or error.  Everything the run writes stays
under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
try:
    import checks
    import layers
    import spec
    from host import REFERENCE_MS, HostClock
    from proc import Program, ProgramError, cpu_seconds, peak_rss_mb, run_command
    from repro.cli import build_cluster
    from spans import SpanRecorder
    from stats import mean, median, p50, ratio, tail
    from workloads import OUTCOMES, PROGRAM_SEED, WORKLOADS, TracedClient, make_workload
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: cannot import the program ({exc}); run from the root of a full checkout")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _python_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(work)
    return env


class Deployment:
    """One set-up of the program for a workload, on a fresh database."""

    def __init__(self, workload, recorder, host: HostClock):
        self.workload = workload
        self.recorder = recorder
        self.host = host
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=STATE / "work"))
        self.db = self.work / "db"
        self.data_root = self.work / "data"
        self.env = _python_env(self.work)
        self.base = [
            sys.executable, "-m", "repro",
            "--db", str(self.db),
            "--cluster", workload.cluster,
            "--seed", str(PROGRAM_SEED),
        ]
        self.program = None
        self.address = ("", 0)
        self.endpoints: dict = {}
        self.phases: dict[str, float] = {}
        self.warm_ops: list = []

    def client(self, host: str | None = None, port: int | None = None):
        return TracedClient(host or self.address[0], port or self.address[1], self.recorder,
                            timeout_s=60.0)

    def _phase_start(self) -> float:
        """Sample the host (the program is idle here); the next phase starts now."""
        self.host.sample()
        return time.perf_counter()

    def set_up(self) -> None:
        started = self._phase_start()
        with self.recorder.span("setup.calibrate", "setup"):
            run_command(self.base + ["calibrate"], env=self.env, cwd=self.work)
        calibrated = time.perf_counter()
        profile_started = self._phase_start()
        with self.recorder.span("setup.profile", "setup"):
            for app, nprocs in self.workload.apps:
                run_command(self.base + ["profile", app, "--nprocs", str(nprocs)],
                            env=self.env, cwd=self.work)
        profiled = time.perf_counter()
        ready_started = self._phase_start()
        with self.recorder.span("setup.ready", "setup"):
            args, banner = self.workload.program_args(str(self.data_root))
            self.program = Program(self.base + args, env=self.env, cwd=self.work,
                                   log_path=self.work / "program.log", banner=banner)
            self.address = self.program.address()
            main = self.client()
            deadline = time.monotonic() + 60.0
            while True:
                health = main.healthz()
                if health.get("status") == "ok":
                    break
                if time.monotonic() > deadline:
                    raise ProgramError(f"program not healthy: {health}")
                time.sleep(0.02)
            self.endpoints = {"main": main}
            for index, replica in enumerate(health.get("replicas", [])):
                host, _, port = replica["backend"].rpartition(":")
                self.endpoints[f"r{index}"] = self.client(host, int(port))
        ready = time.perf_counter()
        warm_started = self._phase_start()
        with self.recorder.span("setup.warm", "setup"):
            self.warm_ops = self.workload.warm_up(main, self.recorder)
        warm = time.perf_counter()
        self.host.sample()
        self.phases = {
            "setup.calibrate_s": calibrated - started,
            "setup.profile_s": profiled - profile_started,
            "setup.ready_s": ready - ready_started,
            "setup.warm_s": warm - warm_started,
        }

    @property
    def daemons(self) -> list[str]:
        """Endpoints that run a daemon: the replicas of a fleet, else main."""
        return [label for label in self.endpoints if label != "main"] or ["main"]

    def stop(self) -> None:
        for client in self.endpoints.values():
            client.close()
        if self.program is not None:
            self.program.stop()
            self.program = None

    def remove(self) -> None:
        self.stop()
        shutil.rmtree(self.work, ignore_errors=True)


def _compile_sources() -> None:
    """Build the bytecode once, so the first set-up times no compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True, stdout=subprocess.DEVNULL,
    )


@dataclass
class Window:
    """One timed window served by one deployment, and what it measured."""

    ops: list
    warm_ops: list
    t0: float
    t1: float
    #: Time spent sampling the host inside the window; not serving time.
    paused_s: float
    cpu_s: float
    rss_mb: float
    before: dict  # scrapes, see layers.scrape
    after: dict
    daemons: list[str]
    problems: list[str] = field(default_factory=list)


def serve_window(deployment: Deployment, seconds: float) -> Window:
    recorder = deployment.recorder
    program = deployment.program
    host = deployment.host
    before = layers.scrape(deployment.endpoints)
    cpu_before = cpu_seconds(program.pids())
    host.sample()
    ops, t0, t1 = deployment.workload.run(deployment.client, seconds, recorder, host)
    host.sample()
    pids = program.pids()
    cpu_after = cpu_seconds(pids)
    rss_mb = peak_rss_mb(pids)
    after = layers.scrape(deployment.endpoints)
    return Window(
        ops=ops,
        warm_ops=deployment.warm_ops,
        t0=t0,
        t1=t1,
        paused_s=host.paused_s(t0, t1),
        cpu_s=sum(v - cpu_before.get(pid, 0.0) for pid, v in cpu_after.items()),
        rss_mb=rss_mb,
        before=before,
        after=after,
        daemons=deployment.daemons,
    )


def probe_program(deployment: Deployment, window: Window) -> dict[str, float]:
    """Per-layer numbers that need the running program (traced run only)."""
    main = deployment.endpoints["main"]
    scrapes = [window.after["main"]["scrape_s"]]
    for _ in range(5):
        started = time.perf_counter()
        main.metrics()
        scrapes.append(time.perf_counter() - started)
    extra = {"telemetry.scrape_ms": 1e3 * median(scrapes)}
    if len(deployment.endpoints) > 1:
        ids = [job["id"] for op in window.ops if op.outcome == "ok" for job in op.jobs][:40]
        replicas = [deployment.endpoints[label] for label in deployment.daemons]
        extra["fleet.hop_ms"] = layers.probe_fleet_hop(main, replicas, ids, deployment.recorder)
    return extra


def probe_direct(oracle, window: Window, work: Path, seed: int, recorder) -> dict[str, float]:
    """Per-layer numbers from direct calls on the workload's inputs (traced run only)."""
    mappings: dict = {}
    for op in window.ops:
        for body, job in _answers(op):
            key = (body["app"], job["result"]["snapshot_fingerprint"])
            mappings.setdefault(key, []).append(_recommended(body, job["result"]))
    extra = layers.probe_core(oracle, mappings, recorder)
    app, fingerprint = min(mappings)
    extra.update(layers.probe_fast_eval(oracle, app, fingerprint, seed, recorder))
    first = window.ops[0]
    record = first.body[0] if first.kind == "batch" else first.body
    extra["persist.append_ms"] = layers.probe_journal(work, {"payload": record}, recorder)
    extra.update(layers.probe_telemetry(recorder))
    return extra


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, repeats: int = SETUP_REPEATS
) -> dict:
    """Set up *repeats* times and serve the timed window.

    Workloads with ``split_window`` serve an equal share of the window
    on every set-up, so a run measures several fresh program processes;
    the others serve the whole window on the last set-up.
    """
    recorder = SpanRecorder(trace)
    host = HostClock()
    workload = make_workload(name, seed, lambda cluster: build_cluster(cluster).node_ids())
    (STATE / "work").mkdir(parents=True, exist_ok=True)

    setups: list[dict[str, float]] = []
    windows: list[Window] = []
    extra: dict[str, float] = {}
    for repeat in range(repeats):
        last = repeat == repeats - 1
        deployment = Deployment(workload, recorder, host)
        try:
            deployment.set_up()
            setups.append(deployment.phases)
            print(f"# set-up {repeat + 1}/{repeats}: "
                  + " ".join(f"{k}={v:.3f}" for k, v in deployment.phases.items()),
                  file=sys.stderr)
            if not (workload.split_window or last):
                continue
            share = seconds / repeats if workload.split_window else seconds
            window = serve_window(deployment, share)
            windows.append(window)
            if trace and last:
                extra.update(probe_program(deployment, window))
            deployment.stop()
            oracle = checks.Oracle(workload.cluster, str(deployment.db), workload.monitor_seed,
                                   recorder)
            window.problems = checks.check_ops(oracle, window.warm_ops + window.ops)
            for line in window.problems[:10]:
                print(f"# WRONG {line}", file=sys.stderr)
            if trace and last:
                extra.update(probe_direct(oracle, window, deployment.work, seed, recorder))
        finally:
            deployment.remove()

    e2e, measured = end_to_end(workload, setups, windows, host)
    result = {
        "workload": name,
        "seed": seed,
        "host_ref_ms": host.median_ms(),
        "e2e": e2e,
        "measured": measured,
        "problems": [line for w in windows for line in w.problems],
        "ops": [op for w in windows for op in w.ops],
        "warm_ops": [op for w in windows for op in w.warm_ops],
    }
    if trace:
        extra["host.ref_ms"] = result["host_ref_ms"]
        result["per_layer"] = per_layer(workload, setups, windows, extra, recorder)
        out = STATE / "out" / f"spans-{name}-{seed}.jsonl"
        recorder.write(out)
        result["spans_path"] = out
        result["self_times"] = recorder.self_times()
    return result


def traced_run(name: str, seed: int, seconds: float) -> dict:
    """An untraced run, then a traced one, of the same seed.

    ``trace.overhead_ratio`` is the traced run's median latency over the
    untraced run's; it carries their run-to-run noise as well.  The
    untraced run sets up once, to keep the pair inside a run's time.  A
    wrong answer in either run fails the result.
    """
    untraced = run_workload(name, seed, seconds, False, repeats=1)
    result = run_workload(name, seed, seconds, True)
    result["per_layer"]["trace.overhead_ratio"] = ratio(
        result["e2e"]["latency_p50_ms"], untraced["e2e"]["latency_p50_ms"]
    )
    result["problems"] = untraced["problems"] + result["problems"]
    return result


def _answers(op):
    """(job document sent, job document returned) pairs of an ok op."""
    if op.outcome != "ok":
        return []
    bodies = op.body if op.kind == "batch" else [op.body]
    return list(zip(bodies, op.jobs, strict=True))


def _recommended(body: dict, result: dict) -> list[str]:
    """The mapping an answer recommends."""
    if body["kind"] == "compare":
        return result["ranked"][0]["mapping"]
    return result["mapping"]


def _cost(body: dict, result: dict) -> float:
    """Predicted ``S_M`` of the mapping an answer recommends."""
    if body["kind"] == "schedule":
        return result["predicted_time"]
    if body["kind"] == "compare":
        return result["ranked"][0]["execution_time"]
    return result["execution_time"]


def _deltas(windows: list[Window], *, router: bool = False):
    """Counter deltas over every window, from the daemons or the fleet router."""
    pairs = []
    for w in windows:
        labels = ["main"] if router else w.daemons
        pairs += [(w.before[label]["metrics"], w.after[label]["metrics"]) for label in labels]
    return layers.Deltas(pairs)


#: Metrics of CPU work, reported at the reference host speed: a time is
#: multiplied by ``REFERENCE_MS / host.ref_ms`` of the run, a rate
#: divided by it.  ``Workload.unscaled`` exempts what a workload's
#: pacing sets instead.
SCALED_TIMES = ("latency_p50_ms", "latency_tail_ms", "cpu_ms_per_job", "setup_s")
SCALED_RATES = ("throughput_jobs_s",)


def end_to_end(workload, setups: list[dict], windows: list[Window], host: HostClock):
    """The end-to-end metrics, and the same before scaling to the reference host."""
    ops = [op for w in windows for op in w.ops]
    ok = [op for op in ops if op.outcome == "ok"]
    latencies = [1e3 * op.latency_s for op in ok]
    tail_ms, tail_pct = tail(latencies)
    jobs = sum(op.njobs for op in ok)
    wall = sum(w.t1 - w.t0 - w.paused_s for w in windows)
    by_class: dict[str, list[float]] = {}
    for op in ok:
        for body, job in _answers(op):
            klass = f"{body['app']}/{body.get('scheduler', body['kind'])}"
            by_class.setdefault(klass, []).append(_cost(body, job["result"]))
    ontime = sum(1 for op in ok if op.latency_s <= workload.limit_s)
    measured = {
        "latency_p50_ms": p50(latencies),
        "latency_tail_ms": tail_ms,
        "latency_tail_pct": tail_pct,
        "latency_samples": len(latencies),
        "throughput_jobs_s": jobs / wall,
        "ontime_share": ontime / len(ops),
        "cpu_ms_per_job": 1e3 * sum(w.cpu_s for w in windows) / jobs if jobs else 0.0,
        "rss_mb": median([w.rss_mb for w in windows]),
        "mapping_cost_s": mean([mean(v) for _k, v in sorted(by_class.items())]),
        "setup_s": median([sum(phases.values()) for phases in setups]),
    }
    # The run's median loop time, not a window's: a set-up is busy from
    # end to end, and the host flips between a fast and a slow state
    # faster than the few samples of one stretch can follow.
    slowdown = host.median_ms() / REFERENCE_MS
    scaled = dict(measured)
    for metric in SCALED_TIMES + SCALED_RATES:
        if metric not in workload.unscaled:
            scaled[metric] *= slowdown if metric in SCALED_RATES else 1.0 / slowdown
    return scaled, measured


def per_layer(workload, setups, windows: list[Window], extra, recorder) -> dict:
    ops = [op for w in windows for op in w.ops]
    ok = [op for op in ops if op.outcome == "ok"]
    jobs = sum(op.njobs for op in ok)
    deltas = _deltas(windows)
    spans = [s for w in windows for s in recorder.in_window(w.t0, w.t1)]

    def span_ms(name: str) -> float:
        return 1e3 * mean([s["end"] - s["start"] for s in spans if s["name"] == name])

    def span_count(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    out: dict[str, float] = {
        key: median([phases[key] for phases in setups]) for key in setups[0]
    }

    # client
    lags = [1e3 * (op.done - job["finished_at"]) for op in ok for job in op.jobs]
    lag_tail, _pct = tail(lags)
    sweeps = span_count("client.jobs")
    listed = sum(s.get("listed", 0) for s in spans)
    out.update({
        "client.submit_ms": span_ms("client.submit"),
        "client.submit_batch_ms": span_ms("client.submit_batch"),
        "client.gets_per_job": ratio(span_count("client.job"), jobs),
        "client.result_lag_ms_p50": p50(lags),
        "client.result_lag_ms_tail": lag_tail,
        "client.sweeps_per_batch": ratio(sweeps, sum(1 for op in ok if op.kind == "batch")),
        "client.listed_jobs_per_sweep": ratio(listed, sweeps),
    })

    # server (daemon or replicas)
    posts = deltas.counter("cbes_requests_total", method="POST", route="/v1/jobs")
    lists = deltas.counter("cbes_requests_total", method="GET", route="/v1/jobs")
    jobs_route_ms = deltas.mean_ms("cbes_request_seconds", route="/v1/jobs")
    out.update({
        "server.request_ms.submit": jobs_route_ms if posts else 0.0,
        "server.request_ms.get": deltas.mean_ms("cbes_request_seconds", route="/v1/jobs/{id}"),
        "server.request_ms.list": jobs_route_ms if lists else 0.0,
        "server.request_ms.batch": deltas.mean_ms("cbes_request_seconds", route="/v1/jobs:batch"),
        "server.request_ms.metrics": deltas.mean_ms("cbes_request_seconds", route="/v1/metrics"),
        "server.connections_opened": deltas.counter("cbes_connections_total"),
    })
    if posts and lists:
        print("# note: /v1/jobs served both submits and listings; its mean covers both",
              file=sys.stderr)

    # jobs
    docs = [job for op in ok for job in op.jobs]
    final = windows[-1]
    out.update({
        "jobs.queue_wait_ms": 1e3 * mean([d["started_at"] - d["created_at"] for d in docs]),
        "jobs.run_ms": 1e3 * mean([d["finished_at"] - d["started_at"] for d in docs]),
        "jobs.store_size_end": sum(
            sum(final.after[label]["health"]["jobs"].values()) for label in final.daemons
        ),
    })

    # core / fast_eval
    hits = deltas.counter("cbes_context_cache_events_total", event="hit")
    misses = deltas.counter("cbes_context_cache_events_total", event="miss")
    out.update({
        "core.predict_ms": extra["core.predict_ms"],
        "core.compare_ms": extra["core.compare_ms"],
        "fast_eval.context_build_ms": extra["fast_eval.context_build_ms"],
        "fast_eval.propose_us": extra["fast_eval.propose_us"],
        "fast_eval.evaluate_many_us": extra["fast_eval.evaluate_many_us"],
        "fast_eval.context_hit_ratio": ratio(hits, hits + misses),
    })

    # schedulers / search
    results = [d["result"] for d in docs if "predicted_time" in d["result"]]
    evals = sum(r["evaluations"] for r in results)
    wall_s = sum(r["wall_time_s"] for r in results)
    tasks = deltas.counter("cbes_search_tasks_total")
    task_count, task_s = deltas.histogram("cbes_search_task_seconds")
    workers = max((op.body.get("workers", 1) for op in ok if op.kind == "schedule"), default=1)
    cache_hits = deltas.counter("cbes_worker_cache_events_total", event="hit")
    cache_misses = deltas.counter("cbes_worker_cache_events_total", event="miss")
    out.update({
        "schedulers.evaluations_per_job": ratio(evals, len(results)),
        "schedulers.wall_ms": 1e3 * ratio(wall_s, len(results)),
        "schedulers.evals_per_s": ratio(evals, wall_s),
        "search.pool_spawns": deltas.counter("cbes_pool_spawns_total"),
        "search.spec_resends": deltas.counter("cbes_pool_spec_resends_total"),
        "search.worker_cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "search.task_ms": 1e3 * ratio(task_s, task_count),
        "search.tasks_per_job": ratio(tasks, len(results)),
        # Task time per job is spread over at most min(workers, tasks) workers.
        "search.dispatch_ms": 1e3 * ratio(
            wall_s - task_s / max(1.0, min(workers, ratio(tasks, len(results)))), len(results)
        ),
    })

    # persist
    out.update({
        "persist.appends_per_job": ratio(deltas.counter("cbes_journal_appends_total"), jobs),
        "persist.bytes_per_job": ratio(deltas.counter("cbes_journal_bytes_total"), jobs),
        "persist.compactions": deltas.counter("cbes_journal_compactions_total"),
        "persist.append_ms": extra["persist.append_ms"],
    })

    # fleet (router counters; zero where no router runs)
    router = _deltas(windows, router=True) if final.daemons != ["main"] else None
    out.update({
        "fleet.hop_ms": extra.get("fleet.hop_ms", 0.0),
        "fleet.backend_requests_per_job": (
            ratio(router.counter("cbes_fleet_backend_requests_total"), jobs) if router else 0.0
        ),
        "fleet.retries": router.counter("cbes_fleet_retries_total") if router else 0.0,
        "fleet.unhealthy_events": (
            router.counter("cbes_fleet_backend_unhealthy_total") if router else 0.0
        ),
    })

    # telemetry
    for key in ("telemetry.scrape_ms", "telemetry.counter_inc_us", "telemetry.histogram_observe_us"):
        out[key] = extra[key]

    # harness
    late_tail, _pct = tail([1e3 * (op.sent - op.start) for op in ops if op.sent])
    counts = count_outcomes(ops)
    ontime = sum(1 for op in ok if op.latency_s <= workload.limit_s)
    out.update({
        "gen.late_tail_ms": late_tail,
        "host.ref_ms": extra["host.ref_ms"],
        "ops.attempted": counts["attempted"],
        "ops.ok": counts["ok"],
        "ops.failed": counts["failed"],
        "ops.refused": counts["refused"],
        "ops.wrong": counts["wrong"],
        "ops.miss_share": 1.0 - ratio(ontime, counts["attempted"]),
    })
    return out


def count_outcomes(ops) -> dict[str, int]:
    counts = {outcome: 0 for outcome in OUTCOMES}
    for op in ops:
        counts[op.outcome] += 1
    counts["attempted"] = len(ops)
    return counts


def print_report(result: dict, trace: bool) -> None:
    name = result["workload"]
    e2e = result["e2e"]
    print(f"== {name} (seed {result['seed']}) ==")
    for phase in ("warm_ops", "ops"):
        counts = count_outcomes(result[phase])
        label = "warm-up" if phase == "warm_ops" else "timed"
        print(f"  ops {label:8s} " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"  host reference loop {result['host_ref_ms']:.3f} ms (the host's speed; not a metric)")
    print(f"  end to end (at a reference loop of {REFERENCE_MS} ms; as measured):")
    for metric, unit, _better, _bound in spec.END_TO_END:
        line = f"    {metric:24s} {e2e[metric]:14.4f} {unit:5s} {result['measured'][metric]:14.4f}"
        if metric == "latency_tail_ms":
            line += f"  (p{e2e['latency_tail_pct']:.1f} of {e2e['latency_samples']} samples)"
        print(line)
    if trace:
        print("  per layer:")
        for metric, unit, _better, moves in spec.PER_LAYER:
            print(f"    {metric:32s} {result['per_layer'][metric]:14.4f} {unit:6s} -> {moves}")
        print("  self time by layer (spans recorded by the benchmark):")
        print(f"    {'layer':12s} {'spans':>7s} {'total ms':>12s} {'self ms':>12s}")
        for layer, (count, total, own) in result["self_times"].items():
            print(f"    {layer:12s} {count:7d} {1e3 * total:12.2f} {1e3 * own:12.2f}")
        print(f"  spans written to {result['spans_path']}")
    for line in result["problems"][:10]:
        print(f"  WRONG {line}")
    for op in [op for op in result["ops"] if op.outcome in ("failed", "refused")][:10]:
        print(f"  {op.outcome.upper()} {op.id}: {op.error}")


def summary(results: list[dict], trace: bool) -> dict:
    single = len(results) == 1
    metrics = {}
    attempted = failed = 0
    for result in results:
        counts = count_outcomes(result["ops"])
        attempted += counts["attempted"]
        failed += counts["attempted"] - counts["ok"]
        if trace:
            values = [(m, u, result["per_layer"][m]) for m, u, _b, _x in spec.PER_LAYER]
        else:
            values = [(m, u, result["e2e"][m]) for m, u, _b, _x in spec.END_TO_END]
        for metric, unit, value in values:
            key = metric if single else f"{result['workload']}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": all(not r["problems"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="estimate, schedule, ingest, or all (one after another)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (requests only)")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed window length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    # SIGTERM unwinds like an error, so every set-up is still torn down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _compile_sources()
    results = []
    for name in names:
        if args.trace:
            result = traced_run(name, args.seed, args.seconds)
        else:
            result = run_workload(name, args.seed, args.seconds, False)
        print_report(result, bool(args.trace))
        results.append(result)
    doc = summary(results, bool(args.trace))
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
