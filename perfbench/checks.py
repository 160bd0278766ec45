"""Answer checks, run after the timed window.

Every answer the program returned is recomputed in this process from
the same profile database:

* ``predict`` and ``compare`` answers must equal
  ``MappingEvaluator.predict`` to 1e-9 (relative);
* ``schedule`` answers must equal a direct ``scheduler.schedule`` call
  with the same seed and ``parallel=1``: same mapping, predicted time
  and evaluation count, compared as JSON text.

Each answer carries the fingerprint of the snapshot it was computed
from.  Oracle-snapshot daemons serve the cluster's true state; fleet
replicas serve a seeded monitor's forecasts, which the checker replays
poll by poll until the fingerprint matches.
"""

from __future__ import annotations

import json
import math

from repro.cli import build_cluster
from repro.core import CBES, TaskMapping
from repro.profiling import ProfileDatabase
from repro.schedulers import make_scheduler

TOLERANCE = 1e-9
#: Monitor generations the checker replays before giving up on a fingerprint.
MAX_POLLS = 1000


class Oracle:
    def __init__(self, cluster: str, db: str, monitor_seed: int | None, recorder):
        self.service = CBES(build_cluster(cluster))
        ProfileDatabase(db).attach(self.service)
        if monitor_seed is not None:
            self.service.start_monitoring(forecaster="last-value", seed=monitor_seed)
        first = self.service.snapshot().freeze()
        self._snapshots: dict[str, object] = {first.fingerprint(): first}
        self._polls = 0
        self._evaluators: dict[tuple[str, str], object] = {}
        self.recorder = recorder

    def snapshot(self, fingerprint: str):
        while fingerprint not in self._snapshots:
            if not self.service.is_monitoring or self._polls >= MAX_POLLS:
                raise KeyError(f"no snapshot with fingerprint {fingerprint[:12]}")
            self.service.monitor.poll()
            self._polls += 1
            snap = self.service.snapshot().freeze()
            self._snapshots[snap.fingerprint()] = snap
        return self._snapshots[fingerprint]

    def evaluator(self, app: str, fingerprint: str):
        key = (app, fingerprint)
        if key not in self._evaluators:
            self._evaluators[key] = self.service.evaluator(app, snapshot=self.snapshot(fingerprint))
        return self._evaluators[key]

    def predict(self, app: str, fingerprint: str, nodes: list[str]):
        evaluator = self.evaluator(app, fingerprint)
        with self.recorder.span("check.predict", "check"):
            return evaluator.predict(TaskMapping(nodes))

    def schedule(self, body: dict, fingerprint: str):
        evaluator = self.service.evaluator(body["app"], snapshot=self.snapshot(fingerprint))
        scheduler = make_scheduler(body["scheduler"], parallel=1)
        pool = self.service.cluster.node_ids()
        with self.recorder.span("check.schedule", "check"):
            return scheduler.schedule(evaluator, pool, seed=body["seed"])


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def _prediction_mismatch(doc: dict, direct) -> str:
    if list(doc["mapping"]) != list(direct.mapping.as_tuple()):
        return "mapping differs"
    if not _close(doc["execution_time"], direct.execution_time):
        return f"execution_time {doc['execution_time']!r} != {direct.execution_time!r}"
    if doc["critical_rank"] != direct.critical_rank:
        return "critical rank differs"
    for got, want in zip(doc["processes"], direct.processes, strict=True):
        if not (_close(got["computation"], want.computation)
                and _close(got["communication"], want.communication)):
            return f"rank {got['rank']} breakdown differs"
    return ""


def check_job(oracle: Oracle, kind: str, body: dict, job: dict) -> str:
    """Why *job*'s answer is wrong, or ``""`` when it is right."""
    if job.get("state") != "done":
        return f"job ended {job.get('state')}"
    result = job["result"]
    try:
        fingerprint = result["snapshot_fingerprint"]
        if kind == "predict":
            return _prediction_mismatch(result, oracle.predict(body["app"], fingerprint, body["nodes"]))
        if kind == "compare":
            ranked = result["ranked"]
            if sorted(map(tuple, (r["mapping"] for r in ranked))) != sorted(map(tuple, body["mappings"])):
                return "ranked mappings differ from the submitted ones"
            times = [r["execution_time"] for r in ranked]
            if times != sorted(times):
                return "ranking is not fastest-first"
            for doc in ranked:
                why = _prediction_mismatch(doc, oracle.predict(body["app"], fingerprint, doc["mapping"]))
                if why:
                    return why
            return ""
        direct = oracle.schedule(body, fingerprint)
    except KeyError as exc:
        return f"unverifiable: {exc}"
    want = {
        "mapping": list(direct.mapping.as_tuple()),
        "predicted_time": direct.predicted_time,
        "evaluations": direct.evaluations,
    }
    got = {key: result[key] for key in want}
    if json.dumps(got) != json.dumps(want):
        return f"schedule answer {got} != direct {want}"
    return ""


def check_ops(oracle: Oracle, ops) -> list[str]:
    """Check every ok operation; marks wrong ones and returns the reasons."""
    problems = []
    for op in ops:
        if op.outcome != "ok":
            continue
        if op.kind == "batch":
            pairs = list(zip(op.body, op.jobs, strict=True))
        else:
            pairs = [(op.body, op.jobs[0])]
        for body, job in pairs:
            why = check_job(oracle, body["kind"], body, job)
            if why:
                op.outcome = "wrong"
                op.error = why
                problems.append(f"{op.id}: {why}")
                break
    return problems
