"""The three benchmark workloads and the client that drives them.

Each workload turns ``--seed`` into operations (mappings, job seeds,
arrival times), deploys the program it needs, warms it up and drives a
timed window through the public :class:`repro.server.CbesClient`.  An
operation is one job on ``estimate`` and ``schedule`` and one 32-job
batch on ``ingest``.  Outcomes are recorded per operation and never
retried: a 429 is a refusal, any other error a failure.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field

from repro.server import BackpressureError, CbesClient, JobFailed, ServerError

#: Program seed for calibration, profiling and the replicas' monitors.
#: Fixed, so every run measures the same calibrated system; the
#: workload seed only shapes the requests.
PROGRAM_SEED = 11

#: Outcomes an operation can end in (``late`` is tracked separately).
OUTCOMES = ("ok", "failed", "refused", "wrong")

_OP_ERRORS = (ServerError, JobFailed, TimeoutError, OSError)


@dataclass
class Op:
    """One request of a workload and what became of it."""

    id: str
    kind: str  # predict | compare | schedule | batch
    body: dict | list  # a job document, or a list of them for a batch
    due: float = 0.0  # open loop: offset from the window start
    start: float = 0.0  # host monotonic time the latency counts from
    sent: float = 0.0
    done: float = 0.0
    outcome: str = "pending"
    error: str = ""
    jobs: list[dict] = field(default_factory=list)

    @property
    def njobs(self) -> int:
        return len(self.body) if self.kind == "batch" else 1

    @property
    def latency_s(self) -> float:
        return self.done - self.start

    def fail(self, exc: BaseException) -> None:
        self.outcome = "refused" if isinstance(exc, BackpressureError) else "failed"
        self.error = f"{type(exc).__name__}: {exc}"


class TracedClient(CbesClient):
    """``CbesClient`` with spans around its public calls.

    ``wait`` and ``wait_many`` call ``job`` and ``jobs`` internally, so
    their spans nest; a ``jobs`` span also records how many jobs the
    listing returned.  Untraced, every span is a no-op.
    """

    def __init__(self, host: str, port: int, recorder, **kwargs):
        super().__init__(host, port, **kwargs)
        self.recorder = recorder

    def submit(self, kind, **payload):
        with self.recorder.span("client.submit", "client"):
            return super().submit(kind, **payload)

    def submit_batch(self, jobs):
        with self.recorder.span("client.submit_batch", "client"):
            return super().submit_batch(jobs)

    def job(self, job_id):
        with self.recorder.span("client.job", "client"):
            return super().job(job_id)

    def jobs(self, **kwargs):
        with self.recorder.span("client.jobs", "client") as span:
            listed = super().jobs(**kwargs)
            if span is not None:
                span["listed"] = len(listed)
            return listed

    def wait(self, job_id, **kwargs):
        with self.recorder.span("client.wait", "client"):
            return super().wait(job_id, **kwargs)

    def wait_many(self, job_ids, **kwargs):
        with self.recorder.span("client.wait_many", "client"):
            return super().wait_many(job_ids, **kwargs)

    def metrics(self):
        with self.recorder.span("telemetry.scrape", "telemetry"):
            return super().metrics()

    def healthz(self):
        with self.recorder.span("client.healthz", "client"):
            return super().healthz()


def _submit_one(client: CbesClient, body: dict) -> dict:
    payload = dict(body)
    return client.submit(payload.pop("kind"), **payload)


class Workload:
    """What every workload provides; see the subclasses for the why.

    A subclass makes operations with ``_op(index, phase, ...)`` and
    performs one with ``_execute(client, op)``, returning the job
    documents of its answer.
    """

    name = ""
    cluster = ""
    apps: tuple[tuple[str, int], ...] = ()
    #: Latency limit of one operation, seconds.
    limit_s = 0.0
    #: Seed of the program's monitor (``None``: oracle snapshots).
    monitor_seed: int | None = None
    #: Serve a share of the timed window on every set-up (else all on the last).
    split_window = True
    #: End-to-end metrics set by the workload's pacing rather than by CPU
    #: work, so reported as measured (see ``run.end_to_end``).
    unscaled: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        #: Operations made so far; ids and class cycles run across windows.
        self.made = 0

    def _next_index(self) -> int:
        self.made += 1
        return self.made - 1

    def program_args(self, data_root: str) -> tuple[list[str], str]:
        """``repro`` arguments after ``--db/--cluster/--seed``, and the banner."""
        raise NotImplementedError

    def warm_up(self, client: CbesClient, recorder) -> list[Op]:
        raise NotImplementedError

    def run(
        self, open_client, seconds: float, recorder, host
    ) -> tuple[list[Op], float, float]:
        """Drive the timed window; returns (ops, window start, window end).

        This is the closed loop: one client sends the next operation
        when the previous one has its answer, and the host's speed is
        sampled in between, while the program is idle.
        """
        client = open_client()
        ops: list[Op] = []
        t0 = time.monotonic()
        try:
            while time.monotonic() < t0 + seconds:
                op = self._op(self._next_index(), "timed")
                op.start = op.sent = time.monotonic()
                with recorder.span(f"op.{op.kind}", "harness", op.id):
                    try:
                        op.jobs = self._execute(client, op)
                    except _OP_ERRORS as exc:
                        op.fail(exc)
                    else:
                        op.outcome = "ok"
                op.done = time.monotonic()
                ops.append(op)
                host.sample()
        finally:
            client.close()
        return ops, t0, time.monotonic()

    def _warm(self, client, make_op, count: int, recorder) -> list[Op]:
        ops = []
        for _ in range(count):
            op = make_op(self._next_index(), "warmup")
            op.start = op.sent = time.monotonic()
            with recorder.span(f"op.{op.kind}", "harness", op.id):
                op.jobs = self._execute(client, op)  # a warm-up failure aborts the run
            op.done = time.monotonic()
            op.outcome = "ok"
            ops.append(op)
        return ops


def _serve_args() -> tuple[list[str], str]:
    return (
        [
            "serve",
            "--host", "127.0.0.1",
            "--port", "0",
            "--workers", "2",
            "--no-monitor",
            "--refresh-interval", "0",
            "--log-level", "warning",
        ],
        r"serving on http://([0-9.]+):(\d+)",
    )


class Estimate(Workload):
    """Open-loop predict/compare traffic into one in-memory daemon."""

    name = "estimate"
    cluster = "orange-grove"
    apps = (("lu.A", 8), ("cg.A", 8))
    limit_s = 0.100
    #: Offered load, operations per second.
    rate = 50.0
    # The tail sits in the client's 50 ms poll sleep and the throughput
    # is the offered rate; neither is CPU work.
    unscaled = ("latency_tail_ms", "throughput_jobs_s")
    compare_share = 0.10
    compare_size = 8

    def __init__(self, seed: int, node_ids: list[str]):
        super().__init__(seed)
        self.node_ids = node_ids

    def program_args(self, data_root):
        return _serve_args()

    def _mix(self, count: int) -> list[tuple[str, int, str]]:
        """(app, ranks, kind) for *count* operations in a seed-shuffled order.

        The shares are exact, not drawn, so the compare share and the
        application split do not vary from seed to seed.
        """
        compares = round(self.compare_share * count)
        kinds = ["compare"] * compares + ["predict"] * (count - compares)
        apps = [self.apps[i % len(self.apps)] for i in range(count)]
        self.rng.shuffle(kinds)
        self.rng.shuffle(apps)
        return [(app, nprocs, kind) for (app, nprocs), kind in zip(apps, kinds, strict=True)]

    def _op(self, index: int, phase: str, app: str, nprocs: int, kind: str) -> Op:
        rng = self.rng
        body: dict = {"kind": kind, "app": app, "seed": rng.randrange(1 << 30)}
        if kind == "predict":
            body["nodes"] = rng.sample(self.node_ids, nprocs)
        else:
            body["mappings"] = [
                rng.sample(self.node_ids, nprocs) for _ in range(self.compare_size)
            ]
        return Op(f"{self.name}-{phase}-{index}", kind, body)

    @staticmethod
    def _execute(client, op):
        job = _submit_one(client, op.body)
        return [client.wait(job["id"], timeout_s=30.0)]

    def warm_up(self, client, recorder):
        mix = iter([(app, n, kind) for app, n in self.apps for kind in ("predict", "compare")])
        return self._warm(
            client, lambda i, phase: self._op(i, phase, *next(mix)), 4, recorder
        )

    def run(self, open_client, seconds, recorder, host):
        """Poisson arrivals: ``rate * seconds`` operations at uniform times.

        A Poisson process conditioned on its count places arrivals
        uniformly, so the count is fixed and the gaps stay exponential.
        One connection submits on schedule; a second waits for results
        in submission order.  Latency counts from the due time.
        """
        count = round(self.rate * seconds)
        offsets = sorted(self.rng.uniform(0.0, seconds) for _ in range(count))
        ops = []
        for offset, mix in zip(offsets, self._mix(count), strict=True):
            op = self._op(self._next_index(), "timed", *mix)
            op.due = offset
            ops.append(op)
        submitter, waiter = open_client(), open_client()
        handoff: queue.Queue = queue.Queue()
        t0 = time.monotonic() + 0.05

        def submit_loop() -> None:
            try:
                for op in ops:
                    op.start = t0 + op.due
                    delay = op.start - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    op.sent = time.monotonic()
                    with recorder.span("op.submit", "harness", op.id):
                        try:
                            job = _submit_one(submitter, op.body)
                        except _OP_ERRORS as exc:
                            op.fail(exc)
                            op.done = time.monotonic()
                            continue
                    handoff.put((op, job["id"]))
            finally:
                handoff.put(None)

        thread = threading.Thread(target=submit_loop, name="perfbench-submit")
        thread.start()
        try:
            while (item := handoff.get()) is not None:
                op, job_id = item
                with recorder.span("op.await", "harness", op.id):
                    try:
                        op.jobs = [waiter.wait(job_id, timeout_s=30.0)]
                    except _OP_ERRORS as exc:
                        op.fail(exc)
                    else:
                        op.outcome = "ok"
                op.done = time.monotonic()
        finally:
            thread.join()
            submitter.close()
            waiter.close()
        return ops, t0, time.monotonic()


class Schedule(Workload):
    """Closed-loop CS/GA searches on the 128-node Centurion cluster."""

    name = "schedule"
    cluster = "centurion"
    apps = (("cg.A", 16), ("lu.A", 16))
    limit_s = 3.0
    workers = 2
    #: Two jobs in three are CS searches, the third GA; applications
    #: alternate.  A GA search takes 40-140 ms depending on its seed
    #: (it stops early when its best stalls), so GA jobs straddle the
    #: client's 50 ms poll steps and a median inside the GA mode jumps a
    #: whole step when the host's speed shifts.  CS searches take
    #: 0.3-0.9 s spread over a dozen poll steps, so with CS in the
    #: majority the median and the tail both fall inside the CS mode and
    #: move smoothly with search time.
    #:
    #: A CS search's length depends on its seed (1.4k-3.1k evaluations)
    #: and a window holds only ~20 of them, so a CS (or NCS warm-up)
    #: job's seed is its operation index: every run does the same CS
    #: work, and ``--seed`` draws the GA seeds.
    cycle = ("ga", "cs", "cs")
    # The pool workers' resident memory grows over their first CS
    # restarts; a third of the window left peak memory differing from
    # set-up to set-up, the whole window on one set-up does not.
    split_window = False

    def _class(self, index: int) -> tuple[str, str]:
        app = self.apps[index % len(self.apps)][0]
        return app, self.cycle[index % len(self.cycle)]

    def program_args(self, data_root):
        return _serve_args()

    def _op(self, index: int, phase: str, klass: tuple[str, str] | None = None) -> Op:
        # The classes cycle in a fixed order, so every window holds a
        # near-exact share of each.  The pool is the whole cluster.
        app, scheduler = klass or self._class(index)
        body = {
            "kind": "schedule",
            "app": app,
            "scheduler": scheduler,
            "seed": self.rng.randrange(1 << 30) if scheduler == "ga" else index,
            "workers": self.workers,
        }
        return Op(f"{self.name}-{phase}-{index}", "schedule", body)

    @staticmethod
    def _execute(client, op):
        job = _submit_one(client, op.body)
        return [client.wait(job["id"], timeout_s=60.0)]

    def warm_up(self, client, recorder):
        # One job per (application, scheduler): spawns the pool, builds
        # both contexts and fills the workers' caches.  A CS job's two
        # restarts differ (a greedy start, and a batched seed scan), and
        # which pool worker runs which is a race that tends to repeat, so
        # a worker can go a whole run without a batched evaluation and
        # stay at a third of its memory.  An NCS job seeds both its
        # restarts with a scan, so each worker does one before the window.
        combos = [(app, s) for app, _ in self.apps for s in ("cs", "ga", "ncs")]
        pending = iter(combos)
        return self._warm(
            client, lambda i, phase: self._op(i, phase, next(pending)), len(combos), recorder
        )


class Ingest(Workload):
    """Closed-loop 32-job predict batches through a durable two-replica fleet."""

    name = "ingest"
    cluster = "orange-grove"
    apps = (("lu.A", 8), ("cg.A", 8))
    limit_s = 3.0
    batch_size = 32
    monitor_seed = PROGRAM_SEED
    # The job store grows for the whole window; splitting it over fresh
    # fleets would hide that growth.
    split_window = False

    def __init__(self, seed: int, node_ids: list[str]):
        super().__init__(seed)
        self.node_ids = node_ids

    def program_args(self, data_root):
        return (
            [
                "fleet",
                "--host", "127.0.0.1",
                "--port", "0",
                "--replicas", "2",
                "--workers", "2",
                # A batch may hash entirely onto one replica; a queue
                # shorter than the batch would refuse it.
                "--queue-limit", str(2 * self.batch_size),
                "--data-root", data_root,
                "--fsync", "always",
                "--log-level", "warning",
            ],
            r"fleet router on http://([0-9.]+):(\d+)",
        )

    def _op(self, index: int, phase: str) -> Op:
        rng = self.rng
        apps = [self.apps[i % len(self.apps)] for i in range(self.batch_size)]
        rng.shuffle(apps)
        jobs = []
        for app, nprocs in apps:
            jobs.append(
                {
                    "kind": "predict",
                    "app": app,
                    "seed": rng.randrange(1 << 30),
                    "nodes": rng.sample(self.node_ids, nprocs),
                }
            )
        return Op(f"{self.name}-{phase}-{index}", "batch", jobs)

    @staticmethod
    def _execute(client, op):
        accepted = client.submit_batch(op.body)
        return client.wait_many([job["id"] for job in accepted], timeout_s=60.0)

    def warm_up(self, client, recorder):
        return self._warm(client, self._op, 2, recorder)


WORKLOADS = ("estimate", "schedule", "ingest")


def make_workload(name: str, seed: int, cluster_nodes) -> Workload:
    if name == "estimate":
        return Estimate(seed, cluster_nodes("orange-grove"))
    if name == "schedule":
        return Schedule(seed)
    if name == "ingest":
        return Ingest(seed, cluster_nodes("orange-grove"))
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
