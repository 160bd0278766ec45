"""Start, account for and reap the program's processes.

Every program process the benchmark starts (``repro serve``,
``repro fleet``, the CLI set-up commands) runs in its own session, so
the search pool workers a daemon forks and the replicas a fleet router
spawns share the session id of the process the benchmark started.
That id is how CPU time and resident memory are summed over a whole
program, and how :meth:`Program.stop` proves that nothing outlives the
run.  Linux ``/proc`` only.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import threading
import time
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ProgramError(RuntimeError):
    """A program process failed to start, answer or stop."""


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    # Fields after the parenthesised command name, which may hold spaces.
    return raw[raw.rindex(")") + 2 :].split()


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is *sid*."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, fields[3] the session id.
        if fields is not None and int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return sorted(pids)


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """User plus system CPU seconds of each process still alive."""
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            out[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return out


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


def run_command(argv: list[str], *, env: dict, cwd: Path, timeout_s: float = 120.0) -> None:
    """Run one CLI command to completion; raises :class:`ProgramError` on failure."""
    proc = subprocess.Popen(
        argv,
        env=env,
        cwd=cwd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ProgramError(f"{' '.join(argv[3:])} did not finish in {timeout_s:.0f} s") from None
    finally:
        _reap_session(proc.pid, 10.0)
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
        raise ProgramError(f"{' '.join(argv[3:])} exited {proc.returncode}: {' | '.join(tail)}")


def _reap_session(sid: int, timeout_s: float) -> None:
    """SIGKILL whatever is left of session *sid* and wait for it to go."""
    deadline = time.monotonic() + timeout_s
    while session_pids(sid):
        try:
            os.killpg(sid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if time.monotonic() > deadline:
            raise ProgramError(f"processes of session {sid} outlived the run: {session_pids(sid)}")
        time.sleep(0.02)


class Program:
    """One long-running program process and everything it spawns.

    The first line matching *banner* on its standard output gives the
    address it serves on.  Its standard error goes to *log_path*.
    """

    def __init__(self, argv: list[str], *, env: dict, cwd: Path, log_path: Path, banner: str):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv,
            env=env,
            cwd=cwd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        self._banner = re.compile(banner)
        self.log_path = log_path

    def _read_stdout(self) -> None:
        assert self.proc.stdout is not None
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace"))
        self._lines.put(None)

    def address(self, timeout_s: float = 90.0) -> tuple[str, int]:
        """Block until the banner line appears; returns (host, port)."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProgramError("program printed no banner before the start-up timeout")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                tail = self.log_path.read_text(errors="replace").strip().splitlines()[-3:]
                raise ProgramError(
                    f"program exited with {self.proc.wait()} before serving: {' | '.join(tail)}"
                )
            match = self._banner.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def pids(self) -> list[int]:
        return session_pids(self.proc.pid)

    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL the session; wait for all."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            _reap_session(self.proc.pid, timeout_s)
        finally:
            self._reader.join(5.0)
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._log.close()
