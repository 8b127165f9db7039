"""Load generator: the server as a CLI subprocess, one keep-alive
connection, closed loop.

Callers of a routing API wait for their reply, so the loop is closed; on
two shared cores more than one connection measures the scheduler, so
there is one.  The connection is ``http.client``'s with its default
socket options, kept alive across requests the way sessions, proxies and
connection pools do — which is what exposes the two-write stall in
``serve/http.py`` (see README, finding #1).  Nothing here works around
it: no ``TCP_QUICKACK``, no reconnect per request.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from streams import Op, Workload

BOOT_TIMEOUT_S = 150.0
REQUEST_TIMEOUT_S = 60.0


def repro_cli(root: Path, *args: str, log=None) -> None:
    """Run ``python -m repro.cli <args>`` from the checkout; raise on failure."""
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=server_env(root),
        check=True,
        stdout=log or subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
        timeout=BOOT_TIMEOUT_S,
    )


def generate_network(root: Path, workload: Workload, quick: bool, path: Path) -> None:
    """``repro-allfp generate`` the workload's pinned network into ``path``."""
    flags = (
        workload.quick_generate if quick and workload.quick_generate else workload.generate
    )
    repro_cli(root, "generate", *flags, "--out", str(path))


def server_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# Processes: nothing this benchmark starts may outlive it
# ----------------------------------------------------------------------
# A server that exits leaves behind, for a moment or for good, what it
# started itself: its multiprocessing resource tracker (ends only once it
# reads EOF from the dead parent) and, when it was killed, its shard
# workers.  Such orphans would go to pid 1 and still be there — running or
# as zombies — when this process has exited.  So this process makes itself
# their reaper: orphaned descendants become its children, and it kills
# and waits for every one of them.
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36
REAP_TIMEOUT_S = 10.0


def _prctl(option: int, value: int) -> bool:
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def adopt_orphans() -> bool:
    """Become the parent of every descendant whose own parent dies."""
    return _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def _interrupt_when_parent_dies() -> None:
    # Runs in the server between fork and exec: should this benchmark be
    # SIGKILLed, the server still gets the SIGINT that closes its workers.
    _prctl(_PR_SET_PDEATHSIG, signal.SIGINT)


def _processes() -> dict[int, tuple[int, int]]:
    """pid -> (parent pid, process group) of everything in ``/proc``."""
    table = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    # "pid (comm) state ppid pgrp ..." — comm may hold spaces
                    fields = f.read().rpartition(")")[2].split()
                table[int(entry)] = (int(fields[1]), int(fields[2]))
            except (OSError, ValueError, IndexError):
                continue
    return table


def _kill_and_reap(select_pids) -> None:
    """SIGKILL the processes ``select_pids(table)`` names and wait until
    none is left in ``/proc``, not even as a zombie."""
    deadline = time.perf_counter() + REAP_TIMEOUT_S
    while True:
        pids = select_pids(_processes())
        if not pids:
            return
        if time.perf_counter() > deadline:
            raise RuntimeError(f"processes {pids} would not end")
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            try:
                os.waitpid(pid, os.WNOHANG)  # ours, if adopt_orphans() held
            except ChildProcessError:
                pass  # pid 1's; it goes once pid 1 has waited for it
        time.sleep(0.005)


def reap_group(pgid: int) -> None:
    """End every process of the group ``pgid``."""
    _kill_and_reap(lambda table: [p for p, (_, group) in table.items() if group == pgid])


def reap_children() -> None:
    """End every process this one still has, adopted ones too: the last
    thing a run does, on every way out."""
    from multiprocessing import resource_tracker

    # A ShardedService run in this process (the traced ladder) started a
    # tracker of this process's own; closing its pipe ends it.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    me = os.getpid()
    _kill_and_reap(lambda table: [p for p, (parent, _) in table.items() if parent == me])


class Server:
    """``repro-allfp serve`` in its own session and process group."""

    def __init__(self, root: Path, network: Path, flags: list[str], log: Path) -> None:
        self._root = root
        self._argv = [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--network", str(network), "--port", "0", "--quiet", *flags,
        ]
        self._log = log
        self._proc: subprocess.Popen | None = None
        self.port = 0

    @property
    def pid(self) -> int:
        return self._proc.pid

    def start(self) -> float:
        """Spawn and wait for the "serving on" line; returns seconds taken."""
        started = time.perf_counter()
        with open(self._log, "ab") as log:
            self._proc = subprocess.Popen(
                self._argv,
                env=server_env(self._root),
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,
                preexec_fn=_interrupt_when_parent_dies,
            )
        fd = self._proc.stdout.fileno()
        seen = b""
        deadline = started + BOOT_TIMEOUT_S
        while True:
            match = re.search(rb"serving on http://[^:]+:(\d+)\r?\n", seen)
            if match:
                break
            ready, _, _ = select.select(
                [fd], [], [], max(0.0, deadline - time.perf_counter())
            )
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError(
                    f"server did not come up (see {self._log}): {seen.decode()!r}"
                )
            seen += chunk
        self.port = int(match.group(1))
        return time.perf_counter() - started

    def tree(self) -> list[int]:
        """The server's pid and every live descendant (shard workers)."""
        table = _processes()
        pids = [self.pid]
        for pid in pids:
            pids.extend(p for p, (parent, _) in table.items() if parent == pid)
        return pids

    def rss_mb(self) -> tuple[float, float]:
        """(VmRSS of the whole tree, largest single descendant), MB."""
        total = worker = 0.0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as f:
                    text = f.read()
            except OSError:
                continue
            match = re.search(r"VmRSS:\s+(\d+) kB", text)
            if match:
                mb = int(match.group(1)) / 1024.0
                total += mb
                if pid != self.pid:
                    worker = max(worker, mb)
        return total, worker

    def cpu_seconds(self) -> float:
        """utime + stime of the whole tree."""
        ticks = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/stat") as f:
                    fields = f.read().rpartition(")")[2].split()
            except OSError:
                continue
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGINT for a clean shutdown (the tier closes its workers), then
        kill whatever is left of the process group — a hung server, workers
        a killed one orphaned, the resource tracker — and wait until the
        last of it is gone."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        proc.stdout.close()
        reap_group(proc.pid)


@dataclass
class Reply:
    ms: float
    status: int  # 0 = transport error
    data: bytes

    @cached_property
    def doc(self) -> dict | None:
        """The JSON body of a 200 reply; None for anything else."""
        if self.status != 200:
            return None
        try:
            return json.loads(self.data)
        except ValueError:
            return None


class Client:
    """One HTTP/1.1 keep-alive connection."""

    HEADERS = {"Content-Type": "application/json"}

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )

    def send(self, op: Op) -> Reply:
        started = time.perf_counter()
        try:
            self._conn.request("POST", op.path, op.body, self.HEADERS)
            response = self._conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()  # reconnects on the next request
            return Reply((time.perf_counter() - started) * 1e3, 0, repr(exc).encode())
        return Reply((time.perf_counter() - started) * 1e3, status, data)

    def close(self) -> None:
        self._conn.close()


def get(port: int, path: str) -> tuple[int, bytes]:
    """Control-plane GET on a connection of its own (never the measured one)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def parse_samples(text: str) -> list[tuple[str, dict[str, str], float]]:
    """Prometheus text exposition -> ``[(name, labels, value)]``."""
    samples = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if not match:
            continue
        name, labels, value = match.groups()
        samples.append((name, dict(_LABEL.findall(labels or "")), float(value)))
    return samples


def metric_sum(samples, name: str, **match: str) -> float:
    """Sum of every series of ``name`` whose labels include ``match`` —
    a sharded server exports one series per ``shard_id``, and the tier's
    own registry adds unlabelled ones."""
    return sum(
        value
        for sample, labels, value in samples
        if sample == name and all(labels.get(k) == v for k, v in match.items())
    )


def scrape(port: int) -> list[tuple[str, dict[str, str], float]]:
    status, body = get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_samples(body.decode())


# ----------------------------------------------------------------------
# The machine
# ----------------------------------------------------------------------
CALIBRATION_ROUNDS = 5


def machine_jiffies() -> tuple[int, int]:
    """(all CPU time, time stolen by the hypervisor) since boot, in ticks."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes, best of a few rounds.

    It runs before and after every pass; a pass whose bracketing values
    are well above the run's best ran on a slowed or contended machine.
    """
    best = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, (time.perf_counter() - started) * 1e3)
    return best
