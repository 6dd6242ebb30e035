"""The system under test: a real ``yask serve`` subprocess, owned.

Spawned per workload with a fresh WAL directory, observed from outside
(``/proc`` for memory and CPU, ``GET /api/stats`` for counters) and
always reaped: terminate, then kill.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import catalogue as cat

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT_S = 60.0


def get_json(port: int, path: str, *, timeout: float = 10.0) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class ServerProcess:
    """``python -m repro.service.cli serve`` on an ephemeral port."""

    def __init__(
        self, *, src: Path, dataset: Path, wal_dir: Path, log_prefix: Path
    ) -> None:
        wal_dir.mkdir(parents=True, exist_ok=True)
        self.wal_dir = wal_dir
        self._stdout_path = log_prefix.with_suffix(".stdout.log")
        self._stdout = open(self._stdout_path, "wb")
        self._stderr = open(log_prefix.with_suffix(".stderr.log"), "wb")
        environment = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self._spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service.cli", "serve",
                "--dataset", str(dataset),
                "--port", "0",
                "--shards", str(cat.SHARDS),
                "--wal-dir", str(wal_dir),
                "--fsync", cat.FSYNC,
            ],
            stdout=self._stdout,
            stderr=self._stderr,
            stdin=subprocess.DEVNULL,
            env=environment,
        )
        self.port = 0
        #: Seconds from spawn to the first 200 on /api/health/ready.
        self.setup_s = 0.0

    def wait_ready(self) -> None:
        """Parse the port off the "listening on" line, then poll ready."""
        deadline = self._spawned + READY_TIMEOUT_S
        while not self.port:
            match = _LISTENING.search(self._stdout_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                break
            self._check_alive(deadline, "print its listening line")
            time.sleep(0.002)
        while True:
            try:
                status, _ = get_json(self.port, "/api/health/ready", timeout=2.0)
            except OSError:
                status = 0
            if status == 200:
                self.setup_s = time.perf_counter() - self._spawned
                return
            self._check_alive(deadline, "report ready")
            time.sleep(0.002)

    def _check_alive(self, deadline: float, what: str) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.process.returncode} before it "
                f"could {what}; see {self._stdout_path.parent}"
            )
        if time.perf_counter() > deadline:
            raise RuntimeError(f"server did not {what} in {READY_TIMEOUT_S:.0f} s")

    def stats(self) -> dict:
        status, body = get_json(self.port, "/api/stats")
        if status != 200:
            raise RuntimeError(f"GET /api/stats answered {status}")
        return body

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the process's peak resident set, in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server process so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def kill(self) -> None:
        """SIGKILL (the crash of the durability check) and reap."""
        self.process.kill()
        self.process.wait()

    def stop(self) -> None:
        """Terminate, then kill; idempotent.  Always leaves it reaped."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._stdout.close()
        self._stderr.close()
