"""The processes the benchmark starts, and how it stops them.

Every child runs with ``PYTHONHASHSEED=0`` and ``REPRO_CLOSURE_BACKEND``
unset, imports ``repro`` from this checkout's ``src`` and is waited for
before the benchmark exits.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict

from repro.service import ServiceClient

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
HOST = "127.0.0.1"
#: A single call may not outlast the driver's 180 s limit for a run.
TIMEOUT = 170.0
_BANNER = re.compile(r"http://[\d.]+:(\d+), tcp://[\d.]+:(\d+)")


def child_env() -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("REPRO_CLOSURE_BACKEND", None)
    return env


class Child:
    """One ``child.py`` interpreter, imported and warmed up."""

    def __init__(self, manifest: dict, work_dir: str):
        path = os.path.join(work_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), path],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        ready = self.proc.stdout.readline()
        if ready.strip() != "READY":
            self.discard()
            raise RuntimeError(f"checking child did not come up: {ready!r}")

    def run(self) -> dict:
        """Do the manifest's job; the child exits afterwards."""
        out, _ = self.proc.communicate("go\n", timeout=TIMEOUT)
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"checking child exited with {self.proc.returncode}")
        return json.loads(out.splitlines()[-1])

    def discard(self) -> None:
        """Stop a child that is not (or no longer) needed."""
        if self.proc.poll() is None:
            try:
                self.proc.communicate(timeout=TIMEOUT)  # EOF: exit quietly
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()


class Daemon:
    """One ``python -m repro serve`` subprocess: default ``ServiceConfig``
    except ephemeral ports and a fresh ``--state-dir``."""

    def __init__(self, state_dir: str):
        self.usage = None
        self._log = open(state_dir + ".log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--tcp-port", "0", "--state-dir", state_dir],
            env=child_env(), stdout=subprocess.PIPE, stderr=self._log,
            text=True,
        )
        banner = self.proc.stdout.readline()
        match = _BANNER.search(banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not come up: {banner!r} "
                               f"(see {self._log.name})")
        self.query = ServiceClient(HOST, int(match[1]), timeout=TIMEOUT)
        self.pusher = ServiceClient(HOST, None, tcp_port=int(match[2]),
                                    timeout=TIMEOUT)

    def stop(self):
        """SIGTERM, wait, and return the daemon's own rusage (``wait4``
        reports this child alone, unlike ``RUSAGE_CHILDREN``)."""
        if self.usage is None:
            # os.kill, not Popen.terminate()/kill(): those poll first,
            # which would reap the child and lose the rusage.
            pid = self.proc.pid
            os.kill(pid, signal.SIGTERM)
            deadline = time.monotonic() + TIMEOUT
            while True:
                reaped, status, usage = os.wait4(pid, os.WNOHANG)
                if reaped:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.02)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.usage = usage
            self.proc.stdout.close()
            self._log.close()
        return self.usage
