"""What the CI smoke scripts (``scripts/*_smoke.py``) share.

Each smoke drives real ``python -m repro ...`` subprocesses over real
sockets; this module holds the plumbing: the subprocess wrapper with
its ready-line wait, one HTTP exchange, the failure exit, and the body
normalization for cross-process byte-identity checks.  A smoke runs as
``python scripts/NAME_smoke.py``, so ``scripts/`` is on ``sys.path``
and ``import smoke_common`` resolves here.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
READY_PATTERN = re.compile(r"listening on http://([\d.]+):(\d+)")

#: Log prefix: the running smoke's name (``fleet_smoke``, ...).
NAME = Path(sys.argv[0]).stem


def repro_env() -> Dict[str, str]:
    """This environment with the repo's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def normalized_body(body: bytes) -> str:
    """The json body with the wall-clock fields pinned: two engine
    runs can never agree on ``runtime_seconds`` or ``phases``, and
    everything else must be byte-identical."""
    data = json.loads(body)
    data["runtime_seconds"] = 0.0
    data["phases"] = {}
    return json.dumps(data, sort_keys=True)


def fail(message: str, proc: Optional["Proc"] = None) -> "NoReturn":
    print(f"{NAME}: FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print("---- process log ----", file=sys.stderr)
        print(proc.log(), file=sys.stderr)
    sys.exit(1)


class Proc:
    """A ``python -m repro ARGV`` server subprocess with a parsed ready
    port."""

    def __init__(self, argv: List[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro"] + argv,
            cwd=str(REPO_ROOT), env=repro_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._lines: List[str] = []
        # The drain thread starts first: readline() on a silent-but-
        # alive server blocks forever, so the ready wait polls the
        # drained lines against a real deadline instead of reading the
        # pipe itself.  The thread also keeps the pipe from filling.
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.host, self.port = self._await_ready()

    def _await_ready(self) -> Tuple[str, int]:
        deadline = time.time() + 90
        scanned = 0
        while time.time() < deadline:
            lines = self._lines
            while scanned < len(lines):
                match = READY_PATTERN.search(lines[scanned])
                scanned += 1
                if match:
                    return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                fail(f"process exited early with {self.proc.returncode}:\n"
                     + self.log())
            time.sleep(0.05)
        fail("process did not report a listening address within 90s:\n"
             + self.log())

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.append(line.rstrip("\n"))

    def log(self) -> str:
        return "\n".join(self._lines)

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then SIGKILL after 30 s."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)


def request(proc: Proc, method: str, path: str, body=None,
            headers: Optional[Dict[str, str]] = None,
            timeout: float = 180.0) -> Tuple[int, bytes, Dict[str, str]]:
    """One exchange: ``(status, body, headers)`` with the response
    header names lowercased."""
    conn = http.client.HTTPConnection(proc.host, proc.port, timeout=timeout)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None,
                     headers=headers or {})
        resp = conn.getresponse()
        resp_headers = {key.lower(): value
                        for key, value in resp.getheaders()}
        return resp.status, resp.read(), resp_headers
    finally:
        conn.close()
