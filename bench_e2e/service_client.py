"""A ``repro-sim serve`` subprocess and one closed-loop HTTP client.

Each operation is POST ``/campaigns``, a long-poll on the campaign until
it is terminal, then GET ``/campaigns/<id>/result``; the next operation is
sent only when the previous one has its result bytes.
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
from typing import Dict, Iterator, List, Optional, Tuple

import common

_LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")


class Server:
    """One ``repro-sim serve`` process on an ephemeral port.

    ``setup_s`` runs from spawning the process until ``/healthz``
    answers: interpreter start, imports, journal recovery and bind.
    """

    def __init__(self, state_dir: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(common.SRC))
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--state-dir", str(state_dir), "--port", "0",
             "--workers", str(common.WORKERS)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=common.ROOT)
        try:
            self.port = self._await_port()
            status, _ = self.request("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_port(self) -> int:
        for line in self.proc.stdout:
            match = _LISTENING.search(line)
            if match:
                # Keep draining, so a chatty server never blocks on a
                # full pipe.
                threading.Thread(target=self.proc.stdout.read,
                                 daemon=True).start()
                return int(match.group(1))
        raise RuntimeError("repro-sim serve exited before listening")

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            data = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=data)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def campaign(self, spec: dict) -> Tuple[int, bool, Optional[bytes]]:
        """One operation; returns (POST status, done?, result bytes)."""
        status, raw = self.request("POST", "/campaigns", spec)
        if status not in (200, 201):
            return status, False, None
        cid = json.loads(raw)["id"]
        state = json.loads(raw)["state"]
        while state not in ("done", "degraded", "failed", "cancelled"):
            _, raw = self.request("GET", f"/campaigns/{cid}?wait=60")
            state = json.loads(raw)["state"]
        if state != "done":
            return status, False, None
        code, result = self.request("GET", f"/campaigns/{cid}/result")
        return status, code == 200, result if code == 200 else None

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run_stream(server: Server, seed: int, ops: Iterator[Tuple[str, int]],
               keep_going) -> List[Dict[str, object]]:
    """Drive ``ops`` through ``server`` while ``keep_going(fresh_count)``.

    Returns one entry per operation: kind, spec index, seconds, whether
    it succeeded, and the digest of its result bytes.
    """
    done: List[Dict[str, object]] = []
    fresh = 0
    for kind, index in ops:
        if kind == "fresh" and not keep_going(fresh):
            break
        spec = common.service_spec(seed, index)
        started = time.perf_counter()
        status, ok, result = server.campaign(spec)
        elapsed = time.perf_counter() - started
        expected = 201 if kind == "fresh" else 200
        done.append({"kind": kind, "index": index, "seconds": elapsed,
                     "ok": ok and status == expected,
                     "digest": common.sha(result) if result else None})
        fresh += kind == "fresh"
    return done
