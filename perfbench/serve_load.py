"""Closed-loop load on one ``repro serve`` process (standard library only).

One thread holds ``CONNECTIONS`` unix-socket connections with
``SESSIONS_PER_CONNECTION`` sessions each.  Every session replays a fixed
list of recorded decision points and sends its next request only after the
reply to the previous one arrived, so the server sees at most
``CONNECTIONS * SESSIONS_PER_CONNECTION`` requests in flight.  Request
frames are assembled before timing from pre-encoded observation bodies;
latency runs from the send to the reply, at the client.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import time
from typing import Any, Callable, Dict, List, Optional

CONNECTIONS = 2
SESSIONS_PER_CONNECTION = 8
SESSIONS = CONNECTIONS * SESSIONS_PER_CONNECTION
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0

clock = time.perf_counter


class LoadError(RuntimeError):
    """The server broke the protocol, died or stopped answering."""


class Connection:
    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buffer = b""

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def lines(self) -> List[bytes]:
        """Read what is available (blocking for at least one chunk)."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise LoadError("server closed the connection")
        self.buffer += chunk
        *complete, self.buffer = self.buffer.split(b"\n")
        return complete

    def rpc(self, frame: bytes) -> Dict[str, Any]:
        self.send(frame)
        while True:
            lines = self.lines()
            if lines:
                if len(lines) > 1 or self.buffer:
                    raise LoadError("unexpected frames after an rpc reply")
                return json.loads(lines[0])

    def close(self) -> None:
        self.sock.close()


def peak_rss_mb(pid) -> float:
    """VmHWM of process ``pid`` (or ``"self"``) in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise LoadError(f"VmHWM missing for pid {pid}")


def _connect(path: str, proc: subprocess.Popen) -> Connection:
    deadline = clock() + START_TIMEOUT_S
    while True:
        if proc.poll() is not None:
            raise LoadError(f"server exited with {proc.returncode} before binding")
        try:
            return Connection(path)
        except (FileNotFoundError, ConnectionRefusedError):
            if clock() > deadline:
                raise LoadError("server did not bind its socket in time") from None
            time.sleep(0.005)


def _open(conn: Connection) -> str:
    reply = conn.rpc(b'{"op":"open","model":{"kind":"default"}}\n')
    if reply.get("op") != "opened":
        raise LoadError(f"open failed: {reply}")
    return reply["session"]


def _frame(session: str, seq: int, body: str) -> bytes:
    return ('{"op":"decide","session":"%s","seq":%d,%s\n' % (session, seq, body)).encode()


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_round(
    command: List[str],
    env: Dict[str, str],
    socket_path: str,
    bodies: List[str],
    expected: List[int],
    requests_per_session: int,
    segments: int,
    between_phases: Callable[[], None],
) -> Dict[str, Any]:
    """Launch a server, time its set-up, drive the fixed load, stop it.

    Session ``k`` replays decision points ``(k * stride + i) % len(bodies)``
    for ``i < requests_per_session``.  The load runs in ``segments`` equal
    segments: each ends when every session has its share of replies, and
    ``between_phases`` is called, untimed and with the server idle, after
    set-up and after every segment.  Returns the set-up time, the load time
    and per-request latencies of each segment, reply statuses (the set-up
    decision included) and actions, the server's ``stats`` and its VmHWM
    read after the fixed work.
    """
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    started = clock()
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    conns: List[Connection] = []
    try:
        conns = [_connect(socket_path, proc) for _ in range(CONNECTIONS)]
        sessions = [
            (conn, _open(conn)) for conn in conns
            for _ in range(SESSIONS_PER_CONNECTION)
        ]
        # set-up ends with the first decision answered
        first = sessions[0][0].rpc(_frame(sessions[0][1], 0, bodies[0]))
        setup_s = clock() - started
        between_phases()

        stride = max(1, len(bodies) // SESSIONS)
        plans = []
        for k, (_conn, sid) in enumerate(sessions):
            points = [(k * stride + i) % len(bodies) for i in range(requests_per_session)]
            plans.append((points, [_frame(sid, i + 1, bodies[p]) for i, p in enumerate(points)]))
        by_sid = {sid: k for k, (_conn, sid) in enumerate(sessions)}
        cursor = [0] * SESSIONS
        sent_at = [0.0] * SESSIONS
        statuses: Dict[str, int] = {first.get("status"): 1}
        actions: List[List[Optional[int]]] = [[] for _ in range(SESSIONS)]
        mismatches = int(first.get("status") != "ok" or first.get("action") != expected[0])
        ok_load = 0
        load_s: List[float] = []
        latencies: List[List[float]] = []

        selector = selectors.DefaultSelector()
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        for segment in range(1, segments + 1):
            stop = segment * requests_per_session // segments
            outstanding = 0
            lat: List[float] = []
            segment_started = clock()
            for k, (conn, _sid) in enumerate(sessions):
                if cursor[k] < stop:
                    sent_at[k] = clock()
                    conn.send(plans[k][1][cursor[k]])
                    outstanding += 1
            while outstanding:
                events = selector.select(timeout=STOP_TIMEOUT_S)
                if not events:
                    raise LoadError("server stopped answering")
                for key, _mask in events:
                    conn = key.data
                    for line in conn.lines():
                        now = clock()
                        frame = json.loads(line)
                        if frame.get("op") != "decision":
                            raise LoadError(f"unexpected frame {frame}")
                        k = by_sid[frame["session"]]
                        i = cursor[k]
                        if frame.get("seq") != i + 1:
                            raise LoadError(f"reply out of order: {frame}")
                        lat.append(now - sent_at[k])
                        status = frame.get("status")
                        ok_load += status == "ok"
                        statuses[status] = statuses.get(status, 0) + 1
                        action = frame.get("action")
                        actions[k].append(action)
                        if status != "ok" or action != expected[plans[k][0][i]]:
                            mismatches += 1
                        cursor[k] = i + 1
                        outstanding -= 1
                        if cursor[k] < stop:
                            sent_at[k] = clock()
                            conn.send(plans[k][1][cursor[k]])
                            outstanding += 1
            load_s.append(clock() - segment_started)
            latencies.append([1e3 * x for x in lat])
            between_phases()
        selector.close()
        stats = conns[0].rpc(b'{"op":"stats"}\n')
        peak = peak_rss_mb(proc.pid)
    finally:
        for conn in conns:
            conn.close()
        stop_server(proc)
    if proc.returncode != 0:
        raise LoadError(f"server exited with {proc.returncode}")
    return {
        "setup_s": setup_s,
        "load_s": load_s,
        "latencies_ms": latencies,
        "statuses": statuses,
        "ok_load": ok_load,
        "mismatches": mismatches,
        "actions": actions,
        "stats": stats,
        "peak_rss_mb": peak,
    }
