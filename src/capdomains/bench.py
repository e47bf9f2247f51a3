"""Closed-loop load generator and overhead comparison for the guard server.

Each client connection is driven by its own thread: send one request,
read the full reply, repeat until the clock runs out.  A configurable
fraction of requests is replaced by an oversized line that trips the
server's parser bug; against a domains-mode server the connection drops
and the client reconnects, against the unprotected modes the worker dies
and the run ends early with that observation recorded.

Per-run rows go to CSV as ``mode,payload,run,requests,rps,served,rejected``
so every reported mean/stddev can be recomputed from the raw rows.
"""

import csv
import logging
import os
import random
import socket
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .server import MODES, OVERSIZE_LEN, GuardServer, PAYLOAD_BYTES, ServerConfig

log = logging.getLogger(__name__)

CSV_HEADER = "mode,payload,run,requests,rps,served,rejected"
COMPARE_CSV_HEADER = "mode,payload,rps_mean,rps_std,overhead_pct"
BENIGN_LINE = b"GET /bench\n"


@dataclass(frozen=True)
class BenchConfig:
    port: int
    host: str = "127.0.0.1"
    connections: int = 8
    duration: float = 10.0
    payload: str = "0k"
    malicious_ratio: float = 0.0
    repetitions: int = 10
    out_path: Optional[str] = None
    seed: Optional[int] = None
    # pacing between requests; keeps socket churn sane in long attack runs
    think_time: float = 0.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.think_time < 0:
            raise ValueError("think_time must be >= 0")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.payload not in PAYLOAD_BYTES:
            raise ValueError(f"payload must be one of {sorted(PAYLOAD_BYTES)}")
        if not 0.0 <= self.malicious_ratio <= 1.0:
            raise ValueError("malicious_ratio must be within [0, 1]")
        if self.connections < 1:
            raise ValueError("connections must be >= 1")


@dataclass(frozen=True)
class RunRow:
    mode: str
    payload: str
    run: int
    requests: int
    rps: float
    served: int
    rejected: int


@dataclass(frozen=True)
class BenchResult:
    mode: str
    payload: str
    requests_per_second: float  # mean over repetitions
    stddev: float
    served: int
    rejected: int
    rows: Tuple[RunRow, ...]
    server_alive: bool


# ---------------------------------------------------------------- client side

def _read_reply(reader) -> Optional[bytes]:
    """Consume one response frame; None on EOF."""
    head = reader.readline()
    if not head:
        return None
    if head.startswith(b"OK "):
        want = int(head[3:-1])
        body = reader.read(want) if want else b""
        if want and (body is None or len(body) < want):
            return None
        return body
    return b""  # ERR line carries no body


def request_stats(host: str, port: int) -> Dict[str, str]:
    """Ask a running server for its counters; raises OSError if unreachable."""
    with socket.create_connection((host, port), timeout=5) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"STATS\n")
        body = _read_reply(reader)
        if body is None:
            raise ConnectionError("server closed the stats connection")
        return dict(kv.split("=", 1) for kv in body.decode("ascii").split())


class _ClientOutcome:
    __slots__ = ("served", "rejected", "server_died")

    def __init__(self):
        self.served = 0
        self.rejected = 0
        self.server_died = False


def _client_loop(cfg: BenchConfig, stop_at: float, seed: int, out: _ClientOutcome):
    rng = random.Random(seed)
    attack_line = b"!" * OVERSIZE_LEN + b"\n"
    sock = None
    reader = None

    def reconnect() -> bool:
        nonlocal sock, reader
        if sock is not None:
            sock.close()
        try:
            sock = socket.create_connection((cfg.host, cfg.port), timeout=5)
        except OSError:
            sock = None
            return False
        sock.settimeout(10)
        reader = sock.makefile("rb")
        return True

    if not reconnect():
        out.server_died = True
        return
    try:
        while time.monotonic() < stop_at:
            if cfg.think_time:
                time.sleep(cfg.think_time)
            if cfg.malicious_ratio and rng.random() < cfg.malicious_ratio:
                sock.sendall(attack_line)
                if _read_reply(reader) is None:
                    out.rejected += 1
                    if not reconnect():
                        out.server_died = True
                        return
                else:  # an answered oversized line would be a server bug
                    out.served += 1
            else:
                sock.sendall(BENIGN_LINE)
                if _read_reply(reader) is None:
                    out.server_died = True
                    return
                out.served += 1
    except OSError:
        out.server_died = True
    finally:
        if sock is not None:
            sock.close()


# ---------------------------------------------------------------- harness

def _append_rows(path: str, rows: Sequence[RunRow]) -> None:
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_HEADER.split(","))
        for row in rows:
            # rps keeps full repr precision so mean/stddev recompute exactly
            writer.writerow(
                [row.mode, row.payload, row.run, row.requests,
                 row.rps, row.served, row.rejected]
            )


def _timed_run(cfg: BenchConfig, mode: str, run: int, base_seed: int) -> Tuple[RunRow, bool]:
    """One timed run of ``cfg.duration``: its row, and whether the server kept answering."""
    outcomes = [_ClientOutcome() for _ in range(cfg.connections)]
    stop_at = time.monotonic() + cfg.duration
    t0 = time.monotonic()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(cfg, stop_at, base_seed * 1009 + run * 131 + i, outcomes[i]),
            daemon=True,
        )
        for i in range(cfg.connections)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(cfg.duration + 30)
    elapsed = time.monotonic() - t0
    served = sum(o.served for o in outcomes)
    rejected = sum(o.rejected for o in outcomes)
    requests = served + rejected
    alive = not any(o.server_died for o in outcomes)
    if not alive:
        log.warning("run %d ended early: server no longer answering", run)
    return RunRow(mode, cfg.payload, run, requests, requests / elapsed, served, rejected), alive


def _result(cfg: BenchConfig, mode: str, rows: List[RunRow], alive: bool) -> BenchResult:
    if cfg.out_path:
        _append_rows(cfg.out_path, rows)
    rps = [r.rps for r in rows]
    return BenchResult(
        mode=mode,
        payload=cfg.payload,
        requests_per_second=statistics.mean(rps),
        stddev=statistics.stdev(rps) if len(rps) > 1 else 0.0,
        served=sum(r.served for r in rows),
        rejected=sum(r.rejected for r in rows),
        rows=tuple(rows),
        server_alive=alive,
    )


def run_workload(cfg: BenchConfig) -> BenchResult:
    """Drive one mode/payload cell for ``repetitions`` timed runs."""
    info = request_stats(cfg.host, cfg.port)  # also: reachability check
    mode = info["mode"]
    if int(info["payload"]) != PAYLOAD_BYTES[cfg.payload]:
        raise ValueError(
            f"server serves {info['payload']}-byte payloads, "
            f"config expects {cfg.payload}"
        )
    base_seed = cfg.seed if cfg.seed is not None else random.randrange(1 << 30)
    rows: List[RunRow] = []
    for run in range(1, cfg.repetitions + 1):
        row, alive = _timed_run(cfg, mode, run, base_seed)
        rows.append(row)
        if not alive:
            break
    return _result(cfg, mode, rows, alive)


def compare_modes(results: Sequence[BenchResult]):
    """Relative throughput vs the baseline mode, per payload.

    Returns (rows, csv_text); every payload present must include a
    baseline measurement, otherwise there is nothing to compare against.
    """
    by_payload: Dict[str, Dict[str, BenchResult]] = {}
    for res in results:
        by_payload.setdefault(res.payload, {})[res.mode] = res
    rows = []
    lines = [COMPARE_CSV_HEADER]
    for payload in (p for p in PAYLOAD_BYTES if p in by_payload):
        cell = by_payload[payload]
        if "baseline" not in cell:
            raise ValueError(f"payload {payload} has no baseline measurement")
        base = cell["baseline"].requests_per_second
        for m in (m for m in MODES if m in cell):
            res = cell[m]
            overhead = 0.0 if base == 0 else (1.0 - res.requests_per_second / base) * 100.0
            rows.append(
                {
                    "mode": m,
                    "payload": payload,
                    "rps_mean": res.requests_per_second,
                    "rps_std": res.stddev,
                    "overhead_pct": overhead,
                }
            )
            lines.append(
                f"{m},{payload},{res.requests_per_second:.2f},"
                f"{res.stddev:.2f},{overhead:.2f}"
            )
    return rows, "\n".join(lines) + "\n"


def run_matrix(
    modes: Sequence[str] = MODES,
    payloads: Sequence[str] = tuple(PAYLOAD_BYTES),
    connections: int = 8,
    duration: float = 10.0,
    repetitions: int = 3,
    seed: Optional[int] = None,
    out_path: Optional[str] = None,
) -> List[BenchResult]:
    """Measure every mode x payload cell against in-process servers."""
    for name, given, valid in (("modes", modes, MODES), ("payloads", payloads, PAYLOAD_BYTES)):
        unknown = [x for x in given if x not in valid]
        if unknown:
            raise ValueError(f"unknown {name} {unknown}: choose from {', '.join(valid)}")
    base_seed = seed if seed is not None else random.randrange(1 << 30)
    results = []
    for payload in payloads:
        # an idle worker sleeps in select, so a payload's servers run side by side
        # and its reps rotate over the modes (ABC, BCA, CAB), for drift to hit all alike
        servers = [
            GuardServer(ServerConfig(listen_port=0, mode=m, payload_size=PAYLOAD_BYTES[payload]))
            for m in modes
        ]
        try:
            cfgs = []
            for srv in servers:
                srv.start()
                cfgs.append(BenchConfig(port=srv.port, connections=connections, duration=duration,
                                        payload=payload, repetitions=repetitions, out_path=out_path))
            rows: List[List[RunRow]] = [[] for _ in modes]
            alive = [True] * len(modes)
            for run in range(1, repetitions + 1):
                for i in [(run - 1 + k) % len(modes) for k in range(len(modes))]:
                    if alive[i]:
                        row, alive[i] = _timed_run(cfgs[i], modes[i], run, base_seed)
                        rows[i].append(row)
            for i, mode in enumerate(modes):
                results.append(_result(cfgs[i], mode, rows[i], alive[i]))
                log.info("cell %s/%s: %.1f rps", mode, payload, results[-1].requests_per_second)
        finally:
            for srv in servers:
                srv.stop()
                srv.join()
    return results


# ---------------------------------------------------------------- scenarios

def attack(host: str, port: int, oversize: int = OVERSIZE_LEN) -> bool:
    """Send one oversized request line; True if the connection was dropped."""
    with socket.create_connection((host, port), timeout=5) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"@" * oversize + b"\n")
        return _read_reply(reader) is None


def demo(echo=None) -> dict:
    """Five sequential requests on one connection, the third an oversized
    line sent by an attacker on a connection of its own, twice.

    The domains-mode pass drops only the attacker's connection and serves
    the whole trace on the benign one; the baseline pass loses its worker
    at the bad request.  Returns per-mode outcome dicts; ``echo`` (e.g.
    ``print``) gets a running commentary.
    """
    say = echo or (lambda *_: None)
    outcome = {}
    for mode in ("domains", "baseline"):
        srv = GuardServer(
            ServerConfig(listen_port=0, mode=mode, payload_size=PAYLOAD_BYTES["1k"])
        )
        srv.start()
        served = rejected = attempted = 0
        terminated_at = None
        say(f"--- {mode} mode on port {srv.port} ---")
        try:
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
                reader = sock.makefile("rb")
                for i in range(1, 6):
                    attempted = i
                    if i != 3:
                        sock.sendall(b"GET /demo\n")
                        if _read_reply(reader) is None:
                            terminated_at = i
                            say(f"request {i}: connection lost, server gone")
                            break
                        served += 1
                        say(f"request {i}: served")
                    elif not attack("127.0.0.1", srv.port):
                        say(f"request {i}: oversized line was answered?!")
                    else:
                        # connect() can succeed into a dead server's listen
                        # backlog, so prove aliveness with a control request
                        try:
                            request_stats("127.0.0.1", srv.port)
                        except OSError:
                            terminated_at = i
                            say(f"request {i}: server terminated by the overflow")
                            break
                        rejected += 1
                        say(f"request {i}: rejected, connection dropped, server alive")
        except OSError:
            terminated_at = terminated_at or attempted
        finally:
            time.sleep(0.05)
            alive = srv.alive
            srv.stop()
            srv.join()
        outcome[mode] = {
            "served": served,
            "rejected": rejected,
            "attempted": attempted,
            "terminated_at": terminated_at,
            "alive": alive,
        }
        say(
            f"{mode}: served={served} rejected={rejected} "
            f"alive={'yes' if alive else 'no'}\n"
        )
    return outcome
