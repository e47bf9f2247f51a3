"""Closed-loop, single-threaded load generator for the capdomains wire protocol.

Each of at most two connections is a caller that writes one batch of
request lines, waits for every reply byte of that batch, and only then
writes again.  Every reply byte is compared with the frame the protocol
promises (``OK <len>\\n`` plus the server's fixed payload pattern), so a
wrong, short or ``ERR`` reply is a failure, never a throughput sample.

Oversized lines are the parser attack: the only correct outcome is that
the server drops the connection without answering.  Which sends are
attacks is drawn per connection slot from the seed, so the k-th send of
slot s is an attack in every run with the same seed, however the two
connections interleave in time.
"""

import random
import select
import socket
import time
from dataclasses import dataclass, field
from typing import List, Optional

REQUEST = b"GET /index\n"
ATTACK_LEN = 200  # well past the server's 64-byte request-line buffer
ATTACK = b"GET /" + b"A" * (ATTACK_LEN - 6) + b"\n"
# The server's payload body repeats this pattern; kept here independently of
# the server's code so that the byte check is a check and not a tautology.
PAYLOAD_PATTERN = b"capability-backed-response-payload-0123456789abcdef-"
IDLE_TIMEOUT_S = 5.0  # no reply byte for this long fails the outstanding batches


def expected_frame(payload_size: int) -> bytes:
    body = (PAYLOAD_PATTERN * (payload_size // len(PAYLOAD_PATTERN) + 1))[:payload_size]
    return b"OK %d\n" % payload_size + body


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # server mode passed to `capdomains serve --mode`
    payload: str  # `capdomains serve --payload` choice
    payload_size: int
    connections: int = 2
    batch: int = 1  # request lines written at once per connection
    requests_per_conn: int = 0  # close and reopen after this many sends; 0 = keep-alive
    attack_share: float = 0.0  # share of sends that are an oversized line
    # Send every connection's next batch together, once all are answered.
    # Free-running pipelined callers drift in and out of phase, and the
    # server's CPU per request moved with the phase (25 vs 38 µs) from run
    # to run; in lockstep each round reaches the server the same way.
    lockstep: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipelined-0k", "domains", "0k", 0, batch=16, lockstep=True),
        Workload("churn-attack-1k", "domains", "1k", 1024,
                 requests_per_conn=8, attack_share=0.02),
        Workload("bulk-16k-baseline", "baseline", "16k", 16384),
    )
}


def attack_rng(seed: int, slot: int) -> random.Random:
    return random.Random(f"capdomains-perfbench:{seed}:{slot}")


def attack_positions(seed: int, slot: int, share: float, sends: int) -> List[int]:
    """Indices among the first ``sends`` sends of ``slot`` that are attacks."""
    rng = attack_rng(seed, slot)
    return [i for i in range(sends) if rng.random() < share]


@dataclass
class Tally:
    """Outcome counts of one load phase.  Failed benign requests add an
    infinite latency sample, so a failure misses every latency limit."""

    benign_sent: int = 0
    benign_ok: int = 0
    benign_failed: int = 0
    attacks_sent: int = 0
    attacks_contained: int = 0
    attacks_answered: int = 0
    attacks_unresolved: int = 0
    connects: int = 0
    connect_failures: int = 0
    last_done: float = 0.0  # perf_counter() when the latest benign reply completed
    latencies_us: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.benign_sent + self.attacks_sent

    @property
    def failed(self) -> int:
        return (self.benign_failed + self.attacks_answered
                + self.attacks_unresolved + self.connect_failures)


class _Conn:
    __slots__ = ("sock", "sends", "attack", "pos", "t_send", "t_last", "buf", "view")

    def __init__(self, sock: socket.socket, size: int):
        self.sock = sock
        self.sends = 0
        self.attack = False
        self.pos = -1  # -1: idle; otherwise bytes of the batch received so far
        self.t_send = 0.0
        self.t_last = 0.0  # last send or received byte; idle-timeout reference
        self.buf = bytearray(size)
        self.view = memoryview(self.buf)


class LoadGenerator:
    """Drives one workload against ``host:port`` from the calling thread.

    A slot whose batch is answered sends its next batch at once, from the
    receive path, so the generator spends as little as it can per request.
    """

    def __init__(self, workload: Workload, seed: int, host: str, port: int):
        self.workload = workload
        self.addr = (host, port)
        frame = expected_frame(workload.payload_size)
        self.frame_len = len(frame)
        self.batch_bytes = REQUEST * workload.batch
        self.expected = frame * workload.batch
        self.expected_view = memoryview(self.expected)
        self.rngs = [attack_rng(seed, slot) for slot in range(workload.connections)]
        self.conns: List[Optional[_Conn]] = [None] * workload.connections
        self.poller = select.epoll()  # the selectors wrapper costs µs per request
        self.slot_of_fd = {}
        self.tally = Tally()
        self.busy = 0  # slots with a batch outstanding
        self.deadline = 0.0
        self.lost = False  # a connect failed: the server is gone

    def close(self) -> None:
        for slot in range(len(self.conns)):
            self._drop(slot)
        self.poller.close()

    def run(self, seconds: float, tally: Tally, slices: int = 1, on_slice=None) -> float:
        """Closed-loop load for ``seconds``, then drain the outstanding batches.

        ``on_slice``, if given, is called at the start and at the end of each
        of ``slices`` equal parts of the window, so the caller can cut it into
        slices.  Returns the time from the first send to the end of the drain.
        """
        t0 = time.perf_counter()
        ticks = [t0 + seconds * i / slices for i in range(slices + 1)] if on_slice else []
        self.deadline = ticks[-1] if ticks else t0 + seconds
        self.tally = tally
        for slot in range(len(self.conns)):
            self._start(slot, t0)
        while True:
            now = time.perf_counter()
            while ticks and now >= ticks[0]:
                ticks.pop(0)
                on_slice()
            if not self.busy:
                if not ticks:
                    return time.perf_counter() - t0
                time.sleep(max(0.0, ticks[0] - now))  # the server is gone; close the slices
                continue
            timeout = min(IDLE_TIMEOUT_S, ticks[0] - now) if ticks else IDLE_TIMEOUT_S
            events = self.poller.poll(max(0.0, timeout))
            for fd, _ in events:
                self._on_readable(self.slot_of_fd[fd])
            if not events:
                now = time.perf_counter()
                for slot, conn in enumerate(self.conns):
                    if conn is not None and conn.pos >= 0 and now - conn.t_last >= IDLE_TIMEOUT_S:
                        self._fail(slot)
                        self._next(slot, now)

    # ------------------------------------------------------------ internals

    def _next(self, slot: int, now: float) -> None:
        """The slot's batch is over: send again, alone or with the round."""
        if not self.workload.lockstep:
            self._start(slot, now)
        elif not self.busy:
            for each in range(len(self.conns)):
                self._start(each, now)

    def _start(self, slot: int, now: float) -> None:
        """Send the slot's next batch while the window is open."""
        while now < self.deadline and not self.lost:
            if self._send(slot):
                return
            now = time.perf_counter()

    def _send(self, slot: int) -> bool:
        w, tally = self.workload, self.tally
        conn = self.conns[slot]
        if conn is None:
            try:
                sock = socket.create_connection(self.addr, timeout=IDLE_TIMEOUT_S)
            except OSError:
                tally.connect_failures += 1
                self.lost = True
                return False
            sock.setblocking(False)
            conn = self.conns[slot] = _Conn(sock, len(self.expected))
            self.poller.register(sock, select.EPOLLIN)
            self.slot_of_fd[sock.fileno()] = slot
            tally.connects += 1
        attack = w.attack_share > 0 and self.rngs[slot].random() < w.attack_share
        data = ATTACK if attack else self.batch_bytes
        conn.attack = attack
        conn.pos = 0
        conn.sends += 1
        self.busy += 1
        if attack:
            tally.attacks_sent += 1
        else:
            tally.benign_sent += w.batch
        conn.t_send = conn.t_last = time.perf_counter()
        try:
            # the socket is idle and its send buffer empty, so a few hundred
            # bytes always go in one call
            sent = conn.sock.send(data)
        except OSError:
            sent = -1
        if sent != len(data):
            self._fail(slot)
            return False
        return True

    def _on_readable(self, slot: int) -> None:
        conn, tally = self.conns[slot], self.tally
        if conn.pos < 0:
            # bytes or EOF while nothing is outstanding: the stream is broken
            tally.benign_failed += 1
            self._drop(slot)
            return
        if conn.attack:
            try:
                data = conn.sock.recv(4096)
            except BlockingIOError:
                return
            except OSError:  # a reset drops the connection just as well
                data = b""
            if data:
                tally.attacks_answered += 1
            else:
                tally.attacks_contained += 1
            self.busy -= 1
            self._drop(slot)
            self._next(slot, time.perf_counter())
            return
        pos = conn.pos
        try:
            n = conn.sock.recv_into(conn.view[pos:])
        except BlockingIOError:
            return
        except OSError:
            n = 0
        now = conn.t_last = time.perf_counter()
        if n == 0 or not conn.buf.startswith(self.expected_view[pos:pos + n], pos):
            self._fail(slot)
            self._next(slot, now)
            return
        end = pos + n
        done = end // self.frame_len - pos // self.frame_len
        if done:
            tally.benign_ok += done
            tally.last_done = now
            lat = (now - conn.t_send) * 1e6
            if done == 1:
                tally.latencies_us.append(lat)
            else:
                tally.latencies_us.extend([lat] * done)
        if end < len(self.expected):
            conn.pos = end
            return
        conn.pos = -1
        self.busy -= 1
        if self.workload.requests_per_conn and conn.sends >= self.workload.requests_per_conn:
            self._drop(slot)
        self._next(slot, now)

    def _fail(self, slot: int) -> None:
        """Fail the slot's outstanding batch and drop its connection."""
        conn, tally = self.conns[slot], self.tally
        if conn.attack:
            tally.attacks_unresolved += 1
        else:
            lost = self.workload.batch - conn.pos // self.frame_len
            tally.benign_failed += lost
            tally.latencies_us.extend([float("inf")] * lost)
        self.busy -= 1
        self._drop(slot)

    def _drop(self, slot: int) -> None:
        conn = self.conns[slot]
        if conn is None:
            return
        self.conns[slot] = None
        self.poller.unregister(conn.sock)
        del self.slot_of_fd[conn.sock.fileno()]
        conn.sock.close()
