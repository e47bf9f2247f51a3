"""A tiny TCP request server with a deliberately unsafe request-line parser.

The parser copies each incoming line into a fixed 64-byte buffer without
checking the length, which is the classic stack-smash shape.  Because the
buffer is a bounded capability, the overflow faults at the memory layer
instead of corrupting neighbours.  What happens next depends on the mode:

* ``baseline``  - buffers come from a flat per-connection pool; a fault
                  terminates the worker (the unprotected contrast case).
* ``tlsf``      - buffers come from a real allocator heap; same fatal
                  behavior on fault, isolates the allocator's own cost.
* ``domains``   - buffers come from the heap of a nested isolation domain
                  and the parse runs inside it; a fault discards that
                  domain, drops the offending connection, and every other
                  connection keeps being served.

The modes differ only in where a connection's buffer comes from and
whether the parse is contained; the worker picks both once and then runs
one path.  Each connection takes its buffer on its first request and
returns it on close.  In domains mode an abort discards the parse heap and
with it every connection's buffer, so the worker forgets them all and each
surviving connection takes a fresh one from the new heap.

Wire protocol, one line per request, keep-alive:

    request:   METHOD SP PATH LF
    response:  "OK"  SP <len> LF <len payload bytes>
               "ERR" SP <reason> LF            (malformed but benign)

Two control lines bypass the vulnerable parser: ``STATS\\n`` answers with
a key=value counters body, ``SHUTDOWN\\n`` drains and stops the worker.
Neither is counted in the request statistics.

Replies are queued per connection and go out in one non-blocking write per
read: every complete line of one ``recv`` is answered first, so a pipelined
batch costs one ``send``, not one per line.  Whatever the socket does not
take stays queued and the connection waits for it to drain before it is
read again.  A client that does not read its replies is therefore paused,
not served into an unbounded queue: no more of its lines are answered once
``OUT_HIGH_WATER`` bytes wait for it, and the other connections keep being
served.  ``served`` and ``bytes_out`` count a reply when it is queued.  A
line longer than ``MAX_LINE`` drops its connection and counts in
``overlong``.
"""

import functools
import logging
import selectors
import socket
import threading
from dataclasses import dataclass, replace
from typing import Dict, Optional

from .capmem import (ArenaExhausted, Capability, MemoryArena, ProtectionFault,
                     round_representable_length)
from .domains import Aborted, DomainManager, HeapInitError, MainDomainFault
from .tlsf import AllocationError, tlsf_create_with_pool

log = logging.getLogger(__name__)

MODES = ("baseline", "tlsf", "domains")
PAYLOAD_BYTES = {"0k": 0, "1k": 1024, "4k": 4096, "16k": 16384}
PARSE_DOMAIN_UDI = 1  # single nested domain reserved for request parsing

# enough for any benign request line; attacks must exceed it
DEFAULT_HEADER_BUF_LEN = 64
MAX_LINE = 64 * 1024  # reads beyond this without a newline are protocol abuse
# queued reply bytes at which a connection's lines stop being answered until
# the client reads; bounds what one non-reading client can make the worker hold
OUT_HIGH_WATER = 256 * 1024


class ParseError(Exception):
    """Malformed request line; answered with ERR, never fatal."""


@dataclass(frozen=True)
class RequestLine:
    method: str
    path: str
    raw_len: int


@dataclass
class ConnectionStats:
    served: int = 0
    rejected_malicious: int = 0
    bytes_out: int = 0
    overlong: int = 0


@dataclass(frozen=True)
class ServerConfig:
    listen_port: int
    mode: str
    payload_size: int
    header_buf_len: int = DEFAULT_HEADER_BUF_LEN
    max_connections: int = 64
    host: str = "127.0.0.1"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.payload_size < 0 or self.header_buf_len < 16:
            raise ValueError("payload_size must be >= 0 and header_buf_len >= 16")


def parse_request_line(data: bytes, buf: Capability) -> RequestLine:
    """Copy ``data`` into ``buf`` and tokenize it as ``METHOD SP PATH LF``.

    The copy intentionally skips any length check: input longer than the
    buffer raises a bounds fault from the store itself, before a single
    out-of-bounds byte lands.  Tokenizing reads back through the same
    capability, so the parsed request provably came from guarded memory.
    """
    buf.store(0, data)  # vulnerable on purpose: no length check
    line = buf.load(0, len(data))
    if not line.endswith(b"\n"):
        raise ParseError("missing line terminator")
    parts = line[:-1].split(b" ")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError("expected exactly METHOD SP PATH")
    try:
        method = parts[0].decode("ascii")
        path = parts[1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError("non-ascii request line") from exc
    return RequestLine(method=method, path=path, raw_len=len(data))


class _FixedBufPool:
    """Baseline-mode buffer source: a flat slab with a LIFO slot free list.

    It answers to ``malloc``/``free`` like a TLSF heap; every slot holds
    ``each`` bytes, the rounded size of the one buffer a connection takes.
    """

    def __init__(self, arena: MemoryArena, each: int, count: int):
        self.each = round_representable_length(each)
        self.region = arena.reserve(self.each * count, tag="conn-buffers")
        self._root = arena.root
        self._free = list(range(count - 1, -1, -1))

    def malloc(self, _size: int) -> Capability:
        if not self._free:
            raise RuntimeError("connection buffer slots exhausted")
        slot = self._free.pop()
        addr = self.region.base + slot * self.each
        return self._root.address_set(addr).bounds_set(self.each)

    def free(self, cap: Capability) -> None:
        self._free.append((cap.base - self.region.base) // self.each)


class _Conn:
    __slots__ = ("sock", "rbuf", "out", "out_len", "events", "buf", "pending_line",
                 "parse_job")

    def __init__(self, sock):
        self.sock = sock
        self.rbuf = bytearray()
        self.out: list = []  # reply frames, oldest first; a partly sent one as a memoryview
        self.out_len = 0
        self.events = selectors.EVENT_READ  # READ, or WRITE while ``out`` holds a tail
        self.buf: Optional[Capability] = None
        self.pending_line = b""
        self.parse_job = None


def _payload_body(size: int) -> bytes:
    pattern = b"capability-backed-response-payload-0123456789abcdef-"
    if size == 0:
        return b""
    reps = size // len(pattern) + 1
    return (pattern * reps)[:size]


class GuardServer:
    """One listener plus one worker thread that owns all per-mode state.

    :meth:`start` builds the arena, allocator, and (in domains mode) the
    domain manager and hands them to the worker; nothing else touches them
    after that.  Tests and the benchmark talk to the server over its socket
    or through :meth:`stats_snapshot`.
    """

    def __init__(self, config: ServerConfig, heap_size: int = 256 * 1024,
                 arena_size: int = 4 * 1024 * 1024):
        self.config = config
        self.heap_size = heap_size
        self.arena_size = arena_size
        self.port: Optional[int] = None
        self.fatal: Optional[BaseException] = None
        self._stats = ConnectionStats()
        self._stats_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._listener: Optional[socket.socket] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._stop_flag = threading.Event()
        self._payload = _payload_body(config.payload_size)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Build the per-mode state, then listen and start the worker.  A
        request buffer that can never be served raises ValueError first."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        state = self._mode_state()
        self._listener = socket.create_server(
            (self.config.host, self.config.listen_port),
            backlog=self.config.max_connections,
        )
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._thread = threading.Thread(
            target=self._worker, args=state, name=f"guard-{self.config.mode}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop_flag.set()
        if self._wake_w is not None:
            try:
                self._wake_w.send(b"\x00")
            except OSError:
                pass

    def join(self, timeout: float = 10.0) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stats_snapshot(self) -> ConnectionStats:
        with self._stats_lock:
            return replace(self._stats)

    # ------------------------------------------------------------ worker

    def _mode_state(self):
        """Per-mode state: where buffers come from and whether a parse is
        contained.  One buffer is taken and returned as a probe, inside the
        parse domain in domains mode."""
        cfg, buf_len = self.config, self.config.header_buf_len
        manager: Optional[DomainManager] = None
        try:
            if cfg.mode == "domains":
                manager = DomainManager(arena_size=self.arena_size,
                                        default_heap_size=self.heap_size)
                arena = manager.arena
                malloc = manager.dalloc  # the parse job runs inside the parse domain

                def free(cap: Capability) -> None:
                    manager.domain_call(PARSE_DOMAIN_UDI, lambda: manager.dfree(cap))

                def contain(job):
                    return functools.partial(manager.domain_call, PARSE_DOMAIN_UDI, job)

                manager.domain_call(PARSE_DOMAIN_UDI, lambda: manager.dfree(malloc(buf_len)))
            else:
                arena = MemoryArena(self.arena_size)
                if cfg.mode == "tlsf":
                    region = arena.reserve(self.heap_size, tag="worker-heap")
                    heap_cap = arena.root.address_set(region.base).bounds_set(region.length)
                    heap = tlsf_create_with_pool(heap_cap, self.heap_size)
                else:
                    heap = _FixedBufPool(arena, buf_len, cfg.max_connections)
                malloc, free = heap.malloc, heap.free

                def contain(job):
                    return job  # unguarded: a fault in the parse kills the worker

                free(malloc(buf_len))
        except (ArenaExhausted, AllocationError, HeapInitError) as exc:
            raise ValueError(
                f"{cfg.mode} mode cannot serve a {buf_len}-byte request buffer (--buf-len): {exc}"
            ) from exc
        return arena, manager, malloc, free, contain

    def _worker(self, arena, manager, malloc, free, contain) -> None:
        cfg = self.config
        sel = selectors.DefaultSelector()
        conns: Dict[socket.socket, _Conn] = {}
        shutting_down = False

        def bump(served=0, rejected=0, out=0, overlong=0):
            with self._stats_lock:
                self._stats.served += served
                self._stats.rejected_malicious += rejected
                self._stats.bytes_out += out
                self._stats.overlong += overlong

        def send(conn: _Conn, frame: bytes) -> None:
            conn.out.append(frame)
            conn.out_len += len(frame)

        def flush(conn: _Conn) -> None:
            """One non-blocking send of every queued frame.  An unsent tail
            stays queued, and the connection then waits to be writable rather
            than readable until the tail is gone."""
            out = conn.out
            if out:
                data = out[0] if len(out) == 1 else b"".join(out)
                try:
                    sent = conn.sock.send(data)
                except BlockingIOError:
                    sent = 0
                except OSError:
                    out.clear()
                    close_conn(conn)
                    return
                out.clear()
                conn.out_len = len(data) - sent
                if conn.out_len:
                    out.append(memoryview(data)[sent:])
            events = selectors.EVENT_WRITE if out else selectors.EVENT_READ
            if events != conn.events:
                sel.modify(conn.sock, events, conn)
                conn.events = events

        def close_conn(conn: _Conn) -> None:
            if conn.out:
                # best effort, so replies to the lines before a dropped one
                # still arrive ahead of the close
                try:
                    conn.sock.send(b"".join(conn.out))
                except OSError:
                    pass
                conn.out.clear()
            try:
                sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conns.pop(conn.sock, None)
            try:
                conn.sock.close()
            except OSError:
                pass
            if conn.buf is not None:
                free(conn.buf)
                conn.buf = None

        def stats_body() -> bytes:
            snap = self.stats_snapshot()
            gen = 0
            if manager is not None:
                # provision first so reserved and heap_generation describe the
                # same instant (a just-aborted parse heap would otherwise report
                # generation 0 next to its re-provisioned reservation)
                manager.domain_call(PARSE_DOMAIN_UDI, manager.heap_init)
                gen = manager.heap_generation(PARSE_DOMAIN_UDI)
            text = (
                f"mode={cfg.mode} payload={cfg.payload_size} "
                f"served={snap.served} rejected={snap.rejected_malicious} "
                f"bytes_out={snap.bytes_out} reserved={arena.reserved_bytes} "
                f"heap_generation={gen} alive=1 overlong={snap.overlong}"
            )
            return text.encode("ascii")

        # the response body is fixed per server, so the frame is too
        ok_frame = b"OK %d\n" % len(self._payload) + self._payload
        ok_frame_len = len(ok_frame)

        def respond_err(conn: _Conn, reason: str) -> None:
            frame = b"ERR " + reason.encode("ascii") + b"\n"
            send(conn, frame)
            # answered is answered: malformed requests count as served
            bump(served=1, out=len(frame))

        def make_parse_job(conn: _Conn):
            # built once per connection so the per-request path allocates
            # nothing beyond what the parse itself needs
            def job():
                if conn.buf is None:
                    conn.buf = malloc(cfg.header_buf_len)
                return parse_request_line(conn.pending_line, conn.buf)

            return contain(job)

        def handle_line(conn: _Conn, line: bytes) -> None:
            nonlocal shutting_down
            if line == b"STATS\n":
                frame_body = stats_body()
                send(conn, b"OK %d\n" % len(frame_body) + frame_body)
                return
            if line == b"SHUTDOWN\n":
                send(conn, b"OK 3\nbye")
                shutting_down = True
                return
            conn.pending_line = line
            outcome = conn.parse_job()
            if isinstance(outcome, Aborted):
                log.info("connection dropped after contained fault: %s", outcome.fault)
                bump(rejected=1)
                # the discarded parse heap took every connection's buffer with it
                for other in conns.values():
                    other.buf = None
                close_conn(conn)
                return
            send(conn, ok_frame)
            bump(served=1, out=ok_frame_len)

        def answer(conn: _Conn) -> None:
            """Answer the complete lines in ``rbuf``, then flush.  Lines stop
            being taken at ``OUT_HIGH_WATER`` queued bytes and resume once a
            flush has sent everything."""
            rbuf = conn.rbuf
            while True:
                start = 0
                nl = rbuf.find(b"\n")
                while nl >= 0 and conn.out_len < OUT_HIGH_WATER and not shutting_down:
                    line = bytes(rbuf[start : nl + 1])
                    start = nl + 1
                    try:
                        handle_line(conn, line)
                    except ParseError as exc:
                        respond_err(conn, str(exc).replace(" ", "-"))
                    if conn.sock not in conns:
                        return
                    nl = rbuf.find(b"\n", start)
                del rbuf[:start]
                if nl < 0 and len(rbuf) > MAX_LINE:
                    log.info("connection dropped: %d bytes without a newline", len(rbuf))
                    bump(overlong=1)
                    close_conn(conn)
                    return
                flush(conn)
                if nl < 0 or conn.out or shutting_down or conn.sock not in conns:
                    return

        def pump(conn: _Conn) -> None:
            try:
                data = conn.sock.recv(65536)
            except BlockingIOError:
                return
            except OSError:
                close_conn(conn)
                return
            if not data:
                close_conn(conn)
                return
            conn.rbuf += data
            answer(conn)

        try:
            sel.register(self._listener, selectors.EVENT_READ, "accept")
            sel.register(self._wake_r, selectors.EVENT_READ, "wake")
            while not shutting_down and not self._stop_flag.is_set():
                for key, _ in sel.select(timeout=0.5):
                    if key.data == "wake":
                        try:
                            self._wake_r.recv(4096)
                        except OSError:
                            pass
                    elif key.data == "accept":
                        try:
                            sock, _addr = self._listener.accept()
                        except OSError:
                            continue
                        if len(conns) >= self.config.max_connections:
                            sock.close()
                            continue
                        sock.setblocking(False)
                        # every write is whole frames, so Nagle could only delay them
                        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                        conn = _Conn(sock)
                        conn.parse_job = make_parse_job(conn)
                        conns[sock] = conn
                        sel.register(sock, selectors.EVENT_READ, conn)
                    elif key.data.events == selectors.EVENT_READ:
                        pump(key.data)
                    else:
                        # chosen by interest, not by the reported events: a
                        # hang-up or error reads as both readable and writable
                        answer(key.data)
        except (ProtectionFault, MainDomainFault) as exc:
            # the unguarded contrast case: the worker context dies here
            self.fatal = exc
            log.warning("worker terminated by protection fault: %s", exc)
        except Exception as exc:
            # anything else (a heap that runs out under many connections,
            # say) is a cause to report too
            self.fatal = exc
            log.exception("worker terminated by %s", type(exc).__name__)
        finally:
            snap = self.stats_snapshot()
            log.info(
                "worker exiting: served=%d rejected=%d bytes_out=%d",
                snap.served, snap.rejected_malicious, snap.bytes_out,
            )
            for conn in list(conns.values()):
                close_conn(conn)
            sel.close()
            for s in (self._listener, self._wake_r):
                try:
                    s.close()
                except OSError:
                    pass
