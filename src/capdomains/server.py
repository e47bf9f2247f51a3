"""A tiny TCP request server with a deliberately unsafe request-line parser.

The parser copies each incoming line into a fixed 64-byte buffer without
checking the length, which is the classic stack-smash shape.  Because the
buffer is a bounded capability, the overflow faults at the memory layer
instead of corrupting neighbours.  What happens next depends on the mode:

* ``baseline``  - the buffer is a bare arena region; a fault terminates
                  the worker (the unprotected contrast case).
* ``tlsf``      - the buffer comes from a real allocator heap; same fatal
                  behavior on fault, isolates the allocator's own cost.
* ``domains``   - the buffer comes from the heap of a nested isolation
                  domain and the parse runs inside it, one entry per read's
                  run of request lines; a fault discards that domain, drops
                  the offending connection, and the others keep being served.

The modes differ only in where the buffer comes from and whether the parse
is contained; the worker picks both once and then runs one path.
``GuardServer.listen`` builds that state, ``serve`` runs the worker in the
calling thread and ``start`` does both, the worker on a thread of its own.
The worker is single-threaded and a line stays in the buffer only while it is
parsed, so one buffer serves every connection.  In domains mode an abort
discards the parse heap and that buffer with it; the worker takes a fresh
one from a new heap at once, so it always holds a live buffer and ``STATS``
only reads counters.  A fault in taking it ends the worker with its record in a
``MainDomainFault``, not a retry, which would re-run the steps that just faulted.

Wire protocol, one line per request, keep-alive:

    request:   METHOD SP PATH LF
    response:  "OK"  SP <len> LF <len payload bytes>
               "ERR" SP <reason> LF            (malformed but benign)

Two control lines bypass the vulnerable parser: ``STATS\\n`` answers with
a key=value counters body, ``SHUTDOWN\\n`` drains and stops the worker.
Neither is counted in the request statistics.

Each connection has one outbound byte queue.  The complete lines of one
``recv`` are answered onto it in order, each run of request lines in one
parse pass, and then one non-blocking ``send`` takes what the socket will,
so a pipelined batch costs one write, not one per line.  Whatever the
socket does not take stays at the queue's head and the connection waits for
it to drain before it is read again.  A client that does not read its
replies is therefore paused, not served into an unbounded queue: no more of
its lines are answered once ``OUT_HIGH_WATER`` bytes wait for it, and the
other connections keep being served.  ``served`` and ``bytes_out`` count a
pass's replies when it ends, a fault that drops the connection included.
A line longer than ``MAX_LINE`` drops its connection, counted in ``overlong``.
A newcomer to a full table evicts the connection that has gone longest
without a complete line (``evicted``), so silent clients lock no one out.
Besides ``SHUTDOWN``, one signal stops the worker: a byte on its wake-up socket.
"""

import functools
import selectors
import socket
import threading
from typing import Dict, NamedTuple, Optional

from .capmem import Capability, MainDomainFault, MemoryArena, ProtectionFault

log = None  # the worker's logging.Logger, set by a caller that loads logging

MODES = ("baseline", "tlsf", "domains")
PAYLOAD_BYTES = {"0k": 0, "1k": 1024, "4k": 4096, "16k": 16384}
PARSE_DOMAIN_UDI = 1  # single nested domain reserved for request parsing

# enough for any benign request line; attacks must exceed it
HEADER_BUF_LEN = 64
OVERSIZE_LEN = 200  # the harness's attack line: > HEADER_BUF_LEN, so the parse faults
MAX_LINE = 64 * 1024  # reads beyond this without a newline are protocol abuse
# queued reply bytes at which a connection's lines stop being answered until
# the client reads; bounds what one non-reading client can make the worker hold
OUT_HIGH_WATER = 256 * 1024
HEAP_SIZE = 256 * 1024  # the tlsf worker heap and the domains parse heap
ARENA_SIZE = 4 * 1024 * 1024
MAX_CONNECTIONS = 64  # listen backlog and open-connection table size
_CONTROL = (b"STATS\n", b"SHUTDOWN\n")  # answered by the worker, never parsed
COUNTERS = ("served", "rejected", "bytes_out", "overlong", "evicted")  # as STATS names them


class ParseError(Exception):
    """Malformed request line; answered with ERR, never fatal."""


class RequestLine(NamedTuple):
    method: str
    path: str
    raw_len: int


_new_tuple = tuple.__new__  # builds a RequestLine as RequestLine._make does


class ServerConfig:
    __slots__ = ("listen_port", "mode", "payload_size", "host")

    def __init__(self, listen_port: int, mode: str, payload_size: int, host: str = "127.0.0.1"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if payload_size < 0:
            raise ValueError("payload_size must be >= 0")
        if not 0 <= listen_port <= 65535:
            raise ValueError(f"listen_port must be in 0..65535, got {listen_port}")
        self.listen_port = listen_port
        self.mode = mode
        self.payload_size = payload_size
        self.host = host


def parse_request_line(data: bytes, buf: Capability) -> RequestLine:
    """Copy ``data`` into ``buf`` and tokenize it as ``METHOD SP PATH LF``.

    The copy intentionally skips any length check: it goes through a window
    of ``buf`` sized by the input, not by the buffer, so input longer than the
    buffer raises a bounds fault from that window's one check, before a
    single out-of-bounds byte lands.  Tokenizing reads back through the same
    window, so the parsed request provably came from guarded memory.
    """
    window = buf.view(0, len(data))  # vulnerable on purpose: no length check
    window[:] = data
    line = window.tobytes()
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
    return _new_tuple(RequestLine, (method, path, len(line)))


class _Conn:
    __slots__ = ("sock", "rbuf", "out", "writing")

    def __init__(self, sock):
        self.sock = sock
        self.rbuf = bytearray()
        self.out = bytearray()  # queued reply bytes the socket has not taken yet
        self.writing = False  # registered for EVENT_WRITE, not READ, while a tail waits


def _payload_body(size: int) -> bytes:
    pattern = b"capability-backed-response-payload-0123456789abcdef-"
    reps = size // len(pattern) + 1
    return (pattern * reps)[:size]


class GuardServer:
    """One listener plus one worker that owns all per-mode state.

    :meth:`listen` builds the arena, allocator, and (in domains mode) the
    domain manager and binds the listener; :meth:`serve` hands them to the
    worker in the calling thread, and nothing else touches them after that.
    :meth:`start` does both, the worker on a daemon thread.  :meth:`stop`
    wakes the worker, which closes every socket of the server on its way out.
    """

    def __init__(self, config: ServerConfig):
        self.config = config
        self.port: Optional[int] = None
        self.fatal: Optional[BaseException] = None
        self._stats = dict.fromkeys(COUNTERS, 0)
        self._stats_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._state = None  # what the worker is handed: built by listen, used by serve
        self._listener: Optional[socket.socket] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._payload = _payload_body(config.payload_size)

    # ------------------------------------------------------------ lifecycle

    def listen(self) -> None:
        """Build the per-mode state, then bind the listener; a second call
        refuses.  A fault in taking the request buffer, or in domains mode an
        ``APP_HEAP_SIZE`` that leaves no heap able to hold it, raises ValueError first."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._state = self._mode_state()
        self._listener = socket.create_server(
            (self.config.host, self.config.listen_port),
            backlog=MAX_CONNECTIONS,
        )
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._wake_r, self._wake_w = socket.socketpair()

    def serve(self) -> None:
        """Run the worker in this thread until SHUTDOWN, stop() or a fatal fault."""
        self._worker(*self._state)

    def start(self) -> None:
        """:meth:`listen`, then :meth:`serve` on a daemon thread."""
        self.listen()
        self._thread = threading.Thread(
            target=self.serve, name=f"guard-{self.config.mode}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Wake the worker to exit; a no-op before listen and after the exit."""
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

    def stats_snapshot(self) -> Dict[str, int]:
        """A copy of the worker's counters, keyed by ``COUNTERS``."""
        with self._stats_lock:
            return dict(self._stats)

    # ------------------------------------------------------------ worker

    def _mode_state(self):
        """Per-mode state: the worker's one request buffer, how a parse is
        contained, and how the buffer is taken again after an abort.  Only
        the modes that run ``tlsf`` or ``domains`` import them, here, so a
        wrapper bound on either module beforehand still applies.  In domains
        mode the buffer is taken inside the parse domain, from the heap that
        ``APP_HEAP_SIZE`` sets.  One ``try`` refuses a fault in the first take."""
        mode = self.config.mode
        manager, refused, source = None, (), "its arena"
        if mode == "domains":
            from . import domains, tlsf
            manager = domains.DomainManager(arena_size=ARENA_SIZE, default_heap_size=HEAP_SIZE)
            arena = manager.arena
            refused = (tlsf.AllocationError, domains.HeapInitError)
            source = f"the heap that {domains.HEAP_SIZE_ENV} sets"

            def contain(job, *args):
                """Run a parse pass in the parse domain: the fault record if it aborted, else None."""
                outcome = manager.domain_call(PARSE_DOMAIN_UDI, functools.partial(job, *args))
                return outcome.fault if outcome.aborted else None

            def take_buffer():
                """The request buffer, from the parse domain's heap."""
                outcome = manager.domain_call(
                    PARSE_DOMAIN_UDI, functools.partial(manager.dalloc, HEADER_BUF_LEN))
                if outcome.aborted:  # no buffer, no serving
                    raise MainDomainFault(outcome.fault)
                return outcome.value
        else:
            arena = MemoryArena(ARENA_SIZE)
            if mode == "tlsf":
                from . import tlsf
                source = "its heap"

                def take_buffer():  # called once: only domains mode takes it again
                    heap = tlsf.tlsf_create_with_pool(arena.reserve(HEAP_SIZE), HEAP_SIZE)
                    return heap.malloc(HEADER_BUF_LEN)
            else:
                take_buffer = functools.partial(arena.reserve, HEADER_BUF_LEN)

            def contain(job, *args):
                return job(*args)  # unguarded: a fault in the parse kills the worker

        try:
            buf = take_buffer()
        except (ProtectionFault, MainDomainFault, *refused) as exc:
            raise ValueError(f"{mode} mode cannot take a {HEADER_BUF_LEN}-byte request buffer "
                             f"from {source}: {exc}") from exc
        return arena, manager, buf, contain, take_buffer

    def _worker(self, arena, manager, buf, contain, take_buffer) -> None:
        cfg = self.config
        sel = selectors.DefaultSelector()
        conns: Dict[socket.socket, _Conn] = {}
        shutting_down = False
        stats, stats_lock = self._stats, self._stats_lock

        def flush(conn: _Conn) -> None:
            """One non-blocking send of the queued bytes.  An unsent tail
            stays queued, and the connection then waits to be writable rather
            than readable until the tail is gone."""
            if conn.out:
                try:
                    del conn.out[: conn.sock.send(conn.out)]
                except BlockingIOError:
                    pass
                except OSError:
                    conn.out.clear()
                    close_conn(conn)
                    return
            if conn.writing != bool(conn.out):
                conn.writing = not conn.writing
                events = selectors.EVENT_WRITE if conn.writing else selectors.EVENT_READ
                sel.modify(conn.sock, events, conn)

        def close_conn(conn: _Conn) -> None:
            if conn.out:
                # best effort, so replies to the lines before a dropped one
                # still arrive ahead of the close
                try:
                    conn.sock.send(conn.out)
                except OSError:
                    pass
            try:
                sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conns.pop(conn.sock, None)
            try:
                conn.sock.close()
            except OSError:
                pass

        def stats_body() -> bytes:
            snap = self.stats_snapshot()
            gen = 0 if manager is None else manager.heap_generation(PARSE_DOMAIN_UDI)
            text = (
                f"mode={cfg.mode} payload={cfg.payload_size} "
                f"served={snap['served']} rejected={snap['rejected']} "
                f"bytes_out={snap['bytes_out']} reserved={arena.reserved_bytes} "
                f"heap_generation={gen} alive=1 "
                f"overlong={snap['overlong']} evicted={snap['evicted']}"
            )
            return text.encode("ascii")

        # the response body is fixed per server, so the frame is too
        ok_frame = b"OK %d\n" % len(self._payload) + self._payload
        done = 0  # where the last parse pass stopped, set even if it faulted

        def parse_lines(conn: _Conn, start: int, nl: int) -> None:
            """One parse pass from the request line ``rbuf[start : nl + 1]`` up to
            a control line, ``OUT_HIGH_WATER`` queued bytes or no complete line."""
            nonlocal done
            rbuf, out = conn.rbuf, conn.out
            try:
                while True:
                    try:
                        parse_request_line(rbuf[start : nl + 1], buf)
                        out += ok_frame
                    except ParseError as exc:
                        out += b"ERR %s\n" % str(exc).replace(" ", "-").encode("ascii")
                    start = nl + 1
                    nl = rbuf.find(b"\n", start)
                    if nl < 0 or len(out) >= OUT_HIGH_WATER or rbuf.startswith(_CONTROL, start):
                        break
            finally:
                done = start

        def answer(conn: _Conn) -> None:
            """Answer the complete lines in ``rbuf`` in order, each run of request
            lines in one parse pass, then flush.  Lines stop being taken at
            ``OUT_HIGH_WATER`` queued bytes and resume once a flush sent all."""
            nonlocal shutting_down, buf
            rbuf = conn.rbuf
            if b"\n"[0] in rbuf:  # a complete line: evicted last (an int is the fast test)
                conns[conn.sock] = conns.pop(conn.sock)
            while True:
                start = 0
                nl = rbuf.find(b"\n")
                while nl >= 0 and len(conn.out) < OUT_HIGH_WATER and not shutting_down:
                    if not rbuf.startswith(_CONTROL, start):
                        queued = len(conn.out)
                        try:
                            fault = contain(parse_lines, conn, start, nl)
                        finally:
                            # answered is answered: malformed requests count as served
                            with stats_lock:
                                stats["served"] += rbuf.count(b"\n", start, done)
                                stats["bytes_out"] += len(conn.out) - queued
                            start = done
                        if fault is not None:
                            if log is not None:
                                log.info("connection dropped after contained fault: %s", fault)
                            with stats_lock:
                                stats["rejected"] += 1
                            close_conn(conn)
                            buf = take_buffer()  # the discarded parse heap took the old one
                            return
                    elif rbuf.startswith(b"STATS\n", start):
                        body = stats_body()
                        conn.out += b"OK %d\n" % len(body) + body
                        start = nl + 1
                    else:
                        conn.out += b"OK 3\nbye"
                        shutting_down = True
                        start = nl + 1
                    nl = rbuf.find(b"\n", start)
                del rbuf[:start]
                if nl < 0 and len(rbuf) > MAX_LINE:
                    if log is not None:
                        log.info("connection dropped: %d bytes without a newline", len(rbuf))
                    with stats_lock:
                        stats["overlong"] += 1
                    close_conn(conn)
                    return
                flush(conn)
                if nl < 0 or conn.out or shutting_down or conn.sock not in conns:
                    return

        try:
            sel.register(self._listener, selectors.EVENT_READ, "accept")
            sel.register(self._wake_r, selectors.EVENT_READ, "wake")
            while not shutting_down:
                for key, _ in sel.select():
                    if key.data == "wake":
                        shutting_down = True
                    elif key.data == "accept":
                        try:
                            sock, _addr = self._listener.accept()
                        except OSError:
                            continue
                        if len(conns) >= MAX_CONNECTIONS:
                            close_conn(next(iter(conns.values())))
                            with stats_lock:
                                stats["evicted"] += 1
                        sock.setblocking(False)
                        # every write is whole frames, so Nagle could only delay them
                        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                        conn = _Conn(sock)
                        conns[sock] = conn
                        sel.register(sock, selectors.EVENT_READ, conn)
                    elif key.data.sock not in conns:
                        continue  # evicted earlier in this batch of events
                    elif key.data.writing:
                        # chosen by interest, not by the reported events: a
                        # hang-up or error reads as both readable and writable
                        answer(key.data)
                    else:
                        conn = key.data
                        try:
                            data = conn.sock.recv(65536)
                        except BlockingIOError:
                            continue
                        except OSError:
                            data = b""  # a reset reads as a hang-up
                        if data:
                            conn.rbuf += data
                            answer(conn)
                        else:
                            close_conn(conn)
        except (ProtectionFault, MainDomainFault) as exc:
            # the unguarded contrast case, or a fault in the re-arm: the worker dies here
            self.fatal = exc
            if log is not None:
                log.warning("worker terminated by protection fault: %s", exc)
        except Exception as exc:
            # anything else (a parser that raises something other than a
            # ParseError, say) is a cause to report too
            self.fatal = exc
            if log is not None:
                log.exception("worker terminated by %s", type(exc).__name__)
        finally:
            if log is not None:
                log.info("worker exiting: served=%(served)d rejected=%(rejected)d "
                         "bytes_out=%(bytes_out)d", self.stats_snapshot())
            for conn in list(conns.values()):
                close_conn(conn)
            sel.close()
            for s in (self._listener, self._wake_r, self._wake_w):
                try:
                    s.close()
                except OSError:
                    pass
