"""Wire protocol, parse vulnerability, and per-mode fault behavior of the server."""

import gc
import random
import select
import socket
import threading
import time
import warnings

import pytest

from capdomains import domains as domains_mod
from capdomains import server as server_mod
from capdomains.capmem import (
    BoundsViolation, Capability, FaultKind, FaultRecord, MemoryArena, ProtectionFault, TagViolation,
)
from capdomains.domains import DomainManager, MainDomainFault
from capdomains.tlsf import TlsfControl
from capdomains.server import (
    HEADER_BUF_LEN,
    GuardServer,
    ParseError,
    RequestLine,
    ServerConfig,
    parse_request_line,
)


def connect(port):
    return socket.create_connection(("127.0.0.1", port), timeout=5)


def read_response(sock):
    """Return (kind, info, body); kind is b'OK' or b'ERR', None on EOF."""
    line = bytearray()
    while not line.endswith(b"\n"):
        chunk = sock.recv(1)
        if not chunk:
            return None
        line += chunk
    head = bytes(line[:-1]).split(b" ", 1)
    if head[0] == b"OK":
        want = int(head[1])
        body = bytearray()
        while len(body) < want:
            chunk = sock.recv(want - len(body))
            if not chunk:
                return None
            body += chunk
        return (b"OK", want, bytes(body))
    return (b"ERR", head[1] if len(head) > 1 else b"", b"")


def roundtrip(sock, line):
    sock.sendall(line)
    return read_response(sock)


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def stats_fields(sock):
    kind, _, body = roundtrip(sock, b"STATS\n")
    assert kind == b"OK"
    return dict(kv.split(b"=") for kv in body.split())


def start_server(mode, payload_size=128, **kw):
    cfg = ServerConfig(listen_port=0, mode=mode, payload_size=payload_size, **kw)
    srv = GuardServer(cfg)
    srv.start()
    return srv


# ---------------------------------------------------------------- parser unit

def parse_buf(length=64):
    mgr = DomainManager(arena_size=1024 * 1024, default_heap_size=64 * 1024)
    return mgr, mgr.dalloc(length)


def test_parse_request_line_happy_path():
    _, buf = parse_buf()
    req = parse_request_line(b"GET /index\n", buf)
    assert isinstance(req, RequestLine)
    assert req.method == "GET"
    assert req.path == "/index"
    assert req.raw_len == 11
    # the copy really went through the capability
    assert buf.load(0, 11) == b"GET /index\n"


def test_a_parsed_line_makes_one_checked_access(monkeypatch):
    _, buf = parse_buf()
    calls = dict.fromkeys(("store", "load", "view"), 0)
    for name in calls:
        def counted(self, *args, _name=name, _fn=getattr(Capability, name)):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(Capability, name, counted)
    for line in (b"GET /index\n", b"BLAH\n"):
        try:
            parse_request_line(bytearray(line), buf)
        except ParseError:
            pass
    assert sum(calls.values()) == 2, calls
    # one byte over the buffer faults on that one access, as a store would
    with pytest.raises(BoundsViolation) as ei:
        parse_request_line(bytearray(b"A" * 64 + b"\n"), buf)
    assert ei.value.record == FaultRecord(FaultKind.BOUNDS, buf.base, 65)
    assert sum(calls.values()) == 3, calls


def test_parse_oversized_faults_before_corruption():
    mgr, buf = parse_buf(64)
    canary = mgr.dalloc(64)
    canary.store(0, b"C" * 64)
    before = mgr.arena.snapshot()
    with pytest.raises(BoundsViolation):
        parse_request_line(b"A" * 199 + b"\n", buf)
    after = mgr.arena.snapshot()
    assert before == after, "no byte beyond the buffer top may change"
    assert canary.load(0, 64) == b"C" * 64


def test_parse_exact_fit_is_benign():
    _, buf = parse_buf(64)
    line = b"GET /" + b"p" * 58 + b"\n"
    assert len(line) == 64
    req = parse_request_line(line, buf)
    assert req.raw_len == 64


@pytest.mark.parametrize(
    "junk",
    [b"BLAH\n", b"\n", b"GET\n", b"GET  /two-spaces\n", b" /nomethod\n", b"GET /x"],
)
def test_parse_malformed_lines(junk):
    _, buf = parse_buf()
    with pytest.raises(ParseError):
        parse_request_line(junk, buf)


# ---------------------------------------------------------------- wire basics

# the longest line the request buffer holds, terminator included
FULL_LINE = b"GET /" + b"f" * (HEADER_BUF_LEN - 6) + b"\n"


@pytest.mark.parametrize("mode", ["baseline", "tlsf", "domains"])
def test_roundtrip_and_keepalive(mode):
    srv = start_server(mode, payload_size=128)
    try:
        sock = connect(srv.port)
        assert len(FULL_LINE) == HEADER_BUF_LEN
        for line in (b"GET /hello\n", FULL_LINE, b"GET /hello\n"):
            kind, want, body = roundtrip(sock, line)
            assert kind == b"OK"
            assert want == 128 and len(body) == 128
        sock.close()
    finally:
        srv.stop()
        srv.join()


def test_zero_payload_valid_frame():
    srv = start_server("domains", payload_size=0)
    try:
        sock = connect(srv.port)
        kind, want, body = roundtrip(sock, b"GET /empty\n")
        assert (kind, want, body) == (b"OK", 0, b"")
        # frame still delimits correctly: a second request works
        assert roundtrip(sock, b"GET /again\n")[0] == b"OK"
        sock.close()
    finally:
        srv.stop()
        srv.join()


def test_responses_byte_identical_across_modes():
    replies = {}
    for mode in ("baseline", "tlsf", "domains"):
        srv = start_server(mode, payload_size=1024)
        try:
            sock = connect(srv.port)
            replies[mode] = roundtrip(sock, b"GET /same\n")
            sock.close()
        finally:
            srv.stop()
            srv.join()
    assert replies["baseline"] == replies["tlsf"] == replies["domains"]


def test_parse_error_keeps_connection():
    srv = start_server("domains")
    try:
        sock = connect(srv.port)
        kind, _, _ = roundtrip(sock, b"NONSENSE\n")
        assert kind == b"ERR"
        assert roundtrip(sock, b"GET /ok\n")[0] == b"OK"
        sock.close()
        time.sleep(0.05)
        stats = srv.stats_snapshot()
        assert stats.served == 2, "a malformed but answered request counts as served"
        assert stats.rejected_malicious == 0
    finally:
        srv.stop()
        srv.join()


# ---------------------------------------------------------------- resilience

ATTACK = b"A" * 200 + b"\n"
# one byte over the request buffer, the smallest line that trips the fault
JUST_OVER = b"GET /" + b"o" * (HEADER_BUF_LEN - 5) + b"\n"


def test_domains_mode_survives_oversized_request():
    assert len(JUST_OVER) == HEADER_BUF_LEN + 1
    for attack in (ATTACK, JUST_OVER):
        srv = start_server("domains")
        try:
            served = 0
            sock = connect(srv.port)
            for i in range(5):
                if i == 2:
                    sock.sendall(attack)
                    assert read_response(sock) is None, "attacked connection must drop"
                    sock.close()
                    sock = connect(srv.port)
                else:
                    assert roundtrip(sock, b"GET /n\n")[0] == b"OK"
                    served += 1
            sock.close()
            assert served == 4
            assert srv.alive
            time.sleep(0.05)
            stats = srv.stats_snapshot()
            assert stats.served == 4
            assert stats.rejected_malicious == 1
        finally:
            srv.stop()
            srv.join()


@pytest.mark.parametrize("mode", ["baseline", "tlsf"])
def test_unguarded_modes_die_on_oversized_request(mode):
    for attack in (ATTACK, JUST_OVER):
        srv = start_server(mode)
        try:
            sock = connect(srv.port)
            assert roundtrip(sock, b"GET /1\n")[0] == b"OK"
            assert roundtrip(sock, b"GET /2\n")[0] == b"OK"
            sock.sendall(attack)
            assert read_response(sock) is None
            sock.close()
            srv.join(timeout=5)
            assert not srv.alive
            assert srv.fatal is not None
            assert srv.fatal.record.kind.value == "bounds-violation"
            with pytest.raises(OSError):
                connect(srv.port)
        finally:
            srv.stop()
            srv.join()


def test_other_connections_unaffected_by_attack():
    srv = start_server("domains")
    try:
        benign = connect(srv.port)
        attacker = connect(srv.port)
        assert roundtrip(benign, b"GET /a\n")[0] == b"OK"
        attacker.sendall(ATTACK)
        assert read_response(attacker) is None
        attacker.close()
        for _ in range(3):
            assert roundtrip(benign, b"GET /b\n")[0] == b"OK"
        benign.close()
    finally:
        srv.stop()
        srv.join()


def test_resilience_randomized_trace():
    rng = random.Random(2024)
    srv = start_server("domains", payload_size=32)
    try:
        n, k = 60, 0
        sock = connect(srv.port)
        for _ in range(n):
            if rng.random() < 0.25:
                k += 1
                sock.sendall(ATTACK)
                assert read_response(sock) is None
                sock.close()
                sock = connect(srv.port)
            else:
                assert roundtrip(sock, b"GET /r\n")[0] == b"OK"
        sock.close()
        assert srv.alive
        time.sleep(0.05)
        stats = srv.stats_snapshot()
        assert stats.served == n - k
        assert stats.rejected_malicious == k
        assert stats.served + stats.rejected_malicious == n
    finally:
        srv.stop()
        srv.join()


def test_repeated_attacks_do_not_grow_reserved_bytes():
    srv = start_server("domains")
    try:
        def reserved_now(sock):
            return int(stats_fields(sock)[b"reserved"])

        sock = connect(srv.port)
        assert roundtrip(sock, b"GET /warm\n")[0] == b"OK"
        baseline_reserved = reserved_now(sock)
        for _ in range(100):
            sock.sendall(ATTACK)
            assert read_response(sock) is None
            sock.close()
            sock = connect(srv.port)
        assert reserved_now(sock) == baseline_reserved
        sock.close()
    finally:
        srv.stop()
        srv.join()


def test_closing_a_connection_that_survived_an_abort():
    # the abort discards the parse heap and the worker's buffer in it;
    # connections that outlive it are served, and closed, as before
    srv = start_server("domains")
    try:
        a, b = connect(srv.port), connect(srv.port)
        assert roundtrip(a, b"GET /a\n")[0] == b"OK"
        assert roundtrip(b, b"GET /b\n")[0] == b"OK"
        reserved = stats_fields(b)[b"reserved"]
        c = connect(srv.port)
        c.sendall(ATTACK)
        assert read_response(c) is None
        c.close()
        assert roundtrip(b, b"GET /b\n")[0] == b"OK"
        a.close()
        d = connect(srv.port)
        assert roundtrip(d, b"GET /d\n")[0] == b"OK"
        fields = stats_fields(d)
        assert fields[b"alive"] == b"1"
        assert fields[b"reserved"] == reserved
        assert srv.alive and srv.fatal is None
        b.close()
        d.close()
    finally:
        srv.stop()
        srv.join()


def test_after_an_abort_the_next_parse_takes_a_fresh_buffer(monkeypatch):
    # the abort discarded the heap that held the worker's buffer; parsing
    # into it again would write into the next heap through a stale capability
    bufs = []
    parse = server_mod.parse_request_line

    def recorded_parse(data, buf):
        bufs.append(buf)
        return parse(data, buf)

    monkeypatch.setattr(server_mod, "parse_request_line", recorded_parse)
    srv = start_server("domains")
    try:
        with connect(srv.port) as a:
            assert roundtrip(a, b"GET /a\n")[0] == b"OK"
            before = bufs[-1]
            with connect(srv.port) as c:
                c.sendall(ATTACK)
                assert read_response(c) is None
            assert roundtrip(a, b"GET /a\n")[0] == b"OK"
        assert bufs[-1] is not before
        assert srv.alive and srv.fatal is None
    finally:
        srv.stop()
        srv.join()


@pytest.mark.parametrize("mode", ["tlsf", "domains"])
def test_connections_take_no_buffer_of_their_own(mode, monkeypatch):
    calls = {"malloc": 0, "free": 0}

    def counted(name):
        method = getattr(TlsfControl, name)

        def wrapper(self, *args):
            if threading.current_thread().name.startswith("guard-"):
                calls[name] += 1
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(TlsfControl, "malloc", counted("malloc"))
    monkeypatch.setattr(TlsfControl, "free", counted("free"))
    srv = start_server(mode)
    try:
        for _ in range(8):
            with connect(srv.port) as sock:
                assert roundtrip(sock, b"GET /x\n")[0] == b"OK"
        with connect(srv.port) as probe:
            stats_fields(probe)
            stats_fields(probe)
        assert calls == {"malloc": 0, "free": 0}
    finally:
        srv.stop()
        srv.join()


def test_stats_after_an_abort_only_reads(monkeypatch):
    # the abort itself took the next buffer, so STATS provisions nothing
    events = []

    def on_guard_thread(owner, name):
        method = getattr(owner, name)

        def wrapper(self, *args):
            if threading.current_thread().name.startswith("guard-"):
                events.append(name)
            return method(self, *args)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((DomainManager, "domain_call"), (DomainManager, "heap_init"),
                        (GuardServer, "stats_snapshot")):  # stats_snapshot opens each STATS
        on_guard_thread(owner, name)
    srv = start_server("domains")
    try:
        with connect(srv.port) as c:
            c.sendall(ATTACK)
            assert read_response(c) is None
        with connect(srv.port) as probe:
            for _ in range(2):
                fields = stats_fields(probe)
                assert fields[b"heap_generation"] == b"2"
                assert fields[b"reserved"] == str(server_mod.HEAP_SIZE).encode()
        during = events[events.index("stats_snapshot"):]
        assert during == ["stats_snapshot", "stats_snapshot"]
        assert srv.alive and srv.fatal is None
    finally:
        srv.stop()
        srv.join()


# ---------------------------------------------------------------- send path

def read_exactly(sock, n):
    data = bytearray()
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            break
        data += chunk
    return bytes(data)


def test_pipelined_batches_are_answered_in_order_without_stalling():
    # replies to one batch used to go out one write each on a Nagle socket,
    # and every batch waited about 40 ms for the client's delayed ACK
    srv = start_server("domains", payload_size=0)
    try:
        sock = connect(srv.port)
        err = b"ERR expected-exactly-METHOD-SP-PATH\n"
        t0 = time.perf_counter()
        for rnd in range(50):
            lines = [b"GET /p\n"] * 16
            lines[rnd % 16] = b"BAD\n"
            sock.sendall(b"".join(lines))
            want = b"".join(err if line == b"BAD\n" else b"OK 0\n" for line in lines)
            assert read_exactly(sock, len(want)) == want
        elapsed = time.perf_counter() - t0
        sock.close()
        assert elapsed < 1.0, f"50 pipelined rounds took {elapsed:.2f} s"
    finally:
        srv.stop()
        srv.join()


def test_replies_to_one_read_share_a_write(monkeypatch):
    writes = []

    def counted(name):
        original = getattr(socket.socket, name)

        def call(self, *args):
            if threading.current_thread().name.startswith("guard-"):
                writes.append(name)
            return original(self, *args)

        return call

    for name in ("send", "sendall"):
        monkeypatch.setattr(socket.socket, name, counted(name))
    srv = start_server("domains", payload_size=128)
    try:
        sock = connect(srv.port)
        sock.sendall(b"GET /w\n" * 16)
        for _ in range(16):
            kind, want, body = read_response(sock)
            assert (kind, want, len(body)) == (b"OK", 128, 128)
        sock.close()
    finally:
        srv.stop()
        srv.join()
    assert 0 < len(writes) < 16, f"{len(writes)} server writes for 16 replies"


def test_one_read_is_parsed_in_one_domain_entry(monkeypatch):
    calls = {"domain_call": 0, "parse": 0}
    domain_call, parse = DomainManager.domain_call, server_mod.parse_request_line

    def counted_domain_call(self, udi, routine):
        if threading.current_thread().name.startswith("guard-"):
            calls["domain_call"] += 1
        return domain_call(self, udi, routine)

    def counted_parse(data, buf):
        calls["parse"] += 1
        return parse(data, buf)

    monkeypatch.setattr(DomainManager, "domain_call", counted_domain_call)
    monkeypatch.setattr(server_mod, "parse_request_line", counted_parse)
    srv = start_server("domains", payload_size=0)
    try:
        with connect(srv.port) as sock:
            sock.sendall(b"GET /w\n" * 16)
            assert read_exactly(sock, 16 * 5) == b"OK 0\n" * 16
            # the worker's buffer was taken at start, so the parse pass is
            # the read's only entry
            assert calls == {"domain_call": 1, "parse": 16}
    finally:
        srv.stop()
        srv.join()


def read_until_eof(sock):
    data = bytearray()
    while True:
        try:
            chunk = sock.recv(1 << 16)
        except ConnectionResetError:
            break
        if not chunk:
            break
        data += chunk
    return bytes(data)


@pytest.mark.parametrize("mode", ["baseline", "tlsf", "domains"])
def test_control_lines_in_a_batch_are_answered_in_order(mode):
    srv = start_server(mode, payload_size=128)
    ok = b"OK 128\n" + server_mod._payload_body(128)
    err = b"ERR expected-exactly-METHOD-SP-PATH\n"
    # the arena reservations each mode makes once, at start
    reserved = HEADER_BUF_LEN if mode == "baseline" else server_mod.HEAP_SIZE
    stats = (
        f"mode={mode} payload=128 served=2 rejected=0 bytes_out={len(ok) + len(err)} "
        f"reserved={reserved} heap_generation={int(mode == 'domains')} alive=1 overlong=0 evicted=0"
    ).encode("ascii")
    try:
        with connect(srv.port) as sock:
            sock.sendall(b"GET /a\nBAD\nSTATS\nGET /b\nSHUTDOWN\nGET /c\n")
            replies = read_until_eof(sock)
        assert replies == ok + err + b"OK %d\n" % len(stats) + stats + ok + b"OK 3\nbye"
        srv.join(timeout=5)
        assert not srv.alive and srv.fatal is None
        assert srv.stats_snapshot().served == 3, "the line after SHUTDOWN is unanswered"
    finally:
        srv.stop()
        srv.join()


def test_a_fault_mid_batch_parses_no_later_line():
    srv = start_server("domains", payload_size=0)
    try:
        with connect(srv.port) as sock:
            sock.sendall(b"GET /a\n" + ATTACK + b"GET /b\n")
            assert read_until_eof(sock) == b"OK 0\n"
        with connect(srv.port) as probe:
            fields = stats_fields(probe)
        assert (fields[b"served"], fields[b"rejected"]) == (b"1", b"1")
        assert srv.alive
    finally:
        srv.stop()
        srv.join()


def test_attack_mid_batch_answers_the_lines_before_it():
    srv = start_server("domains")
    try:
        sock = connect(srv.port)
        sock.sendall(b"GET /a\n" * 3 + ATTACK + b"GET /b\n")
        for _ in range(3):
            kind, want, body = read_response(sock)
            assert (kind, want, len(body)) == (b"OK", 128, 128)
        assert read_response(sock) is None, "the attacked connection must drop"
        sock.close()
        assert srv.alive
    finally:
        srv.stop()
        srv.join()


def test_a_client_that_never_reads_stalls_only_itself():
    srv = start_server("domains", payload_size=16384)
    hog = connect(srv.port)
    try:
        hog.sendall(b"GET /hog\n" * 4000)
        other = connect(srv.port)
        for _ in range(20):
            t0 = time.perf_counter()
            kind, want, _ = roundtrip(other, b"GET /other\n")
            assert (kind, want) == (b"OK", 16384)
            assert time.perf_counter() - t0 < 1.0
        other.close()
        # the paused client still gets every reply, whole and in order
        frame = b"OK 16384\n" + server_mod._payload_body(16384)
        total, pos = 4000 * len(frame), 0
        while pos < total:
            chunk = hog.recv(1 << 16)
            assert chunk, f"EOF after {pos} of {total} bytes"
            off = pos % len(frame)
            periodic = frame[off:] + frame * (len(chunk) // len(frame) + 1)
            assert chunk == periodic[: len(chunk)]
            pos += len(chunk)
        assert int(stats_fields(hog)[b"served"]) == 4020
    finally:
        hog.close()
        srv.stop()
        srv.join()


def test_a_reader_that_hangs_up_with_replies_queued_is_closed():
    srv = start_server("domains", payload_size=16384)
    try:
        with connect(srv.port) as probe:
            reserved = stats_fields(probe)[b"reserved"]
        # closing with replies unread makes the kernel reset the connection,
        # so the worker's next write to it fails
        hog = connect(srv.port)
        hog.sendall(b"GET /x\n" * 4000)
        hog.close()
        with connect(srv.port) as probe:
            served, last = stats_fields(probe)[b"served"], None
            while served != last:  # until the worker is done with the hog
                time.sleep(0.1)
                served, last = stats_fields(probe)[b"served"], served
            kind, want, _ = roundtrip(probe, b"GET /y\n")
            assert (kind, want) == (b"OK", 16384)
            assert stats_fields(probe)[b"reserved"] == reserved
        assert srv.alive
    finally:
        srv.stop()
        srv.join()


def test_overlong_line_drops_the_connection_and_is_counted():
    srv = start_server("domains")
    try:
        sock = connect(srv.port)
        sock.sendall(b"G" * (70 * 1024))
        try:
            assert sock.recv(1) == b""
        except ConnectionResetError:
            pass  # the close raced the last bytes in; dropped either way
        sock.close()
        with connect(srv.port) as probe:
            fields = stats_fields(probe)
        assert fields[b"overlong"] == b"1"
        assert fields[b"served"] == b"0" and fields[b"rejected"] == b"0"
    finally:
        srv.stop()
        srv.join()


@pytest.mark.parametrize("mode", server_mod.MODES)
def test_silent_clients_cannot_lock_out_a_newcomer(mode):
    # a full table of connections that each hold an unfinished line
    srv = start_server(mode)
    silent = []
    try:
        for _ in range(server_mod.MAX_CONNECTIONS):
            silent.append(connect(srv.port))
            silent[-1].sendall(b"GET /par")
        t0 = time.perf_counter()
        with connect(srv.port) as sock:
            assert roundtrip(sock, b"GET /x\n")[0] == b"OK"
            assert time.perf_counter() - t0 < 1.0
            assert stats_fields(sock)[b"evicted"] == b"1"
        readable, _, _ = select.select(silent, [], [], 1.0)
        assert [read_until_eof(s) for s in readable] == [b""], "one silent connection is evicted"
        assert srv.alive
    finally:
        for sock in silent:
            sock.close()
        srv.stop()
        srv.join()


@pytest.mark.parametrize("mode", server_mod.MODES)
def test_a_client_that_completed_a_line_last_is_not_evicted(mode):
    srv = start_server(mode)
    keep = connect(srv.port)
    others = []
    try:
        assert roundtrip(keep, b"GET /k\n")[0] == b"OK"
        for _ in range(server_mod.MAX_CONNECTIONS - 1):
            others.append(connect(srv.port))
            # the reply proves the worker holds it before keep's next line
            assert roundtrip(others[-1], b"GET /s\n")[0] == b"OK"
            others[-1].sendall(b"GET /par")
        for _ in range(3):
            assert roundtrip(keep, b"GET /k\n")[0] == b"OK"
            others.append(connect(srv.port))  # a newcomer to a full table
            assert roundtrip(others[-1], b"GET /n\n")[0] == b"OK"
        assert roundtrip(keep, b"GET /k\n")[0] == b"OK"
        assert stats_fields(keep)[b"evicted"] == b"3"
        # the three that went longest without a complete line
        assert [read_until_eof(s) for s in others[:3]] == [b""] * 3
    finally:
        for sock in [keep] + others:
            sock.close()
        srv.stop()
        srv.join()


# ---------------------------------------------------------------- plumbing

def test_stats_request_not_counted():
    srv = start_server("tlsf")
    try:
        sock = connect(srv.port)
        assert roundtrip(sock, b"GET /one\n")[0] == b"OK"
        kind, _, body = roundtrip(sock, b"STATS\n")
        assert kind == b"OK"
        fields = dict(kv.split(b"=") for kv in body.split())
        assert fields[b"mode"] == b"tlsf"
        assert fields[b"served"] == b"1"
        assert fields[b"alive"] == b"1"
        assert roundtrip(sock, b"STATS\n")[2].split()  # still parseable
        time.sleep(0.05)
        assert srv.stats_snapshot().served == 1
        sock.close()
    finally:
        srv.stop()
        srv.join()


def test_shutdown_request_drains_and_stops():
    srv = start_server("domains")
    try:
        sock = connect(srv.port)
        assert roundtrip(sock, b"GET /x\n")[0] == b"OK"
        kind, _, _ = roundtrip(sock, b"SHUTDOWN\n")
        assert kind == b"OK"
        sock.close()
        srv.join(timeout=5)
        assert not srv.alive
        assert srv.fatal is None
        with pytest.raises(OSError):
            connect(srv.port)
    finally:
        srv.stop()
        srv.join()


@pytest.mark.parametrize("payload", [1024, 4096, 16384])
def test_payload_sizes(payload):
    srv = start_server("baseline", payload_size=payload)
    try:
        sock = connect(srv.port)
        kind, want, body = roundtrip(sock, b"GET /p\n")
        assert kind == b"OK" and want == payload and len(body) == payload
        sock.close()
    finally:
        srv.stop()
        srv.join()


def test_stop_is_idempotent():
    srv = start_server("baseline")
    srv.stop()
    srv.join()
    srv.stop()
    assert not srv.alive


@pytest.mark.parametrize("mode", ["baseline", "tlsf", "domains"])
def test_stop_leaves_no_socket_open(mode):
    srv = start_server(mode)
    with connect(srv.port) as sock:
        assert roundtrip(sock, b"GET /x\n")[0] == b"OK"
        srv.stop()
        srv.join()
        srv.stop()
        assert not srv.alive
        assert sock.recv(1) == b""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        del srv
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


class RootlessArena(MemoryArena):
    """An arena whose arena-wide root is untagged: a capability minted from
    it faults, so only buffers derived from a region root work."""

    def __init__(self, size):
        super().__init__(size)
        self.root = self.root.untagged()


@pytest.mark.parametrize("mode", server_mod.MODES)
def test_buffers_derive_from_their_region_root_not_the_arena_root(mode, monkeypatch):
    monkeypatch.delenv("APP_HEAP_SIZE", raising=False)
    monkeypatch.setattr(server_mod, "MemoryArena", RootlessArena)
    monkeypatch.setattr(domains_mod, "MemoryArena", RootlessArena)
    srv = start_server(mode)
    try:
        with connect(srv.port) as sock:
            assert roundtrip(sock, b"GET /x\n")[0] == b"OK"
        if mode == "domains":
            with connect(srv.port) as sock:
                sock.sendall(ATTACK)
                assert read_response(sock) is None
            with connect(srv.port) as sock:
                assert roundtrip(sock, b"GET /y\n")[0] == b"OK"
        assert srv.alive and srv.fatal is None
    finally:
        srv.stop()
        srv.join()


@pytest.mark.parametrize("mode, payload_size, port, match", [
    pytest.param("bogus", 0, 0, "mode", id="bogus-0"),
    pytest.param("domains", -1, 0, "payload_size", id="domains--1"),
    pytest.param("domains", 0, 70000, "listen_port", id="port-70000"),
])
def test_config_refuses_a_bad_mode_or_payload_before_any_port_is_bound(mode, payload_size, port, match,
                                                                       monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a socket or an arena was made")

    for owner, name in ((server_mod.socket, "create_server"), (server_mod, "MemoryArena"),
                        (server_mod, "DomainManager")):
        monkeypatch.setattr(owner, name, never)
    with pytest.raises(ValueError, match=match):
        GuardServer(ServerConfig(listen_port=port, mode=mode, payload_size=payload_size)).start()


@pytest.mark.parametrize("heap_size", ["abc", "13328"])
def test_start_refuses_a_buffer_that_can_never_be_served(heap_size, monkeypatch):
    # 13,328 bytes lay out a heap whose only free block is 16 bytes, too
    # small for the request buffer; only domains mode takes its buffers
    # from the heap this sets
    monkeypatch.setenv("APP_HEAP_SIZE", heap_size)
    port = free_port()
    srv = GuardServer(ServerConfig(listen_port=port, mode="domains", payload_size=128))
    with pytest.raises(ValueError, match="domains mode .*APP_HEAP_SIZE"):
        srv.start()
    assert srv.port is None and not srv.alive
    with pytest.raises(OSError):
        connect(port)
    for mode in ("baseline", "tlsf"):
        srv = start_server(mode)
        try:
            with connect(srv.port) as sock:
                assert roundtrip(sock, b"GET /x\n")[0] == b"OK"
        finally:
            srv.stop()
            srv.join()


def test_a_fault_in_the_rearm_ends_the_worker_with_its_record(monkeypatch):
    # the first checked view after the attack's own fault is the re-arm's
    view = Capability.view
    faults = []

    def fault_the_rearm(self, offset, length):
        if len(faults) == 1:
            faults.append(TagViolation(self.address + offset, length))
            raise faults[1]
        try:
            return view(self, offset, length)
        except ProtectionFault as exc:
            faults.append(exc)
            raise

    monkeypatch.setattr(Capability, "view", fault_the_rearm)
    srv = start_server("domains")
    try:
        with connect(srv.port) as sock:
            sock.sendall(ATTACK)
            assert read_response(sock) is None
        srv.join(timeout=5)
        assert not srv.alive
        attack, injected = faults
        assert isinstance(attack, BoundsViolation)
        assert isinstance(srv.fatal, MainDomainFault)
        assert srv.fatal.record is injected.record
        assert injected.record.domain_udi == server_mod.PARSE_DOMAIN_UDI
        assert srv.stats_snapshot().rejected_malicious == 1
    finally:
        srv.stop()
        srv.join()


@pytest.mark.parametrize("mode", ["baseline", "tlsf", "domains"])
def test_worker_death_has_a_recorded_cause(mode, monkeypatch):
    boom = RuntimeError("parser crashed")

    def crash(data, buf):
        raise boom

    monkeypatch.setattr(server_mod, "parse_request_line", crash)
    srv = start_server(mode)
    try:
        sock = connect(srv.port)
        sock.sendall(b"GET /x\n")
        assert read_response(sock) is None
        sock.close()
        srv.join(timeout=5)
        assert not srv.alive
        assert srv.fatal is boom
        with pytest.raises(OSError):
            connect(srv.port)
    finally:
        srv.stop()
        srv.join()
