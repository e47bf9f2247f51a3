"""Tests of the load generator against scripted in-process fake servers."""

import socket
import threading
import time

import pytest

from loadgen import (ATTACK, REQUEST, LoadGenerator, Tally, Workload, attack_positions,
                     expected_frame)


class FakeServer:
    """Serves one connection at a time; ``reply(line)`` gives the chunks to
    write back (each written separately, so the client sees them in separate
    ``recv`` calls), or None to close the connection."""

    def __init__(self, reply):
        self.reply = reply
        self.lines = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self.stopping = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stopping.is_set():
            try:
                sock, _ = self.listener.accept()
            except socket.timeout:
                continue
            with sock:
                sock.settimeout(0.05)
                self._talk(sock)

    def _talk(self, sock):
        pending = b""
        while not self.stopping.is_set():
            try:
                data = sock.recv(4096)
            except socket.timeout:
                continue
            except OSError:  # the client drops a stream it rejected with a reset
                return
            if not data:
                return
            pending += data
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                self.lines.append(line + b"\n")
                chunks = self.reply(line + b"\n")
                if chunks is None:
                    return
                for chunk in chunks:
                    try:
                        sock.sendall(chunk)
                    except OSError:  # the client already dropped the stream
                        return
                    time.sleep(0.005)

    def close(self):
        self.stopping.set()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()
        self.listener.close()


def drive(workload, reply, seconds=0.3, seed=1):
    srv = FakeServer(reply)
    gen = LoadGenerator(workload, seed, "127.0.0.1", srv.port)
    tally = Tally()
    try:
        gen.run(seconds, tally)
    finally:
        gen.close()
        srv.close()
    return tally, srv.lines


def test_frames_split_across_recv_calls():
    frame = expected_frame(1024)
    # two pipelined frames, cut inside the header, the body and across the frame boundary
    both = frame * 2
    cuts = [1, 3, 600, len(frame) + 2, len(both)]
    sent = []

    def reply(line):
        sent.append(line)
        if len(sent) % 2:
            return []  # answer the batch once both lines are in
        return [both[a:b] for a, b in zip([0] + cuts, cuts)]

    tally, lines = drive(Workload("t", "domains", "1k", 1024, connections=1, batch=2), reply)
    assert tally.failed == 0
    assert tally.benign_ok >= 2 and tally.benign_ok == tally.benign_sent
    assert len(tally.latencies_us) == tally.benign_ok
    assert set(lines) == {REQUEST}


@pytest.mark.parametrize("bad", [b"ERR missing-line-terminator\n", b"OK 4\nxxxx"])
def test_wrong_reply_is_a_failure(bad):
    tally, _ = drive(Workload("t", "domains", "0k", 0, connections=1), lambda line: [bad])
    assert tally.benign_ok == 0
    assert tally.benign_failed == tally.benign_sent > 0
    assert tally.latencies_us and all(x == float("inf") for x in tally.latencies_us)


def test_oversized_line_dropped_with_eof_is_contained():
    def reply(line):
        return None if line == ATTACK else [expected_frame(0)]

    w = Workload("t", "domains", "0k", 0, connections=1, attack_share=0.5)
    tally, _ = drive(w, reply)
    assert tally.attacks_sent > 0
    assert tally.attacks_contained == tally.attacks_sent
    assert tally.failed == 0
    # every contained attack costs the caller a reconnect
    assert tally.connects in (tally.attacks_sent, tally.attacks_sent + 1)


def test_oversized_line_that_gets_an_answer_is_an_error():
    w = Workload("t", "domains", "0k", 0, connections=1, attack_share=1.0)
    tally, _ = drive(w, lambda line: [expected_frame(0)])
    assert tally.attacks_sent > 0
    assert tally.attacks_answered == tally.attacks_sent
    assert tally.attacks_contained == 0
    assert tally.failed == tally.attacks_sent


def test_same_seed_gives_same_attack_positions():
    first = attack_positions(7, 0, 0.02, 20000)
    assert first == attack_positions(7, 0, 0.02, 20000)
    assert first != attack_positions(8, 0, 0.02, 20000)
    assert first != attack_positions(7, 1, 0.02, 20000)
    assert 0.015 < len(first) / 20000 < 0.025

    # the generator sends exactly those positions, in send order
    def reply(line):
        return None if line == ATTACK else [expected_frame(0)]

    w = Workload("t", "domains", "0k", 0, connections=1, attack_share=0.3)
    tally, lines = drive(w, reply, seed=7)
    seen = [i for i, line in enumerate(lines) if line == ATTACK]
    assert len(lines) == tally.attempted > 10
    assert seen == attack_positions(7, 0, 0.3, len(lines))
