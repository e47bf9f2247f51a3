"""The benchmark's traced server still finds every entry point it wraps.

``perfbench/traced_server.py`` patches the public calls of each layer by
name before the server starts.  A refactor that renames one of them, or
stops calling it through the name that is patched, would leave the
per-layer trace silently empty; this test runs the traced server once and
checks that the spans it reports were really taken.
"""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_frame(sock):
    head = bytearray()
    while not head.endswith(b"\n"):
        chunk = sock.recv(1)
        if not chunk:
            return None
        head += chunk
    kind, _, size = bytes(head[:-1]).partition(b" ")
    body = b""
    if kind == b"OK":
        while len(body) < int(size):
            body += sock.recv(int(size) - len(body))
    return kind, body


def test_traced_server_wraps_live_entry_points():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "traced_server.py"),
         "serve", "--mode", "domains", "--port", "0"],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("listening on "), banner
        port = int(banner.split()[2].rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"GET /t\n")
            assert read_frame(sock)[0] == b"OK"
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"A" * 200 + b"\n")
            assert read_frame(sock) is None, "the oversized line must be dropped"
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"STATS\n")
            kind, body = read_frame(sock)
            assert kind == b"OK" and b"rejected=1" in body
            sock.sendall(b"SHUTDOWN\n")
            assert read_frame(sock)[0] == b"OK"
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    marks = json.loads(out.strip().splitlines()[-1])["marks"]
    totals = marks[-1]["totals"]
    for name in ("domains.domain_call", "server.parse", "tlsf.malloc"):
        assert totals[name][0] > 0, f"{name} was never called through its wrapper"
    assert totals["domains.domain_call"][3] == 1, "one aborted domain_call"
