"""CLI surface: argument wiring and end-to-end subcommand smoke runs."""

import contextlib
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from capdomains import server as server_mod
from capdomains.capmem import BoundsViolation, Capability, TagViolation
from capdomains.cli import main, parse_args
from capdomains.server import GuardServer, ServerConfig


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_parser_defaults():
    args = parse_args(["serve"])
    assert args.mode == "domains"
    assert args.payload == "0k"
    args = parse_args(["bench", "--port", "9"])
    assert args.connections == 8
    assert args.duration == 10.0
    assert args.reps == 3
    assert args.malicious_ratio == 0.0
    with pytest.raises(SystemExit):
        parse_args(["serve", "--mode", "nonsense"])
    with pytest.raises(SystemExit):
        parse_args(["bench"])  # port is required
    args = parse_args(["attack", "--port", "9"])
    assert args.oversize == server_mod.OVERSIZE_LEN == 200
    assert args.oversize > server_mod.HEADER_BUF_LEN


SERVING_MODULES = {
    "baseline": ["capdomains", "capdomains.capmem", "capdomains.cli", "capdomains.server"],
    "tlsf": ["capdomains", "capdomains.capmem", "capdomains.cli", "capdomains.server",
             "capdomains.tlsf"],
    "domains": ["capdomains", "capdomains.capmem", "capdomains.cli", "capdomains.domains",
                "capdomains.server", "capdomains.tlsf"],
}


def test_serve_loads_only_the_serving_modules():
    # a fresh interpreter per mode, because pytest itself has loaded dataclasses
    probe = (
        "import sys; from capdomains import cli; "
        "args = cli.parse_args(['serve', '--mode', sys.argv[1]]); "
        "srv = cli.GuardServer(cli.ServerConfig(args.port, args.mode, 0)); srv.listen(); "
        "print(*sorted(m for m in sys.modules if m.startswith('capdomains'))); "
        "print(*[m for m in ('capdomains.bench', 'dataclasses', 'statistics', 'csv', 'logging', "
        "'argparse', 'gettext') if m in sys.modules]); "
        "srv.stop(); srv.serve()"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    for mode, modules in SERVING_MODULES.items():
        out = subprocess.run(
            [sys.executable, "-c", probe, mode], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split("\n")
        assert out[0].split() == modules, mode
        assert out[1].split() == [], f"{mode}: serve loaded the harness, its imports, logging or argparse"


COMMAND_NAMES = ["serve", "bench", "attack", "demo", "compare"]
USAGE_SERVE = "usage: capdomains serve [-h] [--port PORT] [--mode {baseline,tlsf,domains}]"
USAGE_TOP = "usage: capdomains [-h] [-v] {serve,bench,attack,demo,compare} ..."


@pytest.mark.parametrize("argv, expected", [
    (["serve"], dict(command="serve", verbose=False, port=0, mode="domains", payload="0k",
                     host="127.0.0.1")),
    (["bench", "--port", "9"], dict(command="bench", verbose=False, host="127.0.0.1", port=9,
                                    connections=8, duration=10.0, payload="0k", malicious_ratio=0.0,
                                    reps=3, out=None, seed=None)),
    (["attack", "--port", "9"], dict(command="attack", verbose=False, host="127.0.0.1", port=9,
                                     oversize=200)),
    (["demo"], dict(command="demo", verbose=False)),
    (["compare"], dict(command="compare", verbose=False, connections=8, duration=10.0, reps=3,
                       modes="baseline,tlsf,domains", payloads="0k,1k,4k,16k", out=None,
                       compare_out=None, seed=None)),
    (["-v", "serve", "--mode=tlsf", "--payload", "16k", "--port=8900", "--host", "0.0.0.0"],
     dict(command="serve", verbose=True, port=8900, mode="tlsf", payload="16k", host="0.0.0.0")),
    (["--verbose", "bench", "--port=9", "--malicious-ratio", "-0.5", "--duration=0.25", "--seed", "7",
      "--out=rows.csv", "--reps", "1", "--connections", "2", "--payload=1k", "--host", "h"],
     dict(command="bench", verbose=True, host="h", port=9, connections=2, duration=0.25,
          payload="1k", malicious_ratio=-0.5, reps=1, out="rows.csv", seed=7)),
    (["compare", "--modes=baseline", "--compare-out", "c=1.csv", "--compare-out=last.csv"],
     dict(command="compare", verbose=False, connections=8, duration=10.0, reps=3,
          modes="baseline", payloads="0k,1k,4k,16k", out=None, compare_out="last.csv", seed=None)),
])
def test_parser_reads_every_command(argv, expected):
    assert vars(parse_args(argv)) == expected


@pytest.mark.parametrize("argv, usage, reason", [
    ([], USAGE_TOP, "capdomains: error: the following arguments are required: command"),
    (["-v"], USAGE_TOP, "the following arguments are required: command"),
    (["serv"], USAGE_TOP, "argument command: invalid choice: 'serv' (choose from 'serve', "),
    (["serve", "--nope", "1"], USAGE_TOP, "unrecognized arguments: --nope 1"),
    (["serve", "extra"], USAGE_TOP, "unrecognized arguments: extra"),
    (["serve", "-v"], USAGE_TOP, "unrecognized arguments: -v"),
    (["bench", "--conn", "2", "--port", "9"], USAGE_TOP, "unrecognized arguments: --conn"),
    (["serve", "--port"], USAGE_SERVE, "capdomains serve: error: argument --port: expected one argument"),
    (["serve", "--host", "--port", "1"], USAGE_SERVE, "argument --host: expected one argument"),
    (["serve", "--port", "x"], USAGE_SERVE, "argument --port: invalid int value: 'x'"),
    (["serve", "--port=1.5"], USAGE_SERVE, "argument --port: invalid int value: '1.5'"),
    (["bench", "--port", "9", "--duration", "soon"], "usage: capdomains bench [-h] [--host HOST] --port PORT",
     "argument --duration: invalid float value: 'soon'"),
    (["serve", "--mode", "nonsense"], USAGE_SERVE,
     "argument --mode: invalid choice: 'nonsense' (choose from 'baseline', 'tlsf', 'domains')"),
    (["serve", "--payload=2k"], USAGE_SERVE, "argument --payload: invalid choice: '2k'"),
    (["bench"], "usage: capdomains bench", "the following arguments are required: --port"),
    (["attack", "--oversize", "300"], "usage: capdomains attack [-h] [--host HOST] --port PORT [--oversize OVERSIZE]",
     "capdomains attack: error: the following arguments are required: --port"),
])
def test_parser_refuses_a_bad_command_line_with_usage_and_exit_2(argv, usage, reason, capsys):
    with pytest.raises(SystemExit) as exited:
        parse_args(argv)
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    first, second = err.splitlines()
    assert first.startswith(usage)
    assert reason in second and second.startswith("capdomains")


@pytest.mark.parametrize("argv, shown", [
    (["-h"], ["commands:", *COMMAND_NAMES, "--verbose", "log at INFO level"]),
    (["-v", "--help", "serve"], ["commands:", *COMMAND_NAMES]),
    (["serve", "-h"], ["--port PORT", "0 picks a free port (default: 0)",
                       "--mode {baseline,tlsf,domains}", "(default: domains)", "(default: 127.0.0.1)"]),
    (["bench", "--reps", "1", "--help"], ["--port PORT", "(required)", "--malicious-ratio MALICIOUS_RATIO",
                                          "(default: 0.0)", "desk-scale default (default: 3)"]),
    (["attack", "-h"], ["--oversize OVERSIZE", "(default: 200)"]),
    (["demo", "-h"], ["five-request scenario"]),
    (["compare", "-h"], ["--compare-out COMPARE_OUT", "(default: baseline,tlsf,domains)"]),
])
def test_help_prints_the_commands_or_options_and_exits_0(argv, shown, capsys):
    with pytest.raises(SystemExit) as exited:
        parse_args(argv)
    assert exited.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: capdomains ")
    for text in shown:
        assert text in out


def _default_sigint():
    # a runner started as a background job hands its children SIGINT ignored,
    # and Python then installs no KeyboardInterrupt handler
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@contextlib.contextmanager
def serve_process(*args):
    """A fresh interpreter run with ``args`` (``capdomains serve`` if none) and
    the port it serves on, once it has printed its banner."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, *(args or ("-m", "capdomains.cli", "serve", "--port", "0"))],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_default_sigint,
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            banner = proc.stdout.readline() if sel.select(60) else b""
        found = re.search(rb"^listening on [^ ]+:(\d+) ", banner)
        assert found, f"no banner: {banner!r}"
        yield proc, int(found.group(1))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def shut_down(port):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(b"SHUTDOWN\n")
        with sock.makefile("rb") as reply:
            assert reply.read() == b"OK 3\nbye"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_serve_runs_its_worker_on_the_main_thread():
    with serve_process() as (proc, port):
        with open(f"/proc/{proc.pid}/status") as fh:
            threads = [line.split()[1] for line in fh if line.startswith("Threads:")]
        assert threads == ["1"]
        shut_down(port)
        assert proc.wait(timeout=10) == 0


def test_serve_exits_cleanly_on_sigint():
    with serve_process() as (proc, port):
        proc.send_signal(signal.SIGINT)
        _out, err = proc.communicate(timeout=10)
        assert proc.returncode == 0
        assert err == b""
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


def test_a_serving_process_never_loads_logging():
    probe = (
        "import sys; from capdomains import cli; "
        "rc = cli.main(['serve', '--port', '0']); "
        "print(rc, 'logging' in sys.modules)"
    )
    with serve_process("-c", probe) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"STATS\n")
            with sock.makefile("rb") as reply:
                head = reply.readline()
                assert head.startswith(b"OK ") and b"alive=1" in reply.read(int(head[3:]))
        shut_down(port)
        out, err = proc.communicate(timeout=10)
    assert out.split() == [b"0", b"False"], err


@pytest.mark.parametrize("verbose", [True, False])
def test_serve_logs_one_line_per_contained_fault_only_under_verbose(verbose):
    flags = ["-v"] if verbose else []
    with serve_process("-m", "capdomains.cli", *flags, "serve", "--port", "0") as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"A" * server_mod.OVERSIZE_LEN + b"\n")
            assert sock.recv(1) == b""
        shut_down(port)
        _out, err = proc.communicate(timeout=10)
    assert proc.returncode == 0
    if verbose:
        faults = [line for line in err.decode().splitlines() if "contained fault" in line]
        assert len(faults) == 1
        assert "bounds-violation" in faults[0]
        assert f"access_len={server_mod.OVERSIZE_LEN + 1}" in faults[0]
    else:
        assert err == b""


def test_a_worker_death_under_verbose_is_reported_once():
    # the worker logs the cause, so the command does not print it again
    command = ("-m", "capdomains.cli", "-v", "serve", "--mode", "baseline", "--port", "0")
    with serve_process(*command) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"A" * server_mod.OVERSIZE_LEN + b"\n")
            assert sock.recv(1) == b""
        _out, err = proc.communicate(timeout=10)
    assert proc.returncode == 1
    deaths = [line for line in err.decode().splitlines() if "worker terminated by" in line]
    assert len(deaths) == 1, err
    assert "bounds-violation" in deaths[0]


def test_a_second_listen_or_start_is_refused_and_binds_nothing(monkeypatch):
    running = GuardServer(ServerConfig(listen_port=0, mode="domains", payload_size=0))
    running.start()
    listening = GuardServer(ServerConfig(listen_port=0, mode="baseline", payload_size=0))
    listening.listen()
    try:
        def never(*args, **kwargs):
            raise AssertionError("a refused call built or bound something")

        with monkeypatch.context() as patch:
            for name in ("create_server", "socketpair"):
                patch.setattr(socket, name, never)
            patch.setattr(GuardServer, "_mode_state", never)
            for srv in (running, listening):
                port = srv.port
                for again in (srv.listen, srv.start):
                    with pytest.raises(RuntimeError, match="already started"):
                        again()
                assert srv.port == port
        assert running.alive and not listening.alive
        with socket.create_connection(("127.0.0.1", running.port), timeout=5) as sock:
            sock.sendall(b"GET /still-served\n")
            with sock.makefile("rb") as reply:
                assert reply.readline() == b"OK 0\n"
    finally:
        running.stop()
        running.join()
        listening.stop()
        listening.serve()  # wakes at once and closes its sockets


def test_serve_until_shutdown_request():
    port = free_port()
    rc = {}

    def run():
        rc["value"] = main(["serve", "--port", str(port), "--mode", "domains"])

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5
    sock = None
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=1)
            break
        except OSError:
            time.sleep(0.05)
    assert sock is not None, "serve never started listening"
    sock.sendall(b"GET /cli\n")
    head = b""
    while not head.endswith(b"\n"):
        head += sock.recv(1)
    assert head.startswith(b"OK ")
    sock.sendall(b"SHUTDOWN\n")
    thread.join(timeout=5)
    assert rc.get("value") == 0
    sock.close()


def serve_a_crashing_parser(fault, mode, capsys, monkeypatch):
    """Run ``serve`` in-process, as without -v, until a parser that raises
    ``fault`` kills the worker; returns the exit code and stderr."""
    def crash(data, buf):
        raise fault

    monkeypatch.setattr(server_mod, "parse_request_line", crash)
    monkeypatch.setattr(server_mod, "log", None)  # an earlier harness command may have set it
    port = free_port()
    rc = {}

    def run():
        rc["value"] = main(["serve", "--port", str(port), "--mode", mode])

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5
    sock = None
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=1)
            break
        except OSError:
            time.sleep(0.05)
    assert sock is not None, "serve never started listening"
    sock.sendall(b"GET /x\n")
    assert sock.recv(1) == b""
    sock.close()
    thread.join(timeout=5)
    return rc.get("value"), capsys.readouterr().err


def test_serve_exits_nonzero_when_the_worker_dies(capsys, monkeypatch):
    rc, err = serve_a_crashing_parser(RuntimeError("parser crashed"), "domains", capsys, monkeypatch)
    assert rc == 1
    assert err.count("worker terminated by RuntimeError: parser crashed") == 1
    # a cause that is not a protection fault comes with its traceback
    assert "Traceback (most recent call last)" in err and "in crash" in err


def test_serve_prints_a_fatal_protection_fault_once_without_a_traceback(capsys, monkeypatch):
    fault = BoundsViolation(0, 7)
    rc, err = serve_a_crashing_parser(fault, "baseline", capsys, monkeypatch)
    assert rc == 1
    assert err == f"worker terminated by BoundsViolation: {fault}\n"


@pytest.mark.parametrize("mode", ["tlsf", "domains"])
def test_serve_reports_a_fault_in_taking_its_first_buffer(mode, capsys, monkeypatch):
    view = Capability.view
    injected = []

    def fault_the_first_view(self, offset, length):
        if not injected:
            injected.append(TagViolation(self.address + offset, length))
            raise injected[0]
        return view(self, offset, length)

    monkeypatch.setattr(Capability, "view", fault_the_first_view)
    rc = main(["serve", "--port", "0", "--mode", mode])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "listening on" not in out
    assert err.startswith(f"error: {mode} mode cannot take a ")
    # domains mode names the fault's record, as the parse domain stamped it
    assert str(injected[0].record if mode == "domains" else injected[0]) in err
    udi = server_mod.PARSE_DOMAIN_UDI if mode == "domains" else 0
    assert injected[0].record.domain_udi == udi
    assert "Traceback" not in err


@pytest.mark.parametrize("heap_size", ["abc", "13328"])
def test_serve_refuses_a_buffer_that_can_never_be_served(heap_size, capsys, monkeypatch):
    # 13,328 bytes lay out a heap whose only free block is 16 bytes, too
    # small for the 64-byte request buffer
    monkeypatch.setenv("APP_HEAP_SIZE", heap_size)
    rc = main(["serve", "--port", "0", "--mode", "domains"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "listening on" not in out
    assert err.startswith("error: ") and "APP_HEAP_SIZE" in err


def test_bench_and_attack_commands(tmp_path, capsys):
    srv = GuardServer(ServerConfig(listen_port=0, mode="domains", payload_size=0))
    srv.start()
    try:
        out = tmp_path / "cli_rows.csv"
        rc = main(
            ["bench", "--port", str(srv.port), "--duration", "0.3",
             "--reps", "1", "--connections", "2", "--out", str(out), "--seed", "11"]
        )
        assert rc == 0
        assert "rps" in capsys.readouterr().out
        assert out.read_text().startswith("mode,payload,run,requests,rps,served,rejected")

        assert main(["attack", "--port", str(srv.port)]) == 0
        assert "dropped" in capsys.readouterr().out
        assert srv.alive
    finally:
        srv.stop()
        srv.join()


def test_bench_refused_is_error(capsys):
    rc = main(["bench", "--port", str(free_port()), "--duration", "0.2", "--reps", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_compare_command(capsys):
    rc = main(
        ["compare", "--duration", "0.3", "--reps", "1", "--connections", "2",
         "--payloads", "0k", "--modes", "baseline,domains", "--seed", "4"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "mode,payload,rps_mean,rps_std,overhead_pct"
    assert len(lines) == 3
    assert lines[1].startswith("baseline,0k,")
    assert lines[2].startswith("domains,0k,")


def test_compare_refuses_an_unknown_payload_before_any_server_starts(capsys, monkeypatch):
    def never(self):
        raise AssertionError("a server started")

    monkeypatch.setattr(GuardServer, "start", never)
    rc = main(["compare", "--modes", "baseline", "--payloads", "0k,2k"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "2k" in err
    assert all(p in err for p in server_mod.PAYLOAD_BYTES)


def test_compare_refuses_an_unknown_mode_before_any_server_starts(capsys, monkeypatch):
    def never(self):
        raise AssertionError("a server started")

    monkeypatch.setattr(GuardServer, "start", never)
    rc = main(["compare", "--modes", "baseline,bogus", "--payloads", "0k"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "bogus" in err
    assert all(m in err for m in server_mod.MODES)


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "contrast demonstrated" in out
