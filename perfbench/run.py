#!/usr/bin/env python3
"""Out-of-process benchmark of the capdomains guard server.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipelined-0k --seed 1 --seconds 10 --trace 0

The server runs as its own process, ``capdomains serve`` started as
``python3 -m capdomains.cli serve`` with ``src`` on PYTHONPATH; this process
drives it single-threaded over at most two load connections plus one idle
control connection.  Every reply is byte-checked and, after the load, the
client's counts are reconciled with the server's ``STATS``.

``--trace 0`` prints the end-to-end metrics of one untraced timed window.
``--trace 1`` measures an untraced window and then a window against
``perfbench/traced_server.py`` and prints the per-layer metrics.  The last
stdout line is the result object; the line before it is the full record
(machine facts, sample counts, p99, error rate, reconciliation).
"""

import argparse
import json
import math
import os
import re
import selectors
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from loadgen import WORKLOADS, LoadGenerator, Tally, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOST = "127.0.0.1"
SETUP_SPAWNS = 9  # setup_s is the median over this many server starts
WARMUP_S = 1.0
SLICE_S = 1.0  # the gated metrics are medians over slices of this length
START_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0


# ---------------------------------------------------------------- /proc readers

def process_cpu_ns(pid: int) -> int:
    """User plus system CPU of every thread of ``pid``, in ns (schedstat)."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
            total += int(fh.read().split()[0])
    return total


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def host_cpu_ticks():
    """(steal, total) ticks of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    # guest time is already included in user time
    return fields[7], sum(fields[:8])


def machine_facts() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "git_rev": rev}


# ---------------------------------------------------------------- server process

class Server:
    """One server process and the control connection that sends it STATS."""

    def __init__(self, workload: Workload, traced: bool):
        args = ["serve", "--mode", workload.mode, "--payload", workload.payload,
                "--host", HOST, "--port", "0"]
        prog = [str(HERE / "traced_server.py")] if traced else ["-m", "capdomains.cli"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *prog, *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.ctl = None
        try:
            self.port = self._read_port()
            self.ctl = socket.create_connection((HOST, self.port), timeout=EXIT_TIMEOUT_S)
            self.ctl_in = self.ctl.makefile("rb")
            self.first_stats = self.stats()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            line = self.proc.stdout.readline() if sel.select(START_TIMEOUT_S) else b""
        found = re.search(rb"listening on [^ ]+:(\d+) ", line)
        if not found:
            raise RuntimeError(f"server did not start: {line!r}")
        return int(found.group(1))

    def _call(self, line: bytes) -> bytes:
        self.ctl.sendall(line)
        head = self.ctl_in.readline()
        if not head.startswith(b"OK "):
            raise RuntimeError(f"bad reply to {line!r}: {head!r}")
        return self.ctl_in.read(int(head[3:]))

    def stats(self) -> dict:
        return dict(kv.split("=", 1) for kv in self._call(b"STATS\n").decode().split())

    def cpu_ns(self) -> int:
        return process_cpu_ns(self.proc.pid)

    def close(self):
        """Shut the server down; returns (exit code, rest of stdout, stderr)."""
        try:
            if self.ctl is not None and self.proc.poll() is None:
                self._call(b"SHUTDOWN\n")
        except OSError:
            pass  # already gone; the exit code tells
        finally:
            if self.ctl is not None:
                self.ctl_in.close()
                self.ctl.close()
            try:
                out, err = self.proc.communicate(timeout=EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                out, err = self.proc.communicate()
        return self.proc.returncode, out.decode(errors="replace"), err.decode(errors="replace")


# ---------------------------------------------------------------- one load phase

@dataclass
class Phase:
    """One warm-up plus timed window against one server process.

    ``marks`` holds a sample per slice boundary of the window:
    (time, server CPU ns, host (steal, total) ticks, client CPU s,
    benign replies so far, latency samples so far, time of the latest
    reply).  A slice's rate runs from reply to reply, not from tick to
    tick: replies to a pipelined batch arrive together, and a tick-to-tick
    count would step by whole batches.
    """

    window: Tally
    attempted: int
    failed: int
    seconds: float
    marks: list
    maxrss_mib: float
    checks: dict
    trace_out: str = ""

    def slices(self) -> list:
        out = []
        for (t0, c0, h0, u0, ok0, i0, d0), (t1, c1, h1, u1, ok1, i1, d1) in zip(
                self.marks, self.marks[1:]):
            dt, ok = t1 - t0, ok1 - ok0
            lat = sorted(self.window.latencies_us[i0:i1]) or [math.inf]
            out.append({
                "rps": ok / (d1 - d0) if d1 > d0 else 0.0,
                "latency_p50_us": percentile(lat, 0.50),
                "latency_p90_us": percentile(lat, 0.90),
                "server_cpu_us_per_req": (c1 - c0) / 1e3 / ok if ok else math.inf,
                "server_busy_share": (c1 - c0) / 1e9 / dt,
                "client_busy_share": (u1 - u0) / dt,
                "steal_share": (h1[0] - h0[0]) / (h1[1] - h0[1]) if h1[1] > h0[1] else 0.0,
            })
        return out

    def median(self, key: str) -> float:
        """Median over the slices in which the hypervisor took no more of the
        host's CPUs than in the run's median slice.  A closed loop on two
        vCPUs stalls whenever either is descheduled: on the reference box a
        run with 18 % steal served half the requests of a run with 1 %."""
        slices = self.slices()
        cut = statistics.median(s["steal_share"] for s in slices)
        return statistics.median(s[key] for s in slices if s["steal_share"] <= cut)

    @property
    def steal_share(self) -> float:
        (steal0, total0), (steal1, total1) = self.marks[0][2], self.marks[-1][2]
        return (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0


def reconcile(workload: Workload, first: dict, last: dict, tallies) -> dict:
    """Failed operations per STATS key whose server count disagrees."""
    ok = sum(t.benign_ok for t in tallies)
    attacks = sum(t.attacks_sent for t in tallies)
    want = {
        "served": int(first["served"]) + ok,
        "rejected": int(first["rejected"]) + attacks,
        "heap_generation": attacks + 1 if workload.mode == "domains" else 0,
        "reserved": int(first["reserved"]),
        "alive": 1,
    }
    return {key: max(1, abs(int(last[key]) - value))
            for key, value in want.items() if int(last[key]) != value}


def load_phase(srv: Server, workload: Workload, seed: int, seconds: float) -> Phase:
    """Warm up, then one timed window; closes ``srv`` whatever happens."""
    warm, win = Tally(), Tally()
    marks = []

    def mark():
        now = time.perf_counter()
        marks.append((now, srv.cpu_ns(), host_cpu_ticks(), time.process_time(),
                      win.benign_ok, len(win.latencies_us), win.last_done or now))

    try:
        gen = LoadGenerator(workload, seed, HOST, srv.port)
        try:
            gen.run(WARMUP_S, warm)
            srv.stats()  # opens the window (and the traced server's span snapshot)
            elapsed = gen.run(seconds, win, max(1, round(seconds / SLICE_S)), mark)
            maxrss = peak_rss_mib(srv.proc.pid)
            last = srv.stats()  # closes the window
        finally:
            gen.close()
        checks = reconcile(workload, srv.first_stats, last, (warm, win))
    finally:
        code, out, err = srv.close()
    if code != 0:
        checks["exit_code"] = 1
        sys.stderr.write(err)
    return Phase(
        window=win,
        attempted=warm.attempted + win.attempted,
        failed=warm.failed + win.failed + sum(checks.values()),
        seconds=elapsed,
        marks=marks,
        maxrss_mib=maxrss,
        checks=checks,
        trace_out=out,
    )


# ---------------------------------------------------------------- metrics

def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def finite(x: float) -> float:
    # a failed request is an infinite latency; JSON has no infinity
    return x if math.isfinite(x) else 1e12


def window_record(p: Phase) -> dict:
    """Whole-window diagnostics; the gated metrics are medians over slices."""
    w = p.window
    lat = sorted(w.latencies_us) or [math.inf]
    (t0, c0, _, u0, *_), (t1, c1, _, u1, *_) = p.marks[0], p.marks[-1]
    return {
        "seconds": p.seconds,
        "slices": len(p.marks) - 1,
        "benign_sent": w.benign_sent, "benign_ok": w.benign_ok,
        "attacks_sent": w.attacks_sent, "attacks_contained": w.attacks_contained,
        "connects": w.connects,
        "latency_samples": len(w.latencies_us),
        "latency_p50_us": finite(percentile(lat, 0.50)),
        "latency_p90_us": finite(percentile(lat, 0.90)),
        "latency_p99_us": finite(percentile(lat, 0.99)),
        "error_rate": p.failed / max(p.attempted, 1),  # warm-up, window and checks
        "server_cpu_us_per_req": (c1 - c0) / 1e3 / max(w.benign_ok, 1),
        "server_busy_share": (c1 - c0) / 1e9 / (t1 - t0),
        "client_busy_share": (u1 - u0) / (t1 - t0),
        "host_steal_share": p.steal_share,
        "reconciliation_failures": p.checks,
    }


def end_to_end(p: Phase, setup_s: float) -> dict:
    return {
        "rps": (p.median("rps"), "req/s"),
        "latency_p50_us": (finite(p.median("latency_p50_us")), "us"),
        "latency_p90_us": (finite(p.median("latency_p90_us")), "us"),
        "server_cpu_us_per_req": (finite(p.median("server_cpu_us_per_req")), "us"),
        "server_maxrss_mb": (p.maxrss_mib, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(plain: Phase, traced: Phase, start: dict, end: dict) -> dict:
    """Layer metrics from the traced window's span totals (``start``/``end``
    snapshots), plus the guards taken from the untraced window."""
    delta = {name: [e - s for e, s in zip(tot, start["totals"][name])]
             for name, tot in end["totals"].items()}
    req = max(traced.window.benign_ok, 1)

    def calls(*names):
        return sum(delta[n][0] for n in names)

    def field(i, *names):
        return sum(delta[n][i] for n in names)

    def per_call(i, *names):
        c = calls(*names)
        return field(i, *names) / c if c else 0.0

    def mean_us(*names):  # inclusive µs per call
        return per_call(1, *names) / 1e3

    def prefixed(layer):
        return [n for n in delta if n.startswith(layer + ".")]

    def self_us_per_req(layer):
        return field(2, *prefixed(layer)) / 1e3 / req

    derive = ("capmem.address_set", "capmem.bounds_set", "capmem.perms_and")
    cap_access = ("capmem.store", "capmem.load") + derive
    create = ("tlsf.create_with_pool", "tlsf.add_pool")
    window_ns = end["t_ns"] - start["t_ns"]
    loop_ns = window_ns - (end["top_ns"] - start["top_ns"])
    overhead_pct = (traced.median("server_cpu_us_per_req")
                    / plain.median("server_cpu_us_per_req") - 1) * 100
    return {
        "capmem.store.calls_per_req": (calls("capmem.store") / req, "calls/req"),
        "capmem.store.us": (mean_us("capmem.store"), "us"),
        "capmem.load.calls_per_req": (calls("capmem.load") / req, "calls/req"),
        "capmem.load.us": (mean_us("capmem.load"), "us"),
        "capmem.derive.calls_per_req": (calls(*derive) / req, "calls/req"),
        "capmem.derive.us": (mean_us(*derive), "us"),
        "capmem.reserve.us": (mean_us("capmem.reserve", "capmem.release"), "us"),
        "capmem.faults_per_1k_req": (field(4, *cap_access) * 1e3 / req, "faults/1k-req"),
        "capmem.self_us_per_req": (self_us_per_req("capmem"), "us/req"),
        "tlsf.malloc.calls_per_req": (calls("tlsf.malloc") / req, "calls/req"),
        "tlsf.malloc.us": (mean_us("tlsf.malloc"), "us"),
        "tlsf.free.calls_per_req": (calls("tlsf.free") / req, "calls/req"),
        "tlsf.free.us": (mean_us("tlsf.free"), "us"),
        "tlsf.create.calls_per_1k_req": (calls(*create) * 1e3 / req, "calls/1k-req"),
        "tlsf.create.us": (mean_us(*create), "us"),
        "tlsf.destroy.us": (mean_us("tlsf.destroy"), "us"),
        "tlsf.malloc.failed": (field(4, "tlsf.malloc"), "count"),
        "tlsf.self_us_per_req": (self_us_per_req("tlsf"), "us/req"),
        "domains.domain_call.calls_per_req":
            (calls("domains.domain_call") / req, "calls/req"),
        "domains.domain_call.self_us": (per_call(2, "domains.domain_call") / 1e3, "us"),
        "domains.aborts_per_1k_req":
            (field(3, "domains.domain_call") * 1e3 / req, "aborts/1k-req"),
        "domains.abort.us": (mean_us("domains.destroy"), "us"),
        "domains.heap_init.calls_per_1k_req":
            (calls("domains.heap_init") * 1e3 / req, "calls/1k-req"),
        "domains.heap_init.us": (mean_us("domains.heap_init"), "us"),
        "domains.dalloc.calls_per_req": (calls("domains.dalloc") / req, "calls/req"),
        "domains.dfree.calls_per_req": (calls("domains.dfree") / req, "calls/req"),
        "domains.self_us_per_req": (self_us_per_req("domains"), "us/req"),
        "server.parse.calls_per_req": (calls("server.parse") / req, "calls/req"),
        "server.parse.self_us": (per_call(2, "server.parse") / 1e3, "us"),
        "server.recv.calls_per_req": (calls("server.recv") / req, "calls/req"),
        "server.recv.bytes_per_call": (per_call(3, "server.recv"), "B/call"),
        "server.send.calls_per_req": (calls("server.send") / req, "calls/req"),
        "server.send.us": (mean_us("server.send"), "us"),
        "server.send.bytes_per_call": (per_call(3, "server.send"), "B/call"),
        "server.select.calls_per_req": (calls("server.select") / req, "calls/req"),
        "server.select.wait_us_per_req":
            (field(1, "server.select") / 1e3 / req, "us/req"),
        "server.accept.calls_per_1k_req":
            (calls("server.accept") * 1e3 / req, "calls/1k-req"),
        "server.loop.self_us_per_req": (loop_ns / 1e3 / req, "us/req"),
        "server.cpu_busy_share": (plain.median("server_busy_share"), "share"),
        "bench.client_cpu_busy_share": (plain.median("client_busy_share"), "share"),
        "bench.reconnects_per_1k_req": (
            plain.window.connects * 1e3 / max(plain.window.benign_ok, 1),
            "conns/1k-req"),
        "bench.tracing_overhead_pct": (overhead_pct, "%"),
        "bench.host_steal_share": (plain.steal_share, "share"),
    }


# ---------------------------------------------------------------- main

def run(workload: Workload, seed: int, seconds: float, trace: bool):
    record = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "machine": machine_facts()}
    if not trace:
        setups = []
        for _ in range(SETUP_SPAWNS - 1):
            srv = Server(workload, traced=False)
            setups.append(srv.setup_s)
            srv.close()
        srv = Server(workload, traced=False)
        setups.append(srv.setup_s)
        phase = load_phase(srv, workload, seed, seconds)
        phases = [phase]
        record["setup_samples_s"] = setups
        metrics = end_to_end(phase, statistics.median(setups))
    else:
        # the two windows share the run's measuring time
        plain = load_phase(Server(workload, traced=False), workload, seed, seconds / 2)
        traced = load_phase(Server(workload, traced=True), workload, seed, seconds / 2)
        phases = [plain, traced]
        marks = json.loads(traced.trace_out.strip().splitlines()[-1])["marks"]
        # snapshot 0 is the set-up STATS, 1 and 2 bracket the timed window
        metrics = per_layer(plain, traced, marks[1], marks[2])
        record["traced_window"] = window_record(traced)
    record["window"] = window_record(phases[0])
    record["machine"]["host_steal_share"] = phases[0].steal_share
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(record))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": record["metrics"]}
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "capdomains" / "cli.py").is_file():
        print(f"error: no capdomains sources under {SRC}", file=sys.stderr)
        return 2
    run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
