"""Benchmark harness: counters, CSV contracts, overhead math, demo scenario."""

import csv
import io
import socket
import statistics
import time

import pytest

from capdomains import bench
from capdomains.bench import (
    BenchConfig,
    BenchResult,
    COMPARE_CSV_HEADER,
    CSV_HEADER,
    attack,
    compare_modes,
    demo,
    run_workload,
)
from capdomains.server import GuardServer, ServerConfig


def start_server(mode, payload_size=0):
    srv = GuardServer(ServerConfig(listen_port=0, mode=mode, payload_size=payload_size))
    srv.start()
    return srv


def quick_cfg(port, **kw):
    kw.setdefault("connections", 2)
    kw.setdefault("duration", 0.4)
    kw.setdefault("repetitions", 2)
    kw.setdefault("seed", 7)
    return BenchConfig(host="127.0.0.1", port=port, payload="0k", **kw)


def test_config_validation():
    assert BenchConfig(port=1).repetitions == 10  # shipping default
    with pytest.raises(ValueError):
        BenchConfig(port=1, duration=0)
    with pytest.raises(ValueError):
        BenchConfig(port=1, repetitions=0)
    with pytest.raises(ValueError):
        BenchConfig(port=1, payload="2k")
    with pytest.raises(ValueError):
        BenchConfig(port=1, malicious_ratio=1.5)


def test_unreachable_server_is_harness_error():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    free_port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(OSError):
        run_workload(quick_cfg(free_port))


def test_benign_run_counts_and_csv(tmp_path):
    srv = start_server("domains")
    out = tmp_path / "rows.csv"
    try:
        cfg = quick_cfg(srv.port, out_path=str(out))
        result = run_workload(cfg)
        assert result.mode == "domains"
        assert result.payload == "0k"
        assert result.rejected == 0, "no malicious traffic was injected"
        assert result.served > 0
        assert result.server_alive

        text = out.read_text().strip().splitlines()
        assert text[0] == CSV_HEADER == "mode,payload,run,requests,rps,served,rejected"
        rows = list(csv.DictReader(io.StringIO("\n".join(text))))
        assert len(rows) == cfg.repetitions
        for row in rows:
            assert row["mode"] == "domains"
            assert int(row["served"]) + int(row["rejected"]) == int(row["requests"])
        # reported statistics are recomputable from the emitted rows
        rps = [float(r["rps"]) for r in rows]
        assert result.requests_per_second == pytest.approx(statistics.mean(rps))
        assert result.stddev == pytest.approx(statistics.stdev(rps))
    finally:
        srv.stop()
        srv.join()


def test_malicious_mix_against_domains():
    srv = start_server("domains")
    try:
        result = run_workload(quick_cfg(srv.port, malicious_ratio=0.3, repetitions=1))
        assert result.rejected > 0
        assert result.served > 0
        assert result.server_alive
        assert srv.alive
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline:
            stats = srv.stats_snapshot()
            if (stats["served"], stats["rejected"]) == (result.served, result.rejected):
                break
            time.sleep(0.01)  # the worker may still be counting its last reply
        assert stats["served"] == result.served
        assert stats["rejected"] == result.rejected
    finally:
        srv.stop()
        srv.join()


def test_malicious_mix_kills_baseline():
    srv = start_server("baseline")
    try:
        result = run_workload(quick_cfg(srv.port, malicious_ratio=0.5, repetitions=3))
        assert not result.server_alive, "worker death must be observed and reported"
        assert len(result.rows) < 3, "run stops early once the server is gone"
        srv.join(timeout=5)
        assert not srv.alive
    finally:
        srv.stop()
        srv.join()


def synthetic(mode, payload, rps, std=0.0):
    return BenchResult(
        mode=mode, payload=payload, requests_per_second=rps, stddev=std,
        served=100, rejected=0, rows=(), server_alive=True,
    )


def test_compare_modes_math():
    results = [
        synthetic("baseline", "0k", 100.0),
        synthetic("tlsf", "0k", 90.0),
        synthetic("domains", "0k", 80.0),
    ]
    rows, text = compare_modes(results)
    lines = text.strip().splitlines()
    assert lines[0] == COMPARE_CSV_HEADER == "mode,payload,rps_mean,rps_std,overhead_pct"
    by_mode = {r["mode"]: r for r in rows}
    assert by_mode["baseline"]["overhead_pct"] == pytest.approx(0.0)
    assert by_mode["tlsf"]["overhead_pct"] == pytest.approx(10.0)
    assert by_mode["domains"]["overhead_pct"] == pytest.approx(20.0)


def test_compare_modes_self_is_zero():
    rows, _ = compare_modes([synthetic("baseline", "1k", 123.4)])
    assert rows[0]["overhead_pct"] == pytest.approx(0.0)


def test_compare_modes_rejects_mismatched_payloads():
    with pytest.raises(ValueError):
        compare_modes([synthetic("tlsf", "0k", 10.0)])  # no baseline to compare with
    with pytest.raises(ValueError):
        compare_modes(
            [synthetic("baseline", "0k", 10.0), synthetic("domains", "4k", 9.0)]
        )


def test_attack_helper():
    srv = start_server("domains")
    try:
        assert attack("127.0.0.1", srv.port, oversize=200), "connection must drop"
        assert srv.alive
    finally:
        srv.stop()
        srv.join()


def test_demo_contrast(monkeypatch):
    real_read_reply = bench._read_reply
    replies = []  # (reader, body) of every reply the demo reads

    def recording_read_reply(reader):
        body = real_read_reply(reader)
        replies.append((reader, body))
        return body

    monkeypatch.setattr(bench, "_read_reply", recording_read_reply)
    outcome = demo()
    dom, base = outcome["domains"], outcome["baseline"]
    assert dom["attempted"] == 5
    assert dom["served"] == 4
    assert dom["rejected"] == 1
    assert dom["alive"]
    assert base["served"] == 2
    assert base["terminated_at"] == 3
    assert not base["alive"]
    # the benign replies carry the 1k payload; the domains pass runs first,
    # and its four arrive on one connection: only the attacker's was dropped
    benign = [reader for reader, body in replies if body is not None and len(body) == 1024]
    assert len(benign) == 4 + 2
    assert all(reader is benign[0] for reader in benign[:4])
    assert benign[4] is not benign[0]
