"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one verdict line (run with ``pytest -s`` to see them all):

    criterion NN [name]: PASS (elapsed) detail

Criteria 9 and 10 drive real timed benchmark runs and dominate the wall
clock (roughly seven minutes together at desk-scale defaults).
"""

import csv
import functools
import random
import threading
import time

from capdomains.bench import (
    BenchConfig,
    compare_modes,
    demo,
    request_stats,
    run_matrix,
    run_workload,
)
from capdomains.capmem import BoundsViolation, MemoryArena
from capdomains.domains import Aborted, DomainManager, StatusCode
from capdomains.server import GuardServer, ServerConfig
from capdomains.tlsf import mapping_insert

from allocheck import oracle_mapping, run_differential

KIB = 1024
MIB = 1024 * 1024


def check(num, name, budget=None):
    """Print the criterion verdict line; enforce the runtime budget if any."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException as exc:
                dt = time.monotonic() - t0
                print(f"criterion {num:02d} [{name}]: FAIL ({dt:.1f}s) "
                      f"{type(exc).__name__}: {exc}")
                raise
            dt = time.monotonic() - t0
            if budget is not None and dt >= budget:
                print(f"criterion {num:02d} [{name}]: FAIL ({dt:.1f}s) "
                      f"exceeded {budget}s budget")
                raise AssertionError(f"criterion {num} exceeded its {budget}s budget")
            print(f"criterion {num:02d} [{name}]: PASS ({dt:.1f}s) {detail}")
        return wrapper

    return deco


@check(1, "resilience demo", budget=5.0)
def test_criterion_01_resilience_demo():
    outcome = demo()
    dom, base = outcome["domains"], outcome["baseline"]
    assert dom["attempted"] == 5, "protected run must attempt all five requests"
    assert dom["served"] == 4 and dom["rejected"] == 1
    assert dom["alive"], "protected server must survive the oversized request"
    assert base["terminated_at"] == 3, "unprotected worker must die at the bad request"
    assert not base["alive"]
    return "domains served 4/5 and survived; baseline died at request 3"


@check(2, "fault before corruption", budget=10.0)
def test_criterion_02_oob_stores_never_mutate():
    attempts = 0
    for seed in (11, 22, 33, 44):
        rng = random.Random(seed)
        arena = MemoryArena(64 * KIB)
        arena.root.store(0, bytes(rng.getrandbits(8) for _ in range(arena.size)))
        pristine = arena.snapshot()
        for _ in range(2500):
            length = rng.randrange(1, 128)
            base = rng.randrange(0, arena.size - length)
            cap = arena.root.address_set(base).bounds_set(length)
            if base > 0 and rng.random() < 0.5:
                offset = -rng.randrange(1, min(base, 32) + 1)  # underrun
                data_len = rng.randrange(1, 32)
            else:
                offset = rng.randrange(0, length + 1)  # overrun past top
                data_len = (length - offset) + rng.randrange(1, 64)
            try:
                cap.store(offset, b"\xAA" * data_len)
                raise AssertionError("out-of-bounds store was allowed")
            except BoundsViolation:
                pass
            assert arena.snapshot() == pristine, "arena changed after a fault"
            attempts += 1
    assert attempts == 10_000
    return f"{attempts} out-of-bounds stores, arena byte-identical after each"


@check(3, "allocator differential", budget=60.0)
def test_criterion_03_differential_twenty_seeds():
    seeds = range(1, 21)
    for seed in seeds:
        run_differential(seed, 100_000)
    return f"{len(list(seeds))} seeds x 100000 ops vs extent oracle, debug checks on"


@check(4, "class mapping oracle", budget=5.0)
def test_criterion_04_mapping_matches_bruteforce():
    for size in range(16, 65536 + 1):
        assert mapping_insert(size) == oracle_mapping(size), size
    return "mapping_insert == brute-force enumeration for 16..65536"


@check(5, "discard leak freedom", budget=30.0)
def test_criterion_05_thousand_aborts_no_leak():
    mgr = DomainManager(arena_size=8 * MIB, default_heap_size=64 * KIB)
    before = mgr.arena.reserved_bytes
    sizes = (16, 32, 64, 100, 128, 256, 512, 1024, 2048, 40)

    def leaky_routine():
        caps = [mgr.dalloc(size) for size in sizes]
        caps[0].store(0, b"!" * 64)  # 64 > 16: bounds fault

    for i in range(1000):
        out = mgr.domain_call(1, leaky_routine)
        assert isinstance(out, Aborted), i
        assert mgr.arena.reserved_bytes == before, f"leak after abort {i}"
    return "1000 aborted calls x 10 allocations, reserved bytes unchanged"


@check(6, "nested fault isolation")
def test_criterion_06_depth_three_innermost_only():
    mgr = DomainManager(arena_size=8 * MIB, default_heap_size=64 * KIB)
    outcomes = {}

    def depth3():
        bad = mgr.dalloc(16)
        bad.store(0, b"x" * 48)

    def depth2():
        mgr.dalloc(24)
        outcomes["d3"] = mgr.domain_call(3, depth3)
        return "two"

    def depth1():
        mgr.dalloc(24)
        outcomes["d2"] = mgr.domain_call(2, depth2)
        return "one"

    pre_active = mgr.active_domain
    out = mgr.domain_call(1, depth1)
    assert out.value == "one"
    assert outcomes["d2"].value == "two"
    assert isinstance(outcomes["d3"], Aborted)
    assert not mgr.is_initialized(3), "faulting domain must reset"
    assert mgr.is_initialized(1) and mgr.is_initialized(2), "ancestors must survive"
    assert mgr.parent_of(2) == 1 and mgr.parent_of(1) == 0
    assert mgr.heap_of(1) is not None and mgr.heap_of(2) is not None
    assert mgr.active_domain == pre_active
    return "fault at depth 3 reset only slot 3; slots 1,2 and active domain intact"


@check(7, "status code conformance")
def test_criterion_07_status_codes():
    mgr = DomainManager(arena_size=1 * MIB)
    facts = [
        (mgr.setup(0), StatusCode.UDI_OUT_OF_BOUNDS),
        (mgr.setup(1), StatusCode.SUCCESSFUL_INITIALIZE),
        (mgr.setup(1), StatusCode.ALREADY_INITIALIZE),
        (mgr.setup(15), StatusCode.SUCCESSFUL_INITIALIZE),
        (mgr.setup(16), StatusCode.UDI_OUT_OF_BOUNDS),
        (mgr.enter(2), StatusCode.NOT_INITIALIZED),
        (mgr.enter(16), StatusCode.UDI_OUT_OF_BOUNDS),
        (mgr.enter(1), StatusCode.SUCCESSFUL_ENTER),
        (mgr.exit(), StatusCode.SUCCESSFUL_EXIT),
        (mgr.exit(), StatusCode.UDI_OUT_OF_BOUNDS),  # exit from main
    ]
    for got, expected in facts:
        assert got is expected, (got, expected)
        assert (got > 0) == (expected > 0), "success/failure sign class"
    return f"{len(facts)} lifecycle transitions returned the expected code class"


@check(8, "pool splitting arithmetic")
def test_criterion_08_pool_chaining(monkeypatch):
    max_pool = 256 * KIB
    expectations = {
        1.0: [max_pool],
        2.5: [max_pool, max_pool, max_pool // 2],
        4.0: [max_pool, max_pool, max_pool, max_pool],
    }
    for factor, expected_sizes in expectations.items():
        monkeypatch.setenv("APP_HEAP_SIZE", str(int(factor * max_pool)))
        mgr = DomainManager(arena_size=8 * MIB, max_pool_size=max_pool)
        mgr.setup(1)
        mgr.enter(1)
        mgr.heap_init()
        sizes = [p.size for p in mgr.heap_of(1).pools]
        assert sizes == expected_sizes, (factor, sizes)
        mgr.exit()
        mgr.destroy(1)
    monkeypatch.delenv("APP_HEAP_SIZE")
    return "heap sizes {1x, 2.5x, 4x} max_pool split into {1, 3, 4} pools"


@check(9, "throughput overhead", budget=600.0)
def test_criterion_09_throughput_matrix(tmp_path):
    rows_path = tmp_path / "matrix_rows.csv"
    results = run_matrix(
        modes=("baseline", "tlsf", "domains"),
        payloads=("0k", "1k", "4k", "16k"),
        connections=8,
        duration=10.0,
        repetitions=3,
        seed=42,
        out_path=str(rows_path),
    )
    with open(rows_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 4 * 3, "full matrix: 3 modes x 4 payloads x 3 runs"
    assert set(r["mode"] for r in rows) == {"baseline", "tlsf", "domains"}
    assert set(r["payload"] for r in rows) == {"0k", "1k", "4k", "16k"}

    _table, text = compare_modes(results)
    print("\n" + text, end="")

    rps = {(r.mode, r.payload): r.requests_per_second for r in results}
    base0 = rps[("baseline", "0k")]
    tlsf_ratio = rps[("tlsf", "0k")] / base0
    dom_ratio = rps[("domains", "0k")] / base0
    ordering = base0 >= rps[("tlsf", "0k")] >= rps[("domains", "0k")]
    print(f"ordering baseline >= tlsf >= domains at 0k: "
          f"{'holds' if ordering else 'violated (reported, not asserted)'}")
    assert tlsf_ratio >= 0.80, f"tlsf reached only {tlsf_ratio:.1%} of baseline"
    assert dom_ratio >= 0.80, f"domains reached only {dom_ratio:.1%} of baseline"
    return (f"tlsf at {tlsf_ratio:.1%}, domains at {dom_ratio:.1%} of baseline; "
            f"36-row matrix written")


@check(10, "mixed workload containment", budget=120.0)
def test_criterion_10_sixty_second_mixed_run():
    srv = GuardServer(ServerConfig(listen_port=0, mode="domains", payload_size=0))
    srv.start()
    reserved_samples = []
    stop = threading.Event()

    def monitor():
        while not stop.is_set():
            info = request_stats("127.0.0.1", srv.port)
            reserved_samples.append(int(info["reserved"]))
            stop.wait(2.0)

    mon = threading.Thread(target=monitor, daemon=True)
    try:
        mon.start()
        result = run_workload(
            BenchConfig(
                port=srv.port,
                connections=4,
                duration=60.0,
                payload="0k",
                malicious_ratio=0.1,
                repetitions=1,
                seed=1234,
                think_time=0.002,  # pace the loop: bounds reconnect churn
            )
        )
        stop.set()
        mon.join(timeout=5)

        sent = result.served + result.rejected
        malicious = result.rejected
        assert result.served == sent - malicious
        assert malicious > 0, "a 0.1 ratio over a minute must inject attacks"
        assert result.server_alive and srv.alive, "server must outlive the run"

        # the worker may still be tallying its last responses
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            info = request_stats("127.0.0.1", srv.port)
            if (int(info["served"]), int(info["rejected"])) == (result.served, malicious):
                break
            time.sleep(0.05)
        assert int(info["served"]) == result.served, "server/client served disagree"
        assert int(info["rejected"]) == malicious, "server/client rejected disagree"

        assert reserved_samples, "monitor never sampled"
        assert len(set(reserved_samples)) == 1, f"reserved drifted: {set(reserved_samples)}"
        return (f"{sent} sent, {malicious} malicious, served matches on both ends; "
                f"reserved constant at {reserved_samples[0]} across "
                f"{len(reserved_samples)} samples")
    finally:
        stop.set()
        srv.stop()
        srv.join()
