"""Capability memory model: fault-before-mutation, monotonic authority, check order."""

import random
import sys

import pytest

from capdomains import capmem
from capdomains.capmem import (
    PERM_LOAD,
    PERM_RW,
    PERM_STORE,
    ArenaExhausted,
    BoundsViolation,
    Capability,
    FaultKind,
    FaultRecord,
    MemoryArena,
    PermissionViolation,
    TagViolation,
    round_representable_length,
)


def test_arena_create_root():
    arena = MemoryArena(1024)
    root = arena.root
    assert root.base == 0
    assert root.top == 1024
    assert root.address == 0
    assert root.tag
    assert root.perms == PERM_RW


def test_arena_zero_filled():
    arena = MemoryArena(64)
    assert arena.root.load(0, 64) == b"\x00" * 64


def test_arena_rejects_empty():
    with pytest.raises(ValueError):
        MemoryArena(0)
    with pytest.raises(ValueError):
        MemoryArena(-3)


def test_round_representable_length_fixed_points():
    assert round_representable_length(16) == 16
    assert round_representable_length(5) == 16
    assert round_representable_length(17) == 32
    assert round_representable_length(0) == 16


def test_round_representable_length_props():
    # smallest multiple of 16 that is >= max(size, 16)
    rng = random.Random(11)
    for _ in range(500):
        size = rng.randrange(0, 1 << 20)
        r = round_representable_length(size)
        assert r % 16 == 0
        assert r >= max(size, 16)
        assert r - 16 < max(size, 16)


def test_address_set_preserves_bounds():
    arena = MemoryArena(100)
    c = arena.root.address_set(10)
    d = c.address_set(40)
    assert (d.base, d.top, d.address) == (0, 100, 40)
    same = c.address_set(10)
    assert same == c


def test_address_set_untagged_faults():
    arena = MemoryArena(100)
    dead = arena.root.untagged()
    with pytest.raises(TagViolation):
        dead.address_set(5)


def test_address_readable_regardless_of_tag():
    arena = MemoryArena(100)
    dead = arena.root.address_set(7).untagged()
    assert dead.address == 7


def test_address_set_roundtrip():
    arena = MemoryArena(256)
    rng = random.Random(7)
    c = arena.root
    for _ in range(200):
        a = rng.randrange(-32, 512)  # out-of-bounds addresses are representable
        c = c.address_set(a)
        assert c.address == a
        assert c.tag


def test_bounds_set_narrows():
    arena = MemoryArena(100)
    c = arena.root.address_set(16).bounds_set(32)
    assert (c.base, c.top, c.address) == (16, 48, 16)
    with pytest.raises(BoundsViolation):
        c.bounds_set(64)  # monotonic: cannot widen back
    full = arena.root.bounds_set(100)
    assert (full.base, full.top) == (0, 100)


def test_bounds_set_untagged_faults():
    arena = MemoryArena(100)
    with pytest.raises(TagViolation):
        arena.root.untagged().bounds_set(10)


def test_store_load_roundtrip():
    arena = MemoryArena(64)
    c = arena.root.bounds_set(16)
    c.store(0, b"hello")
    assert c.load(0, 5) == b"hello"
    assert c.load(5, 11) == b"\x00" * 11


def test_store_out_of_bounds_leaves_arena_untouched():
    arena = MemoryArena(64)
    c = arena.root.bounds_set(16)
    before = arena.snapshot()
    with pytest.raises(BoundsViolation) as ei:
        c.store(0, b"x" * 20)
    assert arena.snapshot() == before
    rec = ei.value.record
    assert rec.kind is FaultKind.BOUNDS
    assert rec.access_len == 20


def test_load_only_cap_rejects_writes():
    arena = MemoryArena(64)
    ro = arena.root.perms_and(load=True, store=False)
    with pytest.raises(PermissionViolation):
        ro.store(0, b"z")
    assert ro.load(0, 4) == b"\x00" * 4


def test_view_needs_load_and_store():
    # each access against each permission mask: store needs the store bit,
    # load the load bit, and view both
    for perms in (0, PERM_LOAD, PERM_STORE, PERM_RW):
        arena = MemoryArena(64)
        cap = arena.root.address_set(8).perms_and(load=perms & PERM_LOAD, store=perms & PERM_STORE)
        assert cap.perms == perms
        for need, access in (
            (PERM_STORE, lambda: cap.store(4, b"\x5a" * 16)),
            (PERM_LOAD, lambda: cap.load(4, 16)),
            (PERM_RW, lambda: cap.view(4, 16)),
        ):
            if perms & need == need:
                access()  # granted: no fault
                continue
            before = arena.snapshot()
            with pytest.raises(PermissionViolation) as ei:
                access()
            assert ei.value.record == FaultRecord(FaultKind.PERMISSION, 12, 16), (perms, need)
            assert arena.snapshot() == before


def test_view_writes_land_at_arena_offsets():
    arena = MemoryArena(256)
    cap = arena.root.address_set(32).bounds_set(64).address_set(40)
    window = cap.view(8, 16)  # arena bytes [48, 64)
    window[:] = bytes(range(1, 17))
    window[0] = 0xFF
    expected = bytearray(256)
    expected[48:64] = b"\xff" + bytes(range(2, 17))
    assert arena.snapshot() == bytes(expected)
    assert cap.load(8, 16) == bytes(window)
    cap.store(8, b"Z")
    assert window[0] == ord("Z"), "the view is the arena, not a copy"


def test_perms_can_only_clear():
    arena = MemoryArena(64)
    ro = arena.root.perms_and(load=True, store=False)
    # masking with store=True cannot re-grant the dropped flag
    again = ro.perms_and(load=True, store=True)
    assert again.perms == PERM_LOAD


def test_check_order_tag_beats_everything():
    arena = MemoryArena(64)
    worst = arena.root.bounds_set(8).perms_and(load=False, store=False).untagged()
    with pytest.raises(TagViolation):
        worst.store(100, b"abc")  # untagged AND no perms AND out of bounds
    with pytest.raises(TagViolation):
        worst.load(100, 3)
    with pytest.raises(TagViolation) as ei:
        worst.view(100, 3)
    assert ei.value.record == FaultRecord(FaultKind.TAG, 100, 3)


def test_check_order_permission_beats_bounds():
    arena = MemoryArena(64)
    noperm = arena.root.bounds_set(8).perms_and(load=False, store=False)
    with pytest.raises(PermissionViolation):
        noperm.store(100, b"abc")
    with pytest.raises(PermissionViolation):
        noperm.load(100, 3)
    with pytest.raises(PermissionViolation) as ei:
        noperm.view(100, 3)
    assert ei.value.record == FaultRecord(FaultKind.PERMISSION, 100, 3)
    with pytest.raises(BoundsViolation) as ei:
        arena.root.bounds_set(8).view(100, 3)
    assert ei.value.record == FaultRecord(FaultKind.BOUNDS, 100, 3)


def test_fault_before_mutation_randomized():
    rng = random.Random(1234)
    arena = MemoryArena(4096)
    root = arena.root
    root.store(0, bytes(rng.randrange(256) for _ in range(4096)))
    for _ in range(400):
        base = rng.randrange(0, 4096 - 64)
        cap = root.address_set(base).bounds_set(rng.randrange(16, 64))
        before = arena.snapshot()
        off = rng.randrange(-64, 128)
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 96)))
        try:
            cap.store(off, data)
        except BoundsViolation:
            assert arena.snapshot() == before
        else:
            lo = cap.address + off
            assert cap.base <= lo and lo + len(data) <= cap.top


def test_view_faults_before_mutation_randomized():
    # a view faults exactly as a store of the same window does, before any
    # byte moves; a view that is granted spans only bytes inside the bounds
    rng = random.Random(4321)
    arena = MemoryArena(4096)
    root = arena.root
    root.store(0, bytes(rng.randrange(256) for _ in range(4096)))
    for _ in range(400):
        base = rng.randrange(0, 4096 - 64)
        cap = root.address_set(base).bounds_set(rng.randrange(16, 64))
        before = arena.snapshot()
        off = rng.randrange(-64, 128)
        length = rng.randrange(1, 96)
        try:
            window = cap.view(off, length)
        except BoundsViolation as exc:
            assert arena.snapshot() == before
            with pytest.raises(BoundsViolation) as ei:
                cap.store(off, b"\x00" * length)
            assert exc.record == ei.value.record
            assert arena.snapshot() == before
        else:
            lo = cap.address + off
            assert cap.base <= lo and lo + length <= cap.top
            window[:] = b"\xee" * length
            assert arena.snapshot() == before[:lo] + b"\xee" * length + before[lo + length:]
            window[:] = before[lo : lo + length]


def test_monotonic_authority_chains():
    # bounds never widen, permissions never gain along any derivation chain
    rng = random.Random(99)
    arena = MemoryArena(1024)
    for _ in range(100):
        cap = arena.root
        for _ in range(12):
            parent = cap
            move = rng.randrange(3)
            try:
                if move == 0:
                    cap = cap.address_set(rng.randrange(0, 1024))
                elif move == 1:
                    span = parent.top - parent.address
                    if span <= 0:
                        continue
                    cap = cap.bounds_set(rng.randrange(0, span + 1))
                else:
                    cap = cap.perms_and(
                        load=rng.random() < 0.9, store=rng.random() < 0.9
                    )
            except BoundsViolation:
                continue
            assert cap.base >= parent.base
            assert cap.top <= parent.top
            assert cap.perms & ~parent.perms == 0


def test_exhaustive_inbounds_access_never_faults():
    # brute-force oracle on a 64-byte arena: every window inside [base, top)
    # with full perms and a valid tag must succeed
    arena = MemoryArena(64)
    root = arena.root
    for off in range(64):
        for length in range(64 - off + 1):
            root.load(off, length)
            root.store(off, b"\xab" * length)
    assert arena.snapshot() == b"\xab" * 64


def test_reserve_release_accounting():
    arena = MemoryArena(4096)
    a = arena.reserve(1000)
    b = arena.reserve(500)
    assert a.base % 16 == 0 and b.base % 16 == 0
    assert arena.reserved_bytes == 1500
    arena.release(a)
    assert arena.reserved_bytes == 500
    c = arena.reserve(900)  # fits in the gap released by a
    assert c.base == a.base
    arena.release(b)
    arena.release(c)
    assert arena.reserved_bytes == 0


def test_reserve_returns_the_region_root():
    arena = MemoryArena(4096)
    arena.reserve(100)
    region = arena.reserve(200)
    assert isinstance(region, Capability)
    assert (region.address, region.base, region.top) == (112, 112, 312)
    assert region.tag and region.perms == PERM_RW
    region.store(0, b"\x5a" * 200)
    with pytest.raises(BoundsViolation):
        region.store(200, b"\x00")
    with pytest.raises(BoundsViolation):
        region.store(-1, b"\x00")
    copy = region.address_set(region.base)
    assert copy == region
    with pytest.raises(ValueError):
        arena.release(copy)
    assert arena.reserved_bytes == 300
    arena.release(region)
    assert arena.reserved_bytes == 100


def test_reserve_never_overlaps():
    rng = random.Random(3)
    arena = MemoryArena(1 << 16)
    live = []
    for _ in range(300):
        if live and rng.random() < 0.45:
            arena.release(live.pop(rng.randrange(len(live))))
            continue
        try:
            region = arena.reserve(rng.randrange(1, 4096))
        except ArenaExhausted:
            continue
        for other in live:
            assert region.top <= other.base or other.top <= region.base
        assert region.top <= arena.size
        live.append(region)


def test_reserve_exhaustion():
    arena = MemoryArena(1024)
    arena.reserve(1024)
    with pytest.raises(ArenaExhausted):
        arena.reserve(16)


def test_release_unknown_region_rejected():
    arena = MemoryArena(1024)
    region = arena.reserve(64)
    arena.release(region)
    with pytest.raises(ValueError):
        arena.release(region)


def test_release_refuses_another_arenas_region():
    # a fresh arena hands out the same first region as any other, so a ledger
    # matched by value would free this arena's live region when handed another's
    mine = MemoryArena(4096)
    live = mine.reserve(16)
    mine.root.store(live.base, b"\x5a" * 16)
    bigger = MemoryArena(4096).reserve(64)
    twin = MemoryArena(4096).reserve(16)
    assert (twin.base, twin.top) == (live.base, live.top)  # not reserved here
    for foreign in (bigger, twin):
        with pytest.raises(ValueError):
            mine.release(foreign)
    assert mine.reserved_bytes == 16
    assert mine.root.load(live.base, 16) == b"\x5a" * 16
    mine.release(live)
    assert mine.reserved_bytes == 0


def test_empty_access_is_tag_checked_but_never_bounds_checked():
    arena = MemoryArena(64)
    cap = arena.root.bounds_set(16)
    cap.store(100, b"")  # empty window is vacuously within bounds
    assert cap.load(100, 0) == b""
    with pytest.raises(TagViolation):
        cap.untagged().store(100, b"")
    assert len(cap.view(100, 0)) == 0
    with pytest.raises(TagViolation):
        cap.untagged().view(100, 0)


def test_release_zeroes_the_region():
    # a released region reads as a fresh mmap's pages would, and the bytes
    # around it are left alone
    arena = MemoryArena(300 * 1024)
    arena.reserve(16)
    region = arena.reserve(200 * 1024 + 16)  # more than one zeroing chunk
    arena.reserve(16)
    arena.root.store(0, b"\xa5" * arena.size)
    arena.release(region)
    snap = arena.snapshot()
    assert snap[region.base : region.top] == bytes(region.top - region.base)
    assert snap[: region.base] == b"\xa5" * region.base
    assert set(snap[region.top :]) == {0xA5}


PAGE = capmem._PAGE


@pytest.mark.parametrize("madvise", [True, False], ids=["madvise", "copy"])
@pytest.mark.parametrize(
    "base, length",
    [
        (PAGE, 2 * PAGE),  # whole pages only
        (PAGE + 16, 256),  # inside one page
        (PAGE + PAGE // 2, PAGE),  # across one page boundary, no whole page
        (PAGE + 1024, 2 * PAGE + 512),  # starts and ends mid-page
    ],
    ids=["aligned", "inside-one-page", "straddles-a-boundary", "mid-page-ends"],
)
def test_release_zeroes_partial_pages_and_spares_neighbours(monkeypatch, base, length, madvise):
    if madvise and not capmem._DONTNEED_ZEROES:
        pytest.skip("MADV_DONTNEED does not zero-fill on this platform")
    monkeypatch.setattr(capmem, "_DONTNEED_ZEROES", madvise)
    arena = MemoryArena(8 * PAGE)
    left = arena.reserve(base)
    region = arena.reserve(length)
    right = arena.reserve(arena.size - region.base - length)
    assert (left.base, region.base, right.base) == (0, base, base + length)
    arena.root.store(0, b"\xa5" * arena.size)
    arena.release(region)
    snap = arena.snapshot()
    assert snap[base : base + length] == bytes(length)
    assert snap[:base] == b"\xa5" * base
    assert snap[base + length :] == b"\xa5" * (right.top - right.base)
    assert arena.reserved_bytes == (left.top - left.base) + (right.top - right.base)


def _rss_bytes():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmRSS from /proc")
def test_arena_pages_are_committed_on_first_touch_and_given_back_on_release():
    mib = 1 << 20
    before = _rss_bytes()
    arena = MemoryArena(64 * mib)
    assert _rss_bytes() - before < 1 * mib
    region = arena.reserve(32 * mib)
    chunk = b"\x5a" * mib
    for off in range(0, region.top - region.base, mib):
        arena.root.store(region.base + off, chunk)
    written = _rss_bytes()
    arena.release(region)
    assert written - _rss_bytes() >= 24 * mib
    assert arena.root.load(region.top - 16, 16) == bytes(16)


def test_capability_equality_and_repr():
    arena = MemoryArena(64)
    a = arena.root.address_set(8)
    b = arena.root.address_set(8)
    assert a == b
    assert a != arena.root
    assert "8" in repr(a)
    # perms take part: the same bits, re-derived, compare equal
    assert a.perms_and() == a
    assert a.perms_and(store=False) != a
    assert a.perms_and(load=False) != a.perms_and(store=False)


def test_fault_records_and_permissions_are_immutable_values():
    rec = FaultRecord(FaultKind.BOUNDS, 12, 4)
    same = FaultRecord(FaultKind.BOUNDS, faulting_address=12, access_len=4, domain_udi=0)
    assert rec == same and hash(rec) == hash(same) and len({rec, same}) == 1
    assert rec != FaultRecord(FaultKind.BOUNDS, 12, 4, domain_udi=1)
    perms = MemoryArena(64).root.perms_and(store=False).perms
    assert perms == PERM_LOAD and perms != PERM_RW
    for field in ("access_len", "domain_udi"):
        with pytest.raises(AttributeError):
            setattr(rec, field, False)
    assert rec == same
