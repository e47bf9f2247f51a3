"""Segregated-fit allocator: independent oracles for mapping, layout, and extents.

The oracles here deliberately avoid the allocator's own bit tricks: the class
mapping oracle scans powers of two with a loop, the layout walker parses raw
arena bytes from a snapshot, and the extent oracle is a plain interval set.
"""

import random

import pytest

from capdomains.capmem import BoundsViolation, Capability, MemoryArena, TagViolation
from capdomains.tlsf import (
    CONTROL_SIZE,
    DEFAULT_MAX_POOL_SIZE,
    HEADER_SIZE,
    MIN_BLOCK,
    POOL_OVERHEAD,
    DoubleFree,
    InvalidFree,
    OutOfMemory,
    mapping_insert,
    tlsf_create_with_pool,
)

KIB = 1024
MIB = 1024 * 1024


from allocheck import (
    FRESH_64K,
    fresh_control,
    free_bytes_by_walk,
    oracle_mapping,
    pool_blocks,
    run_differential,
)


# ---------------------------------------------------------------- mapping

def test_mapping_fixed_points():
    assert mapping_insert(100) == (0, 12)
    assert mapping_insert(460) == (1, 25)
    assert mapping_insert(256) == (1, 0)


def test_mapping_against_oracle_exhaustive():
    for size in range(16, 65537):
        assert mapping_insert(size) == oracle_mapping(size), size


def test_mapping_monotone_classes():
    # class index never decreases with size
    prev = (0, 0)
    for size in range(16, 8192, 8):
        cur = mapping_insert(size)
        assert cur >= prev
        prev = cur


# ---------------------------------------------------------------- pools

def test_create_single_free_block_64k():
    arena, ctrl = fresh_control(debug=True)
    blocks = pool_blocks(arena, ctrl)
    assert len(blocks) == 1
    off, size, is_free, prev_free = blocks[0]
    assert size == FRESH_64K
    assert is_free and not prev_free
    # listed under its class: the smallest request reaches it through both
    # bitmap levels and carves from its start
    ctrl.check()
    assert ctrl.malloc(16).base == off + HEADER_SIZE


def test_create_rejects_bad_sizes():
    arena = MemoryArena(64 * MIB)
    cap = arena.reserve(32 * MIB)
    with pytest.raises(ValueError):
        tlsf_create_with_pool(cap, CONTROL_SIZE + POOL_OVERHEAD)  # below minimum
    with pytest.raises(ValueError):
        tlsf_create_with_pool(cap, DEFAULT_MAX_POOL_SIZE + 16)  # above maximum


def test_malloc_full_remaining_then_oom():
    arena, ctrl = fresh_control(debug=True)
    cap = ctrl.malloc(FRESH_64K)
    assert cap.top - cap.base == FRESH_64K
    with pytest.raises(OutOfMemory):
        ctrl.malloc(16)
    ctrl.free(cap)
    assert free_bytes_by_walk(arena, ctrl) == FRESH_64K


def test_add_pool_grows_capacity():
    arena, ctrl = fresh_control(arena_size=4 * MIB, debug=True)
    before = free_bytes_by_walk(arena, ctrl)
    ctrl.add_pool(arena.reserve(1 * MIB), 1 * MIB)
    assert free_bytes_by_walk(arena, ctrl) == before + 1 * MIB - POOL_OVERHEAD
    assert ctrl.stats.bytes_reserved == 64 * KIB + 1 * MIB
    assert len(ctrl.pools) == 2


def test_add_pool_rejects_overlap():
    arena, ctrl = fresh_control()
    pool = ctrl.pools[0]
    overlapping = arena.root.address_set(pool.region.base + 32 * KIB).bounds_set(32 * KIB)
    with pytest.raises(ValueError):
        ctrl.add_pool(overlapping, 32 * KIB)


def test_second_pool_serves_after_first_exhausted():
    arena, ctrl = fresh_control(arena_size=1 * MIB, debug=True)
    region = arena.reserve(64 * KIB)
    ctrl.add_pool(region, 64 * KIB)
    first = ctrl.malloc(FRESH_64K)  # exactly drains pool 0
    second = ctrl.malloc(16)
    assert region.base <= second.base < region.top
    ctrl.free(first)
    ctrl.free(second)


# ---------------------------------------------------------------- search

def test_search_takes_the_lowest_fitting_class():
    arena, ctrl = fresh_control(debug=True)
    hold = ctrl.malloc(FRESH_64K)
    with pytest.raises(OutOfMemory):
        ctrl.malloc(16)
    ctrl.free(hold)
    # carve a 1 KiB free block below the big remainder; the search walks
    # upward from the request class and must land on the 1 KiB block first
    a = ctrl.malloc(1024)
    sep = ctrl.malloc(16)
    ctrl.free(a)
    c = ctrl.malloc(64)
    assert c.base == a.base
    rest = FRESH_64K - 1024 - 16 - 2 * HEADER_SIZE
    assert [(b[1], b[2]) for b in pool_blocks(arena, ctrl)] == [
        (64, False), (1024 - 64 - HEADER_SIZE, True), (16, False), (rest, True)]
    ctrl.free(c)
    ctrl.free(sep)
    # likewise between two second-level classes of one first-level range
    arena, ctrl = fresh_control(debug=True)
    small, _, big, _ = (ctrl.malloc(n) for n in (544, 16, 768, 16))
    ctrl.free(big)
    ctrl.free(small)
    assert ctrl.malloc(528).base == small.base


def test_good_fit_prefers_next_class_up():
    arena, ctrl = fresh_control(debug=True)
    a = ctrl.malloc(64)
    s1 = ctrl.malloc(16)
    b = ctrl.malloc(512)
    s2 = ctrl.malloc(16)
    ctrl.free(a)
    ctrl.free(b)
    c = ctrl.malloc(100)
    assert c.base == b.base, "good-fit round-up must skip the 64-byte block"
    assert [(b_[1], b_[2]) for b_ in pool_blocks(arena, ctrl)[:4]] == [
        (64, True), (16, False), (112, False), (512 - 112 - HEADER_SIZE, True)]
    # 1024 and 1040 share a class; rounding the request up a class keeps
    # the search off a hole of that class that is too small for it
    assert mapping_insert(1024) == mapping_insert(1040)
    d = ctrl.malloc(1024)
    s3 = ctrl.malloc(512)  # too big for the holes before d
    ctrl.free(d)
    e = ctrl.malloc(1040)
    assert e.base > s3.base
    assert (d.base - HEADER_SIZE, 1024, True, False) in pool_blocks(arena, ctrl)
    for cap in (c, e, s1, s2, s3):
        ctrl.free(cap)


# ---------------------------------------------------------------- split/merge

def test_split_relists_remainder_and_walk_is_gapless():
    arena, ctrl = fresh_control(debug=True)
    first = ctrl.pools[0].region.base + CONTROL_SIZE
    alloc = ctrl.malloc(64)
    assert alloc.base == first + HEADER_SIZE
    rem_size = FRESH_64K - 64 - HEADER_SIZE
    assert pool_blocks(arena, ctrl) == [
        (first, 64, False, False), (alloc.top, rem_size, True, False)]
    ctrl.check()  # the remainder is on the free list of its class
    assert ctrl.malloc(16).base == alloc.top + HEADER_SIZE


def test_split_exact_fit_no_remainder():
    arena, ctrl = fresh_control(debug=True)
    a = ctrl.malloc(FRESH_64K - 32 - HEADER_SIZE)
    assert [(b[1], b[2]) for b in pool_blocks(arena, ctrl)] == [
        (FRESH_64K - 32 - HEADER_SIZE, False), (32, True)]
    exact = ctrl.malloc(32)
    assert exact.base == a.top + HEADER_SIZE
    assert [(b[1], b[2]) for b in pool_blocks(arena, ctrl)] == [
        (FRESH_64K - 32 - HEADER_SIZE, False), (32, False)]
    with pytest.raises(OutOfMemory):
        ctrl.malloc(16)
    ctrl.free(a)


def test_split_never_leaves_sub_minimum_remainder():
    # a remainder that cannot hold a header and MIN_BLOCK stays in the
    # allocation, and its header records the whole hole
    hole = 64 + HEADER_SIZE + MIN_BLOCK
    for request, tail in (
        (hole - 16, [(hole, False)]),  # remainder would be negative
        (hole - HEADER_SIZE, [(hole, False)]),  # remainder would be 0 bytes
        (64, [(64, False), (MIN_BLOCK, True)]),  # remainder is exactly MIN_BLOCK
    ):
        arena, ctrl = fresh_control(debug=True)
        a = ctrl.malloc(FRESH_64K - hole - HEADER_SIZE)
        cap = ctrl.malloc(request)
        assert cap.base == a.top + HEADER_SIZE
        assert [(b[1], b[2]) for b in pool_blocks(arena, ctrl)][1:] == tail, request
        assert ctrl.payload_size(cap) == tail[0][0]


def test_merge_adjacent_frees():
    arena, ctrl = fresh_control(debug=True)
    a = ctrl.malloc(96)
    b = ctrl.malloc(160)
    guard = ctrl.malloc(16)
    ctrl.free(a)
    ctrl.free(b)  # must merge with a: one block of 96 + 160 + header
    blocks = pool_blocks(arena, ctrl)
    frees = [b_ for b_ in blocks if b_[2]]
    assert frees[0][1] == 96 + 160 + HEADER_SIZE
    ctrl.free(guard)


def test_free_middle_of_three_no_merge():
    arena, ctrl = fresh_control(debug=True)
    a = ctrl.malloc(32)
    b = ctrl.malloc(32)
    c = ctrl.malloc(32)
    ctrl.free(b)
    blocks = pool_blocks(arena, ctrl)
    assert [(b_[1], b_[2]) for b_ in blocks[:3]] == [(32, False), (32, True), (32, False)]
    ctrl.free(a)
    ctrl.free(c)


def test_random_order_free_restores_single_block():
    rng = random.Random(42)
    arena, ctrl = fresh_control(debug=True)
    caps = [ctrl.malloc(rng.choice([16, 32, 48, 64, 128, 256])) for _ in range(40)]
    rng.shuffle(caps)
    for cap in caps:
        ctrl.free(cap)
    blocks = pool_blocks(arena, ctrl)
    assert len(blocks) == 1 and blocks[0][1] == FRESH_64K and blocks[0][2]


def test_no_adjacent_free_blocks_after_random_ops():
    rng = random.Random(7)
    arena, ctrl = fresh_control(debug=True)
    live = []
    for _ in range(600):
        if live and rng.random() < 0.5:
            ctrl.free(live.pop(rng.randrange(len(live))))
        else:
            try:
                live.append(ctrl.malloc(rng.randrange(1, 512)))
            except OutOfMemory:
                pass
    blocks = pool_blocks(arena, ctrl)
    for prev, cur in zip(blocks, blocks[1:]):
        assert not (prev[2] and cur[2]), "adjacent free blocks must have merged"
        assert cur[3] == prev[2], "prev_free flag mirrors the left neighbor"
    for cap in live:
        ctrl.free(cap)


# ---------------------------------------------------------------- malloc/free

def test_malloc_rounds_and_aligns():
    arena, ctrl = fresh_control(debug=True)
    c5 = ctrl.malloc(5)
    assert c5.top - c5.base == 16
    c0 = ctrl.malloc(0)
    assert c0.top - c0.base == 16
    assert c5.base % 16 == 0 and c0.base % 16 == 0
    assert c5.address == c5.base
    c5.store(0, b"0123456789abcdef")
    assert c5.load(0, 16) == b"0123456789abcdef"
    with pytest.raises(BoundsViolation):
        c5.store(0, b"0123456789abcdef!")


def test_malloc_headers_record_rounded_size():
    arena, ctrl = fresh_control(debug=True)
    cap = ctrl.malloc(100)
    assert ctrl.payload_size(cap) == 112
    off, size, is_free, _ = pool_blocks(arena, ctrl)[0]
    assert (off + HEADER_SIZE, size, is_free) == (cap.base, 112, False)
    ctrl.free(cap)


def test_stray_capability_is_refused():
    arena, ctrl = fresh_control()
    live = ctrl.malloc(64)
    before = pool_blocks(arena, ctrl)
    stray = arena.root.address_set(8)  # before the pool region
    misaligned = live.address_set(live.base + 8)
    for cap in (stray, misaligned):
        with pytest.raises(InvalidFree):
            ctrl.payload_size(cap)
        with pytest.raises(InvalidFree):
            ctrl.free(cap)
    assert pool_blocks(arena, ctrl) == before


def test_interior_capability_is_refused_despite_a_forged_header():
    arena, ctrl = fresh_control()
    victim = ctrl.malloc(256)
    # a size word where a header would sit 64 bytes below victim.base + 64
    victim.store(16, (128).to_bytes(8, "little"))
    before = pool_blocks(arena, ctrl)
    for off in (64, 128):
        interior = victim.address_set(victim.base + off)
        with pytest.raises(InvalidFree):
            ctrl.free(interior)
        with pytest.raises(InvalidFree):
            ctrl.payload_size(interior)
    assert pool_blocks(arena, ctrl) == before
    ctrl.check()
    assert ctrl.payload_size(victim) == 256
    ctrl.free(victim)
    ctrl.check()


def test_capability_without_the_allocation_s_authority_is_refused():
    arena, ctrl = fresh_control()
    live = ctrl.malloc(64)
    before = pool_blocks(arena, ctrl)
    with pytest.raises(TagViolation):
        ctrl.free(live.untagged())
    with pytest.raises(TagViolation):
        ctrl.payload_size(live.untagged())
    for cap in (
        live.bounds_set(16),  # narrowed below the allocation
        arena.root.address_set(live.base),  # wider than the allocation
    ):
        with pytest.raises(InvalidFree):
            ctrl.free(cap)
        with pytest.raises(InvalidFree):
            ctrl.payload_size(cap)
    assert pool_blocks(arena, ctrl) == before
    # a capability equal to the one malloc handed out still frees it, also
    # where the block kept a remainder too small to split off
    ctrl.free(live.address_set(live.base))
    hole = 64 + HEADER_SIZE + MIN_BLOCK
    ctrl.malloc(FRESH_64K - hole - HEADER_SIZE)
    slack = ctrl.malloc(hole - 16)
    assert ctrl.payload_size(slack) == hole
    ctrl.free(slack)
    ctrl.check()


def test_malloc_and_free_check_each_header_once(monkeypatch):
    # the noise-free gate on the allocator's cost: checked accesses per
    # malloc(64) + free in the steady state of a long-lived heap
    arena, ctrl = fresh_control()
    keep = ctrl.malloc(64)
    ctrl.free(ctrl.malloc(64))
    calls = dict.fromkeys(("store", "load", "view", "address_set", "bounds_set"), 0)
    for name in calls:
        def counted(self, *args, _name=name, _fn=getattr(Capability, name)):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(Capability, name, counted)
    ctrl.free(ctrl.malloc(64))
    assert calls["store"] + calls["load"] + calls["view"] <= 8, calls
    assert (calls["address_set"], calls["bounds_set"]) == (1, 1), calls
    ctrl.free(keep)


def test_double_free_of_a_block_merged_into_its_predecessor():
    arena, ctrl = fresh_control()
    first, second, guard = ctrl.malloc(64), ctrl.malloc(64), ctrl.malloc(64)
    ctrl.free(first)
    ctrl.free(second)  # coalesces into first; its own header is stale
    before = pool_blocks(arena, ctrl)
    with pytest.raises(InvalidFree):
        ctrl.free(second)
    assert pool_blocks(arena, ctrl) == before
    ctrl.check()
    ctrl.free(guard)


def test_free_conservation_and_double_free():
    arena, ctrl = fresh_control(debug=True)
    s0 = (ctrl.stats.bytes_allocated, ctrl.stats.live_allocations)
    cap = ctrl.malloc(100)
    assert ctrl.stats.live_allocations == 1
    assert ctrl.stats.bytes_allocated == 112
    ctrl.free(cap)
    assert (ctrl.stats.bytes_allocated, ctrl.stats.live_allocations) == s0
    with pytest.raises(DoubleFree):
        ctrl.free(cap)
    with pytest.raises(DoubleFree):
        ctrl.payload_size(cap)


def test_destroy_returns_all_pools():
    arena, ctrl = fresh_control(arena_size=4 * MIB)
    ctrl.add_pool(arena.reserve(128 * KIB), 128 * KIB)
    ctrl.malloc(100)  # live allocation does not block discard
    reserved = ctrl.stats.bytes_reserved
    pools = ctrl.destroy()
    assert len(pools) == 2
    assert sum(p.size for p in pools) == reserved
    with pytest.raises(RuntimeError):
        ctrl.malloc(16)
    with pytest.raises(RuntimeError):
        ctrl.add_pool(arena.root, 64 * KIB)


# ---------------------------------------------------------------- differential

def test_differential_random_ops():
    for seed in (1, 2):
        run_differential(seed, 10_000)
    # the fresh blocks of two 1 MiB pools share a class, so the first
    # malloc already follows a free-list link from one pool into the other
    run_differential(3, 10_000, pools=2)
