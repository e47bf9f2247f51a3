"""Shared allocator oracles: raw-byte heap walking and the extent referee.

Imported by both the unit tests and the acceptance suite so the same
independent checkers judge both.
"""

import bisect
import random

import pytest

from capdomains.capmem import MemoryArena, ProtectionFault
from capdomains.tlsf import (
    CONTROL_SIZE,
    HEADER_SIZE,
    MIN_BLOCK,
    OutOfMemory,
    POOL_OVERHEAD,
    SENTINEL_SIZE,
    tlsf_create_with_pool,
)

KIB = 1024
MIB = 1024 * 1024

# frozen fresh-pool capacity: pool minus control area minus header+sentinel
FRESH_64K = 64 * KIB - CONTROL_SIZE - POOL_OVERHEAD


def oracle_mapping(size):
    """Class boundaries by explicit power-of-two scan (no bit_length tricks)."""
    if size < 256:
        return (0, size // 8)
    low, fl = 256, 1
    while low * 2 <= size:
        low *= 2
        fl += 1
    stride = low // 32  # 32 second-level subdivisions per power-of-two range
    return (fl, (size - low) // stride)


def walk_pool(snapshot, first_off, end_off):
    """Parse block headers straight out of arena bytes.

    Returns [(header_off, payload_size, is_free, prev_free)], asserting the
    walk is gapless and lands exactly on the pool-end sentinel.
    """
    blocks = []
    off = first_off
    while off < end_off - SENTINEL_SIZE:
        sf = int.from_bytes(snapshot[off + 16 : off + 24], "little")
        size = sf & ~0xF
        blocks.append((off, size, bool(sf & 1), bool(sf & 2)))
        assert size >= MIN_BLOCK and size % 16 == 0
        off += HEADER_SIZE + size
    assert off == end_off - SENTINEL_SIZE, "walk must end at the sentinel"
    sentinel_sf = int.from_bytes(snapshot[off + 16 : off + 24], "little")
    assert sentinel_sf & ~0xF == 0, "sentinel carries size zero"
    return blocks


def pool_blocks(arena, ctrl):
    """walk_pool over every pool of ``ctrl``, in the order they were added."""
    snap = arena.snapshot()
    blocks = []
    for pool in ctrl.pools:
        first = pool.region.base + (CONTROL_SIZE if pool.has_control else 0)
        blocks += walk_pool(snap, first, pool.region.base + pool.size)
    return blocks


def free_bytes_by_walk(arena, ctrl):
    return sum(b[1] for b in pool_blocks(arena, ctrl) if b[2])


def fresh_control(arena_size=256 * KIB, pool_size=64 * KIB, **kw):
    arena = MemoryArena(arena_size)
    ctrl = tlsf_create_with_pool(arena.reserve(pool_size), pool_size, **kw)
    return arena, ctrl


class ExtentOracle:
    """Plain interval set: the independent referee for overlap/alignment."""

    def __init__(self, pool_spans):
        self.pool_spans = pool_spans
        self.extents = []  # sorted (base, end)

    def on_alloc(self, cap, requested):
        base, end = cap.base, cap.top
        assert base % 16 == 0
        assert end - base == max(16, (requested + 15) & ~15)
        assert any(lo <= base and end <= hi for lo, hi in self.pool_spans), "outside pools"
        i = bisect.bisect_left(self.extents, (base, end))
        if i > 0:
            assert self.extents[i - 1][1] <= base, "overlaps left neighbor"
        if i < len(self.extents):
            assert end <= self.extents[i][0], "overlaps right neighbor"
        self.extents.insert(i, (base, end))

    def on_free(self, cap):
        self.extents.remove((cap.base, cap.top))


def run_differential(seed, ops, arena_size=8 * MIB, pool_size=1 * MIB, pools=1):
    """Random malloc/free/realloc against the extent oracle.  Pools after
    the first are reserved and handed to ``add_pool`` one by one."""
    rng = random.Random(seed)
    arena = MemoryArena(arena_size)
    ctrl = tlsf_create_with_pool(arena.reserve(pool_size), pool_size, debug=True)
    for _ in range(pools - 1):
        ctrl.add_pool(arena.reserve(pool_size), pool_size)
    oracle = ExtentOracle([(p.region.base, p.region.base + p.size) for p in ctrl.pools])
    live = []  # (cap, fill byte)
    counter = 0
    for _ in range(ops):
        roll = rng.random()
        try:
            if roll < 0.45 or not live:
                size = rng.choice([0, 5, 16, 24, 64, 100, 128, 460, 512, 2048, 4096])
                cap = ctrl.malloc(size)
                oracle.on_alloc(cap, size)
                fill = counter & 0xFF
                counter += 1
                cap.store(0, bytes([fill]) * (cap.top - cap.base))
                live.append((cap, fill))
            elif roll < 0.9:
                cap, fill = live.pop(rng.randrange(len(live)))
                span = cap.top - cap.base
                assert cap.load(0, span) == bytes([fill]) * span, "payload corrupted"
                oracle.on_free(cap)
                ctrl.free(cap)
            else:
                # copying realloc, as the domain facade implements it
                cap, fill = live.pop(rng.randrange(len(live)))
                new_size = rng.choice([16, 64, 256, 1024])
                new_cap = ctrl.malloc(new_size)
                oracle.on_alloc(new_cap, new_size)
                keep = min(cap.top - cap.base, new_cap.top - new_cap.base)
                new_cap.store(0, cap.load(0, keep))
                assert new_cap.load(0, keep) == bytes([fill]) * keep
                oracle.on_free(cap)
                ctrl.free(cap)
                new_cap.store(0, bytes([fill]) * (new_cap.top - new_cap.base))
                live.append((new_cap, fill))
        except OutOfMemory:
            pass
        except ProtectionFault as exc:  # must never escape a well-formed op
            pytest.fail("allocator raised a capability fault internally: %r" % exc)
    for cap, fill in live:
        span = cap.top - cap.base
        assert cap.load(0, span) == bytes([fill]) * span
        oracle.on_free(cap)
        ctrl.free(cap)
    ctrl.check()
    assert ctrl.stats.live_allocations == 0
    assert ctrl.stats.bytes_allocated == 0
    assert free_bytes_by_walk(arena, ctrl) == pools * (pool_size - POOL_OVERHEAD) - CONTROL_SIZE
    return ctrl
