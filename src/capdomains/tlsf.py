"""Two-level segregated-fit allocator running inside a MemoryArena.

Port parameters follow the capability-width variant of the classic layout:
16-byte alignment (ALIGN_SIZE_LOG2 = 4), header offsets in 16-byte units
("doubled sizeof(size_t)"), 32 second-level classes, small-block threshold
256.  Per-block metadata lives in the arena.  A block is named by the arena
offset of its header, and each header field is read or written by one
capability load or store through the capability of the pool that holds it,
so every metadata access is checked before a byte moves.  The control
structure's byte area is reserved at the head of the first pool but its
contents are mirrored in host objects (bitmaps and list heads) rather than
serialized.

A control is built by :func:`tlsf_create_with_pool` and used only through
``add_pool``, ``malloc``, ``free``, ``payload_size``, ``destroy``, ``check``,
``pools`` and ``stats``.

Block geometry::

    header (64 B): prev_phys | size+flags | next_free | prev_free
    payload (size bytes, multiple of 16, >= 16)

The free-list link fields are header-resident: a 16-byte minimum block cannot
hold two capability-width links in its payload, so the 8-byte-era trick of
overlapping links into free payloads does not carry over.  Each pool ends in
a 32-byte sentinel (prev_phys + size fields only) whose size is zero.
"""

import threading
from bisect import bisect_right
from dataclasses import dataclass

from capdomains.capmem import round_representable_length

ALIGN = 16
SL_LOG2 = 5
SL_COUNT = 1 << SL_LOG2  # 32 second-level classes
SMALL_BLOCK = 256  # sizes below map to fl 0, linear 8-byte strides
FL_SHIFT = 8  # log2(SMALL_BLOCK)
FL_MAX = 32  # block sizes < 2**32
FL_COUNT = FL_MAX - FL_SHIFT + 1  # 25

FIELD = 16  # capability-width header field
HEADER_SIZE = 4 * FIELD
SENTINEL_SIZE = 2 * FIELD
MIN_BLOCK = 16
POOL_OVERHEAD = HEADER_SIZE + SENTINEL_SIZE

# one fl bitmap word + per-fl sl bitmap words + (fl, sl) list-head slots
CONTROL_SIZE = FIELD * (1 + FL_COUNT + FL_COUNT * SL_COUNT)

DEFAULT_MAX_POOL_SIZE = 16 * 1024 * 1024

FREE_BIT = 1
PREV_FREE_BIT = 2

_SF_OFF = 16
_NEXT_OFF = 32
_PREV_LINK_OFF = 48


class AllocationError(Exception):
    pass


class OutOfMemory(AllocationError):
    pass


class InvalidFree(AllocationError):
    pass


class DoubleFree(InvalidFree):
    pass


@dataclass
class AllocStats:
    bytes_allocated: int = 0
    bytes_reserved: int = 0
    live_allocations: int = 0


@dataclass(frozen=True)
class PoolDescriptor:
    region: "capdomains.capmem.Capability"
    size: int
    has_control: bool = False


def mapping_insert(size):
    """(fl, sl) class of a block of `size` payload bytes."""
    if size < SMALL_BLOCK:
        return (0, size // 8)
    fl_raw = size.bit_length() - 1
    return (fl_raw - (FL_SHIFT - 1), (size >> (fl_raw - SL_LOG2)) - SL_COUNT)


def _mapping_search(size):
    # good-fit round-up so the landing class guarantees blocks >= size
    if size >= SMALL_BLOCK:
        size += (1 << (size.bit_length() - 1 - SL_LOG2)) - 1
    return mapping_insert(size)


def _lsb(x):
    return (x & -x).bit_length() - 1


# One header field is one 8-byte load or store through `cap`, the
# capability of the pool that holds it.
def _read(cap, addr):
    return int.from_bytes(cap.load(addr, 8), "little")


def _write(cap, addr, value):
    cap.store(addr, value.to_bytes(8, "little"))


# offsets are stored +1 so zero can mean "none" even at arena offset 0
def _read_link(cap, addr):
    raw = int.from_bytes(cap.load(addr, 8), "little")
    return raw - 1 if raw else None


def _write_link(cap, addr, off):
    cap.store(addr, (0 if off is None else off + 1).to_bytes(8, "little"))


class TlsfControl:
    """Allocator state over one or more pools, used through add_pool,
    malloc, free, payload_size, destroy, check, pools and stats.  These are
    serialized by an internal lock; distinct controls are independent.
    free and payload_size refuse any capability that does not start a live
    allocation, as a host-side set of live header offsets records them.

    A block is named by the arena offset of its header, and every header
    field is checked through the capability of the pool that holds it, which
    :meth:`_cap` finds.  Physical neighbours share a pool and its capability;
    a free-list link may lead into another pool and is looked up again.
    """

    def __init__(self, max_pool_size, debug):
        self.max_pool_size = max_pool_size
        self.debug = debug
        self.stats = AllocStats()
        self._pools = []
        # per pool, sorted by base: the span past the control area, and a
        # capability over it addressed at 0, so a field is at its arena offset
        self._bases = []
        self._caps = []
        self._heads = [[None] * SL_COUNT for _ in range(FL_COUNT)]
        self._live_headers = set()  # header offsets of the live allocations
        self._fl_bitmap = 0
        self._sl_bitmaps = [0] * FL_COUNT
        self._lock = threading.Lock()
        self._dead = False
        self._op_count = 0
        self._touched = set()

    # ------------------------------------------------------------ queries

    @property
    def pools(self):
        return tuple(self._pools)

    # ------------------------------------------------------------ pools

    def add_pool(self, region, size):
        with self._lock:
            self._ensure_alive()
            self._validate_pool(region, size, minimum=POOL_OVERHEAD + MIN_BLOCK)
            self._init_pool(region, size, has_control=False)
            self._after_op()

    def _validate_pool(self, region, size, minimum):
        if size % ALIGN or region.address % ALIGN:
            raise ValueError("pool base and size must be 16-byte aligned")
        if size < minimum:
            raise ValueError("pool of %d bytes is below the %d-byte minimum" % (size, minimum))
        if size > self.max_pool_size:
            raise ValueError("pool of %d bytes exceeds max pool size %d" % (size, self.max_pool_size))
        base, end = region.address, region.address + size
        for p in self._pools:
            if base < p.region.base + p.size and p.region.base < end:
                raise ValueError("pool [%d, %d) overlaps an existing pool" % (base, end))

    def _init_pool(self, region, size, has_control):
        narrowed = region.bounds_set(size)
        first = narrowed.base + (CONTROL_SIZE if has_control else 0)
        end = narrowed.base + size
        cap = narrowed.address_set(first).bounds_set(end - first).address_set(0)
        i = bisect_right(self._bases, first)
        self._bases.insert(i, first)
        self._caps.insert(i, cap)
        self._pools.append(PoolDescriptor(narrowed, size, has_control))
        self.stats.bytes_reserved += size
        payload = end - first - POOL_OVERHEAD
        sentinel = end - SENTINEL_SIZE
        _write_link(cap, first, None)  # no physical predecessor
        _write(cap, first + _SF_OFF, payload | FREE_BIT)
        _write_link(cap, sentinel, first)
        _write(cap, sentinel + _SF_OFF, PREV_FREE_BIT)
        self._insert(cap, first, payload)

    # ------------------------------------------------------------ lookup

    def _cap(self, addr):
        """Capability of the pool that holds arena offset `addr`."""
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            cap = self._caps[i]
            if addr < cap.top:
                return cap
        raise InvalidFree("address %d is not inside any pool" % addr)

    def _live(self, payload_cap):
        """Pool capability, header offset and size+flags word of the live
        allocation that starts at payload_cap.  Raises InvalidFree for any
        other address, DoubleFree (one kind of it) for a free block."""
        addr = payload_cap.address
        header = addr - HEADER_SIZE
        cap = self._cap(addr)
        if header in self._live_headers:
            return cap, header, _read(cap, header + _SF_OFF)
        # only the host-side set vouches for a header: a size word inside a
        # live payload may be forged, so it is read here just to name the error
        if addr % ALIGN == 0 and header >= cap.base and _read(cap, header + _SF_OFF) & FREE_BIT:
            raise DoubleFree("block at %d already free" % header)
        raise InvalidFree("address %d is not an allocation start" % addr)

    # ------------------------------------------------------------ free lists

    def _insert(self, cap, off, size):
        fl, sl = mapping_insert(size)
        head = self._heads[fl][sl]
        _write_link(cap, off + _NEXT_OFF, head)
        _write_link(cap, off + _PREV_LINK_OFF, None)
        if head is not None:
            _write_link(self._cap(head), head + _PREV_LINK_OFF, off)
        self._heads[fl][sl] = off
        self._fl_bitmap |= 1 << fl
        self._sl_bitmaps[fl] |= 1 << sl
        if self.debug:
            self._touched.add((fl, sl))

    def _unlink(self, cap, off, size):
        fl, sl = mapping_insert(size)
        next_off = _read_link(cap, off + _NEXT_OFF)
        prev_off = _read_link(cap, off + _PREV_LINK_OFF)
        if prev_off is None:
            self._heads[fl][sl] = next_off
        else:
            _write_link(self._cap(prev_off), prev_off + _NEXT_OFF, next_off)
        if next_off is not None:
            _write_link(self._cap(next_off), next_off + _PREV_LINK_OFF, prev_off)
        if self._heads[fl][sl] is None:
            self._sl_bitmaps[fl] &= ~(1 << sl)
            if not self._sl_bitmaps[fl]:
                self._fl_bitmap &= ~(1 << fl)
        if self.debug:
            self._touched.add((fl, sl))

    # ------------------------------------------------------------ search

    def _find(self, size):
        fl, sl = _mapping_search(size)
        if fl < FL_COUNT:
            mask = self._sl_bitmaps[fl] & ~((1 << sl) - 1)
            if mask:
                return self._heads[fl][_lsb(mask)]
        fl_mask = self._fl_bitmap & ~((1 << (fl + 1)) - 1)
        if not fl_mask:
            return None
        fl2 = _lsb(fl_mask)
        return self._heads[fl2][_lsb(self._sl_bitmaps[fl2])]

    # ------------------------------------------------------------ split/merge

    def _split(self, cap, off, size):
        # off must be free; it leaves its list and comes back allocated,
        # with any remainder of at least MIN_BLOCK relisted as a free block
        sf = _read(cap, off + _SF_OFF)
        free_size = sf & ~0xF
        self._unlink(cap, off, free_size)
        prev_bit = sf & PREV_FREE_BIT
        rem_size = free_size - size - HEADER_SIZE
        if rem_size >= MIN_BLOCK:
            # the block after the remainder already records a free predecessor
            rem = off + HEADER_SIZE + size
            _write(cap, off + _SF_OFF, size | prev_bit)
            _write_link(cap, rem, off)
            _write(cap, rem + _SF_OFF, rem_size | FREE_BIT)
            _write_link(cap, rem + HEADER_SIZE + rem_size, rem)
            self._insert(cap, rem, rem_size)
        else:
            size = free_size
            nxt = off + HEADER_SIZE + size
            _write(cap, off + _SF_OFF, size | prev_bit)  # free bit cleared, size kept
            _write(cap, nxt + _SF_OFF, _read(cap, nxt + _SF_OFF) & ~PREV_FREE_BIT)
        self.stats.bytes_allocated += size
        self.stats.live_allocations += 1
        self._live_headers.add(off)

    def _merge(self, cap, off, sf):
        # off is allocated, with size+flags sf, and is being freed;
        # coalesce both physical neighbors
        size = sf & ~0xF
        self.stats.bytes_allocated -= size
        self.stats.live_allocations -= 1
        self._live_headers.remove(off)
        if sf & PREV_FREE_BIT:
            prev = _read_link(cap, off)
            prev_size = _read(cap, prev + _SF_OFF) & ~0xF
            self._unlink(cap, prev, prev_size)
            size += HEADER_SIZE + prev_size
            off = prev
        nxt = off + HEADER_SIZE + size
        nxt_sf = _read(cap, nxt + _SF_OFF)
        if nxt_sf & FREE_BIT:
            self._unlink(cap, nxt, nxt_sf & ~0xF)
            size += HEADER_SIZE + (nxt_sf & ~0xF)
            nxt = off + HEADER_SIZE + size
            nxt_sf = _read(cap, nxt + _SF_OFF)
        _write(cap, off + _SF_OFF, size | FREE_BIT)  # prev of a merged block is never free
        _write_link(cap, nxt, off)
        _write(cap, nxt + _SF_OFF, nxt_sf | PREV_FREE_BIT)
        self._insert(cap, off, size)

    # ------------------------------------------------------------ malloc/free

    def malloc(self, size):
        with self._lock:
            self._ensure_alive()
            rounded = round_representable_length(size)
            off = self._find(rounded)
            if off is None:
                raise OutOfMemory("no free block for %d bytes" % rounded)
            cap = self._cap(off)
            self._split(cap, off, rounded)
            payload = cap.address_set(off + HEADER_SIZE).bounds_set(rounded)
            self._after_op()
            return payload

    def free(self, cap):
        with self._lock:
            self._ensure_alive()
            self._merge(*self._live(cap))
            self._after_op()

    def payload_size(self, cap):
        """Rounded size recorded in the header of a live allocation.  Like
        :meth:`free`, refuses any capability that does not start one."""
        with self._lock:
            self._ensure_alive()
            return self._live(cap)[2] & ~0xF

    def destroy(self):
        """Hand every pool back for arena-level reclamation; the control is
        unusable afterward.  Live allocations are abandoned by design."""
        with self._lock:
            self._dead = True
            return list(self._pools)

    def _ensure_alive(self):
        if self._dead:
            raise RuntimeError("allocator control was destroyed")

    # ------------------------------------------------------------ integrity

    def _after_op(self):
        if not self.debug:
            return
        self._op_count += 1
        for fl, sl in self._touched:
            head = self._heads[fl][sl]
            bit = bool(self._sl_bitmaps[fl] >> sl & 1)
            assert bit == (head is not None), "bitmap desync at (%d, %d)" % (fl, sl)
            if head is not None:
                sf = _read(self._cap(head), head + _SF_OFF)
                assert sf & FREE_BIT
                assert mapping_insert(sf & ~0xF) == (fl, sl)
        self._touched.clear()
        if self._op_count % 1024 == 0:
            self._check_integrity()

    def check(self):
        with self._lock:
            self._ensure_alive()
            self._check_integrity()

    def _check_integrity(self):
        free_by_walk = {}
        allocated = set()
        allocated_bytes = 0
        for cap in self._caps:
            off, end = cap.base, cap.top - SENTINEL_SIZE
            prev_off = None
            prev_was_free = False
            while off < end:
                sf = _read(cap, off + _SF_OFF)
                size, is_free = sf & ~0xF, bool(sf & FREE_BIT)
                assert size >= MIN_BLOCK and size % ALIGN == 0
                assert bool(sf & PREV_FREE_BIT) == prev_was_free
                assert _read_link(cap, off) == prev_off
                assert not (prev_was_free and is_free), "unmerged neighbors"
                if is_free:
                    free_by_walk[off] = size
                else:
                    allocated.add(off)
                    allocated_bytes += size
                prev_off, prev_was_free = off, is_free
                off += HEADER_SIZE + size
            assert off == end, "walk must land on the sentinel"
            assert _read(cap, off + _SF_OFF) == (PREV_FREE_BIT if prev_was_free else 0)
            assert _read_link(cap, off) == prev_off
        listed = {}
        for fl in range(FL_COUNT):
            for sl in range(SL_COUNT):
                head = self._heads[fl][sl]
                bit = bool(self._sl_bitmaps[fl] >> sl & 1)
                assert bit == (head is not None)
                off = head
                prev_link = None
                steps = 0
                while off is not None:
                    steps += 1
                    assert steps <= len(free_by_walk) + 1, "free-list cycle"
                    link_cap = self._cap(off)
                    sf = _read(link_cap, off + _SF_OFF)
                    assert sf & FREE_BIT
                    assert mapping_insert(sf & ~0xF) == (fl, sl)
                    assert _read_link(link_cap, off + _PREV_LINK_OFF) == prev_link
                    assert off not in listed
                    listed[off] = sf & ~0xF
                    prev_link = off
                    off = _read_link(link_cap, off + _NEXT_OFF)
        assert listed == free_by_walk, "free lists and physical walk disagree"
        assert self.stats.bytes_allocated == allocated_bytes
        assert self.stats.live_allocations == len(allocated)
        assert self._live_headers == allocated, "live set and physical walk disagree"
        assert self.stats.bytes_reserved == sum(p.size for p in self._pools)


def tlsf_create_with_pool(region, size, max_pool_size=DEFAULT_MAX_POOL_SIZE, debug=False):
    """Initialize a control inside `region`; the remaining space past the
    control area becomes one free block."""
    if max_pool_size > 1 << 31:
        raise ValueError("max pool size must stay below 2 GiB")
    ctrl = TlsfControl(max_pool_size, debug)
    ctrl._validate_pool(region, size, minimum=CONTROL_SIZE + POOL_OVERHEAD + MIN_BLOCK)
    ctrl._init_pool(region, size, has_control=True)
    if debug:
        ctrl._check_integrity()
    return ctrl
