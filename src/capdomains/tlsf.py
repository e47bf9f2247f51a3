"""Two-level segregated-fit allocator running inside a MemoryArena.

Port parameters follow the capability-width variant of the classic layout:
16-byte alignment (ALIGN_SIZE_LOG2 = 4), header offsets in 16-byte units
("doubled sizeof(size_t)"), 32 second-level classes, small-block threshold
256.  Per-block metadata lives in the arena and is reached only through
capabilities derived from the heap authority; the control structure's byte
area is reserved at the head of the first pool but its contents are mirrored
in host objects (bitmaps and list heads) rather than serialized.

Block geometry::

    header (64 B): prev_phys | size+flags | next_free | prev_free
    payload (size bytes, multiple of 16, >= 16)

The free-list link fields are header-resident: a 16-byte minimum block cannot
hold two capability-width links in its payload, so the 8-byte-era trick of
overlapping links into free payloads does not carry over.  Each pool ends in
a 32-byte sentinel (prev_phys + size fields only) whose size is zero.
"""

import threading
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


class DoubleFree(AllocationError):
    pass


class InvalidFree(AllocationError):
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


class BlockRef:
    """Header view: a capability addressed at the header plus a cached
    size+flags word.  Mutations go through the capability."""

    __slots__ = ("off", "_cap", "_sf")

    def __init__(self, off, cap, sf=None):
        self.off = off
        self._cap = cap
        if sf is None:
            sf = int.from_bytes(cap.load(_SF_OFF, 8), "little")
        self._sf = sf

    def __repr__(self):
        return "BlockRef(off=%d, size=%d, free=%s)" % (self.off, self.size, self.is_free)

    @property
    def size(self):
        return self._sf & ~0xF

    @property
    def is_free(self):
        return bool(self._sf & FREE_BIT)

    @property
    def prev_free(self):
        return bool(self._sf & PREV_FREE_BIT)

    @property
    def payload_offset(self):
        return self.off + HEADER_SIZE

    def _write_sf(self, sf):
        self._cap.store(_SF_OFF, sf.to_bytes(8, "little"))
        self._sf = sf

    # offsets are stored +1 so zero can mean "none" even at arena offset 0
    def _read_ref(self, field_off):
        raw = int.from_bytes(self._cap.load(field_off, 8), "little")
        return raw - 1 if raw else None

    def _write_ref(self, field_off, off):
        raw = 0 if off is None else off + 1
        self._cap.store(field_off, raw.to_bytes(8, "little"))

    def _at(self, off):
        """Sibling header view in the same pool."""
        return BlockRef(off, self._cap.address_set(off))


class TlsfControl:
    """Allocator state over one or more pools.  Public operations are
    serialized by an internal lock; distinct controls are independent."""

    def __init__(self, heap_cap, max_pool_size, debug):
        self.heap_cap = heap_cap
        self.max_pool_size = max_pool_size
        self.debug = debug
        self.stats = AllocStats()
        self._pools = []
        self._heads = [[None] * SL_COUNT for _ in range(FL_COUNT)]
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

    def class_bit_set(self, fl, sl):
        return bool(self._sl_bitmaps[fl] >> sl & 1) and bool(self._fl_bitmap >> fl & 1)

    @property
    def free_bytes(self):
        total = 0
        for fl in range(FL_COUNT):
            for sl in range(SL_COUNT):
                off = self._heads[fl][sl]
                while off is not None:
                    blk = self._block_at(off)
                    total += blk.size
                    off = blk._read_ref(_NEXT_OFF)
        return total

    # ------------------------------------------------------------ pools

    def add_pool(self, region, size):
        with self._lock:
            self._ensure_alive()
            self._validate_pool(region, size, minimum=POOL_OVERHEAD + MIN_BLOCK)
            narrowed = region.bounds_set(size)
            self._init_pool(narrowed, size, has_control=False)
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

    def _init_pool(self, narrowed, size, has_control):
        base = narrowed.base
        first_off = base + (CONTROL_SIZE if has_control else 0)
        payload = size - (CONTROL_SIZE if has_control else 0) - POOL_OVERHEAD
        blk = BlockRef(first_off, narrowed.address_set(first_off), sf=0)
        blk._write_ref(0, None)  # no physical predecessor
        blk._write_sf(payload | FREE_BIT)
        sentinel = blk._at(base + size - SENTINEL_SIZE)
        sentinel._write_ref(0, first_off)
        sentinel._write_sf(0 | PREV_FREE_BIT)
        self._pools.append(PoolDescriptor(narrowed, size, has_control))
        self.stats.bytes_reserved += size
        self._insert(blk)

    # ------------------------------------------------------------ lookup

    def _pool_of(self, addr):
        for p in self._pools:
            if p.region.base <= addr < p.region.base + p.size:
                return p
        return None

    def _block_at(self, off):
        pool = self._pool_of(off)
        return BlockRef(off, pool.region.address_set(off))

    def offset_to_block(self, payload_cap):
        with self._lock:
            self._ensure_alive()
            return self._offset_to_block(payload_cap)

    def _offset_to_block(self, payload_cap):
        addr = payload_cap.address
        pool = self._pool_of(addr)
        if pool is None:
            raise InvalidFree("address %d is not inside any pool" % addr)
        header_off = addr - HEADER_SIZE
        if addr % ALIGN or header_off < pool.region.base + (CONTROL_SIZE if pool.has_control else 0):
            raise InvalidFree("address %d is not an allocation start" % addr)
        # derive from the whole-heap authority, never by widening payload_cap
        src = self.heap_cap if self.heap_cap.base <= header_off < self.heap_cap.top else pool.region
        return BlockRef(header_off, src.address_set(header_off))

    # ------------------------------------------------------------ free lists

    def _set_class(self, fl, sl):
        self._fl_bitmap |= 1 << fl
        self._sl_bitmaps[fl] |= 1 << sl

    def _clear_class(self, fl, sl):
        self._sl_bitmaps[fl] &= ~(1 << sl)
        if not self._sl_bitmaps[fl]:
            self._fl_bitmap &= ~(1 << fl)

    def _insert(self, blk):
        fl, sl = mapping_insert(blk.size)
        head = self._heads[fl][sl]
        blk._write_ref(_NEXT_OFF, head)
        blk._write_ref(_PREV_LINK_OFF, None)
        if head is not None:
            self._block_at(head)._write_ref(_PREV_LINK_OFF, blk.off)
        self._heads[fl][sl] = blk.off
        self._set_class(fl, sl)
        if self.debug:
            self._touched.add((fl, sl))

    def _unlink(self, blk):
        fl, sl = mapping_insert(blk.size)
        next_off = blk._read_ref(_NEXT_OFF)
        prev_off = blk._read_ref(_PREV_LINK_OFF)
        if prev_off is None:
            self._heads[fl][sl] = next_off
        else:
            blk._at(prev_off)._write_ref(_NEXT_OFF, next_off)
        if next_off is not None:
            blk._at(next_off)._write_ref(_PREV_LINK_OFF, prev_off)
        if self._heads[fl][sl] is None:
            self._clear_class(fl, sl)
        if self.debug:
            self._touched.add((fl, sl))

    # ------------------------------------------------------------ search

    def find_suitable_block(self, size):
        with self._lock:
            self._ensure_alive()
            return self._find(size)

    def _find(self, size):
        fl, sl = _mapping_search(size)
        if fl < FL_COUNT:
            mask = self._sl_bitmaps[fl] & ~((1 << sl) - 1)
            if mask:
                return self._block_at(self._heads[fl][_lsb(mask)])
        fl_mask = self._fl_bitmap & ~((1 << (fl + 1)) - 1)
        if not fl_mask:
            return None
        fl2 = _lsb(fl_mask)
        sl2 = _lsb(self._sl_bitmaps[fl2])
        return self._block_at(self._heads[fl2][sl2])

    # ------------------------------------------------------------ split/merge

    def block_split(self, blk, size):
        with self._lock:
            self._ensure_alive()
            out = self._split(blk, size)
            self._after_op()
            return out

    def _split(self, blk, size):
        # blk must be free; it leaves its list and comes back allocated
        self._unlink(blk)
        remainder = None
        rem_payload = blk.size - size - HEADER_SIZE
        prev_bit = blk._sf & PREV_FREE_BIT
        if rem_payload >= MIN_BLOCK:
            blk._write_sf(size | prev_bit)
            rem_off = blk.off + HEADER_SIZE + size
            remainder = BlockRef(rem_off, blk._cap.address_set(rem_off), sf=0)
            remainder._write_ref(0, blk.off)
            remainder._write_sf(rem_payload | FREE_BIT)
            nxt = blk._at(rem_off + HEADER_SIZE + rem_payload)
            nxt._write_ref(0, rem_off)
            nxt._write_sf(nxt._sf | PREV_FREE_BIT)
            self._insert(remainder)
        else:
            blk._write_sf(blk.size | prev_bit)  # free bit cleared, size kept
            nxt = blk._at(blk.off + HEADER_SIZE + blk.size)
            nxt._write_sf(nxt._sf & ~PREV_FREE_BIT)
        self.stats.bytes_allocated += blk.size
        self.stats.live_allocations += 1
        return blk, remainder

    def _merge(self, blk):
        # blk is allocated and being freed; coalesce both physical neighbors
        self.stats.bytes_allocated -= blk.size
        self.stats.live_allocations -= 1
        size = blk.size
        if blk.prev_free:
            prev = blk._at(blk._read_ref(0))
            self._unlink(prev)
            size += HEADER_SIZE + prev.size
            blk = prev
        nxt = blk._at(blk.off + HEADER_SIZE + size)
        if nxt.is_free:
            self._unlink(nxt)
            size += HEADER_SIZE + nxt.size
        blk._write_sf(size | FREE_BIT)  # prev of a merged block is never free
        nxt = blk._at(blk.off + HEADER_SIZE + size)
        nxt._write_ref(0, blk.off)
        nxt._write_sf(nxt._sf | PREV_FREE_BIT)
        self._insert(blk)
        return blk

    # ------------------------------------------------------------ malloc/free

    def malloc(self, size):
        with self._lock:
            self._ensure_alive()
            rounded = round_representable_length(size)
            blk = self._find(rounded)
            if blk is None:
                raise OutOfMemory("no free block for %d bytes" % rounded)
            alloc, _ = self._split(blk, rounded)
            cap = alloc._cap.address_set(alloc.payload_offset).bounds_set(rounded)
            self._after_op()
            return cap

    def free(self, cap):
        with self._lock:
            self._ensure_alive()
            blk = self._offset_to_block(cap)
            if blk.is_free:
                raise DoubleFree("block at %d already free" % blk.off)
            self._merge(blk)
            self._after_op()

    def payload_size(self, cap):
        """Rounded size recorded in the header of a live allocation."""
        with self._lock:
            self._ensure_alive()
            return self._offset_to_block(cap).size

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
                blk = self._block_at(head)
                assert blk.is_free
                assert mapping_insert(blk.size) == (fl, sl)
        self._touched.clear()
        if self._op_count % 1024 == 0:
            self._check_integrity()

    def check(self):
        with self._lock:
            self._ensure_alive()
            self._check_integrity()

    def _check_integrity(self):
        free_by_walk = {}
        allocated_bytes = 0
        allocated_count = 0
        for p in self._pools:
            off = p.region.base + (CONTROL_SIZE if p.has_control else 0)
            end = p.region.base + p.size - SENTINEL_SIZE
            prev_off = None
            prev_was_free = False
            while off < end:
                blk = self._block_at(off)
                assert blk.size >= MIN_BLOCK and blk.size % ALIGN == 0
                assert blk.prev_free == prev_was_free
                assert blk._read_ref(0) == prev_off
                assert not (prev_was_free and blk.is_free), "unmerged neighbors"
                if blk.is_free:
                    free_by_walk[off] = blk.size
                else:
                    allocated_bytes += blk.size
                    allocated_count += 1
                prev_off, prev_was_free = off, blk.is_free
                off += HEADER_SIZE + blk.size
            assert off == end, "walk must land on the sentinel"
            sentinel = self._block_at(off)
            assert sentinel.size == 0
            assert sentinel.prev_free == prev_was_free
            assert sentinel._read_ref(0) == prev_off
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
                    blk = self._block_at(off)
                    assert blk.is_free
                    assert mapping_insert(blk.size) == (fl, sl)
                    assert blk._read_ref(_PREV_LINK_OFF) == prev_link
                    assert off not in listed
                    listed[off] = blk.size
                    prev_link = off
                    off = blk._read_ref(_NEXT_OFF)
        assert listed == free_by_walk, "free lists and physical walk disagree"
        assert bool(self._fl_bitmap) == bool(free_by_walk) or self._fl_bitmap >= 0
        assert self.stats.bytes_allocated == allocated_bytes
        assert self.stats.live_allocations == allocated_count
        assert self.stats.bytes_reserved == sum(p.size for p in self._pools)


def tlsf_create_with_pool(region, size, max_pool_size=DEFAULT_MAX_POOL_SIZE, debug=False):
    """Initialize a control inside `region`; the remaining space past the
    control area becomes one free block."""
    if max_pool_size > 1 << 31:
        raise ValueError("max pool size must stay below 2 GiB")
    ctrl = TlsfControl(region, max_pool_size, debug)
    ctrl._validate_pool(region, size, minimum=CONTROL_SIZE + POOL_OVERHEAD + MIN_BLOCK)
    narrowed = region.bounds_set(size)
    ctrl._init_pool(narrowed, size, has_control=True)
    if debug:
        ctrl._check_integrity()
    return ctrl
