"""Two-level segregated-fit allocator running inside a MemoryArena.

Port parameters follow the capability-width variant of the classic layout:
16-byte alignment (ALIGN_SIZE_LOG2 = 4), header offsets in 16-byte units
("doubled sizeof(size_t)"), 32 second-level classes, small-block threshold
256.  Per-block metadata lives in the arena.  A block is named by the arena
offset of its header.  An operation reaches each header it touches through
one checked ``Capability.view`` of the pool that holds it and packs or
unpacks the fields there, so every metadata access is checked before a byte
moves, once per header rather than once per field.  The control
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

import struct
from bisect import bisect_right
from typing import NamedTuple

from capdomains.capmem import TagViolation, round_representable_length

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

# Each field is an 8-byte little-endian word at the start of its 16 bytes.
# Links are stored +1, so that a stored zero means "none" even at arena
# offset 0; in host code "none" is NIL, which the +1 turns into that zero.
NIL = -1
_HEADER = struct.Struct("<Q8xQ8xQ8xQ")  # the four fields of a header
_PAIR = struct.Struct("<Q8xQ")  # two adjacent fields: prev_phys + size, or the links
_WORD = struct.Struct("<Q")


class AllocationError(Exception):
    pass


class OutOfMemory(AllocationError):
    pass


class InvalidFree(AllocationError):
    pass


class DoubleFree(InvalidFree):
    pass


class AllocStats:
    __slots__ = ("bytes_allocated", "bytes_reserved", "live_allocations")

    def __init__(self):
        self.bytes_allocated = self.bytes_reserved = self.live_allocations = 0


class PoolDescriptor(NamedTuple):
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


def check_alloc_size(size):
    """Refuse, before any state changes, a size that is not a non-negative int."""
    if not isinstance(size, int) or size < 0:
        raise ValueError("allocation size must be a non-negative int, got %r" % (size,))


class TlsfControl:
    """Allocator state over one or more pools, used through add_pool,
    malloc, free, payload_size, destroy, check, pools and stats.  A control
    belongs to one thread and takes no lock; distinct controls are independent.
    free and payload_size refuse any capability that does not span exactly
    a live allocation, as a host-side record of header offsets and payload
    lengths holds them, and fault on one whose tag is cleared.

    A block is named by the arena offset of its header, and each header is
    reached through one view of the capability of the pool that holds it,
    which :meth:`_cap` finds.  Physical neighbours share a pool and its
    capability; a free-list link may lead into another pool and is looked
    up again.
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
        self._heads = [NIL] * (FL_COUNT * SL_COUNT)  # class (fl, sl) at fl * SL_COUNT + sl
        # header offset -> payload length handed out, of each live allocation;
        # a block that absorbed a remainder too small to split records more
        self._live_headers = {}
        self._fl_bitmap = 0
        self._sl_bitmaps = [0] * FL_COUNT
        self._dead = False
        self._op_count = 0
        self._touched = set()

    # ------------------------------------------------------------ queries

    @property
    def pools(self):
        return tuple(self._pools)

    # ------------------------------------------------------------ pools

    def add_pool(self, region, size):
        self._ensure_alive()
        self._validate_pool(region, size, minimum=POOL_OVERHEAD + MIN_BLOCK)
        self._init_pool(region, size, has_control=False)
        self._after_op()

    def _validate_pool(self, region, size, minimum):
        if not isinstance(size, int) or size % ALIGN or region.address % ALIGN:
            raise ValueError("pool base and size must be 16-byte aligned ints")
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
        _PAIR.pack_into(cap.view(sentinel, SENTINEL_SIZE), 0, first + 1, PREV_FREE_BIT)
        h = cap.view(first, HEADER_SIZE)
        _PAIR.pack_into(h, 0, NIL + 1, payload | FREE_BIT)  # no physical predecessor
        self._insert(h, first, payload)

    # ------------------------------------------------------------ lookup

    def _cap(self, addr):
        """Capability of the pool that holds arena offset `addr`."""
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            cap = self._caps[i]
            if addr < cap.top:
                return cap
        raise InvalidFree("address %d is not inside any pool" % addr)

    def _set_link(self, off, field, target):
        """Point the link ``field`` of the header at ``off`` to ``target``."""
        _WORD.pack_into(self._cap(off).view(off + field, FIELD), 0, target + 1)

    def _live(self, payload_cap):
        """Pool capability, header offset, header view and size+flags word
        of the live allocation that payload_cap spans exactly.  A cleared tag
        faults, as any other use of the capability would; DoubleFree (one
        kind of InvalidFree) names a free block, InvalidFree anything else."""
        addr = payload_cap.address
        if not payload_cap.tag:
            raise TagViolation(addr)
        header = addr - HEADER_SIZE
        cap = self._cap(addr)
        length = self._live_headers.get(header)
        if length is not None:
            if payload_cap.base != addr or payload_cap.top != addr + length:
                raise InvalidFree("capability does not span the allocation at %d" % addr)
            h = cap.view(header, HEADER_SIZE)
            return cap, header, h, _WORD.unpack_from(h, _SF_OFF)[0]
        # only the host-side record vouches for a header: a size word inside a
        # live payload may be forged, so it is read here just to name the error
        if addr % ALIGN == 0 and header >= cap.base:
            if _WORD.unpack_from(cap.view(header, HEADER_SIZE), _SF_OFF)[0] & FREE_BIT:
                raise DoubleFree("block at %d already free" % header)
        raise InvalidFree("address %d is not an allocation start" % addr)

    # ------------------------------------------------------------ free lists

    def _insert(self, h, off, size):
        # h is the view of off's header; off goes to the head of its list
        fl, sl = mapping_insert(size)
        i = fl * SL_COUNT + sl
        head = self._heads[i]
        _PAIR.pack_into(h, _NEXT_OFF, head + 1, NIL + 1)
        if head != NIL:
            self._set_link(head, _PREV_LINK_OFF, off)
        self._heads[i] = off
        self._fl_bitmap |= 1 << fl
        self._sl_bitmaps[fl] |= 1 << sl
        if self.debug:
            self._touched.add((fl, sl))

    def _unlink(self, size, next_off, prev_off):
        # a free block of `size` with these links leaves its list
        fl, sl = mapping_insert(size)
        i = fl * SL_COUNT + sl
        if prev_off == NIL:
            self._heads[i] = next_off
        else:
            self._set_link(prev_off, _NEXT_OFF, next_off)
        if next_off != NIL:
            self._set_link(next_off, _PREV_LINK_OFF, prev_off)
        if self._heads[i] == NIL:
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
                return self._heads[fl * SL_COUNT + _lsb(mask)]
        fl_mask = self._fl_bitmap & ~((1 << (fl + 1)) - 1)
        if not fl_mask:
            return NIL
        fl2 = _lsb(fl_mask)
        return self._heads[fl2 * SL_COUNT + _lsb(self._sl_bitmaps[fl2])]

    # ------------------------------------------------------------ split/merge

    def _split(self, cap, off, size):
        # off must be free; it leaves its list and comes back allocated to a
        # payload of `size`, with any remainder of at least MIN_BLOCK relisted
        # as a free block.  A view of SENTINEL_SIZE holds the two fields that
        # every block, the sentinel included, starts with.
        h = cap.view(off, HEADER_SIZE)
        _, sf, next_link, prev_link = _HEADER.unpack_from(h)
        free_size = sf & ~0xF
        self._unlink(free_size, next_link - 1, prev_link - 1)
        prev_bit = sf & PREV_FREE_BIT
        length = size
        rem_size = free_size - size - HEADER_SIZE
        if rem_size >= MIN_BLOCK:
            # the block after the remainder already records a free predecessor
            rem = off + HEADER_SIZE + size
            _WORD.pack_into(h, _SF_OFF, size | prev_bit)
            rh = cap.view(rem, HEADER_SIZE)
            _PAIR.pack_into(rh, 0, off + 1, rem_size | FREE_BIT)
            _WORD.pack_into(cap.view(rem + HEADER_SIZE + rem_size, SENTINEL_SIZE), 0, rem + 1)
            self._insert(rh, rem, rem_size)
        else:
            size = free_size
            _WORD.pack_into(h, _SF_OFF, size | prev_bit)  # free bit cleared, size kept
            nh = cap.view(off + HEADER_SIZE + size, SENTINEL_SIZE)
            _WORD.pack_into(nh, _SF_OFF, _WORD.unpack_from(nh, _SF_OFF)[0] & ~PREV_FREE_BIT)
        self.stats.bytes_allocated += size
        self.stats.live_allocations += 1
        self._live_headers[off] = length

    def _merge(self, cap, off, h, sf):
        # off is allocated, with header view h and size+flags sf, and is
        # being freed; coalesce both physical neighbors
        size = sf & ~0xF
        self.stats.bytes_allocated -= size
        self.stats.live_allocations -= 1
        del self._live_headers[off]
        if sf & PREV_FREE_BIT:
            off = _WORD.unpack_from(h)[0] - 1
            h = cap.view(off, HEADER_SIZE)
            _, prev_sf, next_link, prev_link = _HEADER.unpack_from(h)
            self._unlink(prev_sf & ~0xF, next_link - 1, prev_link - 1)
            size += HEADER_SIZE + (prev_sf & ~0xF)
        nxt = off + HEADER_SIZE + size
        # a whole header, but only the two fields of a pool's end sentinel
        nh = cap.view(nxt, HEADER_SIZE if nxt + HEADER_SIZE < cap.top else SENTINEL_SIZE)
        nxt_sf = _WORD.unpack_from(nh, _SF_OFF)[0]
        if nxt_sf & FREE_BIT:
            next_link, prev_link = _PAIR.unpack_from(nh, _NEXT_OFF)
            self._unlink(nxt_sf & ~0xF, next_link - 1, prev_link - 1)
            size += HEADER_SIZE + (nxt_sf & ~0xF)
            nxt = off + HEADER_SIZE + size
            nh = cap.view(nxt, SENTINEL_SIZE)
            nxt_sf = _WORD.unpack_from(nh, _SF_OFF)[0]
        _WORD.pack_into(h, _SF_OFF, size | FREE_BIT)  # prev of a merged block is never free
        _PAIR.pack_into(nh, 0, off + 1, nxt_sf | PREV_FREE_BIT)
        self._insert(h, off, size)

    # ------------------------------------------------------------ malloc/free

    def malloc(self, size):
        check_alloc_size(size)
        self._ensure_alive()
        rounded = round_representable_length(size)
        off = self._find(rounded)
        if off == NIL:
            raise OutOfMemory("no free block for %d bytes" % rounded)
        cap = self._cap(off)
        self._split(cap, off, rounded)
        payload = cap.address_set(off + HEADER_SIZE).bounds_set(rounded)
        self._after_op()
        return payload

    def free(self, cap):
        self._ensure_alive()
        self._merge(*self._live(cap))
        self._after_op()

    def payload_size(self, cap):
        """Rounded size recorded in the header of a live allocation.  Like
        :meth:`free`, refuses any capability that does not span exactly one."""
        self._ensure_alive()
        return self._live(cap)[3] & ~0xF

    def destroy(self):
        """Hand every pool back for arena-level reclamation; the control is
        unusable afterward.  Live allocations are abandoned by design."""
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
            head = self._heads[fl * SL_COUNT + sl]
            bit = bool(self._sl_bitmaps[fl] >> sl & 1)
            assert bit == (head != NIL), "bitmap desync at (%d, %d)" % (fl, sl)
            if head != NIL:
                sf = _WORD.unpack_from(self._cap(head).view(head, HEADER_SIZE), _SF_OFF)[0]
                assert sf & FREE_BIT
                assert mapping_insert(sf & ~0xF) == (fl, sl)
        self._touched.clear()
        if self._op_count % 1024 == 0:
            self._check_integrity()

    def check(self):
        self._ensure_alive()
        self._check_integrity()

    def _check_integrity(self):
        free_by_walk = {}
        allocated = set()
        allocated_bytes = 0
        for cap in self._caps:
            off, end = cap.base, cap.top - SENTINEL_SIZE
            prev_off = NIL
            prev_was_free = False
            while off < end:
                prev_link, sf = _PAIR.unpack_from(cap.view(off, SENTINEL_SIZE))
                size, is_free = sf & ~0xF, bool(sf & FREE_BIT)
                assert size >= MIN_BLOCK and size % ALIGN == 0
                assert bool(sf & PREV_FREE_BIT) == prev_was_free
                assert prev_link - 1 == prev_off
                assert not (prev_was_free and is_free), "unmerged neighbors"
                if is_free:
                    free_by_walk[off] = size
                else:
                    allocated.add(off)
                    allocated_bytes += size
                prev_off, prev_was_free = off, is_free
                off += HEADER_SIZE + size
            assert off == end, "walk must land on the sentinel"
            prev_link, sf = _PAIR.unpack_from(cap.view(off, SENTINEL_SIZE))
            assert sf == (PREV_FREE_BIT if prev_was_free else 0)
            assert prev_link - 1 == prev_off
        listed = {}
        for fl in range(FL_COUNT):
            for sl in range(SL_COUNT):
                head = self._heads[fl * SL_COUNT + sl]
                bit = bool(self._sl_bitmaps[fl] >> sl & 1)
                assert bit == (head != NIL)
                off = head
                prev_off = NIL
                steps = 0
                while off != NIL:
                    steps += 1
                    assert steps <= len(free_by_walk) + 1, "free-list cycle"
                    _, sf, next_link, prev_link = _HEADER.unpack_from(
                        self._cap(off).view(off, HEADER_SIZE))
                    assert sf & FREE_BIT
                    assert mapping_insert(sf & ~0xF) == (fl, sl)
                    assert prev_link - 1 == prev_off
                    assert off not in listed
                    listed[off] = sf & ~0xF
                    prev_off = off
                    off = next_link - 1
        assert listed == free_by_walk, "free lists and physical walk disagree"
        assert self.stats.bytes_allocated == allocated_bytes
        assert self.stats.live_allocations == len(allocated)
        assert self._live_headers.keys() == allocated, "live set and physical walk disagree"
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
