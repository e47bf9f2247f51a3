"""Software emulation of capability-checked memory over a flat byte arena.

Every guarded access goes through a Capability: an address plus bounds,
permissions (two bits of an int, ``PERM_LOAD`` and ``PERM_STORE``, that
derivation can only clear) and a validity tag.  Checks run in a fixed order
(tag, then permission, then bounds) and always *before* the arena is
touched, so a faulting store leaves the arena bit-identical.  Out-of-bounds
addresses are representable on derivation; only dereferencing them faults.

``store`` and ``load`` move one run of bytes per check.  ``view`` checks a
whole window once and hands back a writable memoryview of it, so a caller
that reads and writes several fields of one record (an allocator header, a
request line) pays for one check, not one per field.

The arena is an anonymous private mapping, so a page is committed only when
something first writes to it.  ``MemoryArena.reserve`` hands out each region
as its own root capability, and releasing it hands its whole pages back to
the kernel, as discarding a domain does in SDRaD.
"""

import enum
import mmap
import sys
from bisect import bisect_left, insort
from operator import attrgetter
from typing import NamedTuple


class FaultKind(enum.Enum):
    TAG = "tag-violation"
    PERMISSION = "permission-violation"
    BOUNDS = "bounds-violation"


class FaultRecord(NamedTuple):
    """Cause of a rejected access.  The faulting access wrote zero bytes."""

    kind: FaultKind
    faulting_address: int
    access_len: int
    domain_udi: int = 0


class ProtectionFault(Exception):
    """Base for capability check failures; carries a FaultRecord."""

    kind = None  # set by subclasses

    def __init__(self, faulting_address, access_len=0):
        self.record = FaultRecord(self.kind, faulting_address, access_len)
        super().__init__(
            "%s at arena offset %d (access of %d bytes)"
            % (self.kind.value, faulting_address, access_len)
        )


class TagViolation(ProtectionFault):
    kind = FaultKind.TAG


class PermissionViolation(ProtectionFault):
    kind = FaultKind.PERMISSION


class BoundsViolation(ProtectionFault):
    kind = FaultKind.BOUNDS


class MainDomainFault(Exception):
    """A protection fault reached the main domain; there is nothing to rewind."""

    def __init__(self, record: FaultRecord):
        super().__init__(f"unrecoverable fault reached the main domain: {record}")
        self.record = record


class ArenaExhausted(Exception):
    """No gap large enough to reserve a region."""


PERM_LOAD = 1
PERM_STORE = 2
PERM_RW = PERM_LOAD | PERM_STORE


def round_representable_length(size):
    """Smallest multiple of 16 that is >= max(size, 16).

    Stand-in for representable-length rounding; real compressed bounds are
    exact at these small sizes anyway.
    """
    if size <= 16:
        return 16
    return (size + 15) & ~15


class Capability:
    """Protected reference into one arena.  Immutable by convention.

    The only constructors are the arena root and the derivation methods, so
    provenance is enforced structurally.  Equality ignores arena identity
    only in the sense that two caps over different arenas never compare
    equal (the arena is part of the key).
    """

    __slots__ = ("_arena", "address", "base", "top", "perms", "tag")

    def __init__(self, arena, address, base, top, perms, tag):
        self._arena = arena
        self.address = address
        self.base = base
        self.top = top
        self.perms = perms
        self.tag = tag

    def __repr__(self):
        return "Capability(addr=%d, base=%d, top=%d, perms=%s%s, tag=%s)" % (
            self.address,
            self.base,
            self.top,
            "r" if self.perms & PERM_LOAD else "-",
            "w" if self.perms & PERM_STORE else "-",
            self.tag,
        )

    def __eq__(self, other):
        if not isinstance(other, Capability):
            return NotImplemented
        return (
            self._arena is other._arena
            and self.address == other.address
            and self.base == other.base
            and self.top == other.top
            and self.perms == other.perms
            and self.tag == other.tag
        )

    def __hash__(self):
        return hash((id(self._arena), self.address, self.base, self.top, self.tag))

    # -- derivation (monotonic: bounds only narrow, perms only clear) --

    def address_set(self, new_address):
        """Same bounds and perms, new address (may lie outside the bounds)."""
        if not self.tag:
            raise TagViolation(self.address)
        return Capability(self._arena, new_address, self.base, self.top, self.perms, True)

    def bounds_set(self, length):
        """Narrow to [address, address+length); the window must fit in bounds."""
        if not self.tag:
            raise TagViolation(self.address)
        addr = self.address
        if addr < self.base or addr + length > self.top or length < 0:
            raise BoundsViolation(addr, length)
        return Capability(self._arena, addr, addr, addr + length, self.perms, True)

    def perms_and(self, load=True, store=True):
        """Mask permissions; bits can only be cleared, never re-granted."""
        if not self.tag:
            raise TagViolation(self.address)
        mask = (PERM_LOAD if load else 0) | (PERM_STORE if store else 0)
        return Capability(
            self._arena,
            self.address,
            self.base,
            self.top,
            self.perms & mask,
            True,
        )

    def untagged(self):
        """Copy with the validity tag cleared; every dereference will fault."""
        return Capability(self._arena, self.address, self.base, self.top, self.perms, False)

    # -- guarded access (check order: tag, permission, bounds) --

    def store(self, offset, data):
        n = len(data)
        if not self.tag:
            raise TagViolation(self.address + offset, n)
        if not self.perms & PERM_STORE:
            raise PermissionViolation(self.address + offset, n)
        addr = self.address + offset
        if n and (addr < self.base or addr + n > self.top):
            raise BoundsViolation(addr, n)
        self._arena._mem[addr : addr + n] = data

    def load(self, offset, length):
        if not self.tag:
            raise TagViolation(self.address + offset, length)
        if not self.perms & PERM_LOAD:
            raise PermissionViolation(self.address + offset, length)
        addr = self.address + offset
        if length and (addr < self.base or addr + length > self.top or length < 0):
            raise BoundsViolation(addr, length)
        return bytes(self._arena._view[addr : addr + length])

    def view(self, offset, length):
        """Writable memoryview of ``length`` arena bytes at ``address + offset``.

        One check covers every later read and write through the view, so it
        needs both load and store permission.  A fault raises what a
        ``store`` of that window would, with the same record, before any
        byte moves.  A zero-length view is tag-checked only.
        """
        addr = self.address + offset
        if not self.tag:
            raise TagViolation(addr, length)
        if self.perms != PERM_RW:
            raise PermissionViolation(addr, length)
        if length and (addr < self.base or addr + length > self.top or length < 0):
            raise BoundsViolation(addr, length)
        return self._arena._view[addr : addr + length]


_PAGE = mmap.PAGESIZE
# copied over the parts of a released region that are not whole pages
_ZEROS = memoryview(bytes(_PAGE))
# On Linux, MADV_DONTNEED on a private anonymous mapping drops the pages and
# refills them with zeros on the next touch.  Elsewhere it is only a hint
# that may keep the old bytes, so release copies zeros over the whole region.
_DONTNEED_ZEROES = sys.platform.startswith("linux") and hasattr(mmap, "MADV_DONTNEED")
_BASE = attrgetter("base")


class MemoryArena:
    """Flat zero-filled byte store; the sole target of capability accesses.

    The store is an anonymous private mapping: it reads as zeros, and a page
    becomes resident only when something first writes to it, so an arena
    larger than what its heaps use costs address space, not memory.

    Also keeps a non-overlapping ledger of reserved regions (the mmap
    stand-in), each held as the region root that ``reserve`` minted, so
    heap discards can be audited: reserved_bytes must return to its prior
    value when a domain is destroyed.  A released region reads as zeros
    again, as the pages of a fresh mmap do, so nothing written into a
    discarded heap can be read out of the next one; its whole pages go back
    to the kernel.
    """

    def __init__(self, size):
        if size <= 0:
            raise ValueError("arena size must be positive")
        self.size = size
        self._mem = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        # loads copy once, out of this view
        self._view = memoryview(self._mem)
        self._regions = []  # sorted by base
        self.root = Capability(self, 0, 0, size, PERM_RW, True)

    def snapshot(self):
        return bytes(self._mem)

    @property
    def reserved_bytes(self):
        return sum(r.top - r.base for r in self._regions)

    def reserve(self, length):
        """First-fit reservation at a 16-aligned base.  Regions never overlap.
        Returns the region root: a read-write capability spanning just it."""
        if not isinstance(length, int) or length <= 0:
            raise ValueError("region length must be a positive int, got %r" % (length,))
        candidate = 0
        for r in self._regions:
            if candidate + length <= r.base:
                break
            candidate = (r.top + 15) & ~15
        if candidate + length > self.size:
            raise ArenaExhausted(
                "no %d-byte gap in %d-byte arena (%d reserved)"
                % (length, self.size, self.reserved_bytes)
            )
        region = Capability(self, candidate, candidate, candidate + length, PERM_RW, True)
        insort(self._regions, region, key=_BASE)
        return region

    def release(self, region):
        """Hand back the region root that ``reserve`` of this arena returned.

        Afterwards the region reads as zeros.  Its whole pages are dropped
        with ``MADV_DONTNEED``; zeros are copied over the partial pages at
        either end, which a neighbouring region may share.
        """
        i = bisect_left(self._regions, region.base, key=_BASE)
        # a capability derived from the root, or a copy of it, is not the
        # reservation, so only the object itself proves it is in this ledger
        if i == len(self._regions) or self._regions[i] is not region:
            raise ValueError("region at %d not reserved" % region.base)
        del self._regions[i]
        lo, end = region.base, region.top
        if _DONTNEED_ZEROES:
            first = -(-lo // _PAGE) * _PAGE
            last = end // _PAGE * _PAGE
            if first < last:
                self._mem.madvise(mmap.MADV_DONTNEED, first, last - first)
                self._zero(lo, first)
                self._zero(last, end)
                return
        self._zero(lo, end)

    def _zero(self, lo, end):
        for a in range(lo, end, _PAGE):
            b = min(a + _PAGE, end)
            self._view[a:b] = _ZEROS[: b - a]
