"""Software emulation of capability-checked memory over a flat byte arena.

Every guarded access goes through a Capability: an address plus bounds,
permissions and a validity tag.  Checks run in a fixed order (tag, then
permission, then bounds) and always *before* the arena is touched, so a
faulting store leaves the arena bit-identical.  Out-of-bounds addresses are
representable on derivation; only dereferencing them faults.

``store`` and ``load`` move one run of bytes per check.  ``view`` checks a
whole window once and hands back a writable memoryview of it, so a caller
that reads and writes several fields of one record (an allocator header, a
request line) pays for one check, not one per field.
"""

import enum
from dataclasses import dataclass, replace


class FaultKind(enum.Enum):
    TAG = "tag-violation"
    PERMISSION = "permission-violation"
    BOUNDS = "bounds-violation"


@dataclass(frozen=True)
class FaultRecord:
    """Cause of a rejected access.  The faulting access wrote zero bytes."""

    kind: FaultKind
    faulting_address: int
    access_len: int
    domain_udi: int = 0

    def with_domain(self, udi):
        return replace(self, domain_udi=udi)


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


class ArenaExhausted(Exception):
    """No gap large enough to reserve a region."""


@dataclass(frozen=True)
class Permissions:
    load: bool
    store: bool
    execute: bool = False  # present in the model, never granted here


PERM_RW = Permissions(load=True, store=True)


@dataclass(frozen=True)
class ReservedRegion:
    base: int
    length: int
    rid: int
    tag: str = ""


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
            "r" if self.perms.load else "-",
            "w" if self.perms.store else "-",
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
        """Mask permissions; flags can only be cleared, never re-granted."""
        if not self.tag:
            raise TagViolation(self.address)
        p = self.perms
        return Capability(
            self._arena,
            self.address,
            self.base,
            self.top,
            Permissions(p.load and load, p.store and store, False),
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
        if not self.perms.store:
            raise PermissionViolation(self.address + offset, n)
        addr = self.address + offset
        if n and (addr < self.base or addr + n > self.top):
            raise BoundsViolation(addr, n)
        self._arena._mem[addr : addr + n] = data

    def load(self, offset, length):
        if not self.tag:
            raise TagViolation(self.address + offset, length)
        if not self.perms.load:
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
        perms = self.perms
        if not (perms.load and perms.store):
            raise PermissionViolation(addr, length)
        if length and (addr < self.base or addr + length > self.top or length < 0):
            raise BoundsViolation(addr, length)
        return self._arena._view[addr : addr + length]


# copied over a released region chunk by chunk; small, so it adds little RSS
_ZEROS = memoryview(bytes(64 * 1024))


class MemoryArena:
    """Flat zero-filled byte store; the sole target of capability accesses.

    Also keeps a non-overlapping reserved-region ledger (the mmap stand-in)
    so heap discards can be audited: reserved_bytes must return to its prior
    value when a domain is destroyed.  A released region is zeroed, as the
    pages of a fresh mmap are, so nothing written into a discarded heap can
    be read out of the next one.
    """

    def __init__(self, size):
        if size <= 0:
            raise ValueError("arena size must be positive")
        self.size = size
        self._mem = bytearray(size)
        # loads copy once, out of this view; it also pins _mem's size, which
        # stores (equal-length slice assignments) never change
        self._view = memoryview(self._mem)
        self._regions = []  # sorted by base
        self._next_rid = 1
        self.root = Capability(self, 0, 0, size, PERM_RW, True)

    def snapshot(self):
        return bytes(self._mem)

    @property
    def reserved_bytes(self):
        return sum(r.length for r in self._regions)

    def reserve(self, length, tag=""):
        """First-fit reservation at a 16-aligned base.  Regions never overlap."""
        if length <= 0:
            raise ValueError("region length must be positive")
        candidate = 0
        for r in self._regions:
            if candidate + length <= r.base:
                break
            candidate = (r.base + r.length + 15) & ~15
        if candidate + length > self.size:
            raise ArenaExhausted(
                "no %d-byte gap in %d-byte arena (%d reserved)"
                % (length, self.size, self.reserved_bytes)
            )
        region = ReservedRegion(candidate, length, self._next_rid, tag)
        self._next_rid += 1
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        return region

    def release(self, region):
        for i, r in enumerate(self._regions):
            if r.rid == region.rid:
                del self._regions[i]
                end = r.base + r.length
                for lo in range(r.base, end, len(_ZEROS)):
                    hi = min(lo + len(_ZEROS), end)
                    self._view[lo:hi] = _ZEROS[: hi - lo]
                return
        raise ValueError("region %d not reserved" % region.rid)
