"""In-process isolation domains with rewind-and-discard fault recovery.

A small fixed table of domains shares one capability arena.  Each domain
owns a private heap carved from the arena on first use.  Work is routed
into a domain through :meth:`DomainManager.domain_call`.  A memory-safety
fault inside the routine does not take the process down: it unwinds to
the innermost ``domain_call`` whose domain is the faulting one or an
ancestor of it.  That call destroys its domain (and every descendant set
up beneath it), returns the heap pages to the arena, and hands its caller
an :class:`Aborted` outcome instead of an exception.  Everything the
domain touched is discarded wholesale, so no corrupted state can leak
back out.

The fault unwinds itself: the first ``domain_call`` it reaches writes the
active domain's udi into its record, and calls further out route it by
that udi.  The main domain (index 0) has nothing to rewind to; a fault
raised there becomes :class:`MainDomainFault` and is expected to be fatal.

The active domain is always a live one.  Destroying it moves it to the
parent of the topmost domain destroyed, and a ``domain_call`` returns to
the domain it was entered from only if that domain still exists.  So every
live domain's parent is live and was set up before it: parents form no cycle.
"""

import os
from typing import Any, Callable, Optional, Union

from .capmem import Capability, FaultRecord, MainDomainFault, MemoryArena, ProtectionFault, ArenaExhausted
from .tlsf import TlsfControl, DEFAULT_MAX_POOL_SIZE, check_alloc_size, tlsf_create_with_pool

from enum import IntEnum

MAX_DOMAIN_ID = 15
REWIND_FAULT_CODE = 14  # reported alongside Aborted outcomes
APP_DEFAULT_HEAP_SIZE = 4 * 1024 * 1024
DEFAULT_ARENA_SIZE = 64 * 1024 * 1024
HEAP_SIZE_ENV = "APP_HEAP_SIZE"


class StatusCode(IntEnum):
    """Results of the low-level domain lifecycle calls.

    Positive values are successes, negative values failures; callers that
    do not care about the particular reason can branch on the sign alone.
    """

    SUCCESSFUL_INITIALIZE = 1
    ALREADY_INITIALIZE = 2
    SUCCESSFUL_ENTER = 3
    SUCCESSFUL_EXIT = 4
    UDI_OUT_OF_BOUNDS = -1
    NOT_INITIALIZED = -2
    ABNORMAL_EXIT = -3


class HeapInitError(RuntimeError):
    """The configured per-domain heap does not fit the arena or cannot be
    laid out as allocator pools; no arena bytes stay reserved for it."""


class Normal:
    """The routine ran to completion; ``value`` is its return value."""

    __slots__ = ("value",)
    aborted = False

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self):
        return f"Normal({self.value!r})"

    def __eq__(self, other):
        return isinstance(other, Normal) and other.value == self.value


class Aborted:
    """The routine faulted and its domain was discarded."""

    __slots__ = ("fault",)
    aborted = True
    status = StatusCode.ABNORMAL_EXIT
    rewind_code = REWIND_FAULT_CODE

    def __init__(self, fault: FaultRecord):
        self.fault = fault

    def __repr__(self):
        return f"Aborted({self.fault!r})"


DomainOutcome = Union[Normal, Aborted]


class _Slot:
    __slots__ = (
        "domain_init",
        "parent_udi",
        "heap",
        "heap_region",
        "heap_generation",
    )

    def __init__(self):
        self.reset()

    def reset(self):
        self.domain_init = False
        self.parent_udi = 0
        self.heap: Optional[TlsfControl] = None
        self.heap_region = None
        self.heap_generation = 0


class DomainManager:
    """Owner of the domain table, the shared arena, and all per-domain heaps.

    One manager per worker thread: neither it nor the allocator control of
    any of its heaps takes a lock, since each belongs to that one thread.
    All allocation goes through the ``dalloc``/``dfree`` facade,
    which routes to the heap of whichever domain is active.
    """

    def __init__(
        self,
        arena_size: int = DEFAULT_ARENA_SIZE,
        default_heap_size: int = APP_DEFAULT_HEAP_SIZE,
        max_pool_size: int = DEFAULT_MAX_POOL_SIZE,
        debug: bool = False,
    ):
        self.arena = MemoryArena(arena_size)
        self.default_heap_size = default_heap_size
        self.max_pool_size = max_pool_size
        self.debug = debug
        self.active_domain = 0
        self._slots = [_Slot() for _ in range(MAX_DOMAIN_ID + 1)]
        self._slots[0].domain_init = True  # main exists from birth
        self._generation_counter = 0

    # ---------------------------------------------------------- introspection

    def is_initialized(self, udi: int) -> bool:
        return 0 <= udi <= MAX_DOMAIN_ID and self._slots[udi].domain_init

    def parent_of(self, udi: int) -> int:
        return self._slots[udi].parent_udi

    def heap_of(self, udi: int) -> Optional[TlsfControl]:
        return self._slots[udi].heap

    def heap_generation(self, udi: int) -> int:
        """Monotonic id of the domain's current heap; 0 while it has none.

        Generations are never reused, so a stored generation that no longer
        matches proves that every capability minted from that heap is stale.
        """
        return self._slots[udi].heap_generation

    # ---------------------------------------------------------- lifecycle

    def setup(self, udi: int) -> StatusCode:
        """Claim a domain slot, parented to the active domain."""
        if not 1 <= udi <= MAX_DOMAIN_ID:
            return StatusCode.UDI_OUT_OF_BOUNDS
        slot = self._slots[udi]
        if slot.domain_init:
            return StatusCode.ALREADY_INITIALIZE
        slot.domain_init = True
        slot.parent_udi = self.active_domain
        return StatusCode.SUCCESSFUL_INITIALIZE

    def enter(self, udi: int) -> StatusCode:
        if not 1 <= udi <= MAX_DOMAIN_ID:
            return StatusCode.UDI_OUT_OF_BOUNDS
        if not self._slots[udi].domain_init:
            return StatusCode.NOT_INITIALIZED
        self.active_domain = udi
        return StatusCode.SUCCESSFUL_ENTER

    def exit(self) -> StatusCode:
        """Return control to the active domain's parent; main has none."""
        if self.active_domain == 0:
            return StatusCode.UDI_OUT_OF_BOUNDS
        self.active_domain = self._slots[self.active_domain].parent_udi
        return StatusCode.SUCCESSFUL_EXIT

    def destroy(self, udi: int) -> None:
        """Tear down a domain and every domain parented beneath it.

        Children go first so that no slot is ever left pointing at a dead
        parent, and an active domain among them climbs to the parent of
        ``udi``.  Heap pools are handed back to the arena.  Destroying an
        uninitialized slot is a no-op; destroying main is refused.
        """
        if not 1 <= udi <= MAX_DOMAIN_ID:
            raise ValueError(f"cannot destroy domain {udi}")
        slot = self._slots[udi]
        if not slot.domain_init:
            return
        for child in range(1, MAX_DOMAIN_ID + 1):
            if self._slots[child].domain_init and self._slots[child].parent_udi == udi:
                self.destroy(child)
        if self.active_domain == udi:
            self.active_domain = slot.parent_udi
        if slot.heap is not None:
            slot.heap.destroy()
            self.arena.release(slot.heap_region)
        slot.reset()

    # ---------------------------------------------------------- fault routing

    def _is_descendant(self, udi: int, ancestor: int) -> bool:
        while udi != 0:
            udi = self._slots[udi].parent_udi
            if udi == ancestor:
                return True
        return False

    def domain_call(self, udi: int, routine: Callable[[], Any]) -> DomainOutcome:
        """Run ``routine`` inside domain ``udi``.

        The slot is set up on demand and entered; on a normal return the
        domain survives (heap and all) and the value comes back wrapped in
        :class:`Normal`.  A protection fault raised by any capability the
        routine touches is stamped by the innermost call with the domain
        active when it was raised (:class:`MainDomainFault` if that is
        main).  It unwinds to the innermost call whose domain is the
        faulting one or one of its ancestors; that call destroys its domain
        and yields :class:`Aborted`.  A call entered from main also takes a
        fault that no inner call owns (a domain entered by hand from outside
        the call's subtree): it destroys the faulting domain and its own.
        With no such call, the stamped fault reaches the caller.  Exceptions
        that are not protection faults pass through untouched and leave the
        domain alive.  On every exit the domain the call was entered from is
        active again, unless it was destroyed meanwhile; then the active
        domain stays where :meth:`destroy` moved it.
        """
        if not 1 <= udi <= MAX_DOMAIN_ID:
            raise ValueError(f"domain_call({udi}) rejected: UDI_OUT_OF_BOUNDS")
        slot = self._slots[udi]
        if not slot.domain_init:  # inlined setup, this is the hot path
            slot.domain_init = True
            slot.parent_udi = self.active_domain
        prev_active = self.active_domain
        self.active_domain = udi
        try:
            return Normal(routine())
        except ProtectionFault as exc:
            record = exc.record
            if record.domain_udi == 0:  # no inner call has seen it
                if self.active_domain == 0:
                    raise MainDomainFault(record)
                record = exc.record = record._replace(domain_udi=self.active_domain)
            faulted = record.domain_udi
            if faulted != udi and not self._is_descendant(faulted, udi):
                if prev_active != 0:
                    raise  # a call further out owns this fault
                self.destroy(faulted)  # owned by no call: main is next
            self.destroy(udi)
            return Aborted(record)
        finally:
            if self._slots[prev_active].domain_init:
                self.active_domain = prev_active

    # ---------------------------------------------------------- heaps

    def heap_init(self) -> None:
        """Give the active domain its private heap if it lacks one.

        The size comes from the APP_HEAP_SIZE environment variable (read
        at every init, so tests and operators can vary it) falling back to
        the manager default.  Oversized heaps are laid out as a chain of
        pools no larger than ``max_pool_size`` each.
        """
        slot = self._slots[self.active_domain]
        if slot.heap is not None:
            return
        raw = os.environ.get(HEAP_SIZE_ENV)
        try:
            size = int(raw) if raw else self.default_heap_size
        except ValueError:
            raise HeapInitError(f"{HEAP_SIZE_ENV}={raw!r} is not a byte count") from None
        if size <= 0:
            raise HeapInitError(f"heap size {size} for domain {self.active_domain} is not positive")
        size = (size + 15) & ~15
        try:
            region = self.arena.reserve(size)
        except ArenaExhausted as exc:
            raise HeapInitError(
                f"arena cannot hold a {size}-byte heap for domain {self.active_domain}"
            ) from exc
        step, end = self.max_pool_size, region.top
        try:
            heap = tlsf_create_with_pool(
                region, min(size, step), max_pool_size=step, debug=self.debug
            )
            for addr in range(region.base + step, end, step):
                heap.add_pool(region.address_set(addr), min(step, end - addr))
        except BaseException as exc:  # a fault, or a pool below the allocator's minimum
            self.arena.release(region)
            if not isinstance(exc, ValueError):
                raise
            raise HeapInitError(
                f"cannot lay out a {size}-byte heap for domain {self.active_domain}: {exc}"
            ) from exc
        slot.heap = heap
        slot.heap_region = region
        self._generation_counter += 1
        slot.heap_generation = self._generation_counter

    def _active_heap(self) -> TlsfControl:
        slot = self._slots[self.active_domain]
        if slot.heap is None:
            self.heap_init()
        return slot.heap

    def dalloc(self, size: int) -> Capability:
        """Allocate from the active domain's heap, creating it on first use.
        A size the heap would refuse is refused before any heap is built."""
        check_alloc_size(size)
        return self._active_heap().malloc(size)

    def dfree(self, cap: Optional[Capability]) -> None:
        """Return an allocation to the active domain's heap; None is a no-op.

        Capabilities minted by another domain's heap are rejected, which is
        what keeps a free in one domain from corrupting a neighbour.
        """
        if cap is None:
            return
        self._active_heap().free(cap)

    def dcalloc(self, count: int, size: int) -> Capability:
        if count < 0 or size < 0:  # a negative factor can still give a valid product
            raise ValueError("dcalloc count and size must be >= 0, got %r, %r" % (count, size))
        cap = self.dalloc(count * size)
        cap.store(0, bytes(cap.top - cap.base))
        return cap

    def drealloc(self, cap: Optional[Capability], new_size: int) -> Capability:
        """Resize by allocate-copy-free; with ``cap=None`` acts as dalloc."""
        if cap is None:
            return self.dalloc(new_size)
        heap = self._active_heap()
        heap.payload_size(cap)  # membership check; raises InvalidFree if foreign
        new_cap = heap.malloc(new_size)
        keep = min(cap.top - cap.base, new_cap.top - new_cap.base)
        if keep:
            new_cap.store(0, cap.load(0, keep))
        heap.free(cap)
        return new_cap
