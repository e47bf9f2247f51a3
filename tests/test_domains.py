"""Domain runtime: status codes, scoped rewind, discard accounting, heap routing."""

import functools
import random

import pytest

from capdomains.capmem import (
    BoundsViolation, Capability, FaultKind, PermissionViolation, TagViolation,
)
from capdomains.domains import (
    APP_DEFAULT_HEAP_SIZE,
    MAX_DOMAIN_ID,
    REWIND_FAULT_CODE,
    Aborted,
    DomainManager,
    HeapInitError,
    MainDomainFault,
    Normal,
    StatusCode,
)
from capdomains.tlsf import DoubleFree, InvalidFree, tlsf_create_with_pool

KIB = 1024
MIB = 1024 * 1024


def small_manager(**kw):
    kw.setdefault("arena_size", 8 * MIB)
    kw.setdefault("default_heap_size", 64 * KIB)
    kw.setdefault("debug", True)
    return DomainManager(**kw)


# ---------------------------------------------------------------- status codes

def test_setup_status_codes():
    mgr = small_manager()
    assert mgr.setup(1) is StatusCode.SUCCESSFUL_INITIALIZE
    assert mgr.setup(1) is StatusCode.ALREADY_INITIALIZE
    assert mgr.setup(0) is StatusCode.UDI_OUT_OF_BOUNDS
    assert mgr.setup(16) is StatusCode.UDI_OUT_OF_BOUNDS
    assert mgr.setup(-2) is StatusCode.UDI_OUT_OF_BOUNDS
    assert mgr.setup(MAX_DOMAIN_ID) is StatusCode.SUCCESSFUL_INITIALIZE


def test_enter_exit_status_codes():
    mgr = small_manager()
    assert mgr.enter(2) is StatusCode.NOT_INITIALIZED
    assert mgr.enter(16) is StatusCode.UDI_OUT_OF_BOUNDS
    assert mgr.exit() is StatusCode.UDI_OUT_OF_BOUNDS  # cannot exit main
    mgr.setup(1)
    assert mgr.enter(1) is StatusCode.SUCCESSFUL_ENTER
    assert mgr.active_domain == 1
    assert mgr.exit() is StatusCode.SUCCESSFUL_EXIT
    assert mgr.active_domain == 0
    assert mgr.is_initialized(1)  # normal exit keeps the slot


def test_status_sign_convention():
    # success <=> positive, failure <=> negative; zero is not a status
    for code in StatusCode:
        assert code != 0
        if code.name.startswith(("SUCCESSFUL", "ALREADY")):
            assert code > 0
        else:
            assert code < 0


def test_nested_enter_builds_parent_chain():
    mgr = small_manager()
    mgr.setup(1)
    mgr.enter(1)
    mgr.setup(2)
    mgr.enter(2)
    assert mgr.active_domain == 2
    assert mgr.parent_of(2) == 1
    assert mgr.parent_of(1) == 0
    assert mgr.exit() is StatusCode.SUCCESSFUL_EXIT
    assert mgr.active_domain == 1
    mgr.exit()
    assert mgr.active_domain == 0


# ---------------------------------------------------------------- domain_call

def test_domain_call_normal():
    mgr = small_manager()
    out = mgr.domain_call(1, lambda: 41 + 1)
    assert isinstance(out, Normal)
    assert out.value == 42
    assert not out.aborted
    assert mgr.active_domain == 0
    assert mgr.is_initialized(1)


def test_domain_call_bad_udi():
    mgr = small_manager()
    with pytest.raises(ValueError):
        mgr.domain_call(16, lambda: None)
    with pytest.raises(ValueError):
        mgr.domain_call(0, lambda: None)


def test_domain_call_aborts_on_capability_fault():
    mgr = small_manager()

    def vulnerable():
        buf = mgr.dalloc(16)
        buf.store(0, b"x" * 64)  # overruns the 16-byte allocation

    before = mgr.arena.reserved_bytes
    out = mgr.domain_call(1, vulnerable)
    assert isinstance(out, Aborted)
    assert out.aborted
    assert out.rewind_code == REWIND_FAULT_CODE == 14
    assert out.fault.kind is FaultKind.BOUNDS
    assert out.fault.domain_udi == 1
    assert mgr.active_domain == 0
    assert not mgr.is_initialized(1), "abnormal exit destroys the domain"
    assert mgr.arena.reserved_bytes == before, "heap fully reclaimed"


def test_domain_call_caller_continues_after_abort():
    mgr = small_manager()
    served = 0
    for i in range(5):
        def routine(i=i):
            buf = mgr.dalloc(16)
            data = b"y" * (64 if i == 2 else 8)
            buf.store(0, data)
            return len(data)

        out = mgr.domain_call(1, routine)
        if isinstance(out, Normal):
            served += 1
    assert served == 4


def test_heap_contents_survive_normal_exits():
    mgr = small_manager()
    box = {}

    def first():
        cap = mgr.dalloc(32)
        cap.store(0, b"persistent data!" * 2)
        box["cap"] = cap

    def second():
        return box["cap"].load(0, 32)

    assert isinstance(mgr.domain_call(1, first), Normal)
    out = mgr.domain_call(1, second)
    assert out.value == b"persistent data!" * 2


def test_non_protection_exceptions_propagate():
    mgr = small_manager()
    with pytest.raises(ZeroDivisionError):
        mgr.domain_call(1, lambda: 1 // 0)
    assert mgr.active_domain == 0
    assert mgr.is_initialized(1), "only protection faults destroy the domain"


def test_fault_in_main_is_fatal():
    # the routine leaves its domain for main by hand and faults there
    mgr = small_manager()

    def routine():
        buf = mgr.dalloc(16)
        mgr.exit()
        buf.store(0, b"x" * 32)

    with pytest.raises(MainDomainFault) as caught:
        mgr.domain_call(1, routine)
    assert caught.value.record.domain_udi == 0
    assert mgr.active_domain == 0
    assert mgr.is_initialized(1)


def test_a_fault_no_call_owns_reaches_the_caller_stamped():
    # main entered domain 1 by hand, so the only call is entered from a
    # domain; domain 3 hangs under main, outside that call's subtree
    mgr = small_manager()
    mgr.setup(3)
    mgr.setup(1)
    mgr.enter(1)

    def routine():
        mgr.enter(3)
        mgr.dalloc(16).store(0, b"!" * 32)

    with pytest.raises(BoundsViolation) as caught:
        mgr.domain_call(2, routine)
    assert caught.value.record.domain_udi == 3
    assert mgr.active_domain == 1
    assert all(mgr.is_initialized(u) for u in (1, 2, 3))


def test_nested_call_fault_isolates_innermost():
    mgr = small_manager()
    state = {}

    def depth3():
        bad = mgr.dalloc(16)
        bad.store(0, b"z" * 40)

    def depth2():
        mgr.dalloc(16)  # give domain 2 a heap
        out = mgr.domain_call(3, depth3)
        state["inner"] = out
        return "depth2 done"

    def depth1():
        mgr.dalloc(16)
        out = mgr.domain_call(2, depth2)
        state["mid"] = out
        return "depth1 done"

    out = mgr.domain_call(1, depth1)
    assert isinstance(out, Normal) and out.value == "depth1 done"
    assert isinstance(state["inner"], Aborted)
    assert isinstance(state["mid"], Normal)
    assert not mgr.is_initialized(3)
    assert mgr.is_initialized(2)
    assert mgr.is_initialized(1)
    assert mgr.active_domain == 0


def test_fault_in_bare_entered_child_unwinds_to_enclosing_call():
    # the child is set up inside the call but never given its own scope;
    # the rewind lands at the nearest live checkpoint, destroying the subtree
    mgr = small_manager()

    def routine():
        mgr.setup(2)
        mgr.enter(2)
        bad = mgr.dalloc(16)
        bad.store(0, b"!" * 32)

    before = mgr.arena.reserved_bytes
    out = mgr.domain_call(1, routine)
    assert isinstance(out, Aborted)
    assert out.fault.domain_udi == 2
    assert not mgr.is_initialized(1)
    assert not mgr.is_initialized(2)
    assert mgr.active_domain == 0
    assert mgr.arena.reserved_bytes == before


def test_rewind_owned_by_no_call_is_taken_by_the_outermost():
    # domain 2 hangs under domain 1, but is entered by hand from a call into
    # domain 3; no call owns its rewind, so the call entered from main takes
    # it and discards both the faulting domain and its own
    mgr = small_manager()
    assert isinstance(mgr.domain_call(1, lambda: mgr.setup(2)), Normal)
    assert mgr.parent_of(2) == 1

    def routine():
        mgr.dalloc(16)  # give domain 3 a heap
        mgr.enter(2)
        bad = mgr.dalloc(16)
        bad.store(0, b"!" * 32)

    before = mgr.arena.reserved_bytes
    out = mgr.domain_call(3, routine)
    assert isinstance(out, Aborted)
    assert out.fault.domain_udi == 2
    assert not mgr.is_initialized(2)
    assert not mgr.is_initialized(3)
    assert mgr.is_initialized(1), "the bystander parent survives"
    assert mgr.active_domain == 0
    assert mgr.arena.reserved_bytes == before


# ---------------------------------------------------------------- destroy

def test_destroy_reclaims_heap_accounting():
    mgr = small_manager()
    before = mgr.arena.reserved_bytes
    mgr.setup(1)
    mgr.enter(1)
    caps = [mgr.dalloc(100) for _ in range(3)]
    assert len(caps) == 3
    assert mgr.arena.reserved_bytes > before
    mgr.exit()
    mgr.destroy(1)
    assert mgr.arena.reserved_bytes == before
    assert not mgr.is_initialized(1)
    assert mgr.setup(1) is StatusCode.SUCCESSFUL_INITIALIZE


def test_destroy_parent_takes_children_post_order():
    mgr = small_manager()
    mgr.setup(1)
    mgr.enter(1)
    mgr.setup(2)
    mgr.enter(2)
    mgr.dalloc(16)
    mgr.exit()
    mgr.dalloc(16)
    mgr.exit()
    assert mgr.is_initialized(1) and mgr.is_initialized(2)
    mgr.destroy(1)
    assert not mgr.is_initialized(1)
    assert not mgr.is_initialized(2)
    assert mgr.arena.reserved_bytes == 0


def test_destroying_the_active_domain_moves_it_to_the_parent():
    # a dalloc after the destroy must not build a heap on the dead slot
    mgr = small_manager()
    mgr.setup(1)
    mgr.enter(1)
    mgr.destroy(1)
    assert mgr.active_domain == 0
    mgr.dalloc(16)
    assert mgr.heap_of(1) is None and mgr.heap_of(0) is not None
    # an active descendant climbs to the parent of the topmost destroyed domain
    for udi in (1, 2, 3):
        mgr.setup(udi)
        mgr.enter(udi)
    mgr.destroy(2)
    assert mgr.active_domain == 1
    assert not mgr.is_initialized(2) and not mgr.is_initialized(3)


def test_an_abort_does_not_return_to_a_destroyed_domain():
    # domain 1 enters 2 by hand, then 3 (a child of 2), and calls into 2;
    # the abort destroys 2 and 3, so the call cannot hand back 3
    mgr = small_manager()

    def overrun():
        mgr.dalloc(16).store(0, b"!" * 32)

    def routine():
        for udi in (2, 3):
            mgr.setup(udi)
            mgr.enter(udi)
        out = mgr.domain_call(2, overrun)
        return out.fault.domain_udi, mgr.active_domain, mgr.is_initialized(3)

    assert mgr.domain_call(1, routine) == Normal((2, 1, False))
    assert mgr.active_domain == 0 and mgr.is_initialized(1)


def test_a_slot_set_up_after_its_parent_died_builds_no_cycle():
    # these calls once parented 2 to the destroyed slot 1 and then 1 to 2
    mgr = small_manager()
    mgr.setup(1)
    mgr.enter(1)
    mgr.destroy(1)
    mgr.setup(2)
    mgr.enter(2)
    mgr.setup(1)
    assert (mgr.parent_of(1), mgr.parent_of(2)) == (2, 0)
    mgr.destroy(2)
    assert not mgr.is_initialized(1) and not mgr.is_initialized(2)
    assert mgr.active_domain == 0


def test_destroy_uninit_is_noop():
    mgr = small_manager()
    mgr.destroy(5)  # must not raise
    with pytest.raises(ValueError):
        mgr.destroy(0)
    with pytest.raises(ValueError):
        mgr.destroy(16)


# ---------------------------------------------------------------- heaps

def test_heap_lazy_init_on_first_dalloc():
    mgr = small_manager()
    mgr.setup(1)
    mgr.enter(1)
    assert mgr.heap_of(1) is None
    cap = mgr.dalloc(5)
    assert mgr.heap_of(1) is not None
    assert cap.top - cap.base == 16
    mgr.exit()


def test_heap_size_from_env(monkeypatch):
    monkeypatch.setenv("APP_HEAP_SIZE", str(128 * KIB))
    mgr = small_manager()
    mgr.setup(1)
    mgr.enter(1)
    mgr.heap_init()
    assert mgr.heap_of(1).stats.bytes_reserved == 128 * KIB
    mgr.exit()


def test_heap_default_when_env_unset(monkeypatch):
    monkeypatch.delenv("APP_HEAP_SIZE", raising=False)
    mgr = small_manager(default_heap_size=96 * KIB)
    mgr.setup(1)
    mgr.enter(1)
    mgr.heap_init()
    assert mgr.heap_of(1).stats.bytes_reserved == 96 * KIB
    mgr.exit()
    assert APP_DEFAULT_HEAP_SIZE == 4 * MIB  # shipping default


def test_pool_chaining_counts(monkeypatch):
    # heap sizes of 1x, 2.5x and 4x the pool cap split into 1, 3 and 4 pools
    max_pool = 256 * KIB
    for factor, expected in ((1.0, 1), (2.5, 3), (4.0, 4)):
        monkeypatch.setenv("APP_HEAP_SIZE", str(int(factor * max_pool)))
        mgr = DomainManager(arena_size=8 * MIB, max_pool_size=max_pool, debug=True)
        mgr.setup(1)
        mgr.enter(1)
        mgr.heap_init()
        heap = mgr.heap_of(1)
        assert len(heap.pools) == expected, factor
        assert heap.stats.bytes_reserved == int(factor * max_pool)
        sizes = [p.size for p in heap.pools]
        assert all(s <= max_pool for s in sizes)
        if factor == 2.5:
            assert sizes == [max_pool, max_pool, max_pool // 2]
        mgr.exit()


def test_free_list_spanning_two_pools_is_served(monkeypatch):
    # a well-behaved routine whose free list links a block in one pool to a
    # block in the other must not be discarded as if it had overflowed
    monkeypatch.delenv("APP_HEAP_SIZE", raising=False)
    mgr = DomainManager(arena_size=1 * MIB, default_heap_size=128 * KIB,
                        max_pool_size=64 * KIB)

    def routine():
        caps = [mgr.dalloc(100) for _ in range(600)]
        first, second = mgr.heap_of(1).pools
        in_first = [c for c in caps if c.base < first.region.base + first.size]
        in_second = [c for c in caps if c.base >= second.region.base]
        assert in_first and in_second
        mgr.dfree(in_first[0])
        mgr.dfree(in_second[0])  # same class: its next link leads into the first pool
        again = mgr.dalloc(100)
        return again.base == in_second[0].base

    assert mgr.domain_call(1, routine) == Normal(True)


def test_heap_init_arena_exhaustion_is_fatal(monkeypatch):
    monkeypatch.setenv("APP_HEAP_SIZE", str(64 * MIB))
    mgr = DomainManager(arena_size=1 * MIB)
    mgr.setup(1)
    mgr.enter(1)
    with pytest.raises(HeapInitError):
        mgr.heap_init()


def test_heap_below_the_pool_minimum_is_refused_without_a_leak(monkeypatch):
    # a heap smaller than one pool's minimum, and one whose chained
    # remainder is, keep none of the region reserved for them
    max_pool = 64 * KIB
    for size in (4096, max_pool + 32):
        monkeypatch.setenv("APP_HEAP_SIZE", str(size))
        mgr = DomainManager(arena_size=1 * MIB, max_pool_size=max_pool)
        for _ in range(3):
            with pytest.raises(HeapInitError):
                mgr.domain_call(1, lambda: mgr.dalloc(16))
            assert mgr.arena.reserved_bytes == 0, size
        assert mgr.heap_of(1) is None


@pytest.mark.parametrize("raw", ["0", "-16", "abc"])
def test_heap_size_that_is_no_byte_count_is_refused(monkeypatch, raw):
    monkeypatch.setenv("APP_HEAP_SIZE", raw)
    mgr = DomainManager(arena_size=1 * MIB)
    with pytest.raises(HeapInitError):
        mgr.domain_call(1, lambda: mgr.dalloc(16))
    assert mgr.arena.reserved_bytes == 0
    assert mgr.heap_of(1) is None


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_a_fault_while_a_heap_is_built_leaves_nothing_reserved(k, monkeypatch):
    # views 1 and 2 lay out the new pool, before the heap is recorded;
    # views 3 to 5 are the first malloc's, after it is
    monkeypatch.delenv("APP_HEAP_SIZE", raising=False)
    view = Capability.view
    seen, injected = [], []

    def fault_the_kth_view(self, offset, length):
        seen.append(None)
        if len(seen) == k:
            injected.append(TagViolation(self.address + offset, length))
            raise injected[0]
        return view(self, offset, length)

    mgr = DomainManager(arena_size=4 * MIB, default_heap_size=256 * KIB)
    monkeypatch.setattr(Capability, "view", fault_the_kth_view)
    outcome = mgr.domain_call(1, functools.partial(mgr.dalloc, 64))
    assert isinstance(outcome, Aborted)
    assert outcome.fault is injected[0].record and outcome.fault.domain_udi == 1
    assert mgr.arena.reserved_bytes == 0
    assert mgr.heap_of(1) is None and not mgr.is_initialized(1)
    monkeypatch.setattr(Capability, "view", view)
    assert isinstance(mgr.domain_call(1, functools.partial(mgr.dalloc, 64)), Normal)
    assert mgr.arena.reserved_bytes == 256 * KIB


def facade_session(mgr):
    """Every facade call and both guarded accesses, as the active domain."""
    grown = mgr.dalloc(48)
    zeroed = mgr.dcalloc(4, 8)
    grown.store(0, b"0123456789abcdef")
    grown = mgr.drealloc(grown, 200)
    assert grown.load(0, 16) == b"0123456789abcdef"
    mgr.dfree(zeroed)
    mgr.dfree(mgr.drealloc(grown, 24))


def test_every_injected_access_fault_in_a_domain_session_is_contained(monkeypatch):
    # counts the checked accesses (views, stores, loads) of one session in
    # domain 1, then faults each in turn, rotating through the three fault kinds
    monkeypatch.delenv("APP_HEAP_SIZE", raising=False)
    seen, injected = [], []
    fault_at = 0

    def checked(access):
        def fault_the_kth_access(self, offset, arg):
            seen.append(access.__name__)
            if len(seen) == fault_at:
                kind = (TagViolation, PermissionViolation, BoundsViolation)[fault_at % 3]
                injected.append(kind(self.address + offset, 1))
                raise injected[0]
            return access(self, offset, arg)
        return fault_the_kth_access

    for name in ("view", "store", "load"):
        monkeypatch.setattr(Capability, name, checked(getattr(Capability, name)))
    mgr = DomainManager(arena_size=4 * MIB, default_heap_size=64 * KIB)
    assert isinstance(mgr.domain_call(1, functools.partial(facade_session, mgr)), Normal)
    accesses = len(seen)
    assert "store" in seen and "load" in seen, seen
    for fault_at in range(1, accesses + 1):
        seen.clear()
        injected.clear()
        mgr = DomainManager(arena_size=4 * MIB, default_heap_size=64 * KIB)
        outcome = mgr.domain_call(1, functools.partial(facade_session, mgr))
        assert isinstance(outcome, Aborted), (fault_at, outcome)
        assert outcome.fault.faulting_address == injected[0].record.faulting_address
        assert outcome.fault.domain_udi == 1
        assert mgr.arena.reserved_bytes == 0, fault_at
        assert mgr.heap_of(1) is None
        assert isinstance(mgr.domain_call(1, functools.partial(mgr.dalloc, 64)), Normal)


# ---------------------------------------------------------------- facade

def test_dalloc_in_main_domain_works():
    mgr = small_manager()
    cap = mgr.dalloc(24)
    assert cap.top - cap.base == 32
    mgr.dfree(cap)
    assert mgr.heap_of(0).stats.live_allocations == 0


def test_dcalloc_zero_fills_recycled_block():
    mgr = small_manager()
    dirty = mgr.dalloc(16)
    dirty.store(0, b"\xff" * 16)
    mgr.dfree(dirty)
    clean = mgr.dcalloc(4, 4)
    assert clean.load(0, 16) == b"\x00" * 16
    mgr.dfree(clean)


def test_drealloc_preserves_prefix():
    mgr = small_manager()
    small = mgr.dalloc(16)
    small.store(0, b"0123456789abcdef")
    grown = mgr.drealloc(small, 32)
    assert grown.top - grown.base == 32
    assert grown.load(0, 16) == b"0123456789abcdef"
    with pytest.raises(DoubleFree):
        mgr.dfree(small)  # the old block was released by drealloc
    mgr.dfree(grown)


def test_drealloc_of_a_freed_block_is_refused():
    mgr = small_manager()
    keep = mgr.dalloc(64)
    stale = mgr.dalloc(64)
    mgr.dfree(stale)
    heap = mgr.heap_of(0)
    live = heap.stats.live_allocations
    with pytest.raises(DoubleFree):
        mgr.drealloc(stale, 64)
    assert heap.stats.live_allocations == live
    heap.check()
    # the block behind stale is free; two fresh allocations share no byte
    # with each other or with the block still held
    first, second = mgr.dalloc(64), mgr.dalloc(64)
    assert len({keep.base, first.base, second.base}) == 3
    assert heap.stats.live_allocations == live + 2


def test_drealloc_none_acts_as_dalloc():
    mgr = small_manager()
    cap = mgr.drealloc(None, 20)
    assert cap.top - cap.base == 32
    mgr.dfree(cap)


def test_cross_domain_free_rejected():
    mgr = small_manager()
    caps = {}

    def in_one():
        caps["one"] = mgr.dalloc(16)

    def in_two():
        mgr.dalloc(16)  # ensure domain 2 has its own heap
        mgr.dfree(caps["one"])

    assert isinstance(mgr.domain_call(1, in_one), Normal)
    with pytest.raises(InvalidFree):
        mgr.domain_call(2, in_two)


def test_dfree_needs_the_allocation_s_own_capability():
    mgr = small_manager()
    caps = {}

    def allocate():
        caps["a"], caps["b"] = mgr.dalloc(64), mgr.dalloc(64)

    mgr.domain_call(1, allocate)
    # a cleared tag faults like any other use of the capability: the domain goes
    out = mgr.domain_call(1, lambda: mgr.dfree(caps["a"].untagged()))
    assert isinstance(out, Aborted) and out.fault.kind is FaultKind.TAG
    assert mgr.heap_of(1) is None
    mgr.domain_call(1, allocate)
    narrowed = caps["b"].bounds_set(16)
    with pytest.raises(InvalidFree):
        mgr.domain_call(1, lambda: mgr.dfree(narrowed))
    with pytest.raises(InvalidFree):
        mgr.domain_call(1, lambda: mgr.drealloc(narrowed, 128))
    assert mgr.heap_of(1).stats.live_allocations == 2
    mgr.domain_call(1, lambda: mgr.dfree(caps["b"]))
    assert mgr.heap_of(1).stats.live_allocations == 1


def test_a_discarded_heap_is_scrubbed():
    mgr = small_manager()

    def leak_then_fault():
        mgr.dalloc(64).store(0, b"PASSWORD")
        mgr.dalloc(16).store(0, b"x" * 17)

    assert isinstance(mgr.domain_call(1, leak_then_fault), Aborted)
    seen = mgr.domain_call(3, lambda: mgr.dalloc(64).load(0, 64)).value
    assert seen == bytes(64), "a fresh heap must not show a discarded domain's bytes"


def test_dfree_none_is_noop():
    mgr = small_manager()
    mgr.dfree(None)


def test_heap_isolation_randomized():
    rng = random.Random(17)
    mgr = DomainManager(arena_size=16 * MIB, default_heap_size=128 * KIB, debug=True)
    spans = {}  # udi -> list of pool spans
    live = {udi: [] for udi in (1, 2, 3, 4)}

    def alloc_in(udi):
        def routine():
            cap = mgr.dalloc(rng.choice([16, 64, 256, 1024]))
            live[udi].append(cap)
            spans[udi] = [
                (p.region.base, p.region.base + p.size) for p in mgr.heap_of(udi).pools
            ]

        assert isinstance(mgr.domain_call(udi, routine), Normal)

    for _ in range(200):
        alloc_in(rng.choice((1, 2, 3, 4)))
    for a in spans:
        for b in spans:
            if a >= b:
                continue
            for lo1, hi1 in spans[a]:
                for lo2, hi2 in spans[b]:
                    assert hi1 <= lo2 or hi2 <= lo1, "pool overlap across domains"
    for udi, caps in live.items():
        for cap in caps:
            assert any(lo <= cap.base and cap.top <= hi for lo, hi in spans[udi])


def test_manager_roundtrip_property():
    rng = random.Random(5)
    mgr = DomainManager(arena_size=16 * MIB, default_heap_size=64 * KIB, debug=True)

    def snapshot():
        return [
            (mgr.is_initialized(u), mgr.parent_of(u) if mgr.is_initialized(u) else None)
            for u in range(MAX_DOMAIN_ID + 1)
        ]

    for _ in range(150):
        udi = rng.randrange(1, 6)
        faulty = rng.random() < 0.3
        before_active = mgr.active_domain
        before_slots = snapshot()

        def routine(faulty=faulty):
            cap = mgr.dalloc(16)
            if faulty:
                cap.store(0, b"q" * 32)
            return "ok"

        out = mgr.domain_call(udi, routine)
        assert mgr.active_domain == before_active
        assert isinstance(out, Aborted if faulty else Normal)
        after_slots = snapshot()
        for u in range(MAX_DOMAIN_ID + 1):
            if u != udi:
                assert after_slots[u] == before_slots[u], "untouched slot changed"


def test_heap_generation_bumps_per_init():
    mgr = small_manager()
    assert mgr.heap_generation(1) == 0
    mgr.domain_call(1, lambda: mgr.dalloc(16))
    g1 = mgr.heap_generation(1)
    assert g1 > 0
    out = mgr.domain_call(1, lambda: mgr.dalloc(16).store(0, b"#" * 99))
    assert isinstance(out, Aborted)
    assert mgr.heap_generation(1) == 0  # slot reset
    mgr.domain_call(1, lambda: mgr.dalloc(16))
    assert mgr.heap_generation(1) > g1, "generations never repeat"



@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda mgr, heap, spare: mgr.arena.reserve(1.5), id="reserve(1.5)"),
        pytest.param(lambda mgr, heap, spare: mgr.arena.reserve(-5), id="reserve(-5)"),
        pytest.param(lambda mgr, heap, spare: heap.malloc(-5), id="malloc(-5)"),
        pytest.param(lambda mgr, heap, spare: heap.malloc(1.5), id="malloc(1.5)"),
        pytest.param(lambda mgr, heap, spare: mgr.dalloc(-5), id="dalloc(-5)"),
        pytest.param(lambda mgr, heap, spare: mgr.dcalloc(-2, -8), id="dcalloc(-2,-8)"),
        pytest.param(lambda mgr, heap, spare: heap.add_pool(spare, float(64 * KIB)),
                     id="add_pool(65536.0)"),
        pytest.param(lambda mgr, heap, spare: tlsf_create_with_pool(spare, float(64 * KIB)),
                     id="create_with_pool(65536.0)"),
    ],
)
def test_a_size_that_is_not_a_non_negative_int_is_refused_before_any_state_changes(call):
    mgr = small_manager()
    mgr.setup(1)
    mgr.enter(1)
    mgr.dalloc(16)  # the domain's heap exists before the refused call
    heap = mgr.heap_of(1)
    spare = mgr.arena.reserve(64 * KIB)

    def state():
        s = heap.stats
        return mgr.arena.reserved_bytes, s.bytes_allocated, s.bytes_reserved, s.live_allocations

    before = state()
    with pytest.raises(ValueError):
        call(mgr, heap, spare)
    assert state() == before
    heap.check()
    mgr.arena.release(mgr.arena.reserve(64))
    heap.free(heap.malloc(64))
    assert state() == before


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda mgr: mgr.dalloc(-5), id="dalloc(-5)"),
        pytest.param(lambda mgr: mgr.dalloc(1.5), id="dalloc(1.5)"),
        pytest.param(lambda mgr: mgr.dcalloc(-2, 8), id="dcalloc(-2,8)"),
        pytest.param(lambda mgr: mgr.drealloc(None, -1), id="drealloc(None,-1)"),
    ],
)
def test_a_refused_size_builds_no_heap(call):
    # the domain has no heap yet, and a refused allocation must not build one
    mgr = small_manager()
    mgr.setup(1)
    mgr.enter(1)
    with pytest.raises(ValueError):
        call(mgr)
    assert mgr.heap_of(1) is None
    assert mgr.arena.reserved_bytes == 0
    assert mgr.heap_generation(1) == 0
    cap = mgr.dalloc(64)
    assert cap.top - cap.base == 64
    assert mgr.heap_generation(1) == 1
