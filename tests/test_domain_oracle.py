"""Differential oracle for the domain tree.

A pure model of the 16-slot table runs the same seeded random programs as a
real :class:`DomainManager`: nested ``domain_call``s up to depth 4, manual
``setup``/``enter``/``exit`` inside routines, allocations, faults at random
depths and non-protection exceptions, a refused allocation size among them.
The model decides which call takes a fault from the stack of calls in
progress at the fault, not call by call as ``domain_call`` does.  After
every top-level step the two must agree on the outcome and any escaping
exception, on what each routine observed, on every slot (initialized,
parent, heap), on the active domain and on the arena's reserved bytes;
heap generations must never repeat.
"""

import functools
import random

import pytest

from capdomains.capmem import ProtectionFault
from capdomains.domains import MAX_DOMAIN_ID, Aborted, DomainManager, MainDomainFault, StatusCode

HEAP = 64 * 1024
UDIS = (1, 2, 3, 4, 5)  # few, so programs re-enter, re-parent and nest the same slots
MAX_DEPTH = 4
STEPS = 600
FAULT_NAMES = {"bounds": "BoundsViolation", "tag": "TagViolation"}
REFUSED_SIZES = (-5, 1.5)  # dalloc raises ValueError for these, and builds no heap


class Boom(Exception):
    """The non-protection exception a routine raises."""


# ------------------------------------------------------------------ programs
#
# A routine is a tuple of actions:
#   ("setup", u)  ("enter", u)  ("exit",)  ("heap_init",)
#   ("alloc", n)         a dalloc of n bytes, now and then a size it refuses
#   ("fault", "bounds")  an overrun of a fresh 16-byte dalloc
#   ("fault", "tag")     a load through an untagged capability
#   ("raise",)           raises Boom
#   ("call", u, routine, catch)  a nested domain_call; catch swallows Boom
# Top-level steps are the same without "raise", plus ("destroy", u), and a
# ("call", u, routine) only while main is active, so that the outermost call
# is always entered from main.  Each action that completes appends
# ``(op, result, active domain)`` to the step's trace.


def gen_size(rng, sizes):
    return rng.choice(REFUSED_SIZES) if rng.random() < 0.1 else rng.choice(sizes)


def gen_routine(rng, depth):
    actions = []
    for _ in range(rng.randint(0, 4)):
        r = rng.random()
        if r < 0.3 and depth < MAX_DEPTH:
            actions.append(("call", rng.choice(UDIS), gen_routine(rng, depth + 1), rng.random() < 0.5))
        elif r < 0.4:
            actions.append(("setup", rng.choice(UDIS)))
        elif r < 0.6:
            actions.append(("enter", rng.choice(UDIS)))
        elif r < 0.7:
            actions.append(("exit",))
        elif r < 0.78:
            actions.append(("alloc", gen_size(rng, (16, 64, 200))))
        elif r < 0.82:
            actions.append(("heap_init",))
        elif r < 0.95:
            actions.append(("fault", rng.choice(("bounds", "tag"))))
        else:
            actions.append(("raise",))
    return tuple(actions)


def gen_step(rng, active):
    if active == 0 and rng.random() < 0.5:
        udi = rng.choice(UDIS) if rng.random() < 0.97 else rng.choice((0, MAX_DOMAIN_ID + 1))
        return ("call", udi, gen_routine(rng, 1))
    r = rng.random()
    if r < 0.25:
        return ("setup", rng.choice(UDIS))
    if r < 0.45:
        return ("enter", rng.choice(UDIS))
    if r < 0.7:
        return ("exit",)
    if r < 0.82:
        return ("destroy", rng.choice(UDIS) if rng.random() < 0.95 else 0)
    if r < 0.88:
        return ("alloc", gen_size(rng, (64,)))
    if r < 0.92:
        return ("heap_init",)
    return ("fault", rng.choice(("bounds", "tag")))


# ------------------------------------------------------------------ the model

class _Escape(Exception):
    """An exception that leaves the model's calls: (type name, domain udi)."""


class _Unwind(Exception):
    """A fault on its way to the call at ``depth``, which yields Aborted."""

    def __init__(self, depth, kind, udi, doomed):
        super().__init__(depth)
        self.depth, self.kind, self.udi, self.doomed = depth, kind, udi, doomed


class Model:
    def __init__(self):
        n = MAX_DOMAIN_ID + 1
        self.init = [True] + [False] * (n - 1)
        self.parent = [0] * n
        self.heap = [False] * n
        self.active = 0
        self.calls = []  # (udi, domain active when it was entered), outermost first

    def setup(self, u):
        if not 1 <= u <= MAX_DOMAIN_ID:
            return StatusCode.UDI_OUT_OF_BOUNDS
        if self.init[u]:
            return StatusCode.ALREADY_INITIALIZE
        self.init[u], self.parent[u] = True, self.active
        return StatusCode.SUCCESSFUL_INITIALIZE

    def enter(self, u):
        if not 1 <= u <= MAX_DOMAIN_ID:
            return StatusCode.UDI_OUT_OF_BOUNDS
        if not self.init[u]:
            return StatusCode.NOT_INITIALIZED
        self.active = u
        return StatusCode.SUCCESSFUL_ENTER

    def exit(self):
        if self.active == 0:
            return StatusCode.UDI_OUT_OF_BOUNDS
        self.active = self.parent[self.active]
        return StatusCode.SUCCESSFUL_EXIT

    def destroy(self, u):
        if not 1 <= u <= MAX_DOMAIN_ID:
            raise _Escape("ValueError", 0)
        if not self.init[u]:
            return
        self.init[u] = False
        for child in range(1, MAX_DOMAIN_ID + 1):
            if self.init[child] and self.parent[child] == u:
                self.destroy(child)
        if self.active == u:
            self.active = self.parent[u]
        self.parent[u], self.heap[u] = 0, False

    def descends(self, u, ancestor):
        p = self.parent[u]
        while p != 0:
            if p == ancestor:
                return True
            p = self.parent[p]
        return False

    def fault(self, kind):
        if kind == "bounds":
            self.heap[self.active] = True  # the overrun buffer comes from the active heap
        t = self.active
        if not self.calls:
            raise _Escape(FAULT_NAMES[kind], 0)  # no call routes it: it leaves unstamped
        if t == 0:
            raise _Escape("MainDomainFault", 0)
        # the innermost call whose domain is t or an ancestor of t owns the
        # fault; a call entered from main that does not own it takes it too
        for depth in range(len(self.calls) - 1, -1, -1):
            udi, entered_from = self.calls[depth]
            if udi == t or self.descends(t, udi):
                raise _Unwind(depth, kind, t, (udi,))
            if entered_from == 0:
                raise _Unwind(depth, kind, t, (t, udi))
        raise _Escape(FAULT_NAMES[kind], t)

    def call(self, u, routine, trace):
        if not 1 <= u <= MAX_DOMAIN_ID:
            raise _Escape("ValueError", 0)
        if not self.init[u]:
            self.init[u], self.parent[u] = True, self.active
        entered_from = self.active
        self.calls.append((u, entered_from))
        depth = len(self.calls) - 1
        self.active = u
        try:
            return ("Normal", self.run(routine, trace))
        except _Unwind as uw:
            if uw.depth != depth:
                raise
            for doomed in uw.doomed:
                self.destroy(doomed)
            return ("Aborted", uw.kind, uw.udi)
        finally:
            self.calls.pop()
            if self.init[entered_from]:
                self.active = entered_from

    def run(self, actions, trace):
        for action in actions:
            trace.append(self.act(action, trace) + (self.active,))
        return len(actions)

    def act(self, action, trace):
        op = action[0]
        if op == "setup":
            return (op, self.setup(action[1]))
        if op == "enter":
            return (op, self.enter(action[1]))
        if op == "exit":
            return (op, self.exit())
        if op == "destroy":
            return (op, self.destroy(action[1]))
        if op == "alloc" and action[1] in REFUSED_SIZES:
            raise _Escape("ValueError", 0)  # like Boom, it passes every call untouched
        if op in ("alloc", "heap_init"):
            self.heap[self.active] = True
            return (op, None)
        if op == "fault":
            self.fault(action[1])
        if op == "raise":
            raise Boom()
        if op == "call":
            try:
                return (op, self.call(action[1], action[2], trace))
            except Boom:
                if len(action) < 4 or not action[3]:
                    raise
                return (op, ("raised", "Boom"))
        raise AssertionError(action)

    def step(self, action):
        trace = []
        try:
            result = self.act(action, trace) + (self.active,)
        except Boom:
            result = ("raised", "Boom")
        except _Escape as esc:
            result = ("raised",) + esc.args
        return result, trace


# ------------------------------------------------------------------ the real manager

def summary(outcome):
    if isinstance(outcome, Aborted):
        return ("Aborted", outcome.fault.kind.name.lower(), outcome.fault.domain_udi)
    return ("Normal", outcome.value)


class Real:
    def __init__(self):
        self.mgr = DomainManager(arena_size=2 * 1024 * 1024, default_heap_size=HEAP)

    def run(self, actions, trace):
        for action in actions:
            trace.append(self.act(action, trace) + (self.mgr.active_domain,))
        return len(actions)

    def act(self, action, trace):
        mgr, op = self.mgr, action[0]
        if op == "setup":
            return (op, mgr.setup(action[1]))
        if op == "enter":
            return (op, mgr.enter(action[1]))
        if op == "exit":
            return (op, mgr.exit())
        if op == "destroy":
            return (op, mgr.destroy(action[1]))
        if op == "alloc":
            mgr.dalloc(action[1]).store(0, b"a" * action[1])
            return (op, None)
        if op == "heap_init":
            return (op, mgr.heap_init())
        if op == "fault":
            if action[1] == "bounds":
                mgr.dalloc(16).store(0, b"!" * 32)
            else:
                mgr.arena.root.untagged().load(0, 1)
        if op == "raise":
            raise Boom()
        if op == "call":
            try:
                routine = functools.partial(self.run, action[2], trace)
                return (op, summary(mgr.domain_call(action[1], routine)))
            except Boom:
                if len(action) < 4 or not action[3]:
                    raise
                return (op, ("raised", "Boom"))
        raise AssertionError(action)

    def step(self, action):
        trace = []
        try:
            result = self.act(action, trace) + (self.mgr.active_domain,)
        except Boom:
            result = ("raised", "Boom")
        except ValueError:
            result = ("raised", "ValueError", 0)
        except MainDomainFault as exc:
            result = ("raised", "MainDomainFault", exc.record.domain_udi)
        except ProtectionFault as exc:
            result = ("raised", type(exc).__name__, exc.record.domain_udi)
        return result, trace


# ------------------------------------------------------------------ the oracle

@pytest.mark.parametrize("seed", range(24))
def test_domain_tree_matches_the_model(seed):
    rng = random.Random(seed)
    model, real = Model(), Real()
    mgr = real.mgr
    generations = {}  # udi -> the generation last seen there
    seen = set()
    for i in range(STEPS):
        action = gen_step(rng, model.active)
        where = f"seed {seed}, step {i}: {action!r}"
        assert real.step(action) == model.step(action), where
        for u in range(MAX_DOMAIN_ID + 1):
            has_heap = mgr.heap_of(u) is not None
            assert (mgr.is_initialized(u), mgr.parent_of(u), has_heap) == (
                model.init[u], model.parent[u], model.heap[u]
            ), f"{where}: slot {u}"
            gen = mgr.heap_generation(u)
            assert (gen != 0) == has_heap, f"{where}: slot {u} generation {gen}"
            if gen and generations.get(u) != gen:
                assert gen not in seen, f"{where}: generation {gen} repeats in slot {u}"
                seen.add(gen)
                generations[u] = gen
        assert mgr.active_domain == model.active, where
        assert mgr.arena.reserved_bytes == HEAP * sum(model.heap), where
