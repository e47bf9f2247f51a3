"""`capdomains serve` with timing spans around every layer's public entry points.

Usage (with the repository's ``src`` on PYTHONPATH):

    python3 perfbench/traced_server.py serve --mode domains --payload 0k --port 0

The wrappers are installed from here, before the server starts, so the
program under test is unmodified.  Spans cover the public calls of
``capmem``, ``tlsf``, ``domains`` and ``server`` plus the worker's socket
``recv``/``sendall``/``accept`` and its selector's ``select``; the worker's
``send`` is a closure, so the socket method is the nearest wrappable point.

Spans close at a rate of about a million per traced run, so each one is
folded into per-name totals as it closes instead of being logged: calls,
inclusive time, self time (inclusive minus the time of the spans it
contains), an extra count (bytes, or aborts) and calls that raised.  Every
``STATS`` request snapshots the totals, because it calls
``GuardServer.stats_snapshot``; the load generator brackets its timed
window with ``STATS``, so two snapshots delimit the window exactly.  The
snapshots are printed as one JSON line on stdout when the server exits.
"""

import copy
import json
import selectors
import socket
import sys
import time

from capdomains import capmem, cli, domains, server, tlsf


class SpanTotals:
    """Per-name span totals for the single worker thread that makes the calls."""

    def __init__(self):
        self.totals = {}  # name -> [calls, inclusive_ns, self_ns, extra, raised]
        self.stack = []  # inclusive ns of finished children, one cell per open span
        self.top_ns = [0]  # inclusive ns of spans with no parent
        self.marks = []

    def wrap(self, name, fn, extra=None):
        rec = self.totals.setdefault(name, [0, 0, 0, 0, 0])
        stack, top, clock = self.stack, self.top_ns, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] += 1
                raise
            finally:
                dt = clock() - t0
                children = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - children
                if stack:
                    stack[-1] += dt
                else:
                    top[0] += dt
            if extra is not None:
                rec[3] += extra(args, result)
            return result

        return traced

    def mark(self):
        self.marks.append({
            "t_ns": time.perf_counter_ns(),
            "top_ns": self.top_ns[0],
            "totals": copy.deepcopy(self.totals),
        })


def _sent_bytes(args, _result):
    return len(args[1])


def _received_bytes(_args, result):
    return len(result)


def _aborted(_args, result):
    return 1 if result.aborted else 0


def install(spans: SpanTotals) -> None:
    methods = [
        (capmem.Capability, "store", "capmem.store", None),
        (capmem.Capability, "load", "capmem.load", None),
        (capmem.Capability, "address_set", "capmem.address_set", None),
        (capmem.Capability, "bounds_set", "capmem.bounds_set", None),
        (capmem.Capability, "perms_and", "capmem.perms_and", None),
        (capmem.MemoryArena, "reserve", "capmem.reserve", None),
        (capmem.MemoryArena, "release", "capmem.release", None),
        (tlsf.TlsfControl, "malloc", "tlsf.malloc", None),
        (tlsf.TlsfControl, "free", "tlsf.free", None),
        (tlsf.TlsfControl, "add_pool", "tlsf.add_pool", None),
        (tlsf.TlsfControl, "destroy", "tlsf.destroy", None),
        (domains.DomainManager, "domain_call", "domains.domain_call", _aborted),
        (domains.DomainManager, "destroy", "domains.destroy", None),
        (domains.DomainManager, "heap_init", "domains.heap_init", None),
        (domains.DomainManager, "dalloc", "domains.dalloc", None),
        (domains.DomainManager, "dfree", "domains.dfree", None),
        (socket.socket, "recv", "server.recv", _received_bytes),
        (socket.socket, "sendall", "server.send", _sent_bytes),
        (socket.socket, "accept", "server.accept", None),
        (selectors.DefaultSelector, "select", "server.select", None),
    ]
    for owner, attr, name, extra in methods:
        setattr(owner, attr, spans.wrap(name, getattr(owner, attr), extra))
    # imported by name into other modules, so every binding is replaced
    create = spans.wrap("tlsf.create_with_pool", tlsf.tlsf_create_with_pool)
    for module in (tlsf, domains, server):
        module.tlsf_create_with_pool = create
    server.parse_request_line = spans.wrap("server.parse", server.parse_request_line)

    snapshot = server.GuardServer.stats_snapshot

    def marked_snapshot(self):
        spans.mark()
        return snapshot(self)

    server.GuardServer.stats_snapshot = marked_snapshot


def main(argv) -> int:
    spans = SpanTotals()
    install(spans)
    code = cli.main(argv)
    print(json.dumps({"marks": spans.marks}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
