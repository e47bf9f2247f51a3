"""Command line front end: serve, bench, attack, demo, compare."""

import argparse
import sys
from typing import List, Optional

from . import server
from .capmem import ProtectionFault
from .domains import MainDomainFault
from .server import OVERSIZE_LEN, PAYLOAD_BYTES, MODES, GuardServer, ServerConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capdomains",
        description="Capability-guarded request server and its benchmark harness",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the guard server until shutdown or fault")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.add_argument("--mode", choices=MODES, default="domains")
    p.add_argument("--payload", choices=PAYLOAD_BYTES, default="0k")
    p.add_argument("--host", default="127.0.0.1")

    p = sub.add_parser("bench", help="closed-loop load against a running server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--connections", type=int, default=8)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--payload", choices=PAYLOAD_BYTES, default="0k")
    p.add_argument("--malicious-ratio", type=float, default=0.0)
    p.add_argument("--reps", type=int, default=3, help="desk-scale default")
    p.add_argument("--out", default=None, help="append per-run CSV rows here")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("attack", help="send one oversized request line")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--oversize", type=int, default=OVERSIZE_LEN)

    sub.add_parser("demo", help="five-request scenario, protected vs unprotected")

    p = sub.add_parser("compare", help="measure the mode x payload matrix in-process")
    p.add_argument("--connections", type=int, default=8)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--modes", default=",".join(MODES))
    p.add_argument("--payloads", default=",".join(PAYLOAD_BYTES))
    p.add_argument("--out", default=None, help="append per-run CSV rows here")
    p.add_argument("--compare-out", default=None, help="write the overhead CSV here")
    p.add_argument("--seed", type=int, default=None)
    return parser


def _cmd_serve(args) -> int:
    cfg = ServerConfig(
        listen_port=args.port,
        mode=args.mode,
        payload_size=PAYLOAD_BYTES[args.payload],
        host=args.host,
    )
    srv = GuardServer(cfg)
    srv.listen()
    try:  # from the banner on, Ctrl-C is a clean exit
        print(f"listening on {args.host}:{srv.port} mode={args.mode} "
              f"payload={args.payload}", flush=True)
        srv.serve()  # the worker runs on this thread
    except KeyboardInterrupt:
        pass  # serve closed every socket on the way out
    if srv.fatal is not None:
        if server.log is None and not isinstance(srv.fatal, (ProtectionFault, MainDomainFault)):
            import traceback  # logging prints it under -v
            traceback.print_exception(srv.fatal)
        print(f"worker terminated by {type(srv.fatal).__name__}: {srv.fatal}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args, bench_mod) -> int:
    cfg = bench_mod.BenchConfig(
        host=args.host,
        port=args.port,
        connections=args.connections,
        duration=args.duration,
        payload=args.payload,
        malicious_ratio=args.malicious_ratio,
        repetitions=args.reps,
        out_path=args.out,
        seed=args.seed,
    )
    result = bench_mod.run_workload(cfg)
    print(
        f"{result.mode},{result.payload}: {result.requests_per_second:.1f} rps "
        f"(std {result.stddev:.1f}) served={result.served} rejected={result.rejected} "
        f"server_alive={'yes' if result.server_alive else 'no'}"
    )
    if args.out:
        print(f"per-run rows appended to {args.out}")
    return 0 if result.server_alive else 1


def _cmd_attack(args, bench_mod) -> int:
    dropped = bench_mod.attack(args.host, args.port, oversize=args.oversize)
    print("connection dropped" if dropped else "request was answered")
    return 0 if dropped else 1


def _cmd_demo(_args, bench_mod) -> int:
    outcome = bench_mod.demo(echo=print)
    dom, base = outcome["domains"], outcome["baseline"]
    ok = dom["alive"] and dom["served"] == 4 and not base["alive"]
    print("contrast demonstrated" if ok else "unexpected demo outcome")
    return 0 if ok else 1


def _cmd_compare(args, bench_mod) -> int:
    results = bench_mod.run_matrix(
        modes=tuple(args.modes.split(",")),
        payloads=tuple(args.payloads.split(",")),
        connections=args.connections,
        duration=args.duration,
        repetitions=args.reps,
        seed=args.seed,
        out_path=args.out,
    )
    _rows, text = bench_mod.compare_modes(results)
    sys.stdout.write(text)
    if args.compare_out:
        with open(args.compare_out, "w") as fh:
            fh.write(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose or args.command != "serve":  # a plain server never loads logging
        import logging
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
        server.log = logging.getLogger(server.__name__)
    harness_commands = {
        "bench": _cmd_bench,
        "attack": _cmd_attack,
        "demo": _cmd_demo,
        "compare": _cmd_compare,
    }
    try:
        if args.command == "serve":
            return _cmd_serve(args)
        from . import bench as bench_mod  # the harness: a server never loads it
        return harness_commands[args.command](args, bench_mod)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
