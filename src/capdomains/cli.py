"""Command line front end: serve, bench, attack, demo, compare.

The command line is parsed from one table, ``COMMANDS``, without ``argparse``,
so a server process loads neither it nor ``gettext``.  Option names are
matched whole: ``--conn`` is not ``--connections``.
"""

import sys
from types import SimpleNamespace
from typing import List, Optional

from . import server
from .capmem import MainDomainFault, ProtectionFault
from .server import OVERSIZE_LEN, PAYLOAD_BYTES, MODES, GuardServer, ServerConfig

PROG = "capdomains"
REQUIRED = ...  # the default of an option that must be given


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
    if srv.fatal is not None and server.log is None:  # under -v the worker logged it
        if not isinstance(srv.fatal, (ProtectionFault, MainDomainFault)):
            import traceback
            traceback.print_exception(srv.fatal)
        print(f"worker terminated by {type(srv.fatal).__name__}: {srv.fatal}", file=sys.stderr)
    return 0 if srv.fatal is None else 1


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


# command -> (handler, help, {option: (int, float, str or a tuple of choices, default, help)});
# every handler but serve's is also handed the harness module
COMMANDS = {
    "serve": (_cmd_serve, "run the guard server until shutdown or fault", {
        "--port": (int, 0, "0 picks a free port"),
        "--mode": (MODES, "domains", "where the request buffer comes from"),
        "--payload": (tuple(PAYLOAD_BYTES), "0k", "reply body size"),
        "--host": (str, "127.0.0.1", "address to listen on"),
    }),
    "bench": (_cmd_bench, "closed-loop load against a running server", {
        "--host": (str, "127.0.0.1", "server address"),
        "--port": (int, REQUIRED, "server port"),
        "--connections": (int, 8, "client connections"),
        "--duration": (float, 10.0, "seconds per run"),
        "--payload": (tuple(PAYLOAD_BYTES), "0k", "reply body size the server was started with"),
        "--malicious-ratio": (float, 0.0, "share of requests that are attacks"),
        "--reps": (int, 3, "runs; desk-scale default"),
        "--out": (str, None, "append per-run CSV rows here"),
        "--seed": (int, None, "seed of the clients' random streams"),
    }),
    "attack": (_cmd_attack, "send one oversized request line", {
        "--host": (str, "127.0.0.1", "server address"),
        "--port": (int, REQUIRED, "server port"),
        "--oversize": (int, OVERSIZE_LEN, "attack line length in bytes"),
    }),
    "demo": (_cmd_demo, "five-request scenario, protected vs unprotected", {}),
    "compare": (_cmd_compare, "measure the mode x payload matrix in-process", {
        "--connections": (int, 8, "client connections"),
        "--duration": (float, 10.0, "seconds per run"),
        "--reps": (int, 3, "runs per cell"),
        "--modes": (str, ",".join(MODES), "comma-separated modes"),
        "--payloads": (str, ",".join(PAYLOAD_BYTES), "comma-separated payloads"),
        "--out": (str, None, "append per-run CSV rows here"),
        "--compare-out": (str, None, "write the overhead CSV here"),
        "--seed": (int, None, "seed of the clients' random streams"),
    }),
}
_TOP_OPTIONS = {"-h, --help": "show this help message and exit", "-v, --verbose": "log at INFO level"}


def _spelled(name: str, kind) -> str:
    """``--port PORT`` or ``--mode {baseline,tlsf,domains}``."""
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {name[2:].upper().replace('-', '_')}"


def _usage(command: Optional[str]) -> str:
    if command is None:
        return f"usage: {PROG} [-h] [-v] {{{','.join(COMMANDS)}}} ..."
    opts = (_spelled(name, kind) if default is REQUIRED else f"[{_spelled(name, kind)}]"
            for name, (kind, default, _h) in COMMANDS[command][2].items())
    return " ".join([f"usage: {PROG} {command} [-h]", *opts])


def _fail(command: Optional[str], reason: str):
    """Exit 2 with a usage line and the reason on stderr, as argparse does."""
    where = PROG if command is None else f"{PROG} {command}"
    print(_usage(command), f"{where}: error: {reason}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _help(command: Optional[str]):
    """Print the commands, or one command's options with their defaults, and exit 0."""
    if command is None:
        about = "Capability-guarded request server and its benchmark harness"
        sections = {"commands": {name: text for name, (_c, text, _o) in COMMANDS.items()},
                    "options": _TOP_OPTIONS}
    else:
        _c, about, options = COMMANDS[command]
        rows = {"-h, --help": _TOP_OPTIONS["-h, --help"]}
        for name, (kind, default, text) in options.items():
            rows[_spelled(name, kind)] = f"{text} (" + (
                "required)" if default is REQUIRED else f"default: {default})")
        sections = {"options": rows}
    print(_usage(command), "", about, sep="\n")
    for title, rows in sections.items():
        width = max(map(len, rows))
        print(f"\n{title}:", *(f"  {name:<{width}}  {text}" for name, text in rows.items()), sep="\n")
    raise SystemExit(0)


def parse_args(argv: Optional[List[str]] = None) -> SimpleNamespace:
    """``[-v] COMMAND [--option VALUE | --option=VALUE]...`` as a namespace of
    ``command``, ``verbose`` and each option (``--malicious-ratio`` as
    ``malicious_ratio``).  ``-h`` prints help and exits 0; a bad command line
    exits 2."""
    args = list(sys.argv[1:] if argv is None else argv)
    verbose = False
    while args and args[0] in ("-h", "--help", "-v", "--verbose"):
        if args.pop(0) in ("-h", "--help"):
            _help(None)
        verbose = True
    if not args:
        _fail(None, "the following arguments are required: command")
    command = args.pop(0)
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    options = COMMANDS[command][2]
    values = {name: default for name, (_k, default, _h) in options.items()}
    while args:
        token = args.pop(0)
        if token in ("-h", "--help"):
            _help(command)
        name, eq, value = token.partition("=")
        if name not in options:
            _fail(None, f"unrecognized arguments: {' '.join([token, *args])}")
        if not eq:  # the next word is the value, unless it is an option (a negative number is not)
            if not args or args[0][:1] == "-" and not args[0][1:].replace(".", "", 1).isdigit():
                _fail(command, f"argument {name}: expected one argument")
            value = args.pop(0)
        kind = options[name][0]
        if not isinstance(kind, tuple):
            try:
                value = kind(value)
            except ValueError:
                _fail(command, f"argument {name}: invalid {kind.__name__} value: {value!r}")
        elif value not in kind:
            _fail(command, f"argument {name}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, kind))})")
        values[name] = value
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, verbose=verbose,
                           **{name[2:].replace("-", "_"): v for name, v in values.items()})


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.verbose or args.command != "serve":  # a plain server never loads logging
        import logging
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
        server.log = logging.getLogger(server.__name__)
    try:
        if args.command == "serve":
            return _cmd_serve(args)
        from . import bench as bench_mod  # the harness: a server never loads it
        return COMMANDS[args.command][0](args, bench_mod)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
