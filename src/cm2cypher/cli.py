"""Command-line harness.

Commands: run, compile, eval, verify, reduce-tm, live.
Exit codes: 0 ok, 1 input error, 2 fuel exhausted, 3 connection failure or
server error reply, 4 semantic mismatch. Input errors (unreadable or
malformed files, a malformed command line, invalid argument values,
programs the library rejects) are reported as one ``error: <message>``
line; a numeric flag out of its bounds is named in the message.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from . import reduction
from .codegen import (
    DEFAULT_MAX_PATH,
    DEFAULT_MAX_STEPS,
    gen_qpp_query,
    gen_qpp_setup,
    gen_reduce_query,
    gen_transactions_script,
)
from .cypher import CypherError, run_query_text
from .cypher.ast import INT64_MAX
from .cypher.evaluator import format_results
from .frontend import (
    DocumentError,
    DslError,
    format_trace,
    from_map_document,
    parse_dsl,
    random_program,
    render_dsl,
)
from .machine import DEFAULT_FUEL, MachineError, NoPath, Program, qpp_walk, run
from .verify import check_program_differential  # also imported from here by callers

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FUEL = 2
EXIT_CONNECTION = 3
EXIT_MISMATCH = 4


def _load_program(path: str) -> Program:
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".json":
        return from_map_document(json.loads(text))
    return parse_dsl(text)


def _check_flags(*flags: tuple[str, int, int, int | None]) -> None:
    """ValueError naming the first (flag, value, least, greatest), in the
    order given, whose value is below least or above greatest (None: no
    upper bound)."""
    for flag, value, least, greatest in flags:
        if value < least:
            raise ValueError(f"{flag} must be >= {least}")
        if greatest is not None and value > greatest:
            raise ValueError(f"{flag} must be <= {greatest}")


def cmd_run(args) -> int:
    _check_flags(("--fuel", args.fuel, 0, None))
    program = _load_program(args.program)
    result = run(program, fuel=args.fuel, capture_trace=args.trace)
    if args.trace:
        print(format_trace(result, ascii_mode=args.ascii), end="")
    f = result.final
    status = "halted" if result.halted else "fuel-exhausted"
    print(f"{status} state={f.state} A={f.a} B={f.b} steps={result.machine_steps}")
    return EXIT_OK if result.halted else EXIT_FUEL


def cmd_compile(args) -> int:
    # each is a 64-bit literal in the query
    _check_flags(("--max-steps", args.max_steps, 1, INT64_MAX),
                 ("--max-path", args.max_path, 0, INT64_MAX))
    program = _load_program(args.program)
    # generate everything first: a rejected argument must leave no --out-dir
    if args.approach == "reduce":
        outputs = {"reduce.cypher": gen_reduce_query(program, args.max_steps).text}
    elif args.approach == "tx":
        bundle = gen_transactions_script(program, parameter_mode=args.parameter_mode)
        outputs = {"tx.setup.cypher": bundle.setup.text, "tx.main.cypher": bundle.main.text,
                   "tx.read.cypher": bundle.readback.text}
        if bundle.parameters is not None:
            outputs["tx.params.json"] = json.dumps(bundle.parameters, indent=2) + "\n"
    else:
        outputs = {"qpp.setup.cypher": gen_qpp_setup(program).text,
                   "qpp.query.cypher": gen_qpp_query(args.max_path).text}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = Path(args.program).stem
    for suffix, text in outputs.items():
        path = out_dir / f"{name}.{suffix}"
        path.write_text(text, encoding="utf-8")
        print(path)
    return EXIT_OK


def cmd_eval(args) -> int:
    text = Path(args.query).read_text(encoding="utf-8")
    params = {}
    if args.params:
        params = json.loads(Path(args.params).read_text(encoding="utf-8"))
        if not isinstance(params, dict):
            raise ValueError("--params must hold a JSON object mapping names to values")
    print(format_results(run_query_text(text, params)))
    return EXIT_OK


def cmd_verify(args) -> int:
    # --fuel is the fold's max_steps, a 64-bit literal
    _check_flags(("--count", args.count, 1, None), ("--max-states", args.max_states, 1, None),
                 ("--fuel", args.fuel, 1, INT64_MAX))
    passed = failed = 0
    for i in range(args.count):
        seed = args.seed + i
        program = random_program(seed, args.max_states)
        failures = check_program_differential(program, args.fuel)
        if failures:
            failed += 1
            print(f"FAIL seed={seed}: " + "; ".join(failures))
            print(
                f"  reproduce: cm2cypher verify --seed {seed} --count 1 "
                f"--max-states {args.max_states} --fuel {args.fuel}"
            )
        else:
            passed += 1
    print(f"verify: {passed} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def cmd_reduce_tm(args) -> int:
    _check_flags(("--fuel-per-stage", args.fuel_per_stage, 0, None))
    out = Path(args.out) if args.out else Path(args.machine).with_suffix(".2cm")
    if out.exists() and out.samefile(args.machine):  # also through a link
        raise ValueError(f"--out {out} is the input file; name another output file")
    # checked before the pipeline runs and prints; the default output sits
    # beside the input, whose own absence load_tm_file reports
    if args.out and not out.parent.is_dir():
        raise ValueError(f"--out {out}: no directory {out.parent}")
    tm = reduction.load_tm_file(args.machine)
    report = reduction.run_pipeline(tm, fuel_per_stage=args.fuel_per_stage)
    rows = [
        ("tm", report.tm_result.halted, report.tm_result.steps, "".join(report.tm_result.tape)),
        ("tsm", report.tsm_result.halted, report.tsm_result.steps, "".join(report.tsm_result.tape)),
        (
            "mcm",
            report.mcm_result.halted,
            report.mcm_result.steps,
            "".join(report.mcm_tape) if report.mcm_tape is not None else "-",
        ),
        (
            "2cm",
            report.cm_result.halted,
            report.cm_result.machine_steps,
            str(report.cm_counters) if report.cm_counters is not None else "-",
        ),
    ]
    print("stage | halted | steps | observable")
    for name, halted, steps, obs in rows:
        print(f"{name:5} | {str(halted).lower():6} | {steps:7} | {obs}")
    for pair, outcome in report.agreements.items():
        note = "skipped (fuel exhausted)" if outcome is None else ("agree" if outcome else "DISAGREE")
        print(f"{pair}: {note}")
    out.write_text(render_dsl(report.program), encoding="utf-8")
    print(f"wrote {out} ({len(report.program)} states)")
    if not report.ok:
        print("error: stage disagreement (compiler bug)", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


# --- live execution against a Cypher server --------------------------------


class ServerError(Exception):
    """The server answered a statement with an error; ``errors`` is the
    reply's error list."""

    def __init__(self, errors):
        super().__init__(f"server error: {errors}")
        self.errors = errors


# the code of the stepper's 1/0 halt guard, the one error that ends it normally
_HALT_GUARD_CODE = "Neo.ClientError.Statement.ArithmeticError"


class _HttpQueryClient:
    """Minimal client for the HTTP query API of the default database (POST
    /db/neo4j/query/v2)."""

    def __init__(self, uri: str, user: str, password: str):
        self.url = f"{uri.rstrip('/')}/db/neo4j/query/v2"
        self.credentials = f"{user}:{password}".encode()

    def query(self, statement: str, parameters: dict | None = None) -> list[dict]:
        # imported here: urllib.request loads http.client, email and ssl, which
        # would add tens of milliseconds and megabytes to every other command
        import base64
        import urllib.request

        body: dict = {"statement": statement}
        if parameters:
            body["parameters"] = parameters
        headers = {
            "Authorization": "Basic " + base64.b64encode(self.credentials).decode("ascii"),
            "Content-Type": "application/json",
            "Accept": "application/json",
        }
        request = urllib.request.Request(
            self.url, data=json.dumps(body).encode(), headers=headers, method="POST"
        )
        with urllib.request.urlopen(request, timeout=120) as resp:
            data = json.load(resp)
        # a reply of another shape is a ValueError, a connection failure: a
        # ServerError without an error list would read as the stepper's halt
        if not isinstance(data, dict):
            raise ValueError("server reply is not a JSON object")
        if data.get("errors"):
            raise ServerError(data["errors"])
        result = data.get("data", {})
        fields = result.get("fields", []) if isinstance(result, dict) else None
        rows = result.get("values", []) if isinstance(result, dict) else None
        if not (_list_of(fields, str) and _list_of(rows, list)):
            raise ValueError("server reply holds no result table")
        return [dict(zip(fields, row)) for row in rows]


def _list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(x, kind) for x in value)


def cmd_live(args) -> int:
    _check_flags(("--fuel", args.fuel, 0, None), ("--max-path", args.max_path, 0, INT64_MAX))
    uri, user, password = map(os.environ.get, ("CYPHER_URI", "CYPHER_USER", "CYPHER_PASSWORD"))
    if not uri or user is None or password is None:
        raise ValueError("live execution needs CYPHER_URI, CYPHER_USER and CYPHER_PASSWORD")
    program = _load_program(args.program)
    # per approach: the label of the nodes its setup creates, the setup, the
    # stepper (tx only), the readback and the row it must return
    if args.approach == "tx":
        final = run(program, fuel=args.fuel).final
        bundle = gen_transactions_script(program)
        label, setup, stepper = "Machine", bundle.setup.text, bundle.main.text
        readback = "MATCH (m:Machine) RETURN m.state AS state, m.A AS A, m.B AS B"
        expected = {"state": final.state, "A": final.a, "B": final.b}
    else:
        walk = qpp_walk(program, fuel=args.fuel)
        label, setup, stepper = "State", gen_qpp_setup(program).text, None
        readback = gen_qpp_query(args.max_path).text
        expected = {"steps": walk.steps, "ctrA": walk.final_a, "ctrB": walk.final_b}
    cleanup = f"MATCH (n:{label}) DETACH DELETE n"
    client = _HttpQueryClient(uri, user, password)
    try:
        # the cleanup deletes every node of the label: run only where there
        # is none, so that no other user's data is read, stepped or deleted
        if any(row.get("n") for row in client.query(f"MATCH (n:{label}) RETURN count(n) AS n")):
            print(f"error: the database already holds :{label} nodes; live runs only "
                  f"where there are none", file=sys.stderr)
            return EXIT_INPUT
        try:
            client.query(setup)
            if stepper is not None:
                try:
                    client.query(stepper)
                except ServerError as exc:
                    # the 1/0 halt guard surfaces as a statement error on some
                    # configurations, and then the readback decides
                    # correctness; any other error fails the run
                    if not _list_of(exc.errors, dict) or any(
                        e.get("code") != _HALT_GUARD_CODE for e in exc.errors
                    ):
                        raise
            rows = client.query(readback)
        except BaseException:
            # clean up after a failure too; the first error is the one reported
            with contextlib.suppress(OSError, ValueError, ServerError):
                client.query(cleanup)
            raise
        client.query(cleanup)
    except (OSError, ValueError) as exc:  # URLError and HTTPError are OSErrors
        print(f"error: connection failure: {exc}", file=sys.stderr)
        return EXIT_CONNECTION
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONNECTION
    got = rows[0] if rows else None
    if got == expected:
        print(f"match: {got}")
        return EXIT_OK
    print(f"mismatch: server {got} != local {expected}", file=sys.stderr)
    return EXIT_MISMATCH


# --- argument parsing --------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """A malformed command line is an input error: one ``error: <message>``
    line and exit 1, as for any other invalid argument value."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cm2cypher",
        description="2-counter machine toolkit with Cypher query generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="interpret a program file")
    p.add_argument("program", help=".2cm DSL file or .json map-list document")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--trace", action="store_true", help="print the execution table")
    p.add_argument("--ascii", action="store_true", help="render arrows as '->'")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compile", help="generate Cypher query files")
    p.add_argument("program")
    p.add_argument("--approach", choices=("reduce", "tx", "qpp"), required=True)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--max-path", type=int, default=DEFAULT_MAX_PATH)
    p.add_argument("--parameter-mode", action="store_true",
                   help="tx: reference $program instead of inlining the list")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="evaluate a pure-expression query in-process")
    p.add_argument("query")
    p.add_argument("--params", help="JSON file mapping parameter names to values")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="differential check on random programs")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-states", type=int, default=8)
    p.add_argument("--fuel", type=int, default=5000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce-tm", help="compile a Turing machine to a 2-counter program")
    p.add_argument("machine", help="machine description JSON")
    p.add_argument("--fuel-per-stage", type=int, default=DEFAULT_FUEL)
    p.add_argument("--out", help="output .2cm path (default: next to the input)")
    p.set_defaults(func=cmd_reduce_tm)

    p = sub.add_parser("live", help="execute generated queries against a live server")
    p.add_argument("program")
    p.add_argument("--approach", choices=("tx", "qpp"), required=True)
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--max-path", type=int, default=DEFAULT_MAX_PATH)
    p.set_defaults(func=cmd_live)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoPath as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FUEL
    except (
        OSError,
        ValueError,  # also json.JSONDecodeError and the library's argument checks
        DslError,
        DocumentError,
        reduction.ReductionError,
        CypherError,
        MachineError,
        RecursionError,  # JSON input nested past the recursion limit
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint():  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
