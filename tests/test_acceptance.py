"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS line on
success (pytest reports the failure otherwise). Run with `-s` to see the
lines as they complete.
"""

import time

import pytest

from cm2cypher.cli import check_program_differential
from cm2cypher.codegen import (
    gen_qpp_query,
    gen_qpp_setup,
    gen_reduce_query,
    gen_transactions_script,
    lint_primitives,
    queries_token_equal,
)
from cm2cypher.cypher import run_query_text
from cm2cypher.frontend import format_trace, parse_dsl, random_program
from cm2cypher.machine import qpp_walk, run
from cm2cypher.reduction import load_tm_file, run_pipeline
from conftest import FIXTURES, GOLDEN, REFERENCE


def report(n, label):
    print(f"criterion {n} PASS: {label}")


def test_criterion_1_golden_run(demo):
    t0 = time.perf_counter()
    result = run(demo, fuel=1_000_000, capture_trace=True)
    elapsed = time.perf_counter() - t0
    assert (result.final.state, result.final.a, result.final.b) == (-1, 2, 0)
    assert result.machine_steps == 6
    rows = [
        [c.strip() for c in line.split("|")]
        for line in format_trace(result).splitlines()[1:]
        if not set(line) <= set("-+| ")
    ]
    assert rows == [
        ["0", "INC(A)", "q0", "0→1", "0"],
        ["1", "JZDEC(B), B=0", "q1", "1", "0"],
        ["2", "INC(B)", "q2", "1", "0→1"],
        ["3", "INC(A)", "q0", "1→2", "1"],
        ["4", "JZDEC(B), B>0", "q1", "2", "1→0"],
        ["5", "HALT", "q3", "2", "0"],
    ]
    assert elapsed < 0.1
    report(1, f"golden run halts at (-1, 2, 0) in 6 steps ({elapsed * 1000:.1f} ms)")


def test_criterion_2_walk_golden(demo):
    t0 = time.perf_counter()
    walk = qpp_walk(demo, fuel=1_000_000)
    elapsed = time.perf_counter() - t0
    assert (walk.steps, walk.final_a, walk.final_b) == (5, 2, 0)
    assert elapsed < 0.1
    report(2, f"walk reaches halt node with steps=5, A=2, B=0 ({elapsed * 1000:.1f} ms)")


def test_criterion_3_fold_query_end_to_end(demo):
    t0 = time.perf_counter()
    full = run_query_text(gen_reduce_query(demo, 1_000_000).text)
    full_elapsed = time.perf_counter() - t0
    assert full == {"result": {"state": -1, "A": 2, "B": 0}}
    assert full_elapsed < 30

    t0 = time.perf_counter()
    fast = run_query_text(gen_reduce_query(demo, 10_000).text)
    fast_elapsed = time.perf_counter() - t0
    assert fast == full
    assert fast_elapsed < 1
    report(
        3,
        "generated fold query evaluates to {state:-1, A:2, B:0} "
        f"(max_steps 10^6 in {full_elapsed:.2f} s, 10^4 in {fast_elapsed:.2f} s; "
        "both folds stop at the demo's halt, 6 steps in)",
    )


_GROW = "state 0: INC B -> 1\nstate 1: INC A -> 2\nstate 2: JZDEC B ? 0 : 0\n"
_INIT = "machine = {state: 0, A: 0, B: 0}"


@pytest.mark.parametrize("source, init", [
    *(pytest.param(source, None, id=source) for source in [
        "state 0: INC A -> 0\n",
        "state 0: INC B -> 1\nstate 1: JZDEC B ? 2 : 2\nstate 2: JZDEC A ? 0 : 0\n",
        _GROW,
    ]),
    # the same start with its keys in another order: the first step's map
    # changes the order the fold holds, and every later step keeps it
    pytest.param(_GROW, "machine = {B: 0, A: 0, state: 0}", id="grow from {B: 0, A: 0, state: 0}"),
])
def test_a_live_fold_of_a_million_iterations_equals_run(source, init):
    # loops that never halt: the self-loop and the counter-growing loop never
    # repeat a configuration, so each of their 10^6 iterations is live; the
    # second loop repeats (0, 0, 0) every 3 steps, and its fold stops at that
    # cycle
    program = parse_dsl(source)
    text = gen_reduce_query(program, 1_000_000).text
    if init is not None:
        assert text.count(_INIT) == 1
        text = text.replace(_INIT, init)
    t0 = time.perf_counter()
    got = run_query_text(text)
    elapsed = time.perf_counter() - t0
    final = run(program, fuel=1_000_000).final
    assert got == {"result": {"state": final.state, "A": final.a, "B": final.b}}
    print(f"live fold of 10^6 iterations equals run ({elapsed:.2f} s)")


def test_criterion_4_differential_suite():
    t0 = time.perf_counter()
    failures = []
    for seed in range(42, 242):
        program = random_program(seed, 8)
        failures += [f"seed {seed}: {f}" for f in check_program_differential(program, 5000)]
    elapsed = time.perf_counter() - t0
    assert failures == []
    assert elapsed < 60
    report(4, f"200-program differential suite has zero mismatches ({elapsed:.1f} s)")


def test_criterion_5_codegen_goldens(demo):
    outputs = {
        "demo.reduce.cypher": gen_reduce_query(demo).text,
        "demo.qpp.setup.cypher": gen_qpp_setup(demo).text,
        "demo.qpp.query.cypher": gen_qpp_query().text,
    }
    bundle = gen_transactions_script(demo)
    outputs["demo.tx.setup.cypher"] = bundle.setup.text
    outputs["demo.tx.main.cypher"] = bundle.main.text
    outputs["demo.tx.read.cypher"] = bundle.readback.text
    for name, text in outputs.items():
        assert text == (GOLDEN / name).read_text(), f"golden drift in {name}"
    pairings = [
        ("demo.reduce.cypher", "reduce.cypher"),
        ("demo.tx.setup.cypher", "tx_setup.cypher"),
        ("demo.tx.main.cypher", "tx_main.cypher"),
        ("demo.tx.read.cypher", "tx_read.cypher"),
        ("demo.qpp.setup.cypher", "qpp_setup.cypher"),
        ("demo.qpp.query.cypher", "qpp_query.cypher"),
    ]
    for golden_name, reference_name in pairings:
        assert queries_token_equal(
            (GOLDEN / golden_name).read_text(),
            (REFERENCE / reference_name).read_text(),
        ), f"{golden_name} diverges from the reference listing"
    report(5, "all 6 goldens byte-exact and token-equal to the reference listings")


def test_criterion_6_primitive_lint():
    for seed in range(42, 242):
        program = random_program(seed, 8)
        violations = lint_primitives(gen_reduce_query(program))
        assert violations == [], f"seed {seed}: {violations}"
    report(6, "every generated fold query passes the pure-expression lint")


def test_criterion_7_reduction_pipeline():
    t0 = time.perf_counter()
    for name in ("immediate_halt", "unary_successor", "right_move"):
        tm = load_tm_file(FIXTURES / "tm" / f"{name}.json")
        rep = run_pipeline(tm, fuel_per_stage=1_000_000)
        assert rep.ok, f"{name}: {rep.agreements}"
        assert rep.agreements["tm/tsm"] is True, name
        # the counter stages must actually finish, not merely be skipped
        assert rep.agreements["tsm/mcm"] is True, name
        assert rep.agreements["mcm/2cm"] is True, name
        assert rep.mcm_tape == rep.tm_result.tape, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(7, f"all 3 fixture machines agree across every stage ({elapsed:.1f} s)")


def test_criterion_8_evaluator_semantics():
    from cm2cypher.cypher import DivisionByZero, evaluate, parse_expression

    def ev(text):
        return evaluate(parse_expression(text), {}, {})

    assert ev("null + 1") is None
    assert ev("[10, 20, 30][-1]") == 30
    assert ev("[10, 20, 30][99]") is None
    with pytest.raises(DivisionByZero):
        ev("1/0")
    report(8, "null propagation, index semantics, and the 1/0 guard behave as pinned")


def test_criterion_9_live_checks_are_gated():
    import os

    configured = all(
        os.environ.get(v) for v in ("CYPHER_URI", "CYPHER_USER", "CYPHER_PASSWORD")
    )
    if not configured:
        report(9, "live-server checks gated off (no CYPHER_URI); suite passes without them")
        return
    from cm2cypher.cli import EXIT_OK, main

    demo_path = str(FIXTURES / "demo.2cm")
    assert main(["live", demo_path, "--approach", "tx"]) == EXIT_OK
    assert main(["live", demo_path, "--approach", "qpp"]) == EXIT_OK
    report(9, "live-server checks reproduced both result boxes")
