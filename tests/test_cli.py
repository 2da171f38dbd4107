import contextlib
import io
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cm2cypher.cli import (
    EXIT_CONNECTION,
    EXIT_FUEL,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    check_program_differential,
    main,
)
from cm2cypher import reduction
from cm2cypher.codegen import DEFAULT_MAX_PATH, gen_qpp_query, gen_qpp_setup, gen_reduce_query
from cm2cypher.cypher import IntegerOverflow, run_query_text
from cm2cypher.frontend import parse_dsl, random_program
from cm2cypher.machine import (
    INT64_MAX,
    Config,
    CounterOverflow,
    Halt,
    Inc,
    JzDec,
    Program,
    run,
)
from conftest import FIXTURES, JSON_VALUES, run_python

DEMO_PATH = str(FIXTURES / "demo.2cm")
DEMO_JSON = str(FIXTURES / "demo.maps.json")
UNARY_TM = str(FIXTURES / "tm" / "unary_successor.json")
# lists a state twice; the reduction gives each state name one label
DUPLICATE_STATE_TM = {"states": ["q0", "q0"], "alphabet": ["_"], "blank": "_",
                      "transitions": [], "initial": "q0", "halting": ["q0"], "input": []}


# ---------------------------------------------------------------------- run


def test_run_demo(capsys):
    assert main(["run", DEMO_PATH]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "halted state=-1 A=2 B=0 steps=6"


def test_run_json_document(capsys):
    assert main(["run", DEMO_JSON]) == EXIT_OK
    assert "A=2 B=0" in capsys.readouterr().out


def test_run_trace(capsys):
    assert main(["run", DEMO_PATH, "--trace", "--ascii"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Step | Instr" in out
    assert "0->1" in out


def test_run_fuel_exhausted(tmp_path, capsys):
    looper = tmp_path / "loop.2cm"
    looper.write_text("state 0: INC A -> 0\n")
    assert main(["run", str(looper), "--fuel", "3"]) == EXIT_FUEL
    assert capsys.readouterr().out.startswith("fuel-exhausted")


def test_run_counter_overflow_exits_with_input_error(tmp_path):
    # the self-loop reaches 2^63 - 1 within the fuel, so INC overflows
    looper = tmp_path / "loop.2cm"
    looper.write_text("state 0: INC A -> 0\n")
    proc = run_python("-m", "cm2cypher.cli", "run", str(looper), "--fuel", str(10**19))
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("error: counter exceeds")
    assert "Traceback" not in proc.stderr


def test_run_trace_of_a_self_loop_finishes_past_its_cap(tmp_path):
    # rows stop at the cap; the rest of the 10^12 steps runs untraced, so
    # the run ends well within run_python's timeout
    looper = tmp_path / "loop.2cm"
    looper.write_text("state 0: INC A -> 0\n")
    proc = run_python("-m", "cm2cypher.cli", "run", str(looper), "--trace",
                      "--fuel", str(10**12))
    assert proc.returncode == EXIT_FUEL, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("... trace truncated at 10000 rows")
    assert lines[-1] == f"fuel-exhausted state=0 A={10**12} B=0 steps={10**12}"


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent.2cm"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_run_bad_dsl(tmp_path, capsys):
    bad = tmp_path / "bad.2cm"
    bad.write_text("state 0: WAT\n")
    assert main(["run", str(bad)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------ compile


def test_compile_reduce(tmp_path, capsys):
    assert main(["compile", DEMO_PATH, "--approach", "reduce", "--out-dir", str(tmp_path)]) == EXIT_OK
    out_file = tmp_path / "demo.reduce.cypher"
    assert out_file.exists()
    assert str(out_file) in capsys.readouterr().out
    assert out_file.read_text().startswith("CYPHER 25")


def test_compile_tx(tmp_path):
    assert main(["compile", DEMO_PATH, "--approach", "tx", "--out-dir", str(tmp_path)]) == EXIT_OK
    for suffix in ("tx.setup", "tx.main", "tx.read"):
        assert (tmp_path / f"demo.{suffix}.cypher").exists()
    assert not (tmp_path / "demo.tx.params.json").exists()


def test_compile_tx_parameter_mode(tmp_path):
    assert main([
        "compile", DEMO_PATH, "--approach", "tx", "--parameter-mode",
        "--out-dir", str(tmp_path),
    ]) == EXIT_OK
    params = json.loads((tmp_path / "demo.tx.params.json").read_text())
    assert params["program"][0]["op"] == "INC"
    assert "$program" in (tmp_path / "demo.tx.main.cypher").read_text()


def test_compile_qpp(tmp_path):
    assert main(["compile", DEMO_PATH, "--approach", "qpp", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "demo.qpp.setup.cypher").exists()
    assert (tmp_path / "demo.qpp.query.cypher").exists()


@pytest.mark.parametrize("bad_arg", [["--approach", "reduce", "--max-steps", "0"],
                                     ["--approach", "qpp", "--max-path", "-1"]])
def test_compile_rejected_argument_creates_no_out_dir(bad_arg, tmp_path, capsys):
    out_dir = tmp_path / "D"
    assert main(["compile", DEMO_PATH, *bad_arg, "--out-dir", str(out_dir)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, value, bound", [
    ("--max-steps", 0, ">= 1"), ("--max-steps", -1, ">= 1"),
    ("--max-steps", INT64_MAX + 1, f"<= {INT64_MAX}"),
    ("--max-path", -1, ">= 0"), ("--max-path", INT64_MAX + 1, f"<= {INT64_MAX}"),
])
@pytest.mark.parametrize("approach", ["reduce", "qpp"])
def test_compile_names_the_flag_it_rejects(flag, value, bound, approach, tmp_path, capsys):
    # the message names the flag, not the parameter it feeds (max_steps, max_path)
    argv = ["compile", DEMO_PATH, "--approach", approach, flag, str(value)]
    assert main([*argv, "--out-dir", str(tmp_path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {flag} must be {bound}\n")


# --------------------------------------------------------------------- eval


def test_eval_compiled_query_matches_interpreter(tmp_path, capsys):
    main(["compile", DEMO_PATH, "--approach", "reduce", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert main(["eval", str(tmp_path / "demo.reduce.cypher")]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "{A:2, B:0, state:-1}"


def test_eval_fold_of_2_to_the_63_steps_stops_at_the_halt(tmp_path, capsys):
    argv = ["compile", DEMO_PATH, "--approach", "reduce", "--max-steps", str(INT64_MAX)]
    assert main([*argv, "--out-dir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", str(tmp_path / "demo.reduce.cypher")]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "{A:2, B:0, state:-1}"


def test_eval_with_params(tmp_path, capsys):
    query = tmp_path / "q.cypher"
    query.write_text("RETURN $n * 2 AS doubled")
    params = tmp_path / "p.json"
    params.write_text('{"n": 21}')
    assert main(["eval", str(query), "--params", str(params)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "{doubled:42}"


@pytest.mark.parametrize("document", ['["n"]', '"xyz"', "7"])
def test_eval_params_must_be_a_json_object(document, tmp_path, capsys):
    query = tmp_path / "q.cypher"
    query.write_text("RETURN $n AS n")
    params = tmp_path / "p.json"
    params.write_text(document)
    assert main(["eval", str(query), "--params", str(params)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: --params must hold a JSON object mapping names to values\n"
    assert captured.out == ""


@pytest.mark.parametrize("document, shown", [
    ('{"x": 1.5}', "1.5"),
    ('{"y": 1, "x": {"m": [2, [3, 1e400]]}}', "inf"),
    ('{"x": [NaN]}', "nan"),
])
def test_eval_params_reject_floats_at_any_depth(document, shown, tmp_path, capsys):
    query = tmp_path / "q.cypher"
    query.write_text("RETURN $x AS x")
    params = tmp_path / "p.json"
    params.write_text(document)
    assert main(["eval", str(query), "--params", str(params)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: TypeMismatch: parameter 'x' holds the float {shown}; "
        "only integers, strings, booleans, null, lists and maps are supported\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("document, shown", [
    ('{"x": 100000000000000000000000}', "100000000000000000000000"),
    ('{"x": {"m": [1, -9223372036854775809]}}', "-9223372036854775809"),
])
def test_eval_params_reject_integers_outside_64_bits(document, shown, tmp_path, capsys):
    query = tmp_path / "q.cypher"
    query.write_text("RETURN $x AS x")
    params = tmp_path / "p.json"
    params.write_text(document)
    assert main(["eval", str(query), "--params", str(params)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: Overflow: parameter 'x' holds the integer {shown}, outside the 64-bit range\n"
    )
    assert captured.out == ""


def test_eval_params_accept_the_64_bit_bounds(tmp_path, capsys):
    query = tmp_path / "q.cypher"
    query.write_text("RETURN $x AS x")
    params = tmp_path / "p.json"
    params.write_text('{"x": [-9223372036854775808, {"m": 9223372036854775807}, true]}')
    assert main(["eval", str(query), "--params", str(params)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == (
        "{x:[-9223372036854775808, {m:9223372036854775807}, true]}"
    )


@pytest.mark.parametrize("command, name, text, message", [
    ("run", "x.2cm", "state 0: HALT\nstate 1:\n",
     "line 2, column 9: expected an instruction (INC, JZDEC or HALT)"),
    ("eval", "q.cypher", "RETURN " + "1" * 5000,
     "SyntaxError at line 1, column 8: integer literal of 5000 digits is too long"),
], ids=["dsl-empty-body", "int-literal-5000-digits"])
def test_malformed_input_is_one_error_line(command, name, text, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("text, error", [
    ("RETURN range(0, 9223372036854775807) AS r", "EvalError: "),
    ("RETURN [x IN range(0, 9223372036854775807) | x] AS r", "EvalError at line 1, column 8: "),
])
def test_eval_of_a_list_past_the_length_limit_is_an_error(text, error, tmp_path, capsys):
    query = tmp_path / "q.cypher"
    query.write_text(text)
    assert main(["eval", str(query)]) == EXIT_INPUT
    captured = capsys.readouterr()
    limit = "list of 9223372036854775808 elements exceeds the limit of 1000000"
    assert captured.err == f"error: {error}{limit}\n"
    assert captured.out == ""


def test_eval_ranges_past_sys_maxsize(tmp_path, capsys):
    query = tmp_path / "q.cypher"
    query.write_text(
        "RETURN head(range(-1, 9223372036854775807)) AS h,\n"
        "       range(0, 9223372036854775807)[-1] AS last,\n"
        "       range(0, 9223372036854775807) = [1] AS eq"
    )
    assert main(["eval", str(query)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "{h:-1, last:9223372036854775807, eq:false}\n"
    assert captured.err == ""


def test_eval_unsupported_feature(tmp_path, capsys):
    query = tmp_path / "q.cypher"
    query.write_text("MATCH (n) RETURN n")
    assert main(["eval", str(query)]) == EXIT_INPUT
    assert "MATCH" in capsys.readouterr().err


def test_eval_runtime_error(tmp_path, capsys):
    query = tmp_path / "q.cypher"
    query.write_text("RETURN 1/0")
    assert main(["eval", str(query)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_eval_deeply_nested_query_is_an_input_error(tmp_path, capsys):
    query = tmp_path / "q.cypher"
    query.write_text("RETURN " + "(" * 3000 + "1" + ")" * 3000)
    assert main(["eval", str(query)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "nested too deeply" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "eval", "reduce-tm"])
def test_deeply_nested_json_is_an_input_error(command, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    query = tmp_path / "q.cypher"
    query.write_text("RETURN 1")
    argv = {"run": ["run", str(deep)], "eval": ["eval", str(query), "--params", str(deep)],
            "reduce-tm": ["reduce-tm", str(deep)]}[command]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "recursion" in captured.err
    assert captured.out == ""


# ------------------------------------------------------------------- verify


def test_verify_small_batch(capsys):
    assert main(["verify", "--seed", "42", "--count", "10", "--fuel", "2000"]) == EXIT_OK
    assert "10 passed, 0 failed" in capsys.readouterr().out


def test_verify_rejects_bad_count(capsys):
    assert main(["verify", "--count", "0"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: --count must be >= 1\n")


@pytest.mark.parametrize("flag", ["--fuel", "--max-states"])
def test_verify_names_the_flag_it_rejects(flag, capsys):
    # the message names the flag, not the parameter it feeds (max_steps)
    assert main(["verify", "--count", "1", flag, "0"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {flag} must be >= 1\n")


def test_verify_names_the_fuel_no_fold_can_hold(capsys):
    # the fold's max_steps is a 64-bit literal; the message names --fuel
    assert main(["verify", "--count", "1", "--fuel", str(10**23)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: --fuel must be <= {INT64_MAX}\n")


def test_differential_check_is_clean_on_random_programs():
    for seed in range(50):
        assert check_program_differential(random_program(seed, 8), 2000) == []


@st.composite
def programs(draw, max_states=64):
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    counter = st.sampled_from((0, 1))
    instruction = st.one_of(
        st.builds(Inc, counter, state), st.builds(JzDec, counter, state, state), st.just(Halt())
    )
    return Program(tuple(draw(st.lists(instruction, min_size=n, max_size=n))))


@given(programs(), st.integers(1, 3000))
@settings(max_examples=100, deadline=None)
def test_differential_check_is_clean_on_programs_of_up_to_64_states(program, fuel):
    assert check_program_differential(program, fuel) == []


NEAR_MAX = st.integers(INT64_MAX - 40, INT64_MAX)


@given(st.data(), programs(max_states=8), st.integers(1, 300), NEAR_MAX, NEAR_MAX)
@settings(max_examples=200, deadline=None)
def test_fold_and_run_agree_at_the_64_bit_boundary(data, program, fuel, a, b):
    # started within 40 of 2^63 - 1, a counter overflows in run exactly when
    # it overflows in the fold
    state = data.draw(st.integers(0, len(program) - 1))
    text = gen_reduce_query(program, fuel).text
    start = "machine = {state: 0, A: 0, B: 0}"
    assert text.count(start) == 1
    text = text.replace(start, f"machine = {{state: {state}, A: {a}, B: {b}}}")
    try:
        reference = run(program, fuel=fuel, start=Config(state, a, b))
    except CounterOverflow:
        with pytest.raises(IntegerOverflow):
            run_query_text(text)
        return
    final = reference.final
    assert run_query_text(text)["result"] == {"state": final.state, "A": final.a, "B": final.b}


def transfer(source, target):
    """target += source, one trip of a fast-forwarded cycle per unit."""
    return Program((JzDec(source, 2, 1), Inc(target, 0), Halt()))


def _overflows(program, fuel, start):
    try:
        run(program, fuel=fuel, start=start)
    except CounterOverflow:
        return True
    return False


@given(programs(max_states=8), st.integers(0, 7), NEAR_MAX, NEAR_MAX)
@example(transfer(0, 1), 0, INT64_MAX - 40, INT64_MAX - 40)
@example(transfer(1, 0), 0, INT64_MAX - 40, INT64_MAX - 40)
@settings(max_examples=200, deadline=None)
def test_fold_overflows_at_the_step_where_run_first_does(program, state, a, b):
    # the least fuel at which run overflows, by bisection (overflow is
    # monotone in fuel); the fold must overflow there and not one step earlier
    start = Config(state % len(program), a, b)
    low, high = 0, 300
    if not _overflows(program, high, start):
        return
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if _overflows(program, middle, start) else (middle, high)
    default = "machine = {state: 0, A: 0, B: 0}"
    rewritten = f"machine = {{state: {start.state}, A: {a}, B: {b}}}"
    with pytest.raises(IntegerOverflow):
        run_query_text(gen_reduce_query(program, high).text.replace(default, rewritten))
    if low:
        final = run(program, fuel=low, start=start).final
        text = gen_reduce_query(program, low).text.replace(default, rewritten)
        assert run_query_text(text)["result"] == {"state": final.state, "A": final.a, "B": final.b}


def test_differential_check_detects_injected_mutation(monkeypatch):
    # corrupt the generated query so the evaluator disagrees on purpose
    import cm2cypher.verify as verify_mod
    from cm2cypher.codegen import gen_reduce_query as real_gen

    def sabotaged(program, max_steps):
        q = real_gen(program, max_steps)
        object.__setattr__(q, "text", q.text.replace("A: machine.A + 1", "A: machine.A + 2"))
        return q

    monkeypatch.setattr(verify_mod, "gen_reduce_query", sabotaged)
    program = parse_dsl((FIXTURES / "demo.2cm").read_text())
    failures = check_program_differential(program, 2000)
    assert failures and "evaluator" in failures[0]


def test_verify_reports_failures(monkeypatch, capsys):
    import cm2cypher.cli as cli_mod

    monkeypatch.setattr(cli_mod, "check_program_differential", lambda p, f: ["boom"])
    assert main(["verify", "--count", "2"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "FAIL seed=42" in out
    assert "reproduce:" in out


# ---------------------------------------------------------------- reduce-tm


def test_reduce_tm(tmp_path, capsys):
    out = tmp_path / "unary.2cm"
    assert main([
        "reduce-tm", str(FIXTURES / "tm" / "unary_successor.json"), "--out", str(out),
    ]) == EXIT_OK
    text = capsys.readouterr().out
    assert "tm/tsm: agree" in text
    assert "mcm/2cm: agree" in text
    # the emitted program is itself runnable and halts
    result = run(parse_dsl(out.read_text()), fuel=1_000_000)
    assert result.halted


@pytest.mark.parametrize("move", ["R", "L"])
def test_reduce_tm_of_a_blank_runner_finishes_at_the_default_fuel(move, tmp_path):
    # a machine that never halts and only writes blanks: a stage quadratic
    # in its tape length would take minutes here at the default fuel
    machine = tmp_path / "runner.json"
    machine.write_text(json.dumps({
        "states": ["q0", "qh"], "alphabet": ["_"], "blank": "_", "initial": "q0",
        "halting": ["qh"], "input": [], "transitions": [["q0", "_", "q0", "_", move]],
    }))
    proc = run_python("-m", "cm2cypher.cli", "reduce-tm", str(machine),
                      "--out", str(tmp_path / "runner.2cm"))  # under run_python's timeout
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "tm/tsm: skipped (fuel exhausted)" in proc.stdout.splitlines()


def test_reduce_tm_counter_overflow_exits_with_input_error(tmp_path, capsys):
    # input 111 halts in the first three stages; the prime encoding of the
    # 3-counter values then exceeds 2^63 - 1 long before the fuel runs out
    doc = json.loads((FIXTURES / "tm" / "unary_successor.json").read_text())
    doc["input"] = ["1", "1", "1"]
    machine = tmp_path / "succ3.json"
    machine.write_text(json.dumps(doc))
    out = tmp_path / "succ3.2cm"
    argv = ["reduce-tm", str(machine), "--fuel-per-stage", str(10**30), "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: counter exceeds")
    assert not out.exists()


def test_reduce_tm_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["reduce-tm", str(bad)]) == EXIT_INPUT


def test_reduce_tm_rejects_a_repeated_state(tmp_path, capsys):
    machine = tmp_path / "dup.json"
    machine.write_text(json.dumps(DUPLICATE_STATE_TM))
    assert main(["reduce-tm", str(machine), "--out", str(tmp_path / "dup.2cm")]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: state 'q0' repeated in states\n"


def _unary_successor_with(field, extra):
    doc = json.loads((FIXTURES / "tm" / "unary_successor.json").read_text())
    return dict(doc, **{field: doc[field] + [extra]})


@pytest.mark.parametrize("doc, message", [
    # the alphabet would reduce to 797 states with an unverified 2-counter stage
    (_unary_successor_with("alphabet", "1"), "symbol '1' repeated in alphabet"),
    # the second transition for ('q0', '1') used to win silently
    (_unary_successor_with("transitions", ["q0", "1", "qh", "1", "L"]),
     "transition ('q0', '1') repeated in transitions"),
], ids=["symbol", "transition"])
def test_reduce_tm_rejects_a_repeated_symbol_or_transition(doc, message, tmp_path, capsys):
    machine, out = tmp_path / "dup.json", tmp_path / "dup.2cm"
    machine.write_text(json.dumps(doc))
    assert main(["reduce-tm", str(machine), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("alphabet", "1_"),  # used to load as ("1", "_")
    ("input", "11"),  # used to load as two symbols
    ("states", {"q0": 0, "qh": 0}),  # used to load as its keys
    ("input", [1]),  # used to end in a traceback when the tape was printed
])
def test_reduce_tm_requires_a_list_of_strings(field, value, tmp_path, capsys):
    doc = json.loads((FIXTURES / "tm" / "unary_successor.json").read_text())
    machine, out = tmp_path / "bad.json", tmp_path / "bad.2cm"
    machine.write_text(json.dumps(dict(doc, **{field: value})))
    assert main(["reduce-tm", str(machine), "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {field} must be a list of strings\n"
    assert captured.out == ""
    assert not out.exists()


def test_reduce_tm_stage_disagreement_exits_with_input_error(tmp_path, monkeypatch, capsys):
    # the immediate-halt machine leaves every counter 0; this program does not
    monkeypatch.setattr(reduction, "k_counters_to_two",
                        lambda mcm: Program((Inc(0, 1), Inc(0, 2), Halt())))
    argv = ["reduce-tm", str(FIXTURES / "tm" / "immediate_halt.json"),
            "--out", str(tmp_path / "halt.2cm")]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "mcm/2cm: DISAGREE" in captured.out
    assert captured.err == "error: stage disagreement (compiler bug)\n"


# ------------------------------------------------------------ input errors


@pytest.mark.parametrize("argv", [
    ["verify", "--count", "1", "--fuel", "0"],
    ["run", DEMO_PATH, "--fuel", "-1"],
    ["compile", DEMO_PATH, "--approach", "reduce", "--max-steps", "0", "--out-dir", "{tmp}"],
    ["compile", DEMO_PATH, "--approach", "qpp", "--max-path", "-1", "--out-dir", "{tmp}"],
    ["compile", DEMO_PATH, "--approach", "reduce", "--out-dir", "/dev/null/x"],
    ["reduce-tm", UNARY_TM, "--fuel-per-stage", "-1", "--out", "{tmp}/u.2cm"],
    ["verify", "--count", "1", "--max-states", "0"],
    # a fuel past 2^63 - 1, which no 64-bit fold literal holds
    ["verify", "--seed", "58", "--count", "1", "--fuel", str(10**19)],
    ["compile", DEMO_PATH, "--approach", "reduce", "--max-steps", str(INT64_MAX + 1),
     "--out-dir", "{tmp}"],
    ["compile", DEMO_PATH, "--approach", "qpp", "--max-path", str(INT64_MAX + 1),
     "--out-dir", "{tmp}"],
])
def test_input_errors_exit_with_error_message(argv, tmp_path, capsys):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


# ---------------------------------------------------------- failure contract
# Mutated inputs through main(): every run ends in a documented exit code,
# an exit 1 prints exactly one "error:" line and nothing else on stderr, and
# no exception escapes (one would fail the test).

_PROGRAM_SEEDS = [(FIXTURES / "demo.2cm").read_bytes(),
                  b"state 0: JZDEC A ? 1 : 0\nstate 1: INC B -> 2  # note\nstate 2: HALT\n",
                  b"state 0: INC A -> 1\nstate 1: JZDEC B ? 0 : 1\n"]  # never halts
_SPLICES = [b"-", b"0", b"9" * 20, b":", b"?", b"->", b"#", b"\n", b"state 7: ", b"INC",
            b"JZDEC", b"HALT", b"A", b"C", b"\xff", b"\x00", b"{", b"[", b"'", b"$x", b"\\",
            b"/*", b"(", b")", b",", b"reduce(", b"null", b"1.5", b'"', b"\xc3\xa9"]


@st.composite
def _mutated(draw, seeds):
    """A seed with up to four byte edits: insert, delete or overwrite."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(data)))
        piece = draw(st.sampled_from(_SPLICES) | st.binary(min_size=1, max_size=2))
        op = draw(st.sampled_from(("insert", "delete", "overwrite")))
        if op == "insert":
            data[i:i] = piece
        elif op == "delete":
            del data[i:i + len(piece)]
        else:
            data[i:i + len(piece)] = piece
    return bytes(data)


@st.composite
def _json_mutated(draw, document):
    """``document`` with one to three edits, each replacing a value by another
    of its scalars or by any JSON value, or appending to a list a copy of one
    of its elements; or, one time in ten, its text byte-mutated."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_mutated([json.dumps(document).encode()]))
    doc = json.loads(json.dumps(document))
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        for key in range(len(node)) if isinstance(node, list) else node:
            slots.append((node, key))
            if isinstance(node[key], (list, dict)):
                stack.append(node[key])
    scalars = [node[key] for node, key in slots if not isinstance(node[key], (list, dict))]
    lists = [node[key] for node, key in slots if isinstance(node[key], list) and node[key]]
    for _ in range(draw(st.integers(1, 3))):
        if lists and draw(st.integers(0, 3)) == 0:
            items = draw(st.sampled_from(lists))
            items.append(json.loads(json.dumps(draw(st.sampled_from(items)))))
            continue
        node, key = draw(st.sampled_from(slots))
        node[key] = draw(st.sampled_from(scalars) | JSON_VALUES)
    return json.dumps(doc).encode()


def _assert_contract(argv, allowed):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in allowed, (code, err.getvalue())
    lines = err.getvalue().splitlines(keepends=True)
    if code == EXIT_INPUT:
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n"), lines
    else:
        assert lines == []


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(text=_mutated(_PROGRAM_SEEDS))
@settings(max_examples=300, deadline=None)
def test_run_of_a_mutated_program_keeps_the_exit_contract(text, fuzz_dir):
    path = fuzz_dir / "p.2cm"
    path.write_bytes(text)
    _assert_contract(["run", str(path), "--fuel", "500", "--trace"],
                     {EXIT_OK, EXIT_INPUT, EXIT_FUEL})


@given(text=_json_mutated(json.loads((FIXTURES / "demo.maps.json").read_text())),
       approach=st.sampled_from(("reduce", "tx", "qpp")))
@settings(max_examples=200, deadline=None)
def test_compile_of_a_mutated_map_document_keeps_the_exit_contract(text, approach, fuzz_dir):
    path = fuzz_dir / "p.json"
    path.write_bytes(text)
    _assert_contract(["compile", str(path), "--approach", approach,
                      "--out-dir", str(fuzz_dir / "out")], {EXIT_OK, EXIT_INPUT})


@given(text=_json_mutated(json.loads((FIXTURES / "tm" / "unary_successor.json").read_text())))
@example(text=json.dumps(DUPLICATE_STATE_TM).encode())
@settings(max_examples=200, deadline=None)
def test_reduce_tm_of_a_mutated_machine_keeps_the_exit_contract(text, fuzz_dir):
    path = fuzz_dir / "tm.json"
    path.write_bytes(text)
    _assert_contract(["reduce-tm", str(path), "--fuel-per-stage", "2000",
                      "--out", str(fuzz_dir / "tm.2cm")], {EXIT_OK, EXIT_INPUT})


@given(*[st.integers(-2, 3)] * 3, st.integers(-2, 3) | st.sampled_from([INT64_MAX + 1, 10**23]))
@settings(max_examples=200, deadline=None)
def test_verify_of_small_arguments_keeps_the_exit_contract(seed, count, max_states, fuel):
    _assert_contract(["verify", "--seed", str(seed), "--count", str(count),
                      "--max-states", str(max_states), "--fuel", str(fuel)],
                     {EXIT_OK, EXIT_INPUT, EXIT_MISMATCH})


_QUERY_SEEDS = [
    gen_reduce_query(parse_dsl(_PROGRAM_SEEDS[0].decode()), 20).text.encode(),
    b"CYPHER 25 LET y = [v IN range(1, 3) WHERE v > 1 | {k: v * $x}] RETURN y, $y AS p",
    b"RETURN CASE WHEN $x = 1 THEN 'a\\n' ELSE head([$y, null]) END AS c, 7 % 3 AS m",
]


@given(text=_mutated(_QUERY_SEEDS),
       params=st.none() | st.fixed_dictionaries({"x": JSON_VALUES, "y": JSON_VALUES}) | JSON_VALUES
       | _mutated([b'{"x": 1, "y": [2]}']))
@settings(max_examples=300, deadline=None)
def test_eval_of_a_mutated_query_keeps_the_exit_contract(text, params, fuzz_dir):
    query = fuzz_dir / "q.cypher"
    query.write_bytes(text)
    argv = ["eval", str(query)]
    if params is not None:
        path = fuzz_dir / "params.json"
        path.write_bytes(params if isinstance(params, bytes) else json.dumps(params).encode())
        argv += ["--params", str(path)]
    _assert_contract(argv, {EXIT_OK, EXIT_INPUT})


# --------------------------------------------------------------------- live


def test_live_requires_environment(monkeypatch, capsys):
    for var in ("CYPHER_URI", "CYPHER_USER", "CYPHER_PASSWORD"):
        monkeypatch.delenv(var, raising=False)
    assert main(["live", DEMO_PATH, "--approach", "tx"]) == EXIT_INPUT
    assert "CYPHER_URI" in capsys.readouterr().err


def test_live_unreachable_server(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "requests", None)  # the client needs no third-party module
    monkeypatch.setenv("CYPHER_URI", "http://127.0.0.1:9")
    monkeypatch.setenv("CYPHER_USER", "neo4j")
    monkeypatch.setenv("CYPHER_PASSWORD", "x")
    assert main(["live", DEMO_PATH, "--approach", "tx"]) == EXIT_CONNECTION
    assert "connection failure" in capsys.readouterr().err


def test_cli_import_leaves_http_client_unloaded():
    # urllib.request costs every command tens of ms and MiB; only live needs it
    proc = run_python("-c", "import sys, cm2cypher.cli; print('urllib.request' in sys.modules)")
    assert proc.stdout.strip() == "False", proc.stderr


def test_live_client_posts_json_with_basic_auth(monkeypatch):
    import urllib.request

    import cm2cypher.cli as cli_mod

    seen = {}

    def fake_urlopen(request, timeout):
        seen.update(
            url=request.full_url,
            method=request.get_method(),
            auth=request.get_header("Authorization"),
            body=json.loads(request.data),
            timeout=timeout,
        )
        reply = {"data": {"fields": ["state", "A", "B"], "values": [[-1, 2, 0], [3, 4, 5]]}}
        return io.BytesIO(json.dumps(reply).encode())

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    client = cli_mod._HttpQueryClient("http://db.example:7474/", "neo4j", "secret")
    rows = client.query("RETURN $x", {"x": 1})
    assert rows == [{"state": -1, "A": 2, "B": 0}, {"state": 3, "A": 4, "B": 5}]
    assert seen == {
        "url": "http://db.example:7474/db/neo4j/query/v2",
        "method": "POST",
        "auth": "Basic bmVvNGo6c2VjcmV0",  # base64 of neo4j:secret
        "body": {"statement": "RETURN $x", "parameters": {"x": 1}},
        "timeout": 120,
    }


@pytest.mark.parametrize("status, body", [(500, b'{"errors": []}'), (200, b"<html>")])
def test_live_bad_server_reply_is_a_connection_failure(status, body, monkeypatch, capsys):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("CYPHER_URI", f"http://127.0.0.1:{server.server_port}")
        monkeypatch.setenv("CYPHER_USER", "neo4j")
        monkeypatch.setenv("CYPHER_PASSWORD", "x")
        assert main(["live", DEMO_PATH, "--approach", "qpp"]) == EXIT_CONNECTION
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert "connection failure" in capsys.readouterr().err


@pytest.mark.parametrize("approach", ["tx", "qpp"])
def test_live_server_error_reply_exits_with_connection_code(approach, monkeypatch, capsys):
    import urllib.request

    def fake_urlopen(request, timeout):
        return io.BytesIO(json.dumps({"errors": [{"message": "boom"}]}).encode())

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("CYPHER_URI", "http://db.example:7474")
    monkeypatch.setenv("CYPHER_USER", "neo4j")
    monkeypatch.setenv("CYPHER_PASSWORD", "x")
    assert main(["live", DEMO_PATH, "--approach", approach]) == EXIT_CONNECTION
    err = capsys.readouterr().err
    assert err.startswith("error: server error") and "boom" in err


@pytest.mark.parametrize("approach", ["qpp", "tx"])
@pytest.mark.parametrize("reply", [
    [1],
    {"data": [1]},
    {"data": {"fields": ["a"], "values": [1]}},
    {"data": {"fields": [["a"]], "values": [[1]]}},
    "ok",
])
def test_live_reply_of_another_shape_is_a_connection_failure(reply, approach, monkeypatch,
                                                             capsys):
    import urllib.request

    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda request, timeout: io.BytesIO(json.dumps(reply).encode()))
    monkeypatch.setenv("CYPHER_URI", "http://db.example:7474")
    monkeypatch.setenv("CYPHER_USER", "neo4j")
    monkeypatch.setenv("CYPHER_PASSWORD", "x")
    assert main(["live", DEMO_PATH, "--approach", approach]) == EXIT_CONNECTION
    assert capsys.readouterr().err.startswith("error: connection failure: server reply")


def test_live_tx_stepper_error_reply_without_an_error_list_fails(monkeypatch, capsys):
    import urllib.request

    def fake_urlopen(request, timeout):
        failing = "IN TRANSACTIONS" in json.loads(request.data)["statement"]
        reply = {"errors": 5} if failing else {"data": {"fields": [], "values": []}}
        return io.BytesIO(json.dumps(reply).encode())

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("CYPHER_URI", "http://db.example:7474")
    monkeypatch.setenv("CYPHER_USER", "neo4j")
    monkeypatch.setenv("CYPHER_PASSWORD", "x")
    assert main(["live", DEMO_PATH, "--approach", "tx"]) == EXIT_CONNECTION
    assert capsys.readouterr().err == "error: server error: 5\n"


@pytest.mark.parametrize("code, exit_code", [
    ("Neo.ClientError.Statement.ArithmeticError", EXIT_OK),
    ("Neo.ClientError.Statement.SyntaxError", EXIT_CONNECTION),
])
def test_live_tx_stepper_ends_only_on_division_by_zero(code, exit_code, monkeypatch, capsys):
    import urllib.request

    def fake_urlopen(request, timeout):
        statement = json.loads(request.data)["statement"]
        if "IN TRANSACTIONS" in statement:
            reply = {"errors": [{"code": code, "message": "/ by zero"}]}
        elif statement.startswith("MATCH (m:Machine) RETURN"):
            reply = {"data": {"fields": ["state", "A", "B"], "values": [[-1, 2, 0]]}}
        else:
            reply = {"data": {"fields": [], "values": []}}
        return io.BytesIO(json.dumps(reply).encode())

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("CYPHER_URI", "http://db.example:7474")
    monkeypatch.setenv("CYPHER_USER", "neo4j")
    monkeypatch.setenv("CYPHER_PASSWORD", "x")
    assert main(["live", DEMO_PATH, "--approach", "tx"]) == exit_code
    captured = capsys.readouterr()
    if exit_code == EXIT_OK:
        assert captured.out.startswith("match:")
    else:
        assert captured.err.startswith("error: server error") and code in captured.err


@pytest.mark.parametrize("row, exit_code", [([5, 2, 0], EXIT_OK), ([5, 1, 0], EXIT_MISMATCH)])
def test_live_qpp_compares_the_traversal_row(row, exit_code, monkeypatch, capsys):
    import urllib.request

    statements = []

    def fake_urlopen(request, timeout):
        statements.append(json.loads(request.data)["statement"])
        traversal = "allReduce" in statements[-1]
        values = [row] if traversal else []
        fields = ["steps", "ctrA", "ctrB"] if traversal else []
        return io.BytesIO(json.dumps({"data": {"fields": fields, "values": values}}).encode())

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("CYPHER_URI", "http://db.example:7474")
    monkeypatch.setenv("CYPHER_USER", "neo4j")
    monkeypatch.setenv("CYPHER_PASSWORD", "x")
    assert main(["live", DEMO_PATH, "--approach", "qpp"]) == exit_code
    cleanup = "MATCH (n:State) DETACH DELETE n"
    setup = gen_qpp_setup(parse_dsl((FIXTURES / "demo.2cm").read_text())).text
    assert statements == [cleanup, setup, gen_qpp_query(DEFAULT_MAX_PATH).text, cleanup]
    captured = capsys.readouterr()
    if exit_code == EXIT_OK:
        assert captured.out == "match: {'steps': 5, 'ctrA': 2, 'ctrB': 0}\n"
    else:
        assert captured.err.startswith("mismatch: ")


def test_live_qpp_without_a_halting_path_exits_before_connecting(tmp_path, monkeypatch,
                                                                  capsys):
    import urllib.request

    def fake_urlopen(request, timeout):
        raise AssertionError("the walk fails before any statement is sent")

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("CYPHER_URI", "http://db.example:7474")
    monkeypatch.setenv("CYPHER_USER", "neo4j")
    monkeypatch.setenv("CYPHER_PASSWORD", "x")
    loop = tmp_path / "loop.2cm"
    loop.write_text("state 0: INC A -> 0\n")
    argv = ["live", str(loop), "--approach", "qpp", "--fuel", "1000"]
    assert main(argv) == EXIT_FUEL
    assert capsys.readouterr().err == "error: no path to a halt state within 1000 edges\n"


@pytest.mark.skipif(
    not all(__import__("os").environ.get(v) for v in ("CYPHER_URI", "CYPHER_USER")),
    reason="no live Cypher server configured",
)
@pytest.mark.parametrize("approach", ["tx", "qpp"])
def test_live_against_configured_server(approach):
    assert main(["live", DEMO_PATH, "--approach", approach]) == EXIT_OK
