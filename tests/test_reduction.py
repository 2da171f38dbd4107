import hashlib
import json
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm2cypher.codegen import gen_reduce_query
from cm2cypher.cypher import evaluate, parse_query, run_query
from cm2cypher.frontend import render_dsl, to_map_document
from cm2cypher.machine import Config, Halt, Inc, InvalidProgram, JzDec, Program, run
from cm2cypher.reduction import (
    PRIMES,
    DecodeError,
    FixtureError,
    ReductionError,
    TuringMachine,
    _Asm,
    _emit_divide_or_restore,
    _emit_inc_chain,
    _emit_mul_const,
    _gadget,
    decode_counters,
    decode_stack,
    k_counters_to_two,
    load_tm,
    load_tm_file,
    mcm_run,
    run_pipeline,
    tm_run,
    tsm_run,
    two_stack_to_counters,
)
from conftest import FIXTURES, JSON_VALUES, run_python

TM_DIR = FIXTURES / "tm"


def tm(name):
    return load_tm_file(TM_DIR / f"{name}.json")


# ---------------------------------------------------------------- loading


def test_load_tm_fixtures():
    for name in ("immediate_halt", "unary_successor", "right_move"):
        machine = tm(name)
        assert machine.initial in machine.states
        assert machine.blank in machine.alphabet


def test_load_tm_rejects_partial_transition_table():
    doc = json.loads((TM_DIR / "unary_successor.json").read_text())
    doc["transitions"] = doc["transitions"][:1]
    with pytest.raises(ReductionError):
        load_tm(doc)


def test_load_tm_rejects_bad_move():
    doc = json.loads((TM_DIR / "unary_successor.json").read_text())
    doc["transitions"][0][4] = "U"
    with pytest.raises(ReductionError):
        load_tm(doc)


@pytest.mark.parametrize("states", [["q0", "q0"], ["q0", "q1", "q1"]])
def test_load_tm_rejects_a_repeated_state(states):
    # each state name becomes one label of the 2-stack stage
    doc = {"states": states, "alphabet": ["_"], "blank": "_", "transitions": [],
           "initial": "q0", "halting": states, "input": []}
    with pytest.raises(FixtureError, match="state '.*' repeated in states"):
        load_tm(doc)


@pytest.mark.parametrize("alphabet, symbol", [(["_", "_"], "_"), (["1", "_", "1"], "1")])
def test_load_tm_rejects_a_repeated_symbol(alphabet, symbol):
    # each symbol is one digit of the two-stack stage's stack encoding
    doc = json.loads((TM_DIR / "unary_successor.json").read_text())
    doc["alphabet"] = alphabet
    with pytest.raises(FixtureError) as exc_info:
        load_tm(doc)
    assert str(exc_info.value) == f"symbol {symbol!r} repeated in alphabet"


@pytest.mark.parametrize("field", ["states", "alphabet", "halting", "input"])
@pytest.mark.parametrize("value", ["_1", {"_": 0, "1": 0}, ["_", 1]],
                         ids=["string", "object", "number"])
def test_load_tm_requires_a_list_of_strings(field, value):
    # a string or an object used to split into its characters or keys
    doc = json.loads((TM_DIR / "unary_successor.json").read_text())
    doc[field] = value
    with pytest.raises(FixtureError) as exc_info:
        load_tm(doc)
    assert str(exc_info.value) == f"{field} must be a list of strings"


@pytest.mark.parametrize("transitions, message", [
    ({"q0_qR": 0}, "transitions must be a list of 5-string lists"),
    (["q01q1R"], "transitions[0] must be a list of strings"),
    ([["q0", "1", "q0", "1", "R"], ["q0", "_", "qh", 1, "R"]],
     "transitions[1] must be a list of strings"),
])
def test_load_tm_requires_transitions_as_lists_of_strings(transitions, message):
    doc = json.loads((TM_DIR / "unary_successor.json").read_text())
    doc["transitions"] = transitions
    with pytest.raises(FixtureError) as exc_info:
        load_tm(doc)
    assert str(exc_info.value) == message


_NAMES = st.sampled_from(["q0", "qh", "_", "1", "L", "R"]) | JSON_VALUES


@given(doc=st.fixed_dictionaries({}, optional={
    "states": st.lists(_NAMES, max_size=3) | JSON_VALUES,
    "alphabet": st.lists(_NAMES, max_size=3) | JSON_VALUES,
    "blank": _NAMES,
    "transitions": st.lists(st.lists(_NAMES, min_size=4, max_size=6) | JSON_VALUES, max_size=3)
    | JSON_VALUES,
    "initial": _NAMES,
    "halting": st.lists(_NAMES, max_size=2) | JSON_VALUES,
    "input": st.lists(_NAMES, max_size=3) | JSON_VALUES,
}) | JSON_VALUES)
@settings(max_examples=500, deadline=None)
def test_load_tm_raises_only_fixture_error(doc):
    try:
        load_tm(doc)
    except FixtureError:
        pass


def test_load_tm_rejects_a_repeated_transition():
    doc = json.loads((TM_DIR / "unary_successor.json").read_text())
    doc["transitions"].append(["q0", "_", "q0", "_", "L"])
    with pytest.raises(FixtureError) as exc_info:
        load_tm(doc)
    assert str(exc_info.value) == "transition ('q0', '_') repeated in transitions"


# --------------------------------------------------------------- tm_run


def test_tm_run_unary_successor():
    result = tm_run(tm("unary_successor"), fuel=100)
    assert result.halted
    assert result.steps == 2
    assert result.tape == ("1", "1")


def test_tm_run_immediate_halt():
    result = tm_run(tm("immediate_halt"), fuel=100)
    assert result.halted
    assert result.steps == 0


def test_tm_run_fuel_zero():
    result = tm_run(tm("unary_successor"), fuel=0)
    assert not result.halted
    assert result.steps == 0


def test_tm_run_nonhalting_exhausts_fuel():
    spinner = load_tm(
        {
            "states": ["q0", "qh"],
            "alphabet": ["_"],
            "blank": "_",
            "transitions": [["q0", "_", "q0", "_", "R"]],
            "initial": "q0",
            "halting": ["qh"],
            "input": [],
        }
    )
    result = tm_run(spinner, fuel=50)
    assert not result.halted
    assert result.steps == 50


# ------------------------------------------------------- two-stack stage


def test_tsm_agrees_with_tm_on_fixtures():
    for name in ("immediate_halt", "unary_successor", "right_move"):
        machine = tm(name)
        tm_res = tm_run(machine, fuel=10_000)
        tsm_res = tsm_run(machine, fuel=10_000)
        assert tsm_res.halted == tm_res.halted
        assert tsm_res.tape == tm_res.tape
        # one stack step per tape step
        assert tsm_res.steps == tm_res.steps


def test_tsm_left_move_extends_tape():
    lefty = load_tm(
        {
            "states": ["q0", "q1", "qh"],
            "alphabet": ["a", "_"],
            "blank": "_",
            "transitions": [
                ["q0", "a", "q1", "a", "L"],
                ["q0", "_", "qh", "_", "L"],
                ["q1", "a", "qh", "a", "L"],
                ["q1", "_", "q0", "a", "R"],
            ],
            "initial": "q0",
            "halting": ["qh"],
            "input": ["a"],
        }
    )
    tm_res = tm_run(lefty, fuel=1000)
    tsm_res = tsm_run(lefty, fuel=1000)
    assert tm_res.halted and tsm_res.halted
    assert tsm_res.tape == tm_res.tape


@pytest.mark.parametrize("fuel", [0, 1, 2, 3, 7, 100])
def test_a_left_writer_keeps_its_tape_across_growth(fuel):
    # tm_run grows the tape leftward by blocks; the trim keeps inner blanks
    writer = load_tm({"states": ["q0", "qh"], "alphabet": ["a", "_"], "blank": "_",
                      "transitions": [["q0", "a", "q0", "a", "L"], ["q0", "_", "q0", "a", "L"]],
                      "initial": "q0", "halting": ["qh"], "input": ["a", "_", "a"]})
    expected = ("a",) * max(fuel, 1) + ("_", "a")
    assert tm_run(writer, fuel).tape == expected
    assert tsm_run(writer, fuel).tape == expected


# ------------------------------------------------------------ mcm stage


def test_mcm_inc_then_halt():
    mcm = Program((Inc(0, 1), Inc(0, 2), Halt()), num_counters=1)
    result = mcm_run(mcm, fuel=100)
    assert result.halted
    assert result.counters == (2,)
    assert result.steps == 3


def test_mcm_jzdec_branches():
    mcm = Program((Inc(0, 1), JzDec(0, 2, 1), Halt()), num_counters=1)
    result = mcm_run(mcm, fuel=100)
    assert result.halted
    assert result.counters == (0,)


def test_mcm_fuel_zero():
    result = mcm_run(Program((Halt(),), num_counters=1), fuel=0)
    assert not result.halted


def test_mcm_validates_targets():
    with pytest.raises(InvalidProgram, match="dangling"):
        Program((Inc(0, 5),), num_counters=1)
    with pytest.raises(InvalidProgram, match="counter"):
        Program((Inc(3, 0),), num_counters=1)


def test_two_stack_to_counters_preserves_results():
    for name in ("immediate_halt", "unary_successor", "right_move"):
        machine = tm(name)
        mcm = two_stack_to_counters(machine)
        tsm_res = tsm_run(machine, fuel=10_000)
        mcm_res = mcm_run(mcm, fuel=1_000_000)
        assert mcm_res.halted
        # scratch ends at zero; stacks decode to the same contents
        assert mcm_res.counters[2] == 0
        assert decode_stack(mcm_res.counters[0], machine.alphabet) == tsm_res.left
        assert decode_stack(mcm_res.counters[1], machine.alphabet) == tsm_res.right


@st.composite
def small_tms(draw):
    """1-3 working states plus ``halt``, 1-3 symbols with any one of them
    the blank, any initial state (``halt`` included), an input of 0-3
    symbols (blanks included) and random moves: left moves off an empty
    left stack and right moves onto an empty right stack both occur."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 3)))) + ("halt",)
    alphabet = ("_", "a", "b")[: draw(st.integers(1, 3))]
    symbol = st.sampled_from(alphabet)
    transitions = {
        (q, sym): (draw(st.sampled_from(states)), draw(symbol), draw(st.sampled_from("LR")))
        for q in states[:-1]
        for sym in alphabet
    }
    return TuringMachine(
        states, alphabet, draw(symbol), transitions, draw(st.sampled_from(states)),
        frozenset({"halt"}), tuple(draw(st.lists(symbol, max_size=3))),
    )


@given(machine=small_tms())
@settings(max_examples=1000, deadline=None)
def test_two_stack_to_counters_agrees_with_tsm_run_on_small_tms(machine):
    tsm_res = tsm_run(machine, fuel=6)
    tm_res = tm_run(machine, fuel=6)
    assert (tsm_res.halted, tsm_res.steps) == (tm_res.halted, tm_res.steps)
    assert tsm_res.tape == tm_res.tape
    if not tsm_res.halted:
        return
    mcm_res = mcm_run(two_stack_to_counters(machine), fuel=10_000_000)
    assert mcm_res.halted
    assert mcm_res.counters[2] == 0
    assert decode_stack(mcm_res.counters[0], machine.alphabet) == tsm_res.left
    assert decode_stack(mcm_res.counters[1], machine.alphabet) == tsm_res.right


# --------------------------------------------------------- 2-counter stage


def test_inc_chain_of_length_zero_is_an_assembler_fault():
    asm = _Asm()
    with pytest.raises(AssertionError, match="increment chain of length 0"):
        _emit_inc_chain(asm, asm.label(), 0, 0, asm.label())


def test_k_counters_to_two_trivial_machine():
    program = k_counters_to_two(Program((Halt(),), num_counters=1))
    assert isinstance(program.instructions[0], Inc)
    result = run(program, fuel=100)
    assert result.halted
    # A = 1 encodes the all-zero counter vector
    assert result.final.a == 1
    assert result.final.b == 0


def test_k_counters_to_two_counts_match_mcm():
    mcm = Program((Inc(0, 1), Inc(1, 2), Inc(0, 3), Halt()), num_counters=2)
    program = k_counters_to_two(mcm)
    result = run(program, fuel=100_000)
    assert result.halted
    # c1 = 2, c2 = 1 -> A = 2^2 * 3^1 = 12
    assert result.final.a == 12
    assert decode_counters(result.final, 2) == (2, 1)


def test_k_counters_to_two_jzdec_restores_on_zero():
    # JZDEC on an untouched counter must leave the encoding intact
    mcm = Program((Inc(0, 1), JzDec(1, 2, 2), Halt()), num_counters=2)
    result = run(k_counters_to_two(mcm), fuel=100_000)
    assert result.halted
    assert decode_counters(result.final, 2) == (1, 0)


def test_k_counters_to_two_counter_limit():
    _gadget.cache_clear()
    with pytest.raises(ReductionError, match="at most"):
        k_counters_to_two(Program((Inc(4, 1), Halt()), num_counters=5))
    assert _gadget.cache_info().currsize == 0  # refused before any gadget is built


def test_gadgets_are_built_on_first_use_not_at_import():
    code = "import cm2cypher.reduction as r; print(r._gadget.cache_info().currsize)"
    proc = run_python("-c", code)
    assert proc.stdout.strip() == "0", proc.stderr


def _label_assembled_k_counters_to_two(mcm: Program) -> Program:
    """The reference: every gadget assembled through its own labels."""
    a, b = 0, 1
    asm = _Asm()
    entry_of = [asm.label() for _ in mcm.instructions]
    boot = asm.label()
    asm.mark(boot)
    asm.inc(a, entry_of[0])
    for i, instr in enumerate(mcm.instructions):
        if isinstance(instr, Inc):
            _emit_mul_const(asm, entry_of[i], a, b, PRIMES[instr.counter], entry_of[instr.next])
        elif isinstance(instr, JzDec):
            _emit_divide_or_restore(
                asm, entry_of[i], a, b, PRIMES[instr.counter],
                on_divisible=entry_of[instr.q_pos], on_indivisible=entry_of[instr.q_zero],
            )
        else:
            asm.mark(entry_of[i])
            asm.halt()
    assert asm.at[boot] == 0
    return asm.build(2)


@st.composite
def counter_programs(draw):
    """Valid programs of 1-12 states over 1-4 counters: INC, JZDEC and HALT
    with random targets."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    counter, state = st.integers(0, k - 1), st.integers(0, n - 1)
    instr = (st.builds(Inc, counter, state) | st.builds(JzDec, counter, state, state)
             | st.just(Halt()))
    return Program(tuple(draw(st.lists(instr, min_size=n, max_size=n))), k)


@given(mcm=counter_programs())
@settings(max_examples=300, deadline=None)
def test_relocated_gadgets_equal_the_label_assembled_program(mcm):
    assert k_counters_to_two(mcm) == _label_assembled_k_counters_to_two(mcm)


def two_counter_steps(mcm: Program) -> int:
    """The 2-counter steps ``k_counters_to_two(mcm)`` takes to its halt,
    summed gadget by gadget while single-stepping ``mcm``: 1 for the
    bootstrap and for the HALT; for a gadget entered with A = a on the
    counter of prime p, a(3p + 1) + 2 for an INC and, with a = qp + r,
    q(p + 3) + 2 for a JZDEC when r = 0 and 2q(p + 1) + 2r + 2 otherwise."""
    counters = [0] * mcm.num_counters
    state, steps = 0, 1
    while not isinstance(instr := mcm[state], Halt):
        p = PRIMES[instr.counter]
        a = prod(q**c for q, c in zip(PRIMES, counters))
        if isinstance(instr, Inc):
            steps += a * (3 * p + 1) + 2
            counters[instr.counter] += 1
            state = instr.next
            continue
        q, r = divmod(a, p)
        if r == 0:
            steps += q * (p + 3) + 2
            counters[instr.counter] -= 1
            state = instr.q_pos
        else:
            steps += 2 * q * (p + 1) + 2 * r + 2
            state = instr.q_zero
    return steps + 1


@pytest.mark.parametrize("name, steps", [
    ("immediate_halt", 2), ("right_move", 55), ("unary_successor", 1627)])
def test_two_counter_steps_follow_the_gadget_cost_formula(name, steps):
    report = run_pipeline(tm(name), fuel_per_stage=1_000_000)
    assert two_counter_steps(report.mcm) == report.cm_result.machine_steps == steps


def three_counter_steps(tsm: TuringMachine) -> int:
    """The 3-counter steps ``two_stack_to_counters(tsm)`` takes to its halt,
    summed gadget by gadget while single-stepping ``tsm`` with its stacks
    as base-b numerals, b = |alphabet| + 1: v(3b + 1) + d + 2 for a push of
    digit d onto v, q(b + 3) + r + 2 for a divmod dispatch on v = qb + r,
    and 1 for the HALT. The input load pushes each input symbol."""
    b = len(tsm.alphabet) + 1
    digit = {sym: i + 1 for i, sym in enumerate(tsm.alphabet)}
    steps, stacks = 0, {"L": 0, "R": 0}

    def push(stack, d):
        nonlocal steps
        steps += stacks[stack] * (3 * b + 1) + d + 2
        stacks[stack] = stacks[stack] * b + d

    def pop(stack):
        nonlocal steps
        stacks[stack], r = divmod(stacks[stack], b)
        steps += stacks[stack] * (b + 3) + r + 2
        return r

    for sym in reversed(tsm.input):
        push("R", digit[sym])
    state = tsm.initial
    while state not in tsm.halting:
        top = pop("R")
        state, written, move = tsm.transitions[(state, tsm.alphabet[top - 1] if top else tsm.blank)]
        if move == "R":
            push("L", digit[written])
        else:
            push("R", digit[written])
            moved = pop("L")  # an empty left stack (0) yields a blank
            push("R", moved or digit[tsm.blank])
    return steps + 1


@pytest.mark.parametrize("name, steps", [
    ("immediate_halt", 1), ("right_move", 10), ("unary_successor", 25)])
def test_three_counter_steps_follow_the_gadget_cost_formula(name, steps):
    machine = tm(name)
    result = mcm_run(two_stack_to_counters(machine), 10**6)
    assert three_counter_steps(machine) == result.steps == steps


@given(machine=small_tms())
@settings(max_examples=300, deadline=None)
def test_three_counter_steps_follow_the_gadget_cost_formula_on_random_tms(machine):
    if not tsm_run(machine, 40).halted:
        return
    result = mcm_run(two_stack_to_counters(machine), 10**7)
    assert result.halted
    assert three_counter_steps(machine) == result.steps


@given(
    counts=st.lists(st.integers(0, 4), min_size=1, max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_k_counters_to_two_encodes_arbitrary_increments(counts):
    k = len(counts)
    instrs = []
    for c, n in enumerate(counts):
        instrs.extend(Inc(c, len(instrs) + 1) for _ in range(n))
    instrs.append(Halt())
    mcm = Program(tuple(instrs), num_counters=k)
    result = run(k_counters_to_two(mcm), fuel=10_000_000)
    assert result.halted
    assert decode_counters(result.final, k) == tuple(counts)


# ---------------------------------------------------------------- decoders


def test_decode_counters_examples():
    assert decode_counters(Config(-1, 12, 0), 2) == (2, 1)
    assert decode_counters(Config(-1, 1, 0), 4) == (0, 0, 0, 0)
    assert decode_counters(Config(-1, 360, 3), 3) == (3, 2, 1)


def test_decode_counters_rejects_foreign_factor():
    with pytest.raises(DecodeError, match="residue"):
        decode_counters(Config(-1, 10, 0), 2)


def test_decode_counters_rejects_zero():
    with pytest.raises(DecodeError):
        decode_counters(Config(-1, 0, 0), 2)


def test_decode_stack_examples():
    assert decode_stack(0, ("1", "_")) == ()
    # base 3, value 4 = 1*3 + 1: two '1' digits, LSD on top
    assert decode_stack(4, ("1", "_")) == ("1", "1")
    assert decode_stack(2, ("1", "_")) == ("_",)


def test_decode_stack_rejects_embedded_zero_digit():
    # base 3, value 3 has digits [0, 1]: a bottom marker inside the numeral
    with pytest.raises(DecodeError):
        decode_stack(3, ("1", "_"))


@given(
    stack=st.lists(st.sampled_from(["a", "b", "c"]), max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_decode_stack_inverts_numeral_encoding(stack):
    alphabet = ("a", "b", "c")
    base = len(alphabet) + 1
    digit = {s: i + 1 for i, s in enumerate(alphabet)}
    value = 0
    for sym in stack:  # bottom first; top ends up least significant
        value = value * base + digit[sym]
    assert decode_stack(value, alphabet) == tuple(stack)


# ---------------------------------------------------------------- pipeline


@pytest.mark.parametrize("name", ["immediate_halt", "unary_successor", "right_move"])
def test_pipeline_end_to_end(name):
    report = run_pipeline(tm(name), fuel_per_stage=1_000_000)
    assert report.ok
    assert report.agreements == {"tm/tsm": True, "tsm/mcm": True, "mcm/2cm": True}
    assert report.mcm_tape == report.tm_result.tape


# Emission order defines state numbering, so the compiled programs are pinned
# byte for byte: (SHA-256 of render_dsl, 3-counter states, 2-counter states,
# TM, two-stack, 3-counter and 2-counter steps).
REDUCED = {
    "immediate_halt": (
        "1523648e6bdc0b30c1de346df6a68607dc86ea0453eb81a1f9914e267de16038", 1, 2, 0, 0, 1, 2),
    "right_move": (
        "44f40fb37842f625874e0be6a176d1eb6a4ee38444b74dc0ff0afa8e33c311ef", 41, 565, 1, 1, 10, 55),
    "unary_successor": (
        "286c18c6969cccd66459a342b68bdf8b63e1dbcf8f89654f84bb88ff471bcf1c", 39, 555, 2, 2, 25,
        1627),
}


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_programs_are_pinned(name):
    digest, mcm_states, cm_states, *steps = REDUCED[name]
    report = run_pipeline(tm(name), fuel_per_stage=1_000_000)
    assert hashlib.sha256(render_dsl(report.program).encode()).hexdigest() == digest
    assert (len(report.mcm), len(report.program)) == (mcm_states, cm_states)
    assert [
        report.tm_result.steps,
        report.tsm_result.steps,
        report.mcm_result.steps,
        report.cm_result.machine_steps,
    ] == steps


@st.composite
def complete_tms(draw):
    """Complete TMs over 1-3 working states plus ``halt``, 2-3 symbols and
    inputs of 0-3 symbols, drawn like ``bench/workloads.py``'s ``random_tm``."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 3)))) + ("halt",)
    alphabet = ("_", "a", "b")[: draw(st.integers(2, 3))]
    transitions = {
        (q, sym): (draw(st.sampled_from(states)), draw(st.sampled_from(alphabet)),
                   draw(st.sampled_from("LR")))
        for q in states[:-1]
        for sym in alphabet
    }
    tape = tuple(draw(st.lists(st.sampled_from(alphabet[1:]), max_size=3)))
    return TuringMachine(states, alphabet, "_", transitions, "q0", frozenset({"halt"}), tape)


@given(machine=complete_tms())
@settings(max_examples=100, deadline=None)
def test_pipeline_stages_agree_on_random_complete_tms(machine):
    assert run_pipeline(machine, fuel_per_stage=20_000).ok


def test_pipeline_finishes_two_counter_stage_of_billions_of_steps():
    doc = json.loads((TM_DIR / "unary_successor.json").read_text())
    doc["input"] = ["1", "1"]
    report = run_pipeline(load_tm(doc), fuel_per_stage=10**10)
    assert report.agreements == {"tm/tsm": True, "tsm/mcm": True, "mcm/2cm": True}
    assert report.cm_result.halted
    assert report.cm_result.machine_steps == two_counter_steps(report.mcm) == 2_947_573_665


def test_pipeline_skips_unfinished_stages():
    report = run_pipeline(tm("unary_successor"), fuel_per_stage=10)
    # 10 steps halts the TM and the stack machine but not the counter stages
    assert report.agreements["tm/tsm"] is True
    assert report.agreements["tsm/mcm"] is None
    assert report.agreements["mcm/2cm"] is None
    assert report.ok


# ---------------------------------------------------------------- fold query


@pytest.mark.parametrize("name", ["right_move", "unary_successor"])
def test_fold_query_agrees_with_interpreter_on_reduced_programs(name):
    program = k_counters_to_two(two_stack_to_counters(tm(name)))
    assert len(program) > 500
    query = parse_query(gen_reduce_query(program, 2000).text)
    name, literal = query.bindings[0]
    assert name == "program" and evaluate(literal) == to_map_document(program)
    result = run_query(query)["result"]
    reference = run(program, fuel=2000).final
    assert result == {"state": reference.state, "A": reference.a, "B": reference.b}
