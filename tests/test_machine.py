import copy
import dataclasses
import pickle
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm2cypher.machine import (
    INT64_MAX,
    Config,
    CounterOverflow,
    Halt,
    Inc,
    InvalidProgram,
    JzDec,
    NoPath,
    Program,
    qpp_walk,
    run,
)
from cm2cypher.frontend import from_map_document, parse_dsl, random_program
from cm2cypher.reduction import mcm_run
from conftest import _deadline, _expire


def test_a_deadline_nests_in_the_per_test_deadline():
    outer = signal.getitimer(signal.ITIMER_REAL)[0]
    assert 0 < outer <= 60
    with pytest.raises(pytest.fail.Exception, match="not done within 0.05 s"):
        with _deadline(0.05):
            time.sleep(5)
    assert signal.getsignal(signal.SIGALRM) is _expire
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= outer


def step(program, config):
    # one step through the traced run, which single-steps with _step_raw
    return run(program, fuel=1, capture_trace=True, start=config).final


def test_step_demo_first(demo):
    assert step(demo, Config(0, 0, 0)) == Config(1, 1, 0)


def test_step_demo_jzdec_positive(demo):
    # JZDEC(B) with B > 0 decrements and takes the positive branch
    assert step(demo, Config(1, 2, 1)) == Config(3, 2, 0)


def test_step_halt_absorption(demo):
    assert step(demo, Config(-1, 7, 3)) == Config(-1, 7, 3)


def test_step_jzdec_zero_branch(demo):
    assert step(demo, Config(1, 1, 0)) == Config(2, 1, 0)


def test_step_halt_instruction_keeps_counters(demo):
    assert step(demo, Config(3, 2, 0)) == Config(-1, 2, 0)


def test_step_overflow():
    p = Program((Inc(0, 0),))
    with pytest.raises(CounterOverflow):
        step(p, Config(0, INT64_MAX, 0))


def test_run_demo(demo):
    result = run(demo, fuel=1_000_000)
    assert result.final == Config(-1, 2, 0)
    assert result.machine_steps == 6
    assert result.halted


def test_run_single_halt():
    result = run(Program((Halt(),)), fuel=10)
    assert result.final == Config(-1, 0, 0)
    assert result.machine_steps == 1
    assert result.halted


def test_run_self_loop_fuel_exhaustion():
    p = Program((Inc(0, 0),))
    result = run(p, fuel=5)
    # oracle: five applications of step from the initial configuration
    expected = Config(0, 0, 0)
    for _ in range(5):
        expected = step(p, expected)
    assert result.final == expected == Config(0, 5, 0)
    assert not result.halted
    assert result.machine_steps == 5


def test_run_trace_shape(demo):
    result = run(demo, fuel=100, capture_trace=True)
    assert result.trace is not None
    assert len(result.trace) == result.machine_steps == 6
    assert [row.step for row in result.trace] == list(range(6))
    tags = [row.instruction_tag for row in result.trace]
    assert tags == [
        "INC(A)", "JZDEC(B), B=0", "INC(B)", "INC(A)", "JZDEC(B), B>0", "HALT",
    ]


def test_run_trace_cap():
    p = Program((Inc(0, 0),))
    result = run(p, fuel=50, capture_trace=True, trace_cap=10)
    assert len(result.trace) == 10
    assert result.trace_truncated
    assert result.machine_steps == 50


@pytest.mark.parametrize("capture_trace", [False, True])
@pytest.mark.parametrize("state", [-2, 4])
def test_run_rejects_start_state_out_of_range(demo, state, capture_trace):
    with pytest.raises(InvalidProgram):
        run(demo, fuel=10, capture_trace=capture_trace, start=Config(state, 0, 0))


def test_run_from_halted_start_executes_nothing(demo):
    result = run(demo, fuel=10, start=Config(-1, 3, 4))
    assert (result.final, result.machine_steps, result.halted) == (Config(-1, 3, 4), 0, True)


def test_program_validation():
    with pytest.raises(InvalidProgram):
        Program(())
    with pytest.raises(InvalidProgram):
        Program((Inc(0, 2), Halt()))
    with pytest.raises(InvalidProgram):
        Program((JzDec(1, 0, 5),))


def test_program_rejects_out_of_range_counter_index():
    with pytest.raises(InvalidProgram, match="counter"):
        Program((Inc(2, 0),))
    with pytest.raises(InvalidProgram, match="counter"):
        Program((JzDec(-1, 0, 0),))
    with pytest.raises(InvalidProgram, match="counter"):
        Program((Inc(3, 0), Halt()), num_counters=3)
    assert Program((Inc(2, 1), Halt()), num_counters=3).num_counters == 3


@pytest.mark.parametrize("value", [1.0, True])
@pytest.mark.parametrize("make", [
    lambda v: Inc(0, v),
    lambda v: JzDec(0, v, 0),
    lambda v: JzDec(0, 0, v),
    lambda v: Inc(v, 0),
    lambda v: JzDec(v, 0, 0),
], ids=["inc-next", "jzdec-zero", "jzdec-pos", "inc-counter", "jzdec-counter"])
def test_program_rejects_a_counter_or_target_that_is_not_an_int(make, value):
    # 1.0 and True equal a valid index, but run, render_dsl and the
    # generators need an int; the error names the state
    with pytest.raises(InvalidProgram, match="^state 1: "):
        Program((Halt(), make(value)))


def test_program_reports_its_first_fault():
    # the lowest faulty state, then its counter, then next/q_zero, then q_pos
    def fault(*instructions, num_counters=2):
        with pytest.raises(InvalidProgram) as info:
            Program(instructions, num_counters)
        return str(info.value)

    assert fault(Halt(), Inc(2, 7)) == "state 1: bad counter 2 for 2 counters"
    assert fault(JzDec(-1, 9, 9)) == "state 0: bad counter -1 for 2 counters"
    assert fault(Inc(2, 7), num_counters=3) == (
        "state 0: dangling reference to state 7 (valid range 0..0)"
    )
    assert fault(Halt(), JzDec(0, 5, 6)) == (
        "state 1: dangling reference to state 5 (valid range 0..1)"
    )
    assert fault(Halt(), JzDec(0, 0, -1)) == (
        "state 1: dangling reference to state -1 (valid range 0..1)"
    )
    assert fault(Halt(), JzDec(1, 1, True)) == (
        "state 1: dangling reference to state True (valid range 0..1)"
    )
    assert fault(Halt(), Inc(0, 4), Inc(3, 0)) == (
        "state 1: dangling reference to state 4 (valid range 0..2)"
    )
    assert fault(Halt(), JzDec(5, 0, 0), "INC A", Inc(0, 9)) == (
        "state 1: bad counter 5 for 2 counters"
    )
    assert fault(Inc(0, 0), (0, 0), Inc(0, 9)) == "state 1: not an instruction: (0, 0)"
    assert fault(None) == "state 0: not an instruction: None"
    assert fault() == "program must have at least one state"


def test_program_equality_and_hash():
    p = Program((Inc(0, 1), JzDec(1, 0, 2), Halt()))
    q = Program((Inc(0, 1), JzDec(1, 0, 2), Halt()))
    assert p == q and not p != q and hash(p) == hash(q)
    assert hash(p) == hash((p.instructions, 2))
    assert p != Program((Inc(0, 1), JzDec(1, 0, 2), Halt()), num_counters=3)
    assert p != Program((Inc(0, 1), JzDec(1, 2, 0), Halt()))
    assert p != (p.instructions, 2)
    assert repr(Program((Halt(),))) == "Program(instructions=(Halt(),), num_counters=2)"


_INSTRUCTIONS = [
    (Inc(1, 4), ("counter", "next"), (1, 4), "Inc(counter=1, next=4)"),
    (JzDec(0, 3, 2), ("counter", "q_zero", "q_pos"), (0, 3, 2),
     "JzDec(counter=0, q_zero=3, q_pos=2)"),
    (Halt(), (), (), "Halt()"),
]


@pytest.mark.parametrize("instr, names, values, text", _INSTRUCTIONS,
                         ids=["inc", "jzdec", "halt"])
def test_instruction_value_contract(instr, names, values, text):
    kind = type(instr)
    same = kind(*values)
    assert instr == same and not instr != same and instr is not same
    assert hash(instr) == hash(same) == hash(values)
    assert instr != values and not instr == values
    for other, *_ in _INSTRUCTIONS:
        if type(other) is not kind:
            assert instr != other and not instr == other
    if values:
        changed = kind(*values[:-1], values[-1] + 1)
        assert instr != changed and not instr == changed
    assert repr(instr) == text
    assert dataclasses.is_dataclass(instr) and dataclasses.is_dataclass(kind)
    assert tuple(f.name for f in dataclasses.fields(instr)) == names
    assert tuple(getattr(instr, name) for name in names) == values
    assert kind(**dict(zip(names, values))) == instr
    assert dataclasses.replace(instr) == instr
    for name in names:
        moved = dataclasses.replace(instr, **{name: 9})
        assert type(moved) is kind and getattr(moved, name) == 9
    for twin in (copy.copy(instr), copy.deepcopy(instr),
                 pickle.loads(pickle.dumps(instr))):
        assert type(twin) is kind and twin == instr and repr(twin) == text


@pytest.mark.parametrize("instr", [i for i, *_ in _INSTRUCTIONS], ids=["inc", "jzdec", "halt"])
def test_instructions_are_immutable(instr):
    before = repr(instr)
    for name in (f.name for f in dataclasses.fields(instr)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instr, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instr, name)
    # any other name is refused too: a frozen dataclass raises
    # FrozenInstanceError, a slotted one (CPython 3.10 to 3.13) TypeError
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        instr.label = "x"
    assert not hasattr(instr, "label") and repr(instr) == before


def test_counter_ids_are_indices():
    # a frontend program holds the same plain ints as a reduced one
    doc = [{"state": 0, "op": "INC", "counter": "B", "next": 0}]
    for program in (parse_dsl("state 0: INC B -> 0\n"), from_map_document(doc)):
        (instr,) = program.instructions
        assert type(instr.counter) is int and instr == Inc(1, 0)


def test_interpreters_reject_more_than_two_counters():
    program = Program((Inc(2, 1), Halt()), num_counters=3)
    with pytest.raises(InvalidProgram, match="3 counters"):
        run(program)
    with pytest.raises(InvalidProgram, match="3 counters"):
        run(program, capture_trace=True)
    with pytest.raises(InvalidProgram, match="3 counters"):
        step(program, Config(0, 0, 0))
    with pytest.raises(InvalidProgram, match="3 counters"):
        qpp_walk(program)


def test_config_rejects_negative_counters():
    with pytest.raises(ValueError):
        Config(0, -1, 0)


def test_config_rejects_counters_above_int64_max():
    assert Config(0, INT64_MAX, INT64_MAX).a == INT64_MAX
    for a, b in ((INT64_MAX + 1, 0), (0, INT64_MAX + 1), (2**64, 0)):
        with pytest.raises(ValueError, match="outside"):
            Config(0, a, b)
    # so no run starts outside the 64-bit domain its fast-forward assumes
    with pytest.raises(ValueError):
        run(Program((JzDec(0, 0, 0),)), fuel=5, start=Config(0, 2**64, 0))


def test_qpp_walk_demo(demo):
    result = qpp_walk(demo, fuel=1_000_000)
    assert result.steps == 5
    assert result.final_a == 2
    assert result.final_b == 0
    assert result.edge_tags == (
        "INC(A)", "JZDEC_ZERO(B)", "INC(B)", "INC(A)", "JZDEC_POS(B)",
    )
    assert len(result.edge_tags) == result.steps


def test_qpp_walk_single_halt():
    result = qpp_walk(Program((Halt(),)), fuel=10)
    assert result.steps == 0
    assert (result.final_a, result.final_b) == (0, 0)


def test_fuel_zero_executes_nothing():
    walk = qpp_walk(Program((Halt(),)), fuel=0)
    assert (walk.edge_tags, walk.steps, walk.final_a, walk.final_b) == ((), 0, 0, 0)
    for capture_trace in (False, True):
        result = run(Program((Inc(0, 0),)), fuel=0, capture_trace=capture_trace)
        assert (result.final, result.machine_steps, result.halted) == (Config(0, 0, 0), 0, False)


def test_qpp_walk_fuel_exhaustion():
    p = Program((Inc(0, 0), Halt()))
    with pytest.raises(NoPath):
        qpp_walk(p, fuel=100)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_qpp_walk_agrees_with_run(seed):
    program = random_program(seed, 8)
    result = run(program, fuel=2000)
    if not result.halted:
        return
    walk = qpp_walk(program, fuel=2000)
    assert walk.steps == result.machine_steps - 1  # HALT consumes no edge
    assert (walk.final_a, walk.final_b) == (result.final.a, result.final.b)


@given(seed=st.integers(0, 10_000), fuel=st.integers(0, 200))
@settings(max_examples=100, deadline=None)
def test_run_counters_never_negative(seed, fuel):
    program = random_program(seed, 6)
    result = run(program, fuel=fuel)
    assert result.final.a >= 0 and result.final.b >= 0


@given(seed=st.integers(0, 5_000))
@settings(max_examples=50, deadline=None)
def test_step_is_pure(seed):
    program = random_program(seed, 6)
    config = Config(0, 3, 1)
    assert step(program, config) == step(program, config)
    assert config == Config(0, 3, 1)


# --- cycle fast-forward against the single-step reference --------------------


def _outcome(program, fuel, start, capture_trace):
    """(state, A, B, machine_steps, halted), or the type of the error raised.
    A traced run keeps every row, so it single-steps to the end."""
    try:
        r = run(program, fuel=fuel, capture_trace=capture_trace, trace_cap=fuel, start=start)
    except CounterOverflow as exc:
        return type(exc)
    return (r.final.state, r.final.a, r.final.b, r.machine_steps, r.halted)


@st.composite
def _programs(draw):
    """Random programs of 1-12 states, weighted towards INC and JZDEC so
    that most runs end in a cycle."""
    n = draw(st.integers(1, 12))
    counter = st.sampled_from((0, 1))
    target = st.integers(0, n - 1)
    inc = st.builds(Inc, counter, target)
    jzdec = st.builds(JzDec, counter, target, target)
    instr = st.one_of(inc, jzdec, inc, jzdec, st.just(Halt()))
    return Program(tuple(draw(st.lists(instr, min_size=n, max_size=n))))


@given(data=st.data(), program=_programs(), fuel=st.integers(0, 5000))
@settings(max_examples=300, deadline=None)
def test_run_fast_forward_matches_single_step(data, program, fuel):
    start = Config(
        data.draw(st.integers(0, len(program) - 1)),
        data.draw(st.integers(0, 100)),
        data.draw(st.integers(0, 100)),
    )
    assert _outcome(program, fuel, start, False) == _outcome(program, fuel, start, True)


@given(data=st.data(), program=_programs(), fuel=st.integers(0, 3000))
@settings(max_examples=300, deadline=None)
def test_a_capped_trace_runs_on_untraced_to_the_uncapped_result(data, program, fuel):
    # past trace_cap rows the run fast-forwards; all it reports equals a run
    # whose trace holds every row
    counter = st.integers(0, 100) | st.integers(INT64_MAX - 50, INT64_MAX)
    start = Config(data.draw(st.integers(0, len(program) - 1)), data.draw(counter),
                   data.draw(counter))
    cap = data.draw(st.integers(0, fuel + 1))

    def traced(trace_cap):
        try:
            return run(program, fuel=fuel, capture_trace=True, trace_cap=trace_cap, start=start)
        except CounterOverflow as exc:
            return type(exc)

    full, capped = traced(fuel), traced(cap)
    if full is CounterOverflow:
        assert capped is CounterOverflow
        return
    assert not full.trace_truncated
    assert (capped.final, capped.machine_steps, capped.halted) == (
        full.final, full.machine_steps, full.halted)
    assert capped.trace == full.trace[:cap]
    assert capped.trace_truncated == (full.machine_steps > cap)


@given(data=st.data(), program=_programs())
@settings(max_examples=150, deadline=None)
def test_run_does_not_depend_on_the_order_it_decodes_states_in(data, program):
    # each run decodes states in the order it reaches them from its start,
    # into a table of its own: runs of one Program from several starts
    # agree with the traced runs of an equal fresh Program
    counter = st.integers(0, 100) | st.integers(INT64_MAX - 50, INT64_MAX)
    for _ in range(data.draw(st.integers(2, 6))):
        start = Config(data.draw(st.integers(0, len(program) - 1)), data.draw(counter),
                       data.draw(counter))
        fuel = data.draw(st.integers(0, 2000))
        fresh = Program(program.instructions)
        assert _outcome(program, fuel, start, False) == _outcome(fresh, fuel, start, True)


def test_run_leaves_its_program_as_it_was():
    # a run keeps its decoded tables to itself: the Program it ran copies and
    # pickles as an equal fresh one does
    p = random_program(3, 8)
    run(p, fuel=50)
    fresh = Program(p.instructions)
    assert vars(p) == vars(fresh)
    assert pickle.dumps(p) == pickle.dumps(fresh)


@given(data=st.data(), program=_programs())
@settings(max_examples=200, deadline=None)
def test_trace_rows_recover_the_counters_before_them(data, program):
    start = Config(
        data.draw(st.integers(0, len(program) - 1)),
        data.draw(st.integers(0, 3)),
        data.draw(st.integers(0, 3)),
    )
    trace = run(program, fuel=30, capture_trace=True, start=start).trace
    if trace:
        assert trace[0].config_before == start
    for prev, row in zip(trace, trace[1:]):
        assert row.config_before == prev.config_after


def _folded_outcomes(program, start, max_fuel):
    """The outcome of a run at every fuel from 0 to max_fuel, by folding step."""
    outcomes, config, steps = [], start, 0
    while len(outcomes) <= max_fuel:
        outcomes.append((config.state, config.a, config.b, steps, config.halted))
        if not config.halted:
            try:
                config = step(program, config)
            except CounterOverflow:
                break
            steps += 1
    return outcomes + [CounterOverflow] * (max_fuel + 1 - len(outcomes))


def _fast_outcomes(program, start, max_fuel):
    return [_outcome(program, fuel, start, False) for fuel in range(max_fuel + 1)]


@given(data=st.data(), program=_programs())
@settings(max_examples=100, deadline=None)
def test_run_fast_forward_matches_single_step_near_int64_max(data, program):
    # Every fuel, so that a trip applied past the step at which
    # single-stepping overflows shows up as a result where an error is due.
    near_max = st.integers(INT64_MAX - 50, INT64_MAX)
    state = data.draw(st.integers(0, len(program) - 1))
    start = Config(state, data.draw(near_max), data.draw(near_max))
    assert _fast_outcomes(program, start, 400) == _folded_outcomes(program, start, 400)


# the ids of the former counter enum's members keep these test ids stable
@pytest.mark.parametrize("counter", [0, 1], ids=["CounterId.A", "CounterId.B"])
@pytest.mark.parametrize("loop", [
    lambda c: (Inc(c, 0),),  # net +1
    lambda c: (Inc(c, 1), JzDec(c, 0, 0)),  # net 0, peaks at +1
    lambda c: (Inc(c, 1), Inc(c, 2), JzDec(c, 0, 0)),  # net +1, peaks at +2
])
def test_run_fast_forward_stops_where_single_step_overflows(loop, counter):
    program = Program(loop(counter))
    for below in range(4):
        x = INT64_MAX - below
        start = Config(0, x, 0) if counter == 0 else Config(0, 0, x)
        assert _fast_outcomes(program, start, 20) == _folded_outcomes(program, start, 20)


def test_run_self_loop_fast_forwards_to_the_fuel():
    with _deadline():
        result = run(Program((Inc(0, 0),)), fuel=10**12)
    assert result.final == Config(0, 10**12, 0)
    assert result.machine_steps == 10**12
    assert not result.halted


def test_run_self_loop_overflows_beyond_int64_max():
    # the overflow lies 2^63 steps in: a fast-forward that stopped short of
    # it would single-step for ever
    with _deadline(), pytest.raises(CounterOverflow):
        run(Program((Inc(0, 0),)), fuel=2**63 + 1)


def test_run_transfer_loop_stops_at_its_zero_exit():
    # state 0 drains A into B (two steps per unit), then exits on A = 0
    p = Program((JzDec(0, 2, 1), Inc(1, 0), Halt()))
    with _deadline():
        result = run(p, fuel=10**13, start=Config(0, 10**12, 7))
    assert result.final == Config(-1, 0, 10**12 + 7)
    assert result.machine_steps == 2 * 10**12 + 2  # trips, zero exit, HALT
    assert result.halted
    for a in range(5):
        start = Config(0, a, 7)
        assert _fast_outcomes(p, start, 2 * a + 3) == _folded_outcomes(p, start, 2 * a + 3)


# --- trips through a zero branch against the single-step reference ----------


_NEAR_MAX = (INT64_MAX - 3, INT64_MAX)


@pytest.mark.parametrize("c", [0, 1])
def test_run_one_line_zero_loop_matches_single_step(c):
    # JZDEC c ? 0 : 0 drains c on its positive cycle, then takes its zero
    # branch for ever: a trip of one step that changes nothing
    program = Program((JzDec(c, 0, 0),))
    for a in (0, 3, *_NEAR_MAX):
        for b in (0, 3, *_NEAR_MAX):
            start = Config(0, a, b)
            assert _fast_outcomes(program, start, 150) == _folded_outcomes(program, start, 150)


def test_run_zero_loop_of_2_to_the_63_steps_finishes():
    program = Program((JzDec(0, 0, 0),))
    t0 = time.perf_counter()
    with _deadline():
        result = run(program, fuel=INT64_MAX)
    assert time.perf_counter() - t0 < 1
    assert (result.final, result.machine_steps, result.halted) == (
        Config(0, 0, 0), INT64_MAX, False)


def test_run_zero_test_loop_overflows_at_the_single_step_step():
    # state 0 tests A for zero, state 1 adds one to B: each trip leaves A at
    # 0, so the trip repeats until B reaches INT64_MAX
    program = Program((JzDec(0, 1, 1), Inc(1, 0)))
    for below in range(6):
        start = Config(0, 0, INT64_MAX - below)
        assert _fast_outcomes(program, start, 20) == _folded_outcomes(program, start, 20)
    for start in (Config(0, 0, 0), Config(1, 0, 7), Config(0, 2, 0)):
        assert _fast_outcomes(program, start, 150) == _folded_outcomes(program, start, 150)
    # the overflow lies 2^64 steps in; the trips stop short of it
    with _deadline(), pytest.raises(CounterOverflow):
        run(program, fuel=2**65)


def test_run_trip_that_changes_its_zero_tested_counter_matches_single_step():
    # state 0 moves B into A, state 2 moves A back into B, and state 4 adds
    # one to B: each trip ends with A one higher, and state 2 tests A for
    # zero, so no trip repeats
    program = Program((JzDec(1, 2, 1), Inc(0, 0), JzDec(0, 4, 3), Inc(1, 2), Inc(1, 0)))
    for start in (Config(0, 0, 0), Config(2, 3, 0), Config(0, 0, 9),
                  Config(2, INT64_MAX - 40, 0), Config(0, 0, INT64_MAX)):
        assert _fast_outcomes(program, start, 300) == _folded_outcomes(program, start, 300)


def test_run_two_trips_that_undo_each_other_repeat_as_one():
    # A stays 0; state 1 finds B at 0 on one return to state 0's zero branch
    # and adds one, and finds it at 1 on the next and takes it away: neither
    # trip repeats alone, the two together do
    program = Program((JzDec(0, 1, 0), JzDec(1, 2, 0), Inc(1, 0)))
    for start in (Config(0, 0, 0), Config(0, 0, 1), Config(1, 2, 0),
                  Config(0, *_NEAR_MAX), Config(2, 0, INT64_MAX)):
        assert _fast_outcomes(program, start, 200) == _folded_outcomes(program, start, 200)
    t0 = time.perf_counter()
    with _deadline():
        result = run(program, fuel=INT64_MAX)
    assert time.perf_counter() - t0 < 1
    assert result.machine_steps == INT64_MAX


def test_run_nested_loop_with_growing_trips_matches_single_step():
    # state 0 moves B into A twice over, state 2 moves A back into B, and
    # state 4 adds one: B runs 0, 1, 3, 7, ..., so each trip through a zero
    # branch is longer than the last, and it tests B, which it changes
    program = Program((
        JzDec(1, 2, 1), Inc(0, 5), JzDec(0, 4, 3), Inc(1, 2), Inc(1, 0), Inc(0, 0),
    ))
    for start in (Config(0, 0, 0), Config(2, 5, 0), Config(0, 0, 2),
                  Config(0, 0, INT64_MAX // 2 - 1), Config(2, *_NEAR_MAX)):
        assert _fast_outcomes(program, start, 400) == _folded_outcomes(program, start, 400)


def test_run_reopens_its_recording_at_the_head_until_the_trip_repeats():
    # state 0 takes B down to 0 on its positive branch, then sends it round
    # states 1 and 2, which add 2: the run opens a recording at state 0, and
    # the 5-step trip repeats only from the return at which B is back at 0
    program = Program((JzDec(1, 1, 0), Inc(1, 2), Inc(1, 0)))
    for start in (Config(0, 0, 0), Config(1, 0, 0), Config(0, 3, 5), Config(2, 0, INT64_MAX - 2)):
        assert _fast_outcomes(program, start, 300) == _folded_outcomes(program, start, 300)
    with _deadline():
        result = run(program, fuel=INT64_MAX)
    # 2^63 - 1 = 2 (mod 5): whole trips, then the zero branch and one INC of B
    assert (result.final, result.machine_steps, result.halted) == (
        Config(2, 0, 1), INT64_MAX, False)


def _positive_loop(length):
    """States 0 .. length - 2 add one to B each, and state length - 1 takes
    one from A and goes back to state 0, or halts when A is 0: a loop whose
    trip of ``length`` steps tests nothing for zero."""
    incs = tuple(Inc(1, i + 1) for i in range(length - 1))
    return Program(incs + (JzDec(0, length, 0), Halt()))


@pytest.mark.parametrize("length", [64, 65])
def test_run_loop_of_positive_branches_matches_single_step(length):
    # a trip of 64 steps is applied whole, one of 65 is single-stepped, with
    # the same outcome at every fuel, from the JZDEC or mid-trip, and where
    # B overflows in the fourth trip
    program = _positive_loop(length)
    for start in (Config(0, 5, 0), Config(length - 1, 4, 0), Config(length // 2, 4, 7),
                  Config(1, 5, INT64_MAX - 3 * (length - 1) - 5)):
        fuel = 5 * length + 3
        assert _fast_outcomes(program, start, fuel) == _folded_outcomes(program, start, fuel)


def test_run_loop_of_64_step_trips_finishes():
    with _deadline():
        result = run(_positive_loop(64), fuel=INT64_MAX, start=Config(0, 10**15, 0))
    # 63 INCs of B, then 10^15 trips that each take one from A and add 63
    # to B, then the zero exit and the HALT
    assert result.final == Config(-1, 0, 63 * (10**15 + 1))
    assert result.machine_steps == 63 + 64 * 10**15 + 2


@given(data=st.data(), program=_programs(), fuel=st.integers(0, 5000))
@settings(max_examples=300, deadline=None)
def test_run_fast_forward_matches_single_step_from_any_64_bit_start(data, program, fuel):
    counter = st.integers(0, 100) | st.integers(INT64_MAX - 50, INT64_MAX)
    start = Config(data.draw(st.integers(0, len(program) - 1)), data.draw(counter),
                   data.draw(counter))
    assert _outcome(program, fuel, start, False) == _outcome(program, fuel, start, True)


@given(program=_programs(), fuel=st.integers(0, 2000))
@settings(max_examples=300, deadline=None)
def test_mcm_run_agrees_with_run_on_two_counter_programs(program, fuel):
    # two independent interpreters of the same Program: the reduction's
    # single-stepping k-counter oracle and the fast-forwarding run
    mcm = mcm_run(program, fuel)
    ref = run(program, fuel=fuel)
    assert (mcm.halted, mcm.steps) == (ref.halted, ref.machine_steps)
    assert mcm.counters == (ref.final.a, ref.final.b)
