"""Counter machine model: instructions, configurations, and interpreters.

A ``Program`` is a dense list of INC / JZDEC / HALT instructions indexed by
control state over ``num_counters`` counters (default 2), each a plain int
index in parsed and reduced programs alike; state 0 is the initial state
and state -1 denotes "halted". The reduction pipeline builds a 3-counter
``Program`` from the same instruction types. The names A and B
(``COUNTER_NAMES``, the one table of them) exist only at the boundaries:
trace tags, the DSL and JSON formats and code generation, which like the
execution views below reject more than 2 counters with ``InvalidProgram``
(``require_two_counters``). Counters are 64-bit non-negative integers. Two
execution views are provided for 2-counter programs:

* ``run``       -- the ground-truth fold interpreter,
* ``qpp_walk``  -- a deterministic guarded walk over the implied state
  graph, mirroring the pruned quantified-path-pattern traversal (edges
  INC / JZDEC_ZERO / JZDEC_POS, predicate on the post-update accumulator).

``run`` executes a table that it decodes on demand and keeps per run: the
first time a run enters a state, it decodes that state alone, and the
``Program`` keeps nothing of the run. Loops are found as the run goes, by
one rule: when the run executes a state again within ``_TRIP_GAP`` (64)
steps, it single-steps on from there, recording the trip, until it is back
at that state with every counter the trip tested for zero at its start
value. A zero test holds on the next trip only if its counter starts that
trip at the same value, so the trip then repeats exactly as long as its
positive tests hold and its INCs stay in range, and it is applied in as
many whole trips as those and the fuel allow (exact acceleration of a
guarded loop, as in Comon and Jurski 1998); otherwise the recording goes on
to the next return, within ``_TRIP_GAP`` steps. So a loop whose trip is at
most 64 steps and repeats exactly is applied in whole trips; longer trips
are single-stepped. Final configuration, ``machine_steps`` and the point
where ``CounterOverflow`` is raised are those of single-stepping, whatever
order the states were decoded in. With ``capture_trace`` it single-steps
instead, one trace row per instruction holding the configurations before
and after it, until the trace holds ``trace_cap`` rows; the rest of the run
is untraced.
``run(program, fuel=1, capture_trace=True, start=config).final`` is one
step from ``config``; a halted configuration is its own successor.
"""

from __future__ import annotations

from dataclasses import dataclass

INT64_MAX = 2**63 - 1
HALTED = -1
DEFAULT_FUEL = 1_000_000
DEFAULT_TRACE_CAP = 10_000


class MachineError(Exception):
    """Base class for machine-model errors."""


class CounterOverflow(MachineError):
    """A counter exceeded the signed 64-bit range."""


class InvalidProgram(MachineError):
    """Program violates a structural invariant."""


class NoPath(MachineError):
    """qpp_walk exhausted its fuel before reaching a halt state."""


COUNTER_NAMES = ("A", "B")  # by counter index, for 2-counter programs


# The instructions are slotted frozen dataclasses with a hand-written
# ``__init__`` that stores each field through its slot's descriptor (bound
# below the classes). The generated frozen ``__init__`` goes through
# ``object.__setattr__`` once per field, which nearly doubles the cost of
# building the tens of thousands of instructions a reduction makes.
# Equality, hashing, ``repr``, ``replace``, copying and pickling are the
# dataclass's own. Assigning a field raises ``FrozenInstanceError``, but
# assigning any other name raises ``TypeError`` from the generated
# ``__setattr__`` (CPython 3.10 to 3.13), and the instance is unchanged.


@dataclass(frozen=True, slots=True)
class Inc:
    counter: int
    next: int

    def __init__(self, counter: int, next: int):
        _set_inc_counter(self, counter)
        _set_inc_next(self, next)


@dataclass(frozen=True, slots=True)
class JzDec:
    counter: int
    q_zero: int
    q_pos: int

    def __init__(self, counter: int, q_zero: int, q_pos: int):
        _set_jzdec_counter(self, counter)
        _set_jzdec_q_zero(self, q_zero)
        _set_jzdec_q_pos(self, q_pos)


@dataclass(frozen=True, slots=True)
class Halt:
    pass


_set_inc_counter = Inc.counter.__set__
_set_inc_next = Inc.next.__set__
_set_jzdec_counter = JzDec.counter.__set__
_set_jzdec_q_zero = JzDec.q_zero.__set__
_set_jzdec_q_pos = JzDec.q_pos.__set__


Instruction = Inc | JzDec | Halt


def _dangling(state: int, target, n: int) -> InvalidProgram:
    exc = InvalidProgram(
        f"state {state}: dangling reference to state {target!r} (valid range 0..{n - 1})"
    )
    exc.state = state  # parse_dsl reports the error at the state's line
    return exc


@dataclass(frozen=True)
class Program:
    """Dense, deterministic instruction table over counters
    0..num_counters-1; one instruction per state."""

    instructions: tuple[Instruction, ...]
    num_counters: int = 2

    def __post_init__(self):
        if not self.instructions:
            raise InvalidProgram("program must have at least one state")
        n, k = len(self.instructions), self.num_counters
        for i, instr in enumerate(self.instructions):
            # an INC has one successor, checked as both of a JZDEC's are
            if isinstance(instr, Inc):
                counter = instr.counter
                t = pos = instr.next
            elif isinstance(instr, JzDec):
                counter, t, pos = instr.counter, instr.q_zero, instr.q_pos
            elif isinstance(instr, Halt):
                continue
            else:
                raise InvalidProgram(f"state {i}: not an instruction: {instr!r}")
            # type() is int: a bool or a float is no counter or state number
            if not (type(counter) is int and 0 <= counter < k):
                raise InvalidProgram(f"state {i}: bad counter {counter!r} for {k} counters")
            if not (type(t) is int and 0 <= t < n):
                raise _dangling(i, t, n)
            if not (type(pos) is int and 0 <= pos < n):
                raise _dangling(i, pos, n)

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class Config:
    """Machine snapshot. state == -1 means halted; counters lie in
    0..INT64_MAX, the domain whose bound ``run``'s fast-forward assumes."""

    state: int
    a: int
    b: int

    def __post_init__(self):
        if not (0 <= self.a <= INT64_MAX and 0 <= self.b <= INT64_MAX):
            raise ValueError(f"counter outside 0..{INT64_MAX} in {self}")

    @property
    def halted(self) -> bool:
        return self.state == HALTED


@dataclass(frozen=True)
class TraceRow:
    step: int
    config_before: Config
    instruction_tag: str
    config_after: Config


@dataclass(frozen=True)
class RunResult:
    final: Config
    machine_steps: int
    halted: bool
    trace: tuple[TraceRow, ...] | None = None
    trace_truncated: bool = False


@dataclass(frozen=True)
class PathResult:
    edge_tags: tuple[str, ...]
    steps: int
    final_a: int
    final_b: int


# Opcodes of the decoded table: the low bit is the counter (0 = A, 1 = B).
# _NEW marks a state not decoded yet. HALT and _NEW sort last, so that one
# test takes ``_run_decoded`` off its step for both.
_INC_A, _INC_B, _DEC_A, _DEC_B, _HALT, _NEW = range(6)
# A state executed again within this many steps starts a recorded trip of at
# most as many steps: a loop whose trip is at most this long and repeats
# exactly is applied in whole trips, a longer trip is single-stepped. Kept
# small, since a recording that finds no repeat is waste; the reduction's
# gadget loops are at most 8 steps.
_TRIP_GAP = 64


def _run_decoded(
    program: Program, fuel: int, state: int, a: int, b: int
) -> tuple[int, int, int, int]:
    """``run`` without a trace: (state, a, b, machine_steps).

    The run decodes a state the first time it enters it, into tables of its
    own: an opcode, a next or zero target and a positive target.

    A state executed again within ``_TRIP_GAP`` steps (``seen``, noted
    outside recordings) opens a recording at it (``head``), which notes the
    counters the trip tests for zero (``tested``) and per counter the least
    value a positive JZDEC finds (``low``) and the most an INC leaves
    (``high``). Back at ``head`` with every zero-tested counter at its start
    value, a trip that changes a counter by d meets those values plus d on
    the next trip, so as many more whole trips are applied as keep the
    positive JZDECs positive and the INCs in range and fit in the fuel,
    possibly none (Comon and Jurski 1998). Otherwise the recording goes on
    (two returns may make one trip that repeats), and closes with no trip
    applied after ``_TRIP_GAP`` steps or at a state it has to decode.
    """
    instructions = program.instructions
    n = len(instructions)
    ops, nxt, pos = [_NEW] * n, [HALTED] * n, [HALTED] * n
    seen = {}  # state -> the step at which the run last executed it
    steps = 0
    head = HALTED  # the state the open recording started at; HALTED: none
    # bit 1 of tested: the recording tested A for zero; bit 2: B. The three
    # are reset when a recording opens; outside one they go unread.
    tested, low, high = 0, [INT64_MAX, INT64_MAX], [0, 0]
    while steps < fuel and state != HALTED:
        op = ops[state]
        if op >= _HALT:
            if op == _HALT:
                state = HALTED
                steps += 1
            else:  # _NEW: decode, then dispatch again
                instr = instructions[state]
                if isinstance(instr, Inc):
                    ops[state], nxt[state] = _INC_A + instr.counter, instr.next
                elif isinstance(instr, JzDec):
                    ops[state] = _DEC_A + instr.counter
                    nxt[state], pos[state] = instr.q_zero, instr.q_pos
                else:
                    ops[state] = _HALT
                head = HALTED
            continue
        if head == HALTED:
            last = seen.get(state, -_TRIP_GAP - 1)
            seen[state] = steps
            if steps - last <= _TRIP_GAP:  # a trip back here may repeat
                head, start, a0, b0 = state, steps, a, b
                tested, low, high = 0, [INT64_MAX, INT64_MAX], [0, 0]
        c = op & 1
        x = b if c else a
        if op < _DEC_A:
            if x >= INT64_MAX:
                raise CounterOverflow(f"counter exceeds {INT64_MAX}")
            x += 1
            if x > high[c]:
                high[c] = x
            state = nxt[state]
        elif x:
            if x < low[c]:
                low[c] = x
            x -= 1
            state = pos[state]
        else:
            tested |= c + 1
            state = nxt[state]
        if c:
            b = x
        else:
            a = x
        steps += 1
        if head == HALTED:
            continue
        if state == head and not (tested & 1 and a != a0 or tested & 2 and b != b0):
            da, db, length = a - a0, b - b0, steps - start
            k = (fuel - steps) // length
            if da < 0:
                k = min(k, (low[0] - 1) // -da)
            elif da > 0:
                k = min(k, (INT64_MAX - high[0]) // da)
            if db < 0:
                k = min(k, (low[1] - 1) // -db)
            elif db > 0:
                k = min(k, (INT64_MAX - high[1]) // db)
            a, b, steps = a + k * da, b + k * db, steps + k * length
            head = HALTED
        elif steps - start >= _TRIP_GAP:
            head = HALTED
    return state, a, b, steps


def _checked_inc(value: int) -> int:
    if value >= INT64_MAX:
        raise CounterOverflow(f"counter exceeds {INT64_MAX}")
    return value + 1


def require_two_counters(program: Program) -> None:
    if program.num_counters > 2:
        raise InvalidProgram(f"program has {program.num_counters} counters; at most 2 are supported")


def _step_raw(program: Program, state: int, a: int, b: int) -> tuple[int, int, int, str]:
    """One executed instruction. Caller guarantees state is a valid index."""
    instr = program.instructions[state]
    if isinstance(instr, Inc):
        name = COUNTER_NAMES[instr.counter]
        if instr.counter == 0:
            return instr.next, _checked_inc(a), b, f"INC({name})"
        return instr.next, a, _checked_inc(b), f"INC({name})"
    if isinstance(instr, JzDec):
        name = COUNTER_NAMES[instr.counter]
        c = b if instr.counter else a
        if c == 0:
            return instr.q_zero, a, b, f"JZDEC({name}), {name}=0"
        if instr.counter == 0:
            return instr.q_pos, a - 1, b, f"JZDEC({name}), {name}>0"
        return instr.q_pos, a, b - 1, f"JZDEC({name}), {name}>0"
    return HALTED, a, b, "HALT"


def run(
    program: Program,
    fuel: int = DEFAULT_FUEL,
    capture_trace: bool = False,
    trace_cap: int = DEFAULT_TRACE_CAP,
    start: Config | None = None,
) -> RunResult:
    """Execute at most ``fuel`` instructions from ``start`` (default
    (0, 0, 0)), stopping at halt.

    ``machine_steps`` counts executed instructions, including the HALT
    instruction itself; post-halt absorption never executes. A loop whose
    trip is at most 64 steps and repeats exactly is applied in whole trips;
    longer trips are single-stepped, as is every step while
    ``capture_trace`` records one row per instruction, up to ``trace_cap``
    rows.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    require_two_counters(program)
    if start is None:
        state, a, b = 0, 0, 0
    else:
        state, a, b = start.state, start.a, start.b
        if state != HALTED and not (0 <= state < len(program)):
            raise InvalidProgram(f"state {state} out of range for program")
    if not capture_trace:
        state, a, b, steps = _run_decoded(program, fuel, state, a, b)
        return RunResult(final=Config(state, a, b), machine_steps=steps, halted=state == HALTED)
    trace: list[TraceRow] = []
    steps = 0
    while steps < fuel and state != HALTED and len(trace) < trace_cap:
        before = state, a, b
        state, a, b, tag = _step_raw(program, state, a, b)
        trace.append(TraceRow(steps, Config(*before), tag, Config(state, a, b)))
        steps += 1
    truncated = steps < fuel and state != HALTED
    if truncated:  # the trace is full: the rest of the run is untraced
        state, a, b, rest = _run_decoded(program, fuel - steps, state, a, b)
        steps += rest
    return RunResult(
        final=Config(state, a, b),
        machine_steps=steps,
        halted=state == HALTED,
        trace=tuple(trace),
        trace_truncated=truncated,
    )


def qpp_walk(program: Program, fuel: int = DEFAULT_FUEL) -> PathResult:
    """Walk the implied state graph from state 0 to a halt-labelled node.

    Edge guards mirror the traversal predicate: INC always passes,
    JZDEC_ZERO requires the counter to be 0 (accumulator unchanged), and
    JZDEC_POS requires the post-decrement value to be >= 0. Exactly one
    guard passes per state, which is asserted rather than assumed. HALT
    contributes no edge, so a halting run of n instructions walks n-1 edges.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    require_two_counters(program)
    state, a, b = 0, 0, 0
    tags: list[str] = []
    while not isinstance(instr := program.instructions[state], Halt):
        if len(tags) >= fuel:
            raise NoPath(f"no path to a halt state within {fuel} edges")
        name = COUNTER_NAMES[instr.counter]
        if isinstance(instr, Inc):
            if instr.counter == 0:
                a = _checked_inc(a)
            else:
                b = _checked_inc(b)
            tags.append(f"INC({name})")
            state = instr.next
        else:
            c = b if instr.counter else a
            zero_ok = c == 0
            pos_ok = c - 1 >= 0
            assert zero_ok != pos_ok, "guards must be mutually exclusive"
            if zero_ok:
                tags.append(f"JZDEC_ZERO({name})")
                state = instr.q_zero
            else:
                if instr.counter == 0:
                    a -= 1
                else:
                    b -= 1
                tags.append(f"JZDEC_POS({name})")
                state = instr.q_pos
    return PathResult(tuple(tags), len(tags), a, b)
