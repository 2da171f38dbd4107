"""Constructive Turing-completeness pipeline.

Compiles a Turing machine down to a 2-counter program in three stages,
each independently interpretable for differential testing:

    TM  ->  two-stack machine   (the TM itself, its tape halves run as
                                 stacks)
        ->  3-counter machine   (stacks as base-(s+1) numerals; one
                                 shared scratch counter for the
                                 multiply/divide/mod gadgets)
        ->  2-counter program   (counter vector as the prime-exponent
                                 product 2^c1 * 3^c2 * 5^c3 [* 7^c4] in
                                 counter A, with B as scratch)

The two-stack stage is the ``TuringMachine`` itself: ``tsm_run`` and
``two_stack_to_counters`` take it and change only how the tape is stored.
A step pops the head cell off the right stack, then writes and moves. A
right move pushes the written symbol onto the left stack; a left move
pushes it back onto the right stack, then moves the left stack's top (a
blank if it is empty) onto the right stack.

Both counter stages are ``machine.Program`` instruction tables over the same
INC / JZDEC / HALT instructions, with counters as indices: the 3-counter
machine is a ``Program`` with ``num_counters=3``. Each stage keeps its own
interpreter: ``mcm_run`` single-steps the 3-counter machine independently of
``machine.run``, which runs the 2-counter program. The 3-counter stage is
emitted by an assembler (``_Asm``) with forward integer labels. The
2-counter stage relocates gadget templates: the assembler builds each
(kind, prime) gadget's rows once, on first use, and each 3-counter state
gets a copy shifted to its entry, with its exits set to its successors'
entries. Emission order defines state numbering, so the compiled programs
are byte-stable.

Conventions (documented here because they are choices, not forced):

* Stack numerals use base s+1 where s is the alphabet size, with digit 0
  reserved as the stack-bottom marker, so empty-stack tests are zero
  tests. The numeral's least significant digit is the stack top.
* The empty counter vector encodes as A = 1 (the empty product), so the
  compiled 2-counter program starts with a single bootstrap INC(A),
  since machines start from (0, 0).
* Moving left at the left tape edge extends the tape with a blank
  (one-way-infinite tape presented as two-way by padding).
* Step blowup: one two-stack step costs O(base * max stack numeral)
  3-counter steps (a divmod dispatch on each stack it pops, and at most
  two push gadgets). Exactly, with base b, a dispatch on v = qb + r costs
  q(b + 3) + r + 2 steps, a push of digit d onto v costs v(3b + 1) + d + 2
  (the input load is one push per input symbol) and a HALT costs 1. One
  3-counter step costs O(p * A) 2-counter steps for its prime p. Exactly,
  a gadget entered with A = a costs a(3p + 1) + 2 steps for an INC and,
  with a = qp + r, q(p + 3) + 2 for a JZDEC when r = 0 and
  2q(p + 1) + 2r + 2 otherwise; the bootstrap and a HALT cost 1 each.
  The exponential cost of the prime encoding is intrinsic, but
  every gadget loop is at most p + 1 <= 8 steps long, so ``run``
  fast-forwards it exactly in whole trips, and the 2-counter stage
  finishes in time proportional to the gadgets entered rather than the
  steps taken (``unary_successor`` on input 11 takes
  2,947,573,665 steps); it is cut short only by the fuel or by 64-bit
  overflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

from .machine import (
    HALTED,
    INT64_MAX,
    Config,
    CounterOverflow,
    Halt,
    Inc,
    JzDec,
    Program,
    RunResult,
    run,
)

PRIMES = (2, 3, 5, 7)


class ReductionError(Exception):
    """Base class for pipeline errors."""


class FixtureError(ReductionError):
    """Invalid Turing-machine description."""


class DecodeError(ReductionError):
    """A compiled-machine value does not conform to its encoding."""


# --- Turing machines -----------------------------------------------------


@dataclass(frozen=True)
class TuringMachine:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    blank: str
    # (state, symbol) -> (state, written symbol, move 'L' or 'R')
    transitions: dict[tuple[str, str], tuple[str, str, str]]
    initial: str
    halting: frozenset[str]
    input: tuple[str, ...]

    def __post_init__(self):
        # each state name is one label, each symbol one digit of the stack encoding
        for kind, field, names in (("state", "states", self.states),
                                   ("symbol", "alphabet", self.alphabet)):
            if len(set(names)) < len(names):
                repeated = next(x for i, x in enumerate(names) if x in names[:i])
                raise FixtureError(f"{kind} {repeated!r} repeated in {field}")
        if self.blank not in self.alphabet:
            raise FixtureError(f"blank {self.blank!r} not in alphabet")
        if self.initial not in self.states:
            raise FixtureError(f"initial state {self.initial!r} not in states")
        for q in self.halting:
            if q not in self.states:
                raise FixtureError(f"halting state {q!r} not in states")
        for sym in self.input:
            if sym not in self.alphabet:
                raise FixtureError(f"input symbol {sym!r} not in alphabet")
        for (q, sym), (q2, sym2, move) in self.transitions.items():
            if q not in self.states or q2 not in self.states:
                raise FixtureError(f"transition ({q!r}, {sym!r}) references unknown state")
            if sym not in self.alphabet or sym2 not in self.alphabet:
                raise FixtureError(f"transition ({q!r}, {sym!r}) references unknown symbol")
            if move not in ("L", "R"):
                raise FixtureError(f"transition ({q!r}, {sym!r}) has bad move {move!r}")
        for q in self.states:
            if q in self.halting:
                continue
            for sym in self.alphabet:
                if (q, sym) not in self.transitions:
                    raise FixtureError(f"missing transition for ({q!r}, {sym!r})")


def _strings(value, field: str) -> list[str]:
    """``value`` if it is a JSON list of strings. Anything else is refused:
    a string or an object would split into its characters or keys, and a
    number cannot be printed as a tape cell."""
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise FixtureError(f"{field} must be a list of strings")
    return value


def load_tm(doc: dict) -> TuringMachine:
    """Fixture format: states, alphabet, blank, transitions (5-tuples),
    initial, halting, input."""
    try:
        transitions = {}
        rows = doc["transitions"]
        if not isinstance(rows, list):
            raise FixtureError("transitions must be a list of 5-string lists")
        for i, row in enumerate(rows):
            q, sym, q2, sym2, move = _strings(row, f"transitions[{i}]")
            if (q, sym) in transitions:  # else the later transition would silently win
                raise FixtureError(f"transition ({q!r}, {sym!r}) repeated in transitions")
            transitions[q, sym] = (q2, sym2, move)
        return TuringMachine(
            states=tuple(_strings(doc["states"], "states")),
            alphabet=tuple(_strings(doc["alphabet"], "alphabet")),
            blank=doc["blank"],
            transitions=transitions,
            initial=doc["initial"],
            halting=frozenset(_strings(doc["halting"], "halting")),
            input=tuple(_strings(doc["input"], "input")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureError(f"malformed machine description: {exc}") from exc


def load_tm_file(path) -> TuringMachine:
    with open(path, encoding="utf-8") as fh:
        return load_tm(json.load(fh))


def _trim(tape: list[str] | tuple[str, ...], blank: str) -> tuple[str, ...]:
    marked = [i for i, symbol in enumerate(tape) if symbol != blank]
    return tuple(tape[marked[0]:marked[-1] + 1]) if marked else ()


@dataclass(frozen=True)
class TmResult:
    halted: bool
    steps: int
    tape: tuple[str, ...]


def tm_run(tm: TuringMachine, fuel: int) -> TmResult:
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    tape = list(tm.input) if tm.input else [tm.blank]
    head = 0
    state = tm.initial
    steps = 0
    while steps < fuel and state not in tm.halting:
        state, written, move = tm.transitions[(state, tape[head])]
        tape[head] = written
        if move == "R":
            head += 1
            if head == len(tape):
                tape.append(tm.blank)
        else:
            head -= 1
            if head < 0:  # grow by the tape's length, so moving left costs O(1) amortised
                head = len(tape) - 1
                tape[:0] = [tm.blank] * len(tape)
        steps += 1
    return TmResult(state in tm.halting, steps, _trim(tape, tm.blank))


# --- two-stack machines ---------------------------------------------------


@dataclass(frozen=True)
class TsmResult:
    halted: bool
    steps: int
    left: tuple[str, ...]  # bottom first
    right: tuple[str, ...]  # bottom first
    tape: tuple[str, ...]


def _stacks_to_tape(left, right, blank) -> tuple[str, ...]:
    return _trim(list(left) + list(reversed(right)), blank)


def tsm_run(tm: TuringMachine, fuel: int) -> TsmResult:
    """Run ``tm`` with its tape as two stacks: the left one holds the cells
    left of the head (top = the nearest), the right one the head cell and
    the cells right of it, starting as the input with its first symbol on top."""
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    left: list[str] = []
    right: list[str] = list(reversed(tm.input))
    state = tm.initial
    steps = 0
    while steps < fuel and state not in tm.halting:
        state, written, move = tm.transitions[(state, right.pop() if right else tm.blank)]
        if move == "R":
            left.append(written)
        else:
            right.append(written)
            right.append(left.pop() if left else tm.blank)
        steps += 1
    return TsmResult(
        state in tm.halting,
        steps,
        tuple(left),
        tuple(right),
        _stacks_to_tape(left, right, tm.blank),
    )


def tm_to_two_stack(tm: TuringMachine) -> TuringMachine:
    """Returns ``tm``: the two-stack stage runs on the TuringMachine itself.
    Kept only because the benchmark's reduce-tm and compile-reduced
    workloads call it by name; the next change to the benchmark drops it."""
    return tm


# --- multi-counter machines ------------------------------------------------


@dataclass(frozen=True)
class McmResult:
    halted: bool
    steps: int
    counters: tuple[int, ...]


def mcm_run(mcm: Program, fuel: int) -> McmResult:
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    counters = [0] * mcm.num_counters
    state = 0
    steps = 0
    while steps < fuel and state != HALTED:
        instr = mcm.instructions[state]
        if isinstance(instr, Inc):
            if counters[instr.counter] >= INT64_MAX:
                raise CounterOverflow(f"counter exceeds {INT64_MAX}")
            counters[instr.counter] += 1
            state = instr.next
        elif isinstance(instr, JzDec):
            if counters[instr.counter] == 0:
                state = instr.q_zero
            else:
                counters[instr.counter] -= 1
                state = instr.q_pos
        else:
            state = HALTED
        steps += 1
    return McmResult(state == HALTED, steps, tuple(counters))


# --- assembler --------------------------------------------------------------


class _Asm:
    """Counter-machine assembler with forward integer labels.

    ``label()`` allocates a label, and ``mark`` binds it to the index of
    the next emitted row; every label must be bound exactly once. Each INC
    or JZDEC is a row (counter, target, positive target or None), and each
    HALT is None. ``resolved()`` replaces every label by its index, and
    ``build`` makes the ``Program``. Emission order defines state
    numbering, so each emitter keeps a fixed order.
    """

    def __init__(self):
        self.rows: list[tuple[int, int, int | None] | None] = []
        self.at: list[int | None] = []  # label -> bound row index

    def label(self) -> int:
        self.at.append(None)
        return len(self.at) - 1

    def mark(self, label: int):
        if self.at[label] is not None:
            raise AssertionError(f"label {label} defined twice")
        self.at[label] = len(self.rows)

    def inc(self, counter: int, goto: int):
        self.rows.append((counter, goto, None))

    def jzdec(self, counter: int, goto_zero: int, goto_pos: int):
        self.rows.append((counter, goto_zero, goto_pos))

    def halt(self):
        self.rows.append(None)

    def resolved(self) -> tuple[tuple[int, int, int | None] | None, ...]:
        at = self.at
        if None in at:
            raise AssertionError(f"undefined label {at.index(None)}")
        return tuple(
            None if row is None else (row[0], at[row[1]], None if row[2] is None else at[row[2]])
            for row in self.rows
        )

    def build(self, num_counters: int) -> Program:
        return Program(tuple(
            Halt() if row is None else Inc(row[0], row[1]) if row[2] is None else JzDec(*row)
            for row in self.resolved()
        ), num_counters)


def _emit_inc_chain(asm: _Asm, entry: int, counter: int, n: int, done: int):
    """counter += n, then goto done. Requires n >= 1: every caller adds a
    base, a prime, a digit or a nonzero remainder."""
    if n < 1:
        raise AssertionError(f"increment chain of length {n}")
    chain = [entry] + [asm.label() for _ in range(n - 1)] + [done]
    for cur, nxt in zip(chain, chain[1:]):
        asm.mark(cur)
        asm.inc(counter, nxt)


def _emit_move(asm: _Asm, entry: int, src: int, dst: int, done: int):
    """dst += src; src = 0."""
    body = asm.label()
    asm.mark(entry)
    asm.jzdec(src, done, body)
    asm.mark(body)
    asm.inc(dst, entry)


def _emit_mul_const(asm: _Asm, entry: int, counter: int, scratch: int, k: int, done: int):
    """counter *= k via the scratch counter; scratch must be 0 on entry
    and is 0 again on exit."""
    body = asm.label()
    move_back = asm.label()
    asm.mark(entry)
    asm.jzdec(counter, move_back, body)
    _emit_inc_chain(asm, body, scratch, k, entry)
    _emit_move(asm, move_back, scratch, counter, done)


def _emit_push(asm: _Asm, entry: int, counter: int, scratch: int, base: int, digit: int, done: int):
    """counter = counter * base + digit."""
    mid = asm.label()
    _emit_mul_const(asm, entry, counter, scratch, base, mid)
    _emit_inc_chain(asm, mid, counter, digit, done)


def _emit_divmod_scan(asm: _Asm, entry: int, counter: int, scratch: int, base: int) -> list[int]:
    """Divide counter by base into scratch. Returns the unmarked labels
    found: found[r] is reached with counter = 0, the quotient in scratch
    and r = the remainder. The caller emits the code at each found[r]."""
    attempts = [entry] + [asm.label() for _ in range(base)]  # the last one bumps
    found = [asm.label() for _ in range(base)]
    for j in range(base):
        asm.mark(attempts[j])
        asm.jzdec(counter, found[j], attempts[j + 1])
    asm.mark(attempts[base])
    asm.inc(scratch, entry)
    return found


def _emit_divmod_dispatch(
    asm: _Asm, entry: int, counter: int, scratch: int, base: int, handlers: list[int]
):
    """counter = counter div base; jump to handlers[counter mod base].
    Scratch is 0 on entry and on every handler entry."""
    assert len(handlers) == base
    found = _emit_divmod_scan(asm, entry, counter, scratch, base)
    for r in range(base):
        _emit_move(asm, found[r], scratch, counter, handlers[r])


def _emit_divide_or_restore(
    asm: _Asm, entry: int, a: int, b: int, p: int, on_divisible: int, on_indivisible: int
):
    """If p | a: a = a/p, goto on_divisible. Else restore a unchanged and
    goto on_indivisible. b is scratch, 0 on entry and exit."""
    found = _emit_divmod_scan(asm, entry, a, b, p)
    _emit_move(asm, found[0], b, a, on_divisible)
    for r in range(1, p):
        # a was q*p + r with remainder r; rebuild it from the quotient in b
        add_back = asm.label()
        body = asm.label()
        asm.mark(found[r])
        asm.jzdec(b, add_back, body)
        _emit_inc_chain(asm, body, a, p, found[r])
        _emit_inc_chain(asm, add_back, a, r, on_indivisible)


# --- stage compilers --------------------------------------------------------

_L, _R, _S = 0, 1, 2  # the 3-counter stage's counters
_A, _B = 0, 1  # the 2-counter stage's


def two_stack_to_counters(tm: TuringMachine) -> Program:
    """Encode each stack as a base-(s+1) numeral in a counter. Each state
    pops the head cell with a divmod dispatch on the right stack; arm d
    pushes the written digit onto the left stack (move R), or back onto the
    right stack and then moves the left stack's top there (move L)."""
    base = len(tm.alphabet) + 1
    digit = {sym: i + 1 for i, sym in enumerate(tm.alphabet)}
    asm = _Asm()
    entry_of = {q: asm.label() for q in tm.states}

    # Load the input onto the right stack so input[0] ends up on top, then
    # enter the initial state, which is emitted next: the entry is index 0.
    chain = [asm.label() for _ in tm.input] + [entry_of[tm.initial]]
    for cur, nxt, sym in zip(chain, chain[1:], reversed(tm.input)):
        _emit_push(asm, cur, _R, _S, base, digit[sym], nxt)

    order = [tm.initial] + [q for q in tm.states if q != tm.initial]
    for q in order:
        if q in tm.halting:
            asm.mark(entry_of[q])
            asm.halt()
            continue
        arms = [asm.label() for _ in range(base)]
        _emit_divmod_dispatch(asm, entry_of[q], _R, _S, base, arms)
        for d in range(base):
            top = tm.blank if d == 0 else tm.alphabet[d - 1]
            target, written, move = tm.transitions[(q, top)]
            done = entry_of[target]
            if move == "R":
                _emit_push(asm, arms[d], _L, _S, base, digit[written], done)
            else:
                pushed = asm.label()
                handlers = [asm.label() for _ in range(base)]
                _emit_push(asm, arms[d], _R, _S, base, digit[written], pushed)
                _emit_divmod_dispatch(asm, pushed, _L, _S, base, handlers)
                for e in range(base):  # an empty left stack (e = 0) yields a blank
                    moved = digit[tm.blank] if e == 0 else e
                    _emit_push(asm, handlers[e], _R, _S, base, moved, done)

    if asm.at[chain[0]] != 0:
        raise AssertionError("compiled machine entry is not at index 0")
    return asm.build(3)


@cache
def _gadget(kind: type, p: int) -> tuple[tuple[int, int, int | None], ...]:
    """The 2-counter gadget of a 3-counter ``kind`` (``Inc`` or ``JzDec``)
    instruction on the counter of prime p, assembled on first use and kept
    (at most eight: two kinds by four primes), as ``_Asm`` rows.

    A target t < n, the gadget's length, is the offset t from the entry;
    t = n is the first exit (the INC's successor, the JZDEC's branch taken
    when p divides A) and t = n + 1 the second (the JZDEC's branch taken
    when it does not)."""
    asm = _Asm()
    entry, first, second = asm.label(), asm.label(), asm.label()
    if kind is Inc:
        _emit_mul_const(asm, entry, _A, _B, p, first)
    else:
        _emit_divide_or_restore(asm, entry, _A, _B, p, on_divisible=first, on_indivisible=second)
    n = len(asm.rows)
    asm.at[first], asm.at[second] = n, n + 1
    if asm.at[entry] != 0:
        raise AssertionError(f"{kind.__name__} gadget for prime {p} is not entered at 0")
    return asm.resolved()


def k_counters_to_two(mcm: Program) -> Program:
    """Prime-exponent encoding: counter vector (c1..ck) lives in A as
    2^c1 * 3^c2 * 5^c3 * 7^c4, with B as scratch. A bootstrap INC(A)
    establishes A = 1 (the all-zero vector) before the first state.

    Each state's gadget is its (kind, prime) template from ``_gadget``,
    relocated: state i's entry is the bootstrap plus the lengths of the
    gadgets before it (a HALT takes one slot), and the exits are filled
    with the successors' entries."""
    k = mcm.num_counters
    if k > len(PRIMES):
        raise ReductionError(f"at most {len(PRIMES)} counters supported, got {k}")
    gadgets = [
        None if isinstance(instr, Halt) else _gadget(type(instr), PRIMES[instr.counter])
        for instr in mcm.instructions
    ]
    entry = list(accumulate((1 if g is None else len(g) for g in gadgets), initial=1))
    out: list = [Inc(_A, entry[0])]
    for instr, g, base in zip(mcm.instructions, gadgets, entry):
        if g is None:
            out.append(Halt())
            continue
        if isinstance(instr, Inc):
            loc = [*range(base, base + len(g)), entry[instr.next]]
        else:
            loc = [*range(base, base + len(g)), entry[instr.q_pos], entry[instr.q_zero]]
        out.extend(Inc(c, loc[t]) if u is None else JzDec(c, loc[t], loc[u]) for c, t, u in g)
    return Program(tuple(out), 2)


# --- decoders ---------------------------------------------------------------


def decode_counters(config: Config, k: int) -> tuple[int, ...]:
    """Inverse of the prime-exponent encoding; errors on residue that is
    not a pure product of the first k primes."""
    if k > len(PRIMES):
        raise DecodeError(f"at most {len(PRIMES)} counters supported, got {k}")
    n = config.a
    if n < 1:
        raise DecodeError(f"A = {n} is not a product encoding (expected A >= 1)")
    vec = []
    for p in PRIMES[:k]:
        c = 0
        while n % p == 0:
            n //= p
            c += 1
        vec.append(c)
    if n != 1:
        raise DecodeError(f"non-conforming residue {n} after factoring out {PRIMES[:k]}")
    return tuple(vec)


def decode_stack(value: int, alphabet: tuple[str, ...]) -> tuple[str, ...]:
    """Numeral -> stack, bottom first. The least significant digit is the
    stack top; digit 0 never occurs inside a valid numeral."""
    base = len(alphabet) + 1
    top_first = []
    while value:
        d = value % base
        if d == 0:
            raise DecodeError(f"embedded stack-bottom digit in numeral {value}")
        top_first.append(alphabet[d - 1])
        value //= base
    return tuple(reversed(top_first))


# --- pipeline ----------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    """``tsm`` holds ``tm`` itself, the two-stack stage's machine. It is kept
    only because the benchmark reads it; the next change to the benchmark
    drops it."""

    tm: TuringMachine
    tsm: TuringMachine
    mcm: Program
    program: Program
    tm_result: TmResult
    tsm_result: TsmResult
    mcm_result: McmResult
    cm_result: RunResult
    mcm_tape: tuple[str, ...] | None
    cm_counters: tuple[int, ...] | None
    agreements: dict[str, bool | None]  # None = stage skipped (fuel exhausted)

    @property
    def ok(self) -> bool:
        return all(v is not False for v in self.agreements.values())


def run_pipeline(tm: TuringMachine, fuel_per_stage: int = 1_000_000) -> PipelineReport:
    mcm = two_stack_to_counters(tm)
    program = k_counters_to_two(mcm)

    tm_res = tm_run(tm, fuel_per_stage)
    tsm_res = tsm_run(tm, fuel_per_stage)
    mcm_res = mcm_run(mcm, fuel_per_stage)
    cm_res = run(program, fuel=fuel_per_stage)

    agreements: dict[str, bool | None] = {}
    if tm_res.halted and tsm_res.halted:
        agreements["tm/tsm"] = tm_res.tape == tsm_res.tape
    else:
        agreements["tm/tsm"] = None if not (tm_res.halted or tsm_res.halted) else False

    mcm_tape = None
    if mcm_res.halted:
        left = decode_stack(mcm_res.counters[_L], tm.alphabet)
        right = decode_stack(mcm_res.counters[_R], tm.alphabet)
        mcm_tape = _stacks_to_tape(left, right, tm.blank)
        agreements["tsm/mcm"] = tsm_res.halted and mcm_tape == tsm_res.tape
    else:
        agreements["tsm/mcm"] = None

    cm_counters = None
    if cm_res.halted:
        cm_counters = decode_counters(cm_res.final, mcm.num_counters)
        agreements["mcm/2cm"] = mcm_res.halted and cm_counters == mcm_res.counters
    else:
        agreements["mcm/2cm"] = None

    return PipelineReport(
        tm=tm,
        tsm=tm,
        mcm=mcm,
        program=program,
        tm_result=tm_res,
        tsm_result=tsm_res,
        mcm_result=mcm_res,
        cm_result=cm_res,
        mcm_tape=mcm_tape,
        cm_counters=cm_counters,
        agreements=agreements,
    )
