"""Program frontend: the `.2cm` DSL, the map-list JSON encoding, trace
tables, and a deterministic random-program generator.

DSL grammar, one instruction per line (`#` starts a comment):

    state <n>: INC <A|B> -> <n>
    state <n>: JZDEC <A|B> ? <n_zero> : <n_pos>
    state <n>: HALT

States may appear in any order but must form a dense 0..n-1 range; sparse
numbering is rejected rather than compacted so that generated query list
indices stay aligned with state ids. A dangling reference is reported at
the line of the state that holds it.

parse_dsl reads a well-formed line (counter A or B, no comment) with one
match of one pattern. Any other line (a comment, a blank line, another
counter, an error) is read piece by piece, which finds each error's column.
"""

from __future__ import annotations

import random
import re

from .machine import (
    COUNTER_NAMES,
    Halt,
    Inc,
    InvalidProgram,
    JzDec,
    Program,
    RunResult,
    require_two_counters,
)


class DslError(Exception):
    """Syntax or validation error in DSL text, with 1-based position."""

    def __init__(self, message: str, line: int, column: int = 1):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class DocumentError(Exception):
    """Schema violation in a map-list program document."""


# [0-9], not \d: \d also matches other scripts' digits, which int() would accept
_LINE_RE = re.compile(r"^\s*state\s+([0-9]+)\s*:\s*(.*?)\s*$")
_INC_RE = re.compile(r"^INC\s+(\w+)\s*->\s*([0-9]+)$")
_JZDEC_RE = re.compile(r"^JZDEC\s+(\w+)\s*\?\s*([0-9]+)\s*:\s*([0-9]+)$")
# a well-formed line of counter A or B and no comment, in one match: its
# state, then HALT, INC's counter and target, or JZDEC's counter and targets;
# the patterns above read every other line, and find its error
_WELL_FORMED = re.compile(
    r"\s*state\s+([0-9]+)\s*:\s*(?:HALT"
    r"|INC\s+([AB])\s*->\s*([0-9]+)"
    r"|JZDEC\s+([AB])\s*\?\s*([0-9]+)\s*:\s*([0-9]+))\s*"
).fullmatch


def _parse_counter(name: str, line_no: int, col: int) -> int:
    try:
        return COUNTER_NAMES.index(name)
    except ValueError:
        raise DslError(f"unknown counter {name!r} (expected A or B)", line_no, col) from None


def _parse_state(digits: str, line_no: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on integer string conversion
        raise DslError(f"state number of {len(digits)} digits is too long", line_no, col) from None


def _parse_body(body: str, body_col: int, line_no: int) -> Inc | JzDec | Halt:
    """The instruction of a line whose body the one-line match refused."""
    if body == "HALT":
        return Halt()
    if body.startswith("INC"):
        im = _INC_RE.match(body)
        if not im:
            raise DslError("expected 'INC <A|B> -> <n>'", line_no, body_col)
        return Inc(
            _parse_counter(im.group(1), line_no, body_col),
            _parse_state(im.group(2), line_no, body_col + im.start(2)),
        )
    if body.startswith("JZDEC"):
        jm = _JZDEC_RE.match(body)
        if not jm:
            raise DslError("expected 'JZDEC <A|B> ? <n_zero> : <n_pos>'", line_no, body_col)
        return JzDec(
            _parse_counter(jm.group(1), line_no, body_col),
            _parse_state(jm.group(2), line_no, body_col + jm.start(2)),
            _parse_state(jm.group(3), line_no, body_col + jm.start(3)),
        )
    if not body:
        raise DslError("expected an instruction (INC, JZDEC or HALT)", line_no, body_col)
    if body.split()[0] == "HALT":
        rest = body[4:].lstrip()
        col = body_col + len(body) - len(rest)
        raise DslError(f"unexpected text after HALT: {rest!r}", line_no, col)
    raise DslError(f"unknown instruction {body.split()[0]!r}", line_no, body_col)


def parse_dsl(text: str) -> Program:
    by_state: dict[int, tuple] = {}  # state -> (instruction, line_no)
    # only \n, \r\n and \r end a line; str.splitlines would also end one at
    # \x0b, \x0c, \x1c-\x1e, \x85, U+2028 or U+2029, say inside a comment
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        m = well_formed = _WELL_FORMED(raw)
        if not well_formed:
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            m = _LINE_RE.match(line)
            if not m:
                col = len(line) - len(line.lstrip()) + 1
                raise DslError("expected 'state <n>: <instruction>'", line_no, col)
        state = _parse_state(m[1], line_no, m.start(1) + 1)
        if state in by_state:
            raise DslError(
                f"duplicate state {state} (first declared on line {by_state[state][1]})",
                line_no,
                m.start(1) + 1,
            )
        if not well_formed:
            instr = _parse_body(m[2], m.start(2) + 1, line_no)
        elif m[2]:
            instr = Inc(COUNTER_NAMES.index(m[2]), _parse_state(m[3], line_no, m.start(3) + 1))
        elif m[4]:
            instr = JzDec(COUNTER_NAMES.index(m[4]), _parse_state(m[5], line_no, m.start(5) + 1),
                          _parse_state(m[6], line_no, m.start(6) + 1))
        else:
            instr = Halt()
        by_state[state] = (instr, line_no)

    if not by_state:
        raise DslError("empty program", 1)
    n = len(by_state)
    for s in range(n):
        if s not in by_state:  # at the line of the highest state, which makes the range sparse
            top = max(by_state)
            raise DslError(f"missing state {s} (states must be dense 0..{top})", by_state[top][1])
    try:
        return Program(tuple(by_state[s][0] for s in range(n)))
    except InvalidProgram as exc:  # a dangling reference: at its state's line
        raise DslError(str(exc), by_state[exc.state][1]) from exc


def render_dsl(program: Program) -> str:
    """Formatting inverse of parse_dsl."""
    require_two_counters(program)
    lines = []
    for i, instr in enumerate(program.instructions):
        if isinstance(instr, Inc):
            lines.append(f"state {i}: INC {COUNTER_NAMES[instr.counter]} -> {instr.next}")
        elif isinstance(instr, JzDec):
            name = COUNTER_NAMES[instr.counter]
            lines.append(f"state {i}: JZDEC {name} ? {instr.q_zero} : {instr.q_pos}")
        else:
            lines.append(f"state {i}: HALT")
    return "\n".join(lines) + "\n"


def to_map_document(program: Program) -> list[dict]:
    """Map-list encoding: HALT carries counter '' and next = own state."""
    require_two_counters(program)
    doc = []
    for i, instr in enumerate(program.instructions):
        if isinstance(instr, Inc):
            name = COUNTER_NAMES[instr.counter]
            doc.append({"state": i, "op": "INC", "counter": name, "next": instr.next})
        elif isinstance(instr, JzDec):
            doc.append(
                {
                    "state": i,
                    "op": "JZDEC",
                    "counter": COUNTER_NAMES[instr.counter],
                    "q_zero": instr.q_zero,
                    "q_pos": instr.q_pos,
                }
            )
        else:
            doc.append({"state": i, "op": "HALT", "counter": "", "next": i})
    return doc


def _is_state_id(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def from_map_document(doc: list[dict]) -> Program:
    if not isinstance(doc, list):
        raise DocumentError("program document must be a list of maps")
    if not doc:
        raise DocumentError("empty program")
    instrs: list[Inc | JzDec | Halt] = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise DocumentError(f"entry {i}: not a map")
        if not _is_state_id(entry.get("state")) or entry["state"] != i:
            raise DocumentError(f"entry {i}: state field {entry.get('state')!r} != position {i}")
        op = entry.get("op")
        if op in ("INC", "JZDEC"):
            counter = entry.get("counter")
            if counter not in COUNTER_NAMES:
                raise DocumentError(f"entry {i}: bad counter {counter!r}")
        if op == "INC":
            if not _is_state_id(entry.get("next")):
                raise DocumentError(f"entry {i}: INC requires integer 'next'")
            instrs.append(Inc(COUNTER_NAMES.index(counter), entry["next"]))
        elif op == "JZDEC":
            if not (_is_state_id(entry.get("q_zero")) and _is_state_id(entry.get("q_pos"))):
                raise DocumentError(f"entry {i}: JZDEC requires integer 'q_zero' and 'q_pos'")
            instrs.append(JzDec(COUNTER_NAMES.index(counter), entry["q_zero"], entry["q_pos"]))
        elif op == "HALT":
            instrs.append(Halt())
        else:
            raise DocumentError(f"entry {i}: unknown op {op!r}")
    try:
        return Program(tuple(instrs))
    except InvalidProgram as exc:
        raise DocumentError(str(exc)) from exc


def format_trace(result: RunResult, ascii_mode: bool = False) -> str:
    """Fixed-width table: Step | Instr | St | A | B.

    The mutated counter cell uses arrow notation (e.g. "0->1").
    """
    if result.trace is None:
        raise ValueError("run was executed without capture_trace")
    arrow = "->" if ascii_mode else "→"
    header = ["Step", "Instr", "St", "A", "B"]
    rows = []
    for row in result.trace:
        before, after = row.config_before, row.config_after
        a_cell = f"{before.a}{arrow}{after.a}" if after.a != before.a else str(before.a)
        b_cell = f"{before.b}{arrow}{after.b}" if after.b != before.b else str(before.b)
        rows.append([str(row.step), row.instruction_tag, f"q{before.state}", a_cell, b_cell])
    widths = [max(len(r[c]) for r in [header, *rows]) for c in range(5)]
    lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("-+-".join("-" * w for w in widths))
    for r in rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    if result.trace_truncated:
        lines.append(
            f"... trace truncated at {len(result.trace)} rows "
            f"({result.machine_steps} instructions executed)"
        )
    return "\n".join(lines) + "\n"


def random_program(seed: int, max_states: int) -> Program:
    """Deterministic pseudo-random valid program with at least one HALT."""
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    instrs: list[Inc | JzDec | Halt] = []
    for _ in range(n):
        kind = rng.choice(("INC", "INC", "JZDEC", "JZDEC", "HALT"))
        counter = rng.choice((0, 1))
        if kind == "INC":
            instrs.append(Inc(counter, rng.randrange(n)))
        elif kind == "JZDEC":
            instrs.append(JzDec(counter, rng.randrange(n), rng.randrange(n)))
        else:
            instrs.append(Halt())
    if not any(isinstance(x, Halt) for x in instrs):
        instrs[rng.randrange(n)] = Halt()
    return Program(tuple(instrs))
