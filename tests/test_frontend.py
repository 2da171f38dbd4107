import hashlib
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cm2cypher.frontend import (
    DocumentError,
    DslError,
    format_trace,
    from_map_document,
    parse_dsl,
    random_program,
    render_dsl,
    to_map_document,
)
from cm2cypher.machine import (
    Config,
    Halt,
    Inc,
    InvalidProgram,
    JzDec,
    Program,
    run,
)
from conftest import FIXTURES, JSON_VALUES

DEMO = Program(
    (
        Inc(0, 1),
        JzDec(1, 2, 3),
        Inc(1, 0),
        Halt(),
    )
)

DEMO_MAPS = [
    {"state": 0, "op": "INC", "counter": "A", "next": 1},
    {"state": 1, "op": "JZDEC", "counter": "B", "q_zero": 2, "q_pos": 3},
    {"state": 2, "op": "INC", "counter": "B", "next": 0},
    {"state": 3, "op": "HALT", "counter": "", "next": 3},
]


def test_parse_dsl_demo():
    text = "state 0: INC A -> 1\nstate 1: JZDEC B ? 2 : 3\nstate 2: INC B -> 0\nstate 3: HALT"
    assert parse_dsl(text) == DEMO


def test_parse_dsl_minimal():
    assert parse_dsl("state 0: HALT") == Program((Halt(),))


def test_parse_dsl_unknown_counter():
    with pytest.raises(DslError, match="unknown counter 'C'"):
        parse_dsl("state 0: INC C -> 0")


def test_parse_dsl_comments_blank_lines_and_order():
    text = "# comment\n\nstate 1: HALT\nstate 0: INC B -> 1  # trailing\n"
    assert parse_dsl(text) == Program((Inc(1, 1), Halt()))


def test_parse_dsl_duplicate_state():
    with pytest.raises(DslError, match="duplicate state 0"):
        parse_dsl("state 0: HALT\nstate 0: HALT")


def test_parse_dsl_sparse_states_rejected():
    with pytest.raises(DslError, match="missing state 1"):
        parse_dsl("state 0: HALT\nstate 2: HALT")
    # at the line that declares the highest state, which makes the range sparse
    for text, line in [("# x\nstate 0: HALT\nstate 2: HALT", 3),
                       ("state 3: HALT\n\nstate 0: HALT # the first", 1),
                       ("state 1: INC A -> 0\n# no state 0\n", 1)]:
        with pytest.raises(DslError) as exc_info:
            parse_dsl(text)
        got = exc_info.value
        assert (got.line, got.column) == (line, 1), text
    assert got.message == "missing state 0 (states must be dense 0..1)"


def test_parse_dsl_dangling_reference():
    with pytest.raises(DslError, match="dangling"):
        parse_dsl("state 0: INC A -> 7")
    # at the line that declares the state holding the reference
    text = "state 0: JZDEC A ? 0 : 1\nstate 1: HALT # done\n\nstate 2: INC B -> 9\n"
    with pytest.raises(DslError) as exc_info:
        parse_dsl(text)
    got = exc_info.value
    assert (got.message, got.line, got.column) == (
        "state 2: dangling reference to state 9 (valid range 0..2)", 4, 1)


def test_parse_dsl_syntax_error_position():
    with pytest.raises(DslError) as exc_info:
        parse_dsl("state 0: HALT\nbogus line")
    assert exc_info.value.line == 2


@pytest.mark.parametrize("text, column", [
    ("state 0: HALT\nstate 1:\n", 9),
    ("state 0: HALT\n  state 1 :   # no body\n", 15),
])
def test_parse_dsl_empty_instruction_body(text, column):
    with pytest.raises(DslError) as exc_info:
        parse_dsl(text)
    got = exc_info.value
    assert (type(got), got.message, got.line, got.column) == (
        DslError, "expected an instruction (INC, JZDEC or HALT)", 2, column
    )


@pytest.mark.parametrize("text, rest, column", [
    ("state 0: HALT extra", "extra", 15),
    ("state 0: HALT\x0cstate 1: HALT", "state 1: HALT", 15),
    ("state 0:  HALT \t x y  # comment", "x y", 18),
])
def test_parse_dsl_names_the_text_after_halt(text, rest, column):
    with pytest.raises(DslError) as exc_info:
        parse_dsl(text)
    got = exc_info.value
    assert (got.message, got.line, got.column) == (
        f"unexpected text after HALT: {rest!r}", 1, column)


# every character but \n and \r that str.splitlines ends a line at
@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"])
def test_parse_dsl_ends_lines_only_at_line_breaks(char):
    assert parse_dsl(f"state 0: HALT # page{char}break\n") == Program((Halt(),))
    # the lines after the comment keep their numbers
    text = f"# a{char}b\nstate 0: HALT\nbogus line\n"
    with pytest.raises(DslError) as exc_info:
        parse_dsl(text)
    assert (exc_info.value.line, exc_info.value.column) == (3, 1)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_parse_dsl_line_numbers_after_each_line_break(newline):
    text = newline.join(["# x", "state 0: HALT", "", "  bogus"]) + newline
    with pytest.raises(DslError) as exc_info:
        parse_dsl(text)
    assert (exc_info.value.line, exc_info.value.column) == (4, 3)


def test_to_map_document_demo():
    assert to_map_document(DEMO) == DEMO_MAPS


def test_to_map_document_halt_convention():
    assert to_map_document(Program((Halt(),))) == [
        {"state": 0, "op": "HALT", "counter": "", "next": 0}
    ]


def test_from_map_document_demo():
    assert from_map_document(DEMO_MAPS) == DEMO


def test_bundled_map_document_is_demo():
    doc = json.loads((FIXTURES / "demo.maps.json").read_text())
    assert from_map_document(doc) == DEMO
    assert to_map_document(DEMO) == doc


def test_from_map_document_empty():
    with pytest.raises(DocumentError, match="empty"):
        from_map_document([])


def test_from_map_document_state_position_mismatch():
    with pytest.raises(DocumentError, match="position"):
        from_map_document([{"state": 1, "op": "HALT", "counter": "", "next": 1}])


@pytest.mark.parametrize("doc", [
    [{"state": False, "op": "INC", "counter": "A", "next": 0}],
    [{"state": 0, "op": "INC", "counter": "A", "next": False}],
    [{"state": 0, "op": "JZDEC", "counter": "B", "q_zero": True, "q_pos": 0},
     {"state": 1, "op": "HALT", "counter": "", "next": 1}],
    [{"state": 0, "op": "JZDEC", "counter": "B", "q_zero": 1, "q_pos": True},
     {"state": 1, "op": "HALT", "counter": "", "next": 1}],
])
def test_from_map_document_rejects_booleans_as_state_ids(doc):
    # bool is an int in Python, so without the check false loads as state 0
    with pytest.raises(DocumentError):
        from_map_document(doc)


def test_from_map_document_missing_jzdec_targets():
    with pytest.raises(DocumentError, match="q_zero"):
        from_map_document([{"state": 0, "op": "JZDEC", "counter": "A", "next": 0}])


_ENTRIES = st.fixed_dictionaries({}, optional={
    key: values | JSON_VALUES for key, values in (
        ("state", st.integers(-1, 3)), ("op", st.sampled_from(["INC", "JZDEC", "HALT"])),
        ("counter", st.sampled_from(["A", "B", ""])), ("next", st.integers(-1, 3)),
        ("q_zero", st.integers(-1, 3)), ("q_pos", st.integers(-1, 3)))
})


@given(doc=st.lists(_ENTRIES, max_size=4) | JSON_VALUES)
@settings(max_examples=500, deadline=None)
def test_from_map_document_raises_only_document_error(doc):
    try:
        from_map_document(doc)
    except DocumentError:
        pass


_DSL_PIECES = ["state", " ", "\t", "0", "1", "9" * 5000, "\u0663", ":", "INC", "JZDEC", "HALT",
               "A", "B", "C", "->", "?", "#", "\n", "\xa0", "\x85"]


@given(text=st.lists(st.sampled_from(_DSL_PIECES), max_size=14).map("".join) | st.text())
@settings(max_examples=500, deadline=None)
def test_parse_dsl_raises_only_dsl_error(text):
    try:
        parse_dsl(text)
    except DslError:
        pass


_REFERENCE_LINE_RE = re.compile(r"^\s*state\s+([0-9]+)\s*:\s*(.*?)\s*$")
_REFERENCE_INC_RE = re.compile(r"^INC\s+(\w+)\s*->\s*([0-9]+)$")
_REFERENCE_JZDEC_RE = re.compile(r"^JZDEC\s+(\w+)\s*\?\s*([0-9]+)\s*:\s*([0-9]+)$")


def _reference_parse_dsl(text):
    """parse_dsl as it was before it read a well-formed line in one match;
    it reports a dangling reference at line 1."""
    def counter(name, line_no, col):
        if name not in ("A", "B"):
            raise DslError(f"unknown counter {name!r} (expected A or B)", line_no, col)
        return "AB".index(name)

    def state_number(digits, line_no, col):
        try:
            return int(digits)
        except ValueError:
            raise DslError(f"state number of {len(digits)} digits is too long",
                           line_no, col) from None

    by_state = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _REFERENCE_LINE_RE.match(line)
        if not m:
            col = len(line) - len(line.lstrip()) + 1
            raise DslError("expected 'state <n>: <instruction>'", line_no, col)
        state = state_number(m.group(1), line_no, m.start(1) + 1)
        body = m.group(2)
        body_col = m.start(2) + 1
        if state in by_state:
            raise DslError(
                f"duplicate state {state} (first declared on line {by_state[state][1]})",
                line_no, m.start(1) + 1)
        if body == "HALT":
            instr = Halt()
        elif body.startswith("INC"):
            im = _REFERENCE_INC_RE.match(body)
            if not im:
                raise DslError("expected 'INC <A|B> -> <n>'", line_no, body_col)
            instr = Inc(counter(im.group(1), line_no, body_col),
                        state_number(im.group(2), line_no, body_col + im.start(2)))
        elif body.startswith("JZDEC"):
            jm = _REFERENCE_JZDEC_RE.match(body)
            if not jm:
                raise DslError("expected 'JZDEC <A|B> ? <n_zero> : <n_pos>'", line_no, body_col)
            instr = JzDec(counter(jm.group(1), line_no, body_col),
                          state_number(jm.group(2), line_no, body_col + jm.start(2)),
                          state_number(jm.group(3), line_no, body_col + jm.start(3)))
        elif not body:
            raise DslError("expected an instruction (INC, JZDEC or HALT)", line_no, body_col)
        elif body.split()[0] == "HALT":
            rest = body[4:].lstrip()
            col = body_col + len(body) - len(rest)
            raise DslError(f"unexpected text after HALT: {rest!r}", line_no, col)
        else:
            raise DslError(f"unknown instruction {body.split()[0]!r}", line_no, body_col)
        by_state[state] = (instr, line_no)
    if not by_state:
        raise DslError("empty program", 1)
    n = len(by_state)
    for s in range(n):
        if s not in by_state:
            raise DslError(f"missing state {s} (states must be dense 0..{max(by_state)})", 1)
    try:
        return Program(tuple(by_state[s][0] for s in range(n)))
    except InvalidProgram as exc:
        raise DslError(str(exc), 1) from exc


def _dsl_outcome(parse, text):
    try:
        return parse(text)
    except DslError as exc:
        return exc.message, exc.line, exc.column


# blanks that \s matches and that end no line
_BLANKS = " \t\x0b\x0c\xa0\u2028"
_LONG_STATE_NUMBERS = ["007", "9" * 19, "1" + "0" * 4299, "1" + "0" * 4300]


@st.composite
def _dsl_lines(draw):
    """The lines of a .2cm text and the end of each. A line is an
    instruction with a run of blanks at every gap, perhaps with a trailing
    comment, a blank line, or a comment. The instructions mostly declare the
    states 0..n-1 in some order, a gap that needs a blank mostly has one,
    and most counters are A or B, so many texts are programs."""
    def gap(needed=False):
        min_size = 1 if needed and draw(st.integers(0, 7)) < 7 else 0
        return draw(st.text(_BLANKS, min_size=min_size, max_size=3))

    def number():
        k = draw(st.integers(0, 15))
        if k < 11:
            return str(k % 4)
        if k < 13:
            return draw(st.sampled_from(_LONG_STATE_NUMBERS))
        # past int()'s limit of 4300 digits one time in two
        return "9" * draw(st.integers(1, 5000) if k < 14 else st.integers(4250, 5000))

    lines = []
    for state in draw(st.permutations(range(draw(st.integers(0, 4))))):
        kind = draw(st.sampled_from(["HALT", "INC", "JZDEC", "blank", "comment"]))
        if kind == "blank":
            lines.append(gap())
            continue
        if kind == "comment":
            lines.append(gap() + "# a comment")
            continue
        declared = number() if draw(st.integers(0, 3)) == 0 else str(state)
        line = gap() + "state" + gap(True) + declared + gap() + ":" + gap() + kind
        if kind != "HALT":
            line += gap(True) + draw(st.sampled_from("AAABBBCa")) + gap()
        if kind == "INC":
            line += "->" + gap() + number()
        elif kind == "JZDEC":
            line += "?" + gap() + number() + gap() + ":" + gap() + number()
        lines.append(line + gap() + draw(st.sampled_from(["", "# done", "# state 0: HALT"])))
    return [(line, draw(st.sampled_from(["\n", "\r\n", "\r"]))) for line in lines]


@given(_dsl_lines())
@settings(max_examples=500, deadline=None)
@example([("state 0: JZDEC A ? 0 : 1", "\n"), ("state 1: HALT # done", "\n"), ("", "\n"),
          ("state 2: INC B -> 9", "\n")])
@example([("# x", "\n"), ("state 0: HALT", "\n"), ("state 2: HALT", "\n")])
# a '\r' end and the '\n' end after it are one line break
@example([("", "\r"), ("", "\n"), ("state\xa0007:HALT", "\n"), ("", "\n")])
def test_parse_dsl_equals_the_reference_parser(lines):
    text = "".join(line + end for line, end in lines)
    got = _dsl_outcome(parse_dsl, text)
    expected = _dsl_outcome(_reference_parse_dsl, text)
    # the reported line of the text as parse_dsl splits it, not of the
    # drawn items: a '\r' item and a '\n' item after it end one line
    split = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if isinstance(expected, tuple) and "dangling reference" in expected[0]:
        # reported at the line that declares the state, not at line 1
        message, line, column = got
        assert (message, column) == (expected[0], 1)
        holder = int(message.split(":", 1)[0].split()[1])
        declared = _REFERENCE_LINE_RE.match(split[line - 1].split("#", 1)[0])
        assert int(declared[1]) == holder
    elif isinstance(expected, tuple) and "missing state" in expected[0]:
        # reported at the line that declares the highest state, not at line 1
        message, line, column = got
        assert (message, column) == (expected[0], 1)
        highest = int(message.rsplit("..", 1)[1].rstrip(")"))
        declared = _REFERENCE_LINE_RE.match(split[line - 1].split("#", 1)[0])
        assert int(declared[1]) == highest
    else:
        assert got == expected


@pytest.mark.parametrize("text, column", [
    ("state " + "9" * 5000 + ": HALT", 7),
    ("state 0: INC A -> " + "9" * 5000, 19),
    ("state 0: JZDEC A ? 0 : " + "9" * 5000, 24),
], ids=["state", "inc-target", "jzdec-target"])
def test_parse_dsl_rejects_a_state_number_past_the_conversion_limit(text, column):
    with pytest.raises(DslError) as exc_info:
        parse_dsl(text)
    got = exc_info.value
    assert (got.message, got.line, got.column) == (
        "state number of 5000 digits is too long", 1, column)


def test_parse_dsl_reads_only_ascii_digits():
    # U+0663 is ARABIC-INDIC DIGIT THREE, which int() reads as 3
    with pytest.raises(DslError, match="expected 'state <n>: <instruction>'"):
        parse_dsl("state \u0663: HALT")


@given(seed=st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_map_document_round_trip(seed):
    program = random_program(seed, 10)
    assert from_map_document(to_map_document(program)) == program


@given(seed=st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_dsl_round_trip(seed):
    program = random_program(seed, 10)
    assert parse_dsl(render_dsl(program)) == program


def _cells(table: str) -> list[list[str]]:
    rows = []
    for line in table.splitlines():
        if "|" in line and not set(line) <= set("-+| "):
            rows.append([cell.strip() for cell in line.split("|")])
    return rows


def test_format_trace_demo_matches_reference_table():
    result = run(DEMO, fuel=100, capture_trace=True)
    rows = _cells(format_trace(result))
    assert rows[0] == ["Step", "Instr", "St", "A", "B"]
    assert rows[1:] == [
        ["0", "INC(A)", "q0", "0→1", "0"],
        ["1", "JZDEC(B), B=0", "q1", "1", "0"],
        ["2", "INC(B)", "q2", "1", "0→1"],
        ["3", "INC(A)", "q0", "1→2", "1"],
        ["4", "JZDEC(B), B>0", "q1", "2", "1→0"],
        ["5", "HALT", "q3", "2", "0"],
    ]


def test_format_trace_ascii_mode():
    result = run(DEMO, fuel=100, capture_trace=True)
    table = format_trace(result, ascii_mode=True)
    assert "0->1" in table
    assert "→" not in table


def test_format_trace_single_halt():
    result = run(Program((Halt(),)), fuel=10, capture_trace=True)
    rows = _cells(format_trace(result))
    assert rows[1] == ["0", "HALT", "q0", "0", "0"]


def test_format_trace_truncation_footer():
    p = Program((Inc(0, 0),))
    result = run(p, fuel=30, capture_trace=True, trace_cap=5)
    table = format_trace(result)
    assert "truncated" in table.splitlines()[-1]


@pytest.mark.parametrize("program, start, rows", [
    (Program((Inc(0, 1), Halt())), Config(0, 5, 7), [
        ["0", "INC(A)", "q0", "5→6", "7"],
        ["1", "HALT", "q1", "6", "7"],
    ]),
    (Program((JzDec(1, 1, 1), JzDec(0, 2, 2), Halt())), Config(0, 5, 7), [
        ["0", "JZDEC(B), B>0", "q0", "5", "7→6"],
        ["1", "JZDEC(A), A>0", "q1", "5→4", "6"],
        ["2", "HALT", "q2", "4", "6"],
    ]),
    (Program((Halt(), JzDec(0, 0, 0))), Config(1, 0, 3), [
        ["0", "JZDEC(A), A=0", "q1", "0", "3"],
        ["1", "HALT", "q0", "0", "3"],
    ]),
])
def test_format_trace_starts_from_the_run_start(program, start, rows):
    result = run(program, fuel=10, capture_trace=True, start=start)
    assert _cells(format_trace(result))[1:] == rows


def test_format_trace_requires_trace():
    result = run(DEMO, fuel=100)
    with pytest.raises(ValueError):
        format_trace(result)


def test_random_program_deterministic():
    assert random_program(0, 4) == random_program(0, 4)


def test_random_program_single_state_is_halt():
    assert random_program(5, 1) == Program((Halt(),))


def test_random_program_corpus_valid():
    for seed in range(1, 101):
        program = random_program(seed, 8)
        assert any(isinstance(i, Halt) for i in program.instructions)
        # Program construction re-validates target ranges
        assert Program(program.instructions) == program


def test_random_programs_are_pinned():
    # cm2cypher verify, its reproducer lines and the bench's verify-random
    # workload all draw their programs from random_program
    text = "".join(render_dsl(random_program(seed, 8)) for seed in range(1000))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4cf68db4b8c248b860b6a8fe3f7654b46855bde685942aa1fc609f3bccca384f"
    )


def test_bundled_demo_file(demo):
    assert demo == DEMO
