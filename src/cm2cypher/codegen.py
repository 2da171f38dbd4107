"""Generators for the three Cypher-25 query forms.

* reduce  -- a single pure RETURN that folds the machine over range(),
* tx      -- a three-query script (setup, IN TRANSACTIONS stepper, readback)
             using graph storage for the machine state,
* qpp     -- graph setup plus a quantified-path-pattern traversal whose
             allReduce predicate prunes invalid counter branches.

Output is a house style (two-space indent, one clause per line). The
whitespace-insensitive comparison runs on the Cypher subset's lexer, so a
comment marker inside a string is string content to it exactly as to the
parser, and the primitive lint is the parser's verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cypher.errors import CypherError
from .cypher.lexer import STRING, tokenize
from .cypher.parser import parse_query
from .frontend import to_map_document
from .machine import COUNTER_NAMES, INT64_MAX, Halt, Inc, JzDec, Program, require_two_counters

DIALECT_HEADER = "CYPHER 25"
DEFAULT_MAX_STEPS = 1_000_000
DEFAULT_MAX_PATH = INT64_MAX


@dataclass(frozen=True)
class CypherQuery:
    text: str


@dataclass(frozen=True)
class ScriptBundle:
    """The tx script's three queries, run in the order setup, main,
    readback, and the parameter document of main's ``$program``, if any."""

    setup: CypherQuery
    main: CypherQuery
    readback: CypherQuery
    parameters: dict | None = None

    @property
    def queries(self) -> tuple[tuple[str, CypherQuery], ...]:
        """(label, query) in execution order, as bench/workloads.py reads
        them."""
        return (("setup", self.setup), ("main", self.main), ("readback", self.readback))


def _map_entry_literal(entry: dict) -> str:
    if entry["op"] == "JZDEC":
        return (
            f"{{state: {entry['state']}, op: 'JZDEC', counter: '{entry['counter']}', "
            f"q_zero: {entry['q_zero']}, q_pos: {entry['q_pos']}}}"
        )
    return (
        f"{{state: {entry['state']}, op: '{entry['op']}', counter: '{entry['counter']}', "
        f"next: {entry['next']}}}"
    )


def _program_literal(program: Program) -> str:
    entries = ",\n  ".join(_map_entry_literal(e) for e in to_map_document(program))
    return f"[\n  {entries}\n]"


_REDUCE_BODY = """\
LET result = reduce(
  machine = {state: 0, A: 0, B: 0},
  step IN range(1, max_steps) |
  CASE WHEN machine.state = -1
    THEN machine
    ELSE head([instr IN [program[machine.state]] |
      CASE instr.op
        WHEN 'INC' THEN
          CASE instr.counter
            WHEN 'A' THEN {state: instr.next, A: machine.A + 1, B: machine.B}
            WHEN 'B' THEN {state: instr.next, A: machine.A, B: machine.B + 1}
          END
        WHEN 'JZDEC' THEN
          CASE instr.counter
            WHEN 'A' THEN
              CASE WHEN machine.A = 0
                THEN {state: instr.q_zero, A: 0, B: machine.B}
                ELSE {state: instr.q_pos, A: machine.A - 1, B: machine.B}
              END
            WHEN 'B' THEN
              CASE WHEN machine.B = 0
                THEN {state: instr.q_zero, A: machine.A, B: 0}
                ELSE {state: instr.q_pos, A: machine.A, B: machine.B - 1}
              END
          END
        WHEN 'HALT' THEN {state: -1, A: machine.A, B: machine.B}
      END
    ])
  END
)
RETURN result
"""


def gen_reduce_query(program: Program, max_steps: int = DEFAULT_MAX_STEPS) -> CypherQuery:
    """Pure fold query: one reduce() iteration per machine step, with a
    halted-absorption branch and let-binding via head([... IN [...] | ...]).

    The absorption branch returns the accumulator itself, so the in-process
    evaluator stops the fold at the halt: a halting program costs the steps
    to its halt, not ``max_steps``."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if max_steps > INT64_MAX:
        raise ValueError(f"max_steps must be <= {INT64_MAX}")
    text = (
        f"{DIALECT_HEADER}\n"
        f"LET program = {_program_literal(program)}\n"
        f"LET max_steps = {max_steps}\n"
        + _REDUCE_BODY
    )
    return CypherQuery(text)


# the stepper in two halves; the program reference goes between them: the
# LET name program or the parameter $program
_TX_STEPPER_HEAD = """\
UNWIND range(1, 9223372036854775807) AS step
CALL (step) {
  MATCH (m:Machine)
  WITH m,
    CASE WHEN m.state = -1 THEN 1/0
      ELSE """
_TX_STEPPER_TAIL = """[m.state]
    END AS instr
  SET m.state = CASE instr.op
    WHEN 'INC' THEN instr.next
    WHEN 'JZDEC' THEN
      CASE instr.counter
        WHEN 'A' THEN
          CASE WHEN m.A = 0 THEN instr.q_zero ELSE instr.q_pos END
        WHEN 'B' THEN
          CASE WHEN m.B = 0 THEN instr.q_zero ELSE instr.q_pos END
      END
    WHEN 'HALT' THEN -1
    END,
  m.A = CASE
    WHEN instr.op = 'INC' AND instr.counter = 'A' THEN m.A + 1
    WHEN instr.op = 'JZDEC' AND instr.counter = 'A' AND m.A > 0 THEN m.A - 1
    ELSE m.A END,
  m.B = CASE
    WHEN instr.op = 'INC' AND instr.counter = 'B' THEN m.B + 1
    WHEN instr.op = 'JZDEC' AND instr.counter = 'B' AND m.B > 0 THEN m.B - 1
    ELSE m.B END
} IN TRANSACTIONS OF 1 ROW
  ON ERROR BREAK
"""


def gen_transactions_script(program: Program, parameter_mode: bool = False) -> ScriptBundle:
    """Setup / main / readback bundle.

    The stepper's 1/0 halt guard comes lexically before the program-index
    expression so ON ERROR BREAK terminates the loop after halting. By
    default the program is inlined as a LET list; ``parameter_mode``
    switches to a ``$program`` reference plus a parameter document.
    """
    setup = CypherQuery(f"{DIALECT_HEADER}\nCREATE (:Machine {{state: 0, A: 0, B: 0}});\n")
    if parameter_mode:
        main_text = f"{DIALECT_HEADER}\n" + _TX_STEPPER_HEAD + "$program" + _TX_STEPPER_TAIL
        parameters = {"program": to_map_document(program)}
    else:
        main_text = (
            f"{DIALECT_HEADER}\n"
            f"LET program = {_program_literal(program)}\n"
            + _TX_STEPPER_HEAD + "program" + _TX_STEPPER_TAIL
        )
        parameters = None
    readback = CypherQuery("MATCH (m:Machine) RETURN m;\n")
    return ScriptBundle(setup, CypherQuery(main_text), readback, parameters)


def gen_qpp_setup(program: Program) -> CypherQuery:
    """State-graph setup: one node per state (q<i>), :Init on state 0,
    :Halt on halt states; INC edges plus JZDEC_ZERO/JZDEC_POS edge pairs."""
    require_two_counters(program)
    lines = [DIALECT_HEADER]
    for i, instr in enumerate(program.instructions):
        labels = ":State"
        if i == 0:
            labels += ":Init"
        if isinstance(instr, Halt):
            labels += ":Halt"
        lines.append(f"CREATE (q{i}{labels} {{name: 'q{i}'}})")
    for i, instr in enumerate(program.instructions):
        if isinstance(instr, Inc):
            c = COUNTER_NAMES[instr.counter]
            lines.append(f"CREATE (q{i})-[:INC {{c: '{c}'}}]->(q{instr.next})")
        elif isinstance(instr, JzDec):
            c = COUNTER_NAMES[instr.counter]
            lines.append(f"CREATE (q{i})-[:JZDEC_ZERO {{c: '{c}'}}]->(q{instr.q_zero})")
            lines.append(f"CREATE (q{i})-[:JZDEC_POS {{c: '{c}'}}]->(q{instr.q_pos})")
    return CypherQuery("\n".join(lines) + "\n")


# the accumulator update, used by allReduce and by the final reduce
_QPP_UPDATE = """\
  CASE
    WHEN r:INC AND r.c = 'A' THEN {A: m.A + 1, B: m.B}
    WHEN r:INC AND r.c = 'B' THEN {A: m.A, B: m.B + 1}
    WHEN r:JZDEC_POS AND r.c = 'A' THEN {A: m.A - 1, B: m.B}
    WHEN r:JZDEC_POS AND r.c = 'B' THEN {A: m.A, B: m.B - 1}
    ELSE m
  END"""

# allReduce's predicate: each JZDEC edge agrees with the updated counter
_QPP_GUARD = """\
  CASE
    WHEN r:JZDEC_ZERO AND r.c = 'A' THEN m.A = 0
    WHEN r:JZDEC_ZERO AND r.c = 'B' THEN m.B = 0
    WHEN r:JZDEC_POS AND r.c = 'A' THEN m.A >= 0
    WHEN r:JZDEC_POS AND r.c = 'B' THEN m.B >= 0
    ELSE true
  END"""


def gen_qpp_query(max_path: int = DEFAULT_MAX_PATH) -> CypherQuery:
    """Traversal query. The allReduce predicate evaluates on the
    post-update accumulator, so the JZDEC_POS checks are >= 0, never > 0."""
    if max_path < 0:
        raise ValueError("max_path must be >= 0")
    if max_path > INT64_MAX:
        raise ValueError(f"max_path must be <= {INT64_MAX}")
    text = (
        f"{DIALECT_HEADER}\n"
        "MATCH REPEATABLE ELEMENTS\n"
        "  p = (init:Init)\n"
        "    -[rels:INC|JZDEC_ZERO|JZDEC_POS]->{0, " + str(max_path) + "}\n"
        "  (h:Halt)\n"
        "WHERE allReduce(\n"
        "  m = {A: 0, B: 0}, r IN rels |\n"
        + _QPP_UPDATE + ",\n"
        + _QPP_GUARD + "\n"
        ")\n"
        "RETURN rels, length(p) AS steps\n"
        "NEXT\n"
        "LET final = reduce(m = {A: 0, B: 0}, r IN rels |\n"
        + _QPP_UPDATE + "\n"
        ")\n"
        "RETURN steps, final.A AS ctrA, final.B AS ctrB\n"
    )
    return CypherQuery(text)


# --- normalization and linting -----------------------------------------


def normalize_tokens(text: str) -> list[str]:
    """Lexemes without comments and whitespace, strings quoted so that none
    equals an identifier. Raises CypherSyntaxError outside the subset."""
    return [f"'{t.lexeme}'" if t.kind == STRING else t.lexeme for t in tokenize(text)[:-1]]


def queries_token_equal(a: str, b: str) -> bool:
    """Equality up to whitespace and comments; raises like normalize_tokens."""
    return normalize_tokens(a) == normalize_tokens(b)


def lint_primitives(query: "CypherQuery | str") -> list[str]:
    """The parser's verdict on a reduce-approach query: ``[]`` when
    ``parse_query`` accepts the text, else the one ``CypherError`` it
    raised, as its string."""
    text = query.text if isinstance(query, CypherQuery) else query
    try:
        parse_query(text)
    except CypherError as exc:
        return [str(exc)]
    return []
