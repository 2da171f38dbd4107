"""cm2cypher: a 2-counter machine toolkit with Cypher query generation.

Parses and interprets 2-counter machine programs, compiles them to three
Cypher-25 query forms (pure reduce fold, IN TRANSACTIONS stepper, QPP
traversal), realizes the Turing-machine-to-counter-machine reduction, and
evaluates generated pure-expression queries in-process for differential
verification.
"""

from .codegen import (
    CypherQuery,
    ScriptBundle,
    gen_qpp_query,
    gen_qpp_setup,
    gen_reduce_query,
    gen_transactions_script,
    lint_primitives,
    normalize_tokens,
    queries_token_equal,
)
from .frontend import (
    DocumentError,
    DslError,
    format_trace,
    from_map_document,
    parse_dsl,
    random_program,
    render_dsl,
    to_map_document,
)
from .machine import (
    Config,
    CounterOverflow,
    Halt,
    Inc,
    InvalidProgram,
    JzDec,
    NoPath,
    PathResult,
    Program,
    RunResult,
    TraceRow,
    qpp_walk,
    run,
)

__version__ = "0.1.0"
