"""Query evaluation and canonical result formatting.

``evaluate`` compiles an expression into closures once (see ``ast``) and
calls them; ``run_query`` evaluates each LET binding and RETURN item that
way, handing in a snapshot of the earlier LET values as constants.
Compiling, evaluating and formatting recurse once per nesting level, and
``evaluate`` and ``format_results`` turn the ``RecursionError`` raised past
Python's recursion limit into EvalError. ``format_value`` renders no
list or range of more than ``ast.MAX_LIST_LENGTH`` elements; it raises
EvalError instead.
"""

from __future__ import annotations

from .ast import Expr, QueryAst, check_length
from .errors import CypherSyntaxError, EvalError
from .parser import parse_query

_TOO_DEEP = "expression or value nested too deeply"
# the control characters the lexer decodes are escaped back, so that a
# result stays on one line
_STRING_ESCAPES = str.maketrans({
    "\\": "\\\\", "'": "\\'", "\n": "\\n", "\t": "\\t", "\r": "\\r", "\b": "\\b", "\f": "\\f",
})


def evaluate(
    expr: Expr,
    environment: dict | None = None,
    parameters: dict | None = None,
    constants: dict | None = None,
):
    """The value of expr. constants, if given, maps names to the values the
    environment holds for them, which the compiler may then fold (see ast)."""
    try:
        return expr.eval(environment or {}, parameters or {}, constants)
    except RecursionError:
        raise EvalError(_TOO_DEEP) from None


def run_query(query: QueryAst, parameters: dict | None = None) -> dict:
    env: dict = {}
    for name, expr in query.bindings:  # every earlier LET value is a constant
        env[name] = evaluate(expr, env, parameters, dict(env))
    results: dict = {}
    for item in query.returns:
        if item.alias in results:
            raise CypherSyntaxError(f"duplicate return alias {item.alias!r}")
        results[item.alias] = evaluate(item.expr, env, parameters, dict(env))
    return results


def run_query_text(text: str, parameters: dict | None = None) -> dict:
    """Parse and evaluate; returns a mapping alias -> value."""
    return run_query(parse_query(text), parameters)


def format_value(v) -> str:
    """Canonical single-line rendering; map keys sorted for display."""
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return "'" + v.translate(_STRING_ESCAPES) + "'"
    if isinstance(v, (list, range)):
        check_length(v)
        return "[" + ", ".join(format_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}:{format_value(v[k])}" for k in sorted(v)) + "}"
    raise TypeError(f"not a subset value: {type(v).__name__}")


def format_results(results: dict) -> str:
    """One-line rendering of a query result row.

    A single returned map is flattened to the map itself, matching the
    style of the published result boxes; otherwise aliases are shown.
    """
    try:
        if len(results) == 1:
            (value,) = results.values()
            if isinstance(value, dict):
                return format_value(value)
        return "{" + ", ".join(f"{k}:{format_value(v)}" for k, v in results.items()) + "}"
    except RecursionError:
        raise EvalError(_TOO_DEEP) from None
