"""Query evaluation and canonical result formatting.

``evaluate`` compiles an expression into closures once (see ``ast``) and
calls them; ``run_query`` evaluates each LET binding and RETURN item that
way, handing in a snapshot of the earlier LET values as constants. It
refuses a parameter value outside the subset's domain before it evaluates
anything.
Compiling, evaluating and formatting recurse once per nesting level, and
``evaluate`` and ``format_results`` turn the ``RecursionError`` raised past
Python's recursion limit into EvalError. ``format_value`` renders no
list or range of more than ``ast.MAX_LIST_LENGTH`` elements; it raises
EvalError instead.
"""

from __future__ import annotations

from .ast import INT64_MAX, INT64_MIN, Expr, QueryAst, check_length
from .errors import EvalError, IntegerOverflow, TypeMismatch
from .parser import parse_query

_TOO_DEEP = "expression or value nested too deeply"
_SUBSET_TYPES = "only integers, strings, booleans, null, lists and maps are supported"
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


def _check_parameters(parameters: dict):
    """Each value must be null, a boolean, a 64-bit integer, a string, or a
    list or a map with string keys of such values, at any depth."""
    for name, value in parameters.items():
        stack, seen = [value], set()  # a shared or cyclic list or map is read once
        while stack:
            v = stack.pop()
            if isinstance(v, float):
                raise TypeMismatch(f"parameter {name!r} holds the float {v!r}; {_SUBSET_TYPES}")
            if isinstance(v, int) and not isinstance(v, bool) and not INT64_MIN <= v <= INT64_MAX:
                raise IntegerOverflow(
                    f"parameter {name!r} holds the integer {v}, outside the 64-bit range"
                )
            if isinstance(v, dict) and not all(isinstance(k, str) for k in v):
                raise TypeMismatch(f"parameter {name!r} holds a map key that is not a string")
            if isinstance(v, (list, dict)) and id(v) not in seen:
                seen.add(id(v))
                stack.extend(v.values() if isinstance(v, dict) else v)
            elif not (v is None or isinstance(v, (bool, int, str, list, dict))):
                raise TypeMismatch(f"parameter {name!r} holds a {type(v).__name__}; {_SUBSET_TYPES}")


def run_query(query: QueryAst, parameters: dict | None = None) -> dict:
    """The RETURN row, alias -> value; any parameters are checked first."""
    if parameters:
        _check_parameters(parameters)
    env: dict = {}
    for name, expr in query.bindings:  # every earlier LET value is a constant
        env[name] = evaluate(expr, env, parameters, dict(env))
    return {item.alias: evaluate(item.expr, env, parameters, dict(env)) for item in query.returns}


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
