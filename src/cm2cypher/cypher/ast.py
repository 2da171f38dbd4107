"""AST nodes and their evaluation semantics.

Values use native Python types: None (null), bool, int (64-bit checked),
str, list/range, dict. Semantics follow Cypher for the supported subset:
three-valued logic, null propagation through arithmetic and comparison,
null-on-missing for map keys and out-of-range list indexes, negative list
indexes counting from the end, truncating integer division, and a simple
CASE whose null subject never matches an arm.

One node class per construct: ``Literal`` holds every constant (null, a
boolean, an integer or a string) and ``Case`` both CASE forms, the searched
one having no subject. A node keeps its parse's ``lexer.Source`` and the
index of its piece; its ``line`` and ``column`` are worked out from them
only when read, for an error or on request.

A tree is evaluated by compiling it once into nested closures
``f(env, params)`` and calling the root (Feeley & Lapalme, "Using Closures
for Code Generation", 1987). Each node's ``_compile`` picks its operator's
code, captures its children's closures, and may only specialise without
changing results or errors. A ``reduce`` has a fixpoint exit, and then does
not bind its element. The exit applies when no ``Var`` in the body is named
like the element variable (shadowed mentions count too). The parser hands
each ``Reduce`` it builds that verdict, found as it builds the body, and the
node keeps it with that body: ``Reduce._compile`` uses it while the body is
still that node, and walks any other body, one built by hand or swapped in,
with ``_mentions``. Such a body sees only the accumulator and an environment
that does not change from one iteration to the next: the subset is pure and
deterministic, and every binder restores what it binds. So once an iteration
returns the accumulator object itself, every later iteration would return an
equal value without error, and the loop stops there: a halted fold costs the
steps to its halt, not its ``max_steps``. The loop of the fold's step
(below) also stops at a repeated value, by Brent's cycle detection (Brent,
"An improved Monte Carlo factorization algorithm", BIT 20, 1980; Floyd's
method is in Knuth, TAOCP vol. 2, 3.1, ex. 6). Two values are the same
(``_same_flat_map``) when both are flat maps with the same keys in the same
order and, for each key, values of one type among int, string, boolean and
null that are equal (``true`` is not ``1``): no operation of the subset
tells them apart. A map that holds a list or a map is never the same, so
the check never recurses. The loop runs in chunks of 1, 2, 4, ...
iterations. Each chunk keeps its first value as the anchor, and records the
anchor's ``acc.k`` when that is an int; a later value of the chunk, up to
the one the chunk ends with, is compared with the anchor only when its
``acc.k`` is that int, and at most ``CYCLE_COMPARES`` times. A match d
iterations after the anchor proves period d: each iteration is a function
of the accumulator alone, and the d iterations from the anchor to the match
ran without error, so every later iteration repeats one of them. The loop
then runs the iterations left modulo d and stops, with the value and the
outcome of the full fold. A fixpoint is the period d = 1. A cycle entered
by iteration t with period p is found within the first chunk that starts
at or after t and holds at least p iterations, when the anchor's ``acc.k``
recurs at most ``CYCLE_COMPARES`` times per period; so a fixpoint from
iteration t on is found by iteration 2t + 1. A fold with no cycle pays at
most ``CYCLE_COMPARES`` compares per chunk, O(log n) in all, and per
iteration a test of the compares left and, while any are, an int
comparison of the ``acc.k`` the loop reads anyway. The loop of the fold's
step holds its anchor as it holds the accumulator (below): the values and
the keys in order, compared by the same rule.
Any other body keeps the identity exit alone.

A ``reduce`` with the fixpoint exit whose body is the fold's step,
``CASE WHEN acc.k = <literal> THEN acc ELSE head([v IN [t[acc.k]] | m])
END`` with ``t`` a variable not named like the accumulator, reads its step
table at run time: once per call, the value ``c`` that ``env`` holds for
``t``. The purity argument above says that value cannot change during the
fold, whether a LET or an enclosing binder bound it. When ``c`` is a list,
the loop reads ``acc.k`` once per iteration. For an integer ``0 <= i <
len(c)`` other than the literal, the test is false and ``c[i]`` reads
without error, so the body's value is that of ``m`` with ``v`` known to be
``c[i]``. While the accumulator is a map that holds ``k``, the loop holds
it unboxed: a tuple of its values, and its keys in order, the layout
(allocation removal: Bolz et al., "Allocation removal by partial
evaluation in a tracing JIT", PEPM 2011). At the first visit to ``i``
under a layout in a call the loop generates that step as Python for the
layout (below), memoises it for the call and the layout, and calls it
directly after, as direct threading does (Ertl & Gregg, "The structure and
performance of efficient interpreters", 2003). The step takes the values
and returns those of the map it builds, so a live iteration builds no map:
the loop builds one, ``dict(zip(layout, values))``, only where a value
leaves it, for the whole body and once at its end. That map is new, with
the keys, order and values the body's map literal would have given. A
value of the whole body that is a map holding ``k`` is unboxed again, and
a new layout starts a new memo. So a fold over a program table generates
one step per state it visits, with every field of the entry folded, and
builds neither list of the comprehension nor any map. An integer equal to
an integer literal makes the test true, and the loop stops, as the body
would give the accumulator itself. A table that is missing or not a list,
any other accumulator or index, any index once ``MAX_SPECIALISED`` steps
have been generated in the call, whatever their layouts, and a step that
is refused or returns None run the whole body, compiled on first use, so a
fold that halts within the table never compiles it. ``head([v IN [c[e]] |
m])`` anywhere else takes the general path and builds its lists.

``_emit`` writes a step for a layout as the source of one function
``step(f0, f1, ..., k0, k1, ...)``, whose field ``fJ`` is the value of the
layout's J-th key, which the loop calls with no ``env`` and no closure, for
an int ``acc.k`` (never for ``true``, which hashes as ``1``). The emitter
covers only what a fold's step uses: a simple CASE whose subject is known
and whose matches are literals, which it reduces to the arm ``eq3`` picks;
at most one searched CASE on a path, whose tests are ``=`` between
operands; and a map literal whose keys, in order, are the layout's and
whose entries are known values, operands or ``+ - *`` of two operands, an
operand being a known int or a read of an accumulator's property, its
field. Known are ``v``, a scalar literal and a property of a known map or
null (``_known``). Any other node, a map of other keys, a read of a key
outside the layout, or a binder in the step that shadows the accumulator's
name, refuses the body. The loop records the refusal, and each visit to
that index under that layout runs the whole body: the closures of the
whole CASE, the two lists of the comprehension, a map and an ``env``
binding per iteration, where a generated step pays one call. A generated
step returns the values of the body's value, always a new map of the
layout's keys, or None wherever the closures must decide: a read that is
not an int, a result outside 64 bits, or a CASE that takes a missing ELSE.
On None the loop runs that iteration through the whole body, which
computes it again, so every value, error and position is the closures'. No
text of the query reaches ``compile()``: each literal and known value
enters as the default of a parameter ``k<n>``, fields are ``f<n>`` and
results ``t<n>``, and no key appears.
So the steps of one shape have one text, and share its code object through
``_shape``, a bounded memo keyed by the text: a step of a known shape costs
one walk of the body to emit, and a new shape one ``compile()`` more. There
is one compiled form per step; the closures of ``m`` are the reference the
tests hold each generated step to (closures against generated code: Feeley
& Lapalme above; on keeping a second tier only where it pays, Würthinger et
al., "One VM to rule them all", 2013).

``evaluator.evaluate`` is the one evaluation path: it compiles a tree, then
calls it, except that a tree made only of literals (the fold's program
table) is built as its value without compiling. Compiling recurses once per
nesting level, as evaluating does; ``evaluate`` maps the resulting
``RecursionError`` to EvalError.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import Any, Callable, Optional

from .errors import (
    DivisionByZero,
    EvalError,
    IntegerOverflow,
    TypeMismatch,
    UnknownParameter,
    UnknownVariable,
)
from .lexer import Source

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
# the most elements a comprehension reads or format_value renders from one
# list or range; a range is lazy, but both would materialise every element
MAX_LIST_LENGTH = 1_000_000
# the most steps one fold's loop generates, one per table index it visits
# under each layout; later indexes run the whole body, so a table visited
# once per entry costs neither an emission per entry nor the memory of its
# steps
MAX_SPECIALISED = 4096
# the most times a chunk of a fold's loop compares a value with its anchor
# (Reduce): in random_program(300073, 8) the anchor's state recurs twice per
# period (states 0, 4, 3, 0), and only the second recurrence is a repeat
CYCLE_COMPARES = 2

Value = Any  # None | bool | int | str | list | range | dict
Compiled = Callable[[dict, dict], Value]  # f(env, params)

_MISSING = object()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list(v) -> bool:
    return isinstance(v, (list, range))


def _length(v) -> int:
    """len() of a list or range: len() raises OverflowError on a range of more
    than sys.maxsize items. The evaluator's ranges all step by 1."""
    return max(0, v.stop - v.start) if type(v) is range else len(v)


def check_length(v, line: int | None = None, column: int | None = None) -> None:
    """EvalError for a list or range longer than MAX_LIST_LENGTH."""
    n = _length(v)
    if n > MAX_LIST_LENGTH:
        message = f"list of {n} elements exceeds the limit of {MAX_LIST_LENGTH}"
        raise EvalError(message, line, column)


def _check64(v: int, node: "Expr") -> int:
    if v < INT64_MIN or v > INT64_MAX:
        raise IntegerOverflow("integer out of 64-bit range", node.line, node.column)
    return v


def eq3(a: Value, b: Value) -> Optional[bool]:
    """Cypher equality: null-propagating, structural for lists and maps."""
    if a is None or b is None:
        return None
    a_bool, b_bool = isinstance(a, bool), isinstance(b, bool)
    if a_bool or b_bool:
        return a is b if (a_bool and b_bool) else False
    if _is_int(a) and _is_int(b):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if _is_list(a) and _is_list(b):
        if type(a) is range and type(b) is range:  # integers only: never null
            return a == b
        if _length(a) != _length(b):
            return False
        pairs = zip(a, b)
    elif isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False
        pairs = ((a[k], b[k]) for k in a)
    else:
        return False
    out: Optional[bool] = True
    for x, y in pairs:
        e = eq3(x, y)
        if e is False:
            return False
        if e is None:
            out = None
    return out


def _constant(value) -> Compiled:
    return lambda env, params: value


def _literal_value(node: "Expr"):
    """The value of a subtree made only of literals, else _MISSING."""
    kind = type(node)
    if kind is Literal:
        return node.value
    if kind is ListLit:
        items = []
        for e in node.items:
            v = _literal_value(e)
            if v is _MISSING:
                return _MISSING
            items.append(v)
        return items
    if kind is MapLit:
        entries = {}
        for k, e in node.items:
            v = _literal_value(e)
            if v is _MISSING:
                return _MISSING
            entries[k] = v
        return entries
    return _MISSING


def _restore(env: dict, name: str, saved) -> None:
    if saved is _MISSING:
        env.pop(name, None)
    else:
        env[name] = saved


def _mentions(tree: "Expr", name: str) -> bool:
    """Whether any Var in the tree is called name, shadowed by an inner binder
    or not: the safe side for the reduce fixpoint exit."""
    stack = [tree]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        kind = type(node)
        if kind is Var:
            if node.name == name:
                return True
        elif kind is list or kind is tuple:
            extend(node)  # a ListLit's items, MapLit entries, CASE arms, Call args
        elif isinstance(node, Expr):
            for slot in kind.__slots__:
                child = getattr(node, slot)
                if type(child) is not str:  # a name, a key or an operator
                    push(child)
    return False


def _known(node: "Expr", known: dict):
    """The value node has in a fold's step whose entry variable is bound as
    known says ({v: c[i]}), if reading it can neither raise nor build a new
    object; else _MISSING. Known are a name in known, a scalar literal, and a
    property of a known map or null."""
    kind = type(node)
    if kind is Var:
        return known.get(node.name, _MISSING)
    if kind is Literal:
        return node.value
    if kind is Prop:
        obj = _known(node.obj, known)
        if obj is None:
            return None
        if isinstance(obj, dict):
            return obj.get(node.key)
    return _MISSING


def _known_arm(case: "Case", known: dict):
    """The node a simple CASE evaluates when its subject is known and its
    matches are literals: the result of the arm eq3 picks, else the default
    (None when there is none). Else _MISSING."""
    if case.subject is None or not all(type(m) is Literal for m, _ in case.whens):
        return _MISSING
    s = _known(case.subject, known)
    if s is _MISSING:
        return _MISSING
    for match, result in case.whens:
        if eq3(s, match.value) is True:
            return result
    return case.default


class Expr:
    """A node of a parse tree, at piece ``at`` of its parse's ``source``. The
    node classes set these slots directly, not through super(): the parser
    builds one node per operand and operator."""

    __slots__ = ("source", "at")

    def __init__(self, source: Source, at: int):
        self.source = source
        self.at = at

    @property
    def line(self) -> int:
        return self.source.position(self.at)[0]

    @property
    def column(self) -> int:
        return self.source.position(self.at)[1]

    def _compile(self) -> Compiled:
        raise NotImplementedError


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value, source: Source, at: int):
        self.value = value  # None, a bool, an int or a str
        self.source = source
        self.at = at

    def _compile(self):
        return _constant(self.value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, source: Source, at: int):
        self.name = name
        self.source = source
        self.at = at

    def _compile(self):
        name = self.name

        def var(env, params):
            try:
                return env[name]
            except KeyError:
                message = f"variable {name!r} not defined"
                raise UnknownVariable(message, self.line, self.column) from None

        return var


class Param(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, source: Source, at: int):
        self.name = name
        self.source = source
        self.at = at

    def _compile(self):
        name = self.name

        def param(env, params):
            if name not in params:
                raise UnknownParameter(f"parameter ${name} not supplied", self.line, self.column)
            return params[name]

        return param


class MapLit(Expr):
    __slots__ = ("items",)

    def __init__(self, items: list[tuple[str, Expr]], source: Source, at: int):
        self.items = items
        self.source = source
        self.at = at

    def _compile(self):
        items = [(k, e._compile()) for k, e in self.items]

        def map_lit(env, params):
            # with a repeated key, the last value wins in the first key's position
            out = {}
            for k, f in items:
                out[k] = f(env, params)
            return out

        return map_lit


class ListLit(Expr):
    __slots__ = ("items",)

    def __init__(self, items: list[Expr], source: Source, at: int):
        self.items = items
        self.source = source
        self.at = at

    def _compile(self):
        items = [e._compile() for e in self.items]

        def list_lit(env, params):
            out = []
            for f in items:
                out.append(f(env, params))
            return out

        return list_lit


class Prop(Expr):
    __slots__ = ("obj", "key")

    def __init__(self, obj: Expr, key: str, source: Source, at: int):
        self.obj = obj
        self.key = key
        self.source = source
        self.at = at

    def _compile(self):
        key, f = self.key, self.obj._compile()

        def prop(env, params):
            v = f(env, params)
            if isinstance(v, dict):
                return v.get(key)
            if v is None:
                return None
            raise TypeMismatch(
                f"property access on non-map value of type {type(v).__name__}",
                self.line,
                self.column,
            )

        return prop


class Index(Expr):
    __slots__ = ("obj", "index")

    def __init__(self, obj: Expr, index: Expr, source: Source, at: int):
        self.obj = obj
        self.index = index
        self.source = source
        self.at = at

    def _compile(self):
        obj, index = self.obj._compile(), self.index._compile()

        def index_(env, params):
            container, idx = obj(env, params), index(env, params)
            if container is None or idx is None:
                return None
            if _is_list(container):
                if not _is_int(idx):
                    raise TypeMismatch("list index must be an integer", self.line, self.column)
                n = _length(container)
                if idx < 0:
                    idx += n
                if 0 <= idx < n:
                    return container[idx]
                return None
            if isinstance(container, dict):
                if not isinstance(idx, str):
                    raise TypeMismatch("map index must be a string", self.line, self.column)
                return container.get(idx)
            raise TypeMismatch(
                f"cannot index value of type {type(container).__name__}", self.line, self.column
            )

        return index_


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr, source: Source, at: int):
        self.operand = operand
        self.source = source
        self.at = at

    def _compile(self):
        operand = self.operand._compile()

        def not_(env, params):
            v = operand(env, params)
            if v is None:
                return None
            if isinstance(v, bool):
                return not v
            raise TypeMismatch("NOT requires a boolean", self.line, self.column)

        return not_


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr, source: Source, at: int):
        self.operand = operand
        self.source = source
        self.at = at

    def _compile(self):
        operand = self.operand._compile()

        def neg(env, params):
            v = operand(env, params)
            if v is None:
                return None
            if _is_int(v):
                return _check64(-v, self)
            raise TypeMismatch("unary minus requires an integer", self.line, self.column)

        return neg


def _divide(l: int, r: int) -> int:
    q = abs(l) // abs(r)
    return -q if (l < 0) != (r < 0) else q


def _modulo(l: int, r: int) -> int:
    m = abs(l) % abs(r)  # the remainder takes the sign of the dividend
    return -m if l < 0 else m


_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "%": _modulo}
_BY_ZERO = {"/": "division by zero", "%": "modulo by zero"}


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, source: Source, at: int):
        self.op = op
        self.left = left
        self.right = right
        self.source = source
        self.at = at

    def _compile(self):
        op, compute = self.op, _ARITHMETIC.get(self.op)
        left, right = self.left._compile(), self.right._compile()
        if op == "AND" or op == "OR":
            decisive = op == "OR"  # the left value that decides without the right
            other = not decisive

            def logic(env, params):
                l = left(env, params)
                if l is decisive:
                    return decisive
                r = right(env, params)
                if l is not None and l is not other or r is not None and type(r) is not bool:
                    raise TypeMismatch(f"{op} requires booleans", self.line, self.column)
                if r is decisive:
                    return decisive
                return None if l is None or r is None else other

            return logic
        if op == "=" or op == "<>":
            equal = op == "="

            def equality(env, params):
                e = eq3(left(env, params), right(env, params))
                return None if e is None else e is equal

            return equality
        if op in _ORDERINGS:
            compare = _ORDERINGS[op]

            def ordering(env, params):
                l, r = left(env, params), right(env, params)
                if l is None or r is None:
                    return None
                if _is_int(l) and _is_int(r) or (isinstance(l, str) and isinstance(r, str)):
                    return compare(l, r)
                return None  # incomparable types order as null

            return ordering

        def checked(env, params):
            l, r = left(env, params), right(env, params)
            if l is None or r is None:
                return None
            if not (_is_int(l) and _is_int(r)):
                raise TypeMismatch(
                    f"operator {op} requires integers, got "
                    f"{type(l).__name__} and {type(r).__name__}",
                    self.line,
                    self.column,
                )
            if compute is None:
                raise AssertionError(f"unknown operator {op}")
            if r == 0 and op in _BY_ZERO:
                raise DivisionByZero(_BY_ZERO[op], self.line, self.column)
            return _check64(compute(l, r), self)

        return checked


class Case(Expr):
    """Both CASE forms: a subject of None is the searched form."""

    __slots__ = ("subject", "whens", "default")

    def __init__(self, subject, whens, default, source, at):
        self.subject = subject
        self.whens = whens  # list of (match or condition expr, result expr)
        self.default = default
        self.source = source
        self.at = at

    def _compile(self):
        default = self.default._compile() if self.default is not None else _constant(None)
        if self.subject is None:
            arms = [(c._compile(), result._compile()) for c, result in self.whens]

            def searched_case(env, params):
                for cond, result in arms:
                    c = cond(env, params)
                    if c is True:
                        return result(env, params)
                    if c is not None and c is not False:
                        raise TypeMismatch("CASE condition must be boolean", self.line, self.column)
                return default(env, params)

            return searched_case
        subject = self.subject._compile()
        arms = [(match._compile(), result._compile()) for match, result in self.whens]

        def simple_case(env, params):
            s = subject(env, params)
            if s is not None:  # a null subject never matches an arm
                for match, result in arms:
                    if eq3(s, match(env, params)) is True:
                        return result(env, params)
            return default(env, params)

        return simple_case


def _same_flat_map(a, b) -> bool:
    """Whether a and b are maps with the same keys in the same order, or
    tuples of the values of two such maps (as the fold's loop holds them),
    whose values are, key by key, of one type among int, str, bool and null
    and equal: no operation of the subset tells such maps apart. A list or
    map value is never the same, so the check never recurses."""
    if type(a) is dict and type(b) is dict and list(a) == list(b):
        a, b = tuple(a.values()), tuple(b.values())
    if type(a) is not tuple or type(b) is not tuple or len(a) != len(b):
        return False
    for va, vb in zip(a, b):
        kind = type(va)
        if kind is not type(vb) or kind not in (int, str, bool, type(None)) or va != vb:
            return False
    return True


def _fold_step(body: Expr, acc_name: str) -> Optional[tuple]:
    """(k, lit, t, v, m) when body is a fold's step, CASE WHEN acc.k = lit THEN
    acc ELSE head([v IN [t[acc.k]] | m]) END with both reads of the same k and
    t a variable not named acc_name; else None. When env holds a list c for
    t, then for a map acc whose acc.k is an int i other than lit with 0 <= i <
    len(c), the test is false and [t[i]] is [c[i]], both without error, so
    the body's value is m's with v bound to c[i]."""
    if not (type(body) is Case and body.subject is None and len(body.whens) == 1):
        return None
    (cond, result), head = body.whens[0], body.default
    if not (type(cond) is Binary and cond.op == "=" and type(cond.right) is Literal):
        return None
    if not (type(result) is Var and result.name == acc_name):
        return None
    if not (type(head) is Call and head.name == "head" and type(head.args[0]) is Comprehension):
        return None
    bind = head.args[0]
    items = bind.list_expr.items if type(bind.list_expr) is ListLit else ()
    if bind.where is not None or bind.mapper is None or len(items) != 1:
        return None
    if type(items[0]) is not Index:
        return None
    test, index = cond.left, items[0].index
    if not (type(test) is type(index) is Prop and type(test.obj) is type(index.obj) is Var):
        return None
    if not (test.obj.name == index.obj.name == acc_name and test.key == index.key):
        return None
    table = items[0].obj
    if type(table) is not Var or table.name == acc_name:
        return None
    return test.key, cond.right.value, table.name, bind.var_name, bind.mapper


class _Refused(Exception):
    """A node the step emitter does not cover."""


class _StepSource:
    """The lines of a generated step, def step(f0, f1, ..., k0, k1, ...), and
    the values of k0, k1, ...: each literal and known value the body uses.
    fJ is the value of the accumulator's J-th key in layout, which known does
    not hold; a read of a key checks its field to be an int once on each
    path, and tN holds a sum, difference or product, checked to fit 64 bits.
    The step returns the values of the map it builds, whose keys are the
    layout's; anything else the whole body must decide returns None."""

    def __init__(self, acc_name: str, known: dict, layout: tuple):
        self.acc_name, self.known, self.layout = acc_name, known, layout
        self.fields = {key: f"f{j}" for j, key in enumerate(layout)}
        self.lines: list[str] = []
        self.defaults: list = []
        self.temps = 0

    def const(self, value) -> str:
        self.defaults.append(value)
        return f"k{len(self.defaults) - 1}"

    def bail_if(self, test: str, pad: str) -> None:
        self.lines += [f"{pad}if {test}:", f"{pad}    return None"]

    def operand(self, node: "Expr", pad: str, scope: set) -> str:
        """The name of node's value, an int: a known int or a read of the
        accumulator, which a key outside the layout refuses."""
        known = _known(node, self.known)
        if type(known) is int:
            return self.const(known)
        if type(node) is Prop and type(node.obj) is Var and node.obj.name == self.acc_name:
            field = self.fields.get(node.key)
            if field is None:
                raise _Refused
            if field not in scope:  # one check per field on each path
                scope.add(field)
                self.bail_if(f"type({field}) is not int", pad)
            return field
        raise _Refused

    def value(self, node: "Expr", pad: str, scope: set) -> str:
        """The name of a map entry's value: a known value, an operand, or
        + - * of two operands."""
        known = _known(node, self.known)
        if known is not _MISSING:
            return self.const(known)
        if type(node) is Binary and node.op in ("+", "-", "*"):
            left, right = self.operand(node.left, pad, scope), self.operand(node.right, pad, scope)
            name = f"t{self.temps}"
            self.temps += 1
            self.lines.append(f"{pad}{name} = {left} {node.op} {right}")
            self.bail_if(f"not {INT64_MIN} <= {name} <= {INT64_MAX}", pad)
            return name
        return self.operand(node, pad, scope)

    def body(self, node: Optional["Expr"], pad: str, scope: set, searched=False) -> None:
        """Lines that return the values of node's value, a new map whose keys
        are the layout's, in order; a map of other keys refuses the body.
        None is a missing ELSE, whose null the whole body gives. A path holds
        at most one searched CASE, so the lines nest at most one level."""
        if node is None:
            self.lines.append(f"{pad}return None")
        elif type(node) is MapLit:
            if tuple(k for k, _ in node.items) != self.layout:
                raise _Refused
            values = [self.value(e, pad, scope) for _, e in node.items]
            self.lines.append(f"{pad}return " + ", ".join(values) + ",")
        elif type(node) is Case and node.subject is None and not searched:
            for cond, result in node.whens:  # tests of = between operands
                if not (type(cond) is Binary and cond.op == "="):
                    raise _Refused
                left, right = self.operand(cond.left, pad, scope), self.operand(cond.right, pad, scope)
                self.lines.append(f"{pad}if {left} == {right}:")
                self.body(result, pad + "    ", set(scope), True)
            self.body(node.default, pad, scope, True)
        elif type(node) is Case and (arm := _known_arm(node, self.known)) is not _MISSING:
            self.body(arm, pad, scope, searched)
        else:
            raise _Refused


# the globals of a generated step: no builtins but the two it names
_STEP_GLOBALS = {"__builtins__": {}, "type": type, "int": int}


@functools.lru_cache(maxsize=64)
def _shape(text: str) -> CodeType:
    """The code of a generated step's text, which every body of its shape
    shares: the text holds no value of the query."""
    module = compile(text, "<fold step>", "exec")
    return next(c for c in module.co_consts if type(c) is CodeType)


def _emit(body: "Expr", acc_name: str, known: dict, layout: tuple) -> Optional[Callable]:
    """body as a generated Python function of the values of an accumulator
    whose keys are layout, in order: it returns the values of body's value,
    a map of the same keys, with acc_name bound to the accumulator and the
    names of known to their values, or None wherever the whole body must
    decide. None for a body with a node it does not cover, a map of other
    keys or a read of a key outside layout, or whose acc_name a binder
    shadows (known then holds it)."""
    if acc_name in known:
        return None
    source = _StepSource(acc_name, known, layout)
    try:
        source.body(body, "    ", set())
    except (_Refused, RecursionError):
        return None
    params = [*source.fields.values(), *(f"k{n}" for n in range(len(source.defaults)))]
    text = "\n".join([f"def step({', '.join(params)}):", *source.lines, ""])
    return FunctionType(_shape(text), _STEP_GLOBALS, "step", tuple(source.defaults))


def _unbox(acc, key, memos: dict) -> tuple:
    """How the fold's loop holds a map that holds key (Reduce): its values,
    its keys in order (the layout), the position of key, and the memo of
    steps of the layout in memos. Four Nones for any other value."""
    if type(acc) is not dict or key not in acc:
        return None, None, None, None
    layout = tuple(acc)
    return tuple(acc.values()), layout, layout.index(key), memos.setdefault(layout, {})


class _Verdict(Expr):
    """A node that keeps a verdict of its parse. The slot lies outside the
    node's own __slots__, which name the fields tree walks visit
    (_mentions)."""

    __slots__ = ("verdict",)


class Reduce(_Verdict):
    """verdict is (the body the parse built, whether a Var in it is named
    like the element), or (body, None) when unknown."""

    __slots__ = ("acc_name", "init", "var_name", "list_expr", "body")

    def __init__(self, acc_name, init, var_name, list_expr, body, source, at, mentioned=None):
        self.acc_name = acc_name
        self.init = init
        self.var_name = var_name
        self.list_expr = list_expr
        self.body = body
        self.verdict = (body, mentioned)
        self.source = source
        self.at = at

    def _compile(self):
        acc_name, var_name = self.acc_name, self.var_name
        list_expr, init = self.list_expr._compile(), self.init._compile()
        # once a body blind to the element returns its accumulator itself,
        # every later iteration would give an equal value (module docstring);
        # the parse recorded whether the body it built names the element; a
        # body built by hand or swapped in is walked
        body, (parsed, mentioned) = self.body, self.verdict
        if parsed is not body or mentioned is None:
            mentioned = _mentions(body, var_name)
        fixpoint = not mentioned
        # a fold's step (_fold_step): the loop generates the step (_emit) of
        # each table index acc.k takes, at its first visit under each layout
        # in a call
        step = _fold_step(body, acc_name) if fixpoint else None
        step_key, halt, t, v, m = step or (_MISSING, None, None, None, None)
        halt = halt if type(halt) is int else None  # the test holds for no other i
        whole = None if step else body._compile()

        def reduce_(env, params):
            nonlocal whole
            items = list_expr(env, params)
            if not _is_list(items):
                raise TypeMismatch("reduce requires a list", self.line, self.column)
            acc = init(env, params)
            saved_acc = env.get(acc_name, _MISSING)
            saved_var = env.get(var_name, _MISSING)
            try:
                if fixpoint:  # no Var reads the element: it is not bound
                    # the step table, which no iteration can rebind (module
                    # docstring); with no list there, or no fold's step, the
                    # key is _MISSING, which no map holds
                    table = env.get(t)
                    key = step_key if type(table) is list else _MISSING
                    # a map that holds key is held unboxed (module docstring):
                    # vals its values, layout its keys, steps the layout's
                    # memo (by index: its generated step, or False where _emit
                    # gives none); acc is their map while vals is boxed, and
                    # budget counts the steps left to generate in the call
                    memos, budget = {}, MAX_SPECIALISED
                    vals, layout, at, steps = _unbox(acc, key, memos)
                    boxed = vals
                    # a fold's step also stops at a repeated value (Brent,
                    # module docstring): each chunk of 1, 2, 4, ... iterations
                    # keeps its first value as the anchor, and compares a
                    # later value whose acc.k is the anchor's int with it, at
                    # most CYCLE_COMPARES times; a match d iterations on
                    # leaves what is left modulo d to run, with no anchor
                    left, size, tries, seek = _length(items), 1, 0, True
                    while left:
                        if seek:  # the last chunk's last value, then a new anchor
                            i = vals[at] if vals is not None else None
                            if tries and i == ak and layout == anchor_layout \
                                    and _same_flat_map(vals, anchor):
                                left, tries, seek = left % chunk, 0, False
                            else:
                                anchor, anchor_layout, ak = vals, layout, i
                                tries = CYCLE_COMPARES if type(i) is int else 0
                        chunk = min(size, left)
                        left -= chunk
                        size *= 2
                        for d in range(chunk):
                            i = vals[at] if vals is not None else None
                            if type(i) is int:  # not true, which hashes as 1
                                if tries and i == ak and d:  # the anchor's acc.k, d iterations on
                                    if layout == anchor_layout and _same_flat_map(vals, anchor):
                                        left, tries, seek = (left + chunk - d) % d, 0, False
                                        break
                                    tries -= 1
                                g = steps.get(i)
                                if g is None:
                                    if i == halt:  # the test holds: the body gives acc itself
                                        left = 0
                                        break
                                    if 0 <= i < len(table) and budget:
                                        budget -= 1
                                        known = {v: table[i]}
                                        g = steps[i] = _emit(m, acc_name, known, layout) or False
                                if g:
                                    value = g(*vals)
                                    if value is not None:
                                        vals = value
                                        continue
                            # the whole body decides the rest, compiled on first
                            # use, on the map of vals
                            if vals is not boxed:
                                acc, boxed = dict(zip(layout, vals)), vals
                            if whole is None:
                                whole = body._compile()
                            env[acc_name] = acc
                            value = whole(env, params)
                            if value is acc:
                                left = 0
                                break
                            acc = value  # unboxed again; a new layout takes its own memo
                            vals = tuple(acc.values()) if type(acc) is dict and key in acc else None
                            if vals is not None and tuple(acc) != layout:
                                vals, layout, at, steps = _unbox(acc, key, memos)
                            boxed = vals
                    if vals is not boxed:  # the value leaves the loop as a map
                        acc = dict(zip(layout, vals))
                else:
                    for x in items:
                        env[acc_name] = acc
                        env[var_name] = x
                        acc = whole(env, params)
            finally:
                _restore(env, acc_name, saved_acc)
                _restore(env, var_name, saved_var)
            return acc

        return reduce_


class Comprehension(Expr):
    __slots__ = ("var_name", "list_expr", "where", "mapper")

    def __init__(self, var_name, list_expr, where, mapper, source, at):
        self.var_name = var_name
        self.list_expr = list_expr
        self.where = where
        self.mapper = mapper
        self.source = source
        self.at = at

    def _compile(self):
        var_name, list_expr = self.var_name, self.list_expr._compile()
        where = self.where._compile() if self.where is not None else None
        mapper = self.mapper._compile() if self.mapper is not None else None

        def comprehension(env, params):
            items = list_expr(env, params)
            if items is None:
                return None
            if not _is_list(items):
                raise TypeMismatch("list comprehension requires a list", self.line, self.column)
            check_length(items, self.line, self.column)
            saved = env.get(var_name, _MISSING)
            out = []
            try:
                for x in items:
                    env[var_name] = x
                    if where is not None and where(env, params) is not True:
                        continue
                    out.append(mapper(env, params) if mapper is not None else x)
            finally:
                _restore(env, var_name, saved)
            return out

        return comprehension


class Call(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list[Expr], source: Source, at: int):
        self.name = name
        self.args = args
        self.source = source
        self.at = at

    def _compile(self):
        if self.name == "head":
            arg = self.args[0]._compile()

            def head(env, params):
                v = arg(env, params)
                if v is None:
                    return None
                if not _is_list(v):
                    raise TypeMismatch("head requires a list", self.line, self.column)
                return v[0] if v else None

            return head
        if self.name == "range":
            low, high = (a._compile() for a in self.args)

            def range_(env, params):
                lo, hi = low(env, params), high(env, params)
                if lo is None or hi is None:
                    return None
                if not (_is_int(lo) and _is_int(hi)):
                    raise TypeMismatch("range requires integers", self.line, self.column)
                # inclusive of both ends; lazy so huge bounds stay cheap
                return range(lo, hi + 1)

            return range_
        raise AssertionError(f"unknown function {self.name}")


@dataclass(frozen=True)
class ReturnItem:
    expr: Expr
    alias: str


@dataclass(frozen=True)
class QueryAst:
    bindings: tuple[tuple[str, Expr], ...]
    returns: tuple[ReturnItem, ...]
