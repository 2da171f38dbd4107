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
like the element variable (shadowed mentions count too). The parser records
that verdict as it builds the body, in the parse's ``Source``;
``Reduce._compile`` reads it when its body is the node it was recorded for
(the same parse, address and piece), and walks any other body, one built by
hand or swapped in, with ``_mentions``. The record keeps the body's address,
not the body: a body refers to its ``Source``, so holding it there would
make a cycle that only the garbage collector frees. Such a body sees only
the accumulator and an environment that does not change from one iteration
to the next: the subset is pure and deterministic, and every binder restores
what it binds. So once an iteration returns the accumulator object itself,
every later iteration would return an equal value without error, and the
loop stops there: a halted fold costs the steps to its halt, not its
``max_steps``. The loop of the fold's step (below) also stops at an equal
value: a flat map strictly equal to the accumulator it came from, with the
same keys in the same order and each value an int, string, boolean or null
of the same type and equal (``true`` is not ``1``). No operation of the
subset tells two such maps apart, so the same argument holds. A map that
holds a list or a map is never the same, so the check never recurses. The
loop checks only at the end of each chunk of 1, 2, 4, ... iterations, the
last value against the accumulator it came from: a fixpoint from iteration t
on is found by iteration 2t + 1, and a fold that never reaches one pays
O(log n) checks and nothing per iteration. Any other body keeps the identity
exit alone.

Compiling also threads constants, a partial evaluation (Jones, Gomard &
Sestoft, *Partial Evaluation and Automatic Program Generation*, 1993).
``_compile(consts)`` takes a map from names to the values ``env`` holds for
them throughout the evaluation; ``run_query`` hands each LET binding and
RETURN item a snapshot of the earlier LET values. A ``Var`` named in
``consts`` compiles to a constant that returns the very object an ``env``
lookup would. Every binder (``reduce``'s accumulator and element, a
comprehension's variable) drops the names it binds from ``consts`` before
compiling the code in its scope, so a shadowed name is read from ``env`` as
before. A property of a known map or null folds to a constant; a known
non-map keeps its closure and so its ``TypeMismatch`` at run time. A simple
CASE whose subject is known and whose match values are all literals
compiles only the arm ``eq3`` picks. A ``reduce`` with the fixpoint exit
whose body is the fold's step, ``CASE WHEN acc.k = <literal> THEN acc ELSE
head([v IN [c[acc.k]] | m]) END`` with ``c`` a known list, owns its step
table. Its loop reads ``acc.k`` once per iteration. For an integer ``0 <= i
< len(c)`` other than the literal, the test is false and ``c[i]`` reads
without error, so the body's value is that of an ``m`` compiled with ``v``
known to be ``c[i]``; the loop compiles that step body on the first visit
to ``i``, memoises it in the compiled closure, and calls it directly after,
as direct threading does (Ertl & Gregg, "The structure and performance of
efficient interpreters", 2003). So a fold over a program table compiles one
step body per state it visits, with every field of the entry folded, and
builds neither list of the comprehension. An integer equal to an integer
literal makes the test true, and the loop stops, as the body would give the
accumulator itself. Any other accumulator or index, and any index past
``MAX_SPECIALISED`` bodies, calls the whole body, compiled on first use, so
a fold that halts within the table never compiles it. ``head([v IN [c[e]]
| m])`` anywhere else takes the general path and builds its lists. No
value a result holds is built at compile time, so results, their identity,
errors and their positions stay as they are.

The hot steps of a fold run as generated Python. Once the loop has run
``HOT_ITERATIONS`` iterations, counted at the end of a chunk, a memoised
step body that runs again is written by ``_emit`` as the source of one
function ``step(acc, k0, k1, ...)``; a body that runs once, as most of a
long program's do, is never written. The loop then calls that function,
with no ``env`` and no closure, for an int ``acc.k`` that has one (never
for ``true``, which hashes as ``1``). The emitter covers only what a fold's
step uses: a simple CASE whose arm is known, at most one searched CASE on a
path, whose tests are ``=`` between operands, and a map literal whose
entries are known values, operands or ``+ - *`` of two operands, an operand
being a known int or a read of an accumulator's property. Any other node,
or a binder in the step that shadows the accumulator's name, leaves the
body on its closure. A generated step returns the body's value, always a
new map, or None wherever the closure must decide: an accumulator that is
not a map, a read that is not an int, a result outside 64 bits, or a CASE
that takes a missing ELSE. On None the loop runs that iteration through the
closure, which computes it again, so every value, error and position is
the closure's. No text of the query reaches ``compile()``: each literal,
known value and key enters as the default of a parameter ``k<n>``, reads
are ``r<n>`` and results ``t<n>``. So the bodies of one shape have one
text, and share its code object through ``_shape``, a bounded memo keyed by
the text. A fold that halts before the heat, as most do within a few steps,
generates nothing; a body of a known shape costs about as much to emit as
its closure costs to compile, and a new shape one ``compile()`` more
(closures against generated code: Feeley & Lapalme above; Würthinger et
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
# the most step bodies one fold's loop compiles, one per table index it
# visits; later indexes call the whole body, so a table visited once per
# entry costs neither a compile per entry nor the memory of its bodies
MAX_SPECIALISED = 4096
# the iterations a fold's step loop runs, counted at the ends of its chunks,
# before a step body that runs again is generated as Python (Reduce, _emit);
# a fold that halts sooner never pays for compile()
HOT_ITERATIONS = 63

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


def _known(node: "Expr", consts: dict):
    """The value node has at every evaluation when consts holds, if reading it
    can neither raise nor build a new object; else _MISSING. Known are a name
    in consts, a scalar literal, and a property of a known map or null."""
    kind = type(node)
    if kind is Var:
        return consts.get(node.name, _MISSING)
    if kind is Literal:
        return node.value
    if kind is Prop:
        obj = _known(node.obj, consts)
        if obj is None:
            return None
        if isinstance(obj, dict):
            return obj.get(node.key)
    return _MISSING


def _known_arm(case: "Case", consts: dict):
    """The node a simple CASE evaluates when its subject is known and its
    matches are literals: the result of the arm eq3 picks, else the default
    (None when there is none). Else _MISSING."""
    if case.subject is None or not all(type(m) is Literal for m, _ in case.whens):
        return _MISSING
    s = _known(case.subject, consts)
    if s is _MISSING:
        return _MISSING
    for match, result in case.whens:
        if eq3(s, match.value) is True:
            return result
    return case.default


def _without(consts: dict, *names: str) -> dict:
    """consts inside a binder of names: what it binds is no longer known."""
    if any(name in consts for name in names):
        return {k: v for k, v in consts.items() if k not in names}
    return consts


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

    def _compile(self, consts: dict) -> Compiled:
        raise NotImplementedError


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value, source: Source, at: int):
        self.value = value  # None, a bool, an int or a str
        self.source = source
        self.at = at

    def _compile(self, consts):
        return _constant(self.value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, source: Source, at: int):
        self.name = name
        self.source = source
        self.at = at

    def _compile(self, consts):
        name = self.name
        if name in consts:
            return _constant(consts[name])

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

    def _compile(self, consts):
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

    def _compile(self, consts):
        items = [(k, e._compile(consts)) for k, e in self.items]

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

    def _compile(self, consts):
        items = [e._compile(consts) for e in self.items]

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

    def _compile(self, consts):
        return self._fold(consts)[0]

    def _fold(self, consts):
        """This read's closure, and its value if known, else _MISSING. A chain
        of reads hands its known values up as it compiles, so compiling it
        stays linear in its length."""
        key, obj = self.key, self.obj
        f, known = obj._fold(consts) if type(obj) is Prop else (None, _known(obj, consts))
        if known is None or isinstance(known, dict):
            value = None if known is None else known.get(key)
            return _constant(value), value

        def general(v):
            if v is None:
                return None
            if isinstance(v, dict):
                return v.get(key)
            raise TypeMismatch(
                f"property access on non-map value of type {type(v).__name__}",
                self.line,
                self.column,
            )

        f = obj._compile(consts) if f is None else f

        def prop(env, params):
            v = f(env, params)
            return v.get(key) if type(v) is dict else general(v)

        return prop, _MISSING


class Index(Expr):
    __slots__ = ("obj", "index")

    def __init__(self, obj: Expr, index: Expr, source: Source, at: int):
        self.obj = obj
        self.index = index
        self.source = source
        self.at = at

    def _compile(self, consts):
        obj, index = self.obj._compile(consts), self.index._compile(consts)

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

    def _compile(self, consts):
        operand = self.operand._compile(consts)

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

    def _compile(self, consts):
        operand = self.operand._compile(consts)

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

    def _compile(self, consts):
        op, compute = self.op, _ARITHMETIC.get(self.op)
        left, right = self.left._compile(consts), self.right._compile(consts)
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
            return self._arithmetic(compute, left(env, params), right(env, params))

        return checked

    def _arithmetic(self, compute, l, r):
        """The general path: null, type, zero-divisor and 64-bit checks."""
        if l is None or r is None:
            return None
        if not (_is_int(l) and _is_int(r)):
            raise TypeMismatch(
                f"operator {self.op} requires integers, got "
                f"{type(l).__name__} and {type(r).__name__}",
                self.line,
                self.column,
            )
        if compute is None:
            raise AssertionError(f"unknown operator {self.op}")
        if r == 0 and self.op in _BY_ZERO:
            raise DivisionByZero(_BY_ZERO[self.op], self.line, self.column)
        return _check64(compute(l, r), self)


class Case(Expr):
    """Both CASE forms: a subject of None is the searched form."""

    __slots__ = ("subject", "whens", "default")

    def __init__(self, subject, whens, default, source, at):
        self.subject = subject
        self.whens = whens  # list of (match or condition expr, result expr)
        self.default = default
        self.source = source
        self.at = at

    def _compile(self, consts):
        arm = _known_arm(self, consts)
        if arm is not _MISSING:  # compile only the arm it takes
            return _constant(None) if arm is None else arm._compile(consts)
        default = self.default._compile(consts) if self.default is not None else _constant(None)
        if self.subject is None:
            arms = [(c._compile(consts), result._compile(consts)) for c, result in self.whens]

            def searched_case(env, params):
                for cond, result in arms:
                    c = cond(env, params)
                    if c is True:
                        return result(env, params)
                    if c is not None and c is not False:
                        raise TypeMismatch("CASE condition must be boolean", self.line, self.column)
                return default(env, params)

            return searched_case
        subject = self.subject._compile(consts)
        arms = [(match._compile(consts), result._compile(consts)) for match, result in self.whens]

        def simple_case(env, params):
            s = subject(env, params)
            if s is not None:  # a null subject never matches an arm
                for match, result in arms:
                    if eq3(s, match(env, params)) is True:
                        return result(env, params)
            return default(env, params)

        return simple_case


def _same_flat_map(a, b) -> bool:
    """Whether a and b are maps with the same keys in the same order and, for
    each key, values of one type among int, str, bool and null that are
    equal: no operation of the subset tells such maps apart. A list or map
    value is never the same, so the check never recurses."""
    if type(a) is not dict or type(b) is not dict or len(a) != len(b):
        return False
    for (ka, va), (kb, vb) in zip(a.items(), b.items()):
        kind = type(va)
        if ka != kb or kind is not type(vb) or kind not in (int, str, bool, type(None)) or va != vb:
            return False
    return True


def _chunks(n: int):
    """1, 2, 4, ... while they sum to at most n, then what is left of n."""
    size = 1
    while n > 0:
        yield min(size, n)
        n -= size
        size *= 2


def _fold_step(body: Expr, acc_name: str, consts: dict) -> Optional[tuple]:
    """(k, lit, c, v, m) when body is a fold's step, CASE WHEN acc.k = lit THEN
    acc ELSE head([v IN [t[acc.k]] | m]) END with both reads of the same k and
    t a known list, whose value is c; else None. For a map acc whose acc.k is
    an int i other than lit with 0 <= i < len(c), the test is false and
    [t[i]] is [c[i]], both without error, so the body's value is m's with v
    bound to c[i]."""
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
    table = _known(items[0].obj, consts)
    if type(table) is not list:
        return None
    return test.key, cond.right.value, table, bind.var_name, bind.mapper


class _Refused(Exception):
    """A node the step emitter does not cover."""


class _StepSource:
    """The lines of a generated step, def step(acc, k0, k1, ...), and the
    values of k0, k1, ...: each literal, known value and key the body uses.
    acc names the accumulator, which consts does not hold; rN holds a read of
    it, checked to be an int, and tN a sum, difference or product, checked to
    fit 64 bits. Anything else the closure must decide returns None."""

    def __init__(self, acc_name: str, consts: dict):
        self.acc_name, self.consts = acc_name, consts
        self.lines: list[str] = []
        self.defaults: list = []
        self.keys: dict = {}
        self.reads = self.temps = 0

    def const(self, value) -> str:
        self.defaults.append(value)
        return f"k{len(self.defaults) - 1}"

    def key(self, key: str) -> str:
        if key not in self.keys:
            self.keys[key] = self.const(key)
        return self.keys[key]

    def bail_if(self, test: str, pad: str) -> None:
        self.lines += [f"{pad}if {test}:", f"{pad}    return None"]

    def operand(self, node: "Expr", pad: str, scope: dict) -> str:
        """The name of node's value, an int: a known int or a read of the
        accumulator."""
        known = _known(node, self.consts)
        if type(known) is int:
            return self.const(known)
        if type(node) is Prop and type(node.obj) is Var and node.obj.name == self.acc_name:
            if node.key not in scope:  # one read per key on each path
                name = scope[node.key] = f"r{self.reads}"
                self.reads += 1
                self.lines.append(f"{pad}{name} = acc.get({self.key(node.key)})")
                self.bail_if(f"type({name}) is not int", pad)
            return scope[node.key]
        raise _Refused

    def value(self, node: "Expr", pad: str, scope: dict) -> str:
        """The name of a map entry's value: a known value, an operand, or
        + - * of two operands."""
        known = _known(node, self.consts)
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

    def body(self, node: Optional["Expr"], pad: str, scope: dict, searched=False) -> None:
        """Lines that return node's value, a new map; None is a missing
        ELSE, whose null the closure gives. A path holds at most one
        searched CASE, so the lines nest at most one level."""
        if node is None:
            self.lines.append(f"{pad}return None")
        elif type(node) is MapLit:
            entries = [(self.key(k), self.value(e, pad, scope)) for k, e in node.items]
            self.lines.append(f"{pad}return {{" + ", ".join(f"{k}: {v}" for k, v in entries) + "}")
        elif type(node) is Case and node.subject is None and not searched:
            for cond, result in node.whens:  # tests of = between operands
                if not (type(cond) is Binary and cond.op == "="):
                    raise _Refused
                left, right = self.operand(cond.left, pad, scope), self.operand(cond.right, pad, scope)
                self.lines.append(f"{pad}if {left} == {right}:")
                self.body(result, pad + "    ", dict(scope), True)
            self.body(node.default, pad, scope, True)
        elif type(node) is Case and (arm := _known_arm(node, self.consts)) is not _MISSING:
            self.body(arm, pad, scope, searched)
        else:
            raise _Refused


# the globals of a generated step: no builtins but the three it names
_STEP_GLOBALS = {"__builtins__": {}, "type": type, "int": int, "dict": dict}


@functools.lru_cache(maxsize=64)
def _shape(text: str) -> CodeType:
    """The code of a generated step's text, which every body of its shape
    shares: the text holds no value of the query."""
    module = compile(text, "<fold step>", "exec")
    return next(c for c in module.co_consts if type(c) is CodeType)


def _emit(body: "Expr", acc_name: str, consts: dict) -> Optional[Callable]:
    """body as a generated Python function of the accumulator alone, which
    returns body's value with acc_name bound to it, or None wherever the
    closure must decide; or None for a body with a node it does not cover, or
    whose acc_name a binder shadows (consts then holds it)."""
    if acc_name in consts:
        return None
    source = _StepSource(acc_name, consts)
    try:
        source.body(body, "    ", {})
    except (_Refused, RecursionError):
        return None
    params = "".join(f", k{n}" for n in range(len(source.defaults)))
    text = "\n".join([f"def step(acc{params}):", "    if type(acc) is not dict:",
                      "        return None", *source.lines, ""])
    return FunctionType(_shape(text), _STEP_GLOBALS, "step", tuple(source.defaults))


class Reduce(Expr):
    __slots__ = ("acc_name", "init", "var_name", "list_expr", "body")

    def __init__(self, acc_name, init, var_name, list_expr, body, source, at):
        self.acc_name = acc_name
        self.init = init
        self.var_name = var_name
        self.list_expr = list_expr
        self.body = body
        self.source = source
        self.at = at

    def _compile(self, consts):
        acc_name, var_name = self.acc_name, self.var_name
        list_expr, init = self.list_expr._compile(consts), self.init._compile(consts)
        inner = _without(consts, acc_name, var_name)
        # once a body blind to the element returns its accumulator itself,
        # every later iteration would give an equal value (module docstring);
        # the parse recorded whether the body it built names the element
        body = self.body
        mentioned = None
        if body.source is self.source:
            mentioned = self.source.fixpoints.get((self.at, id(body), body.at))
        fixpoint = not (_mentions(body, var_name) if mentioned is None else mentioned)
        # a fold's step (_fold_step): the loop memoises a step body per table
        # index that acc.k takes; any other body has the key _MISSING, which
        # no map holds, and no table
        step = _fold_step(body, acc_name, inner) if fixpoint else None
        key, halt, table, v, m = step or (_MISSING, None, (), None, None)
        halt = halt if type(halt) is int else None  # the test holds for no other i
        # the generated steps (_emit) of the memoised bodies, by index, or
        # False where _emit gives none: once the loop has run HOT_ITERATIONS
        # iterations, a memoised body that runs again generates its step
        bodies, hot = {}, {}
        whole = None if step else body._compile(inner)

        def step_body(i) -> Compiled:
            """The code of an iteration whose acc.k is i, with no step body
            memoised for it: a new one for an index of the table while the
            memo has room, else the whole body, compiled on first use."""
            nonlocal whole
            if type(i) is int and 0 <= i < len(table) and len(bodies) < MAX_SPECIALISED:
                f = bodies[i] = m._compile({**inner, v: table[i]})
                return f
            if whole is None:
                whole = body._compile(inner)
            return whole

        def reduce_(env, params):
            items = list_expr(env, params)
            if not _is_list(items):
                raise TypeMismatch("reduce requires a list", self.line, self.column)
            acc = init(env, params)
            saved_acc = env.get(acc_name, _MISSING)
            saved_var = env.get(var_name, _MISSING)
            try:
                if fixpoint:  # no Var reads the element: it is not bound
                    # a fold's step also stops at a value equal to its
                    # accumulator, checked at the end of each chunk
                    ran, heated = 0, False
                    for size in _chunks(_length(items)):
                        for _ in range(size):
                            prev = acc
                            i = acc.get(key) if type(acc) is dict else None
                            if type(i) is int:  # not true, which hashes as 1
                                g = hot.get(i)
                                if g:
                                    value = g(acc)
                                    if value is not None:
                                        acc = value
                                        continue
                                f = bodies.get(i)
                                if f is None:
                                    if i == halt:
                                        break  # the test holds: the body gives acc itself
                                    f = step_body(i)
                                elif heated and g is None:  # a memoised body runs again
                                    hot[i] = _emit(m, acc_name, {**inner, v: table[i]}) or False
                            else:
                                f = whole or step_body(i)
                            env[acc_name] = acc
                            value = f(env, params)
                            if value is acc:
                                break
                            acc = value
                        else:
                            if not step:
                                continue
                            if _same_flat_map(acc, prev):
                                break
                            ran += size
                            heated = ran >= HOT_ITERATIONS
                            continue
                        break
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

    def _compile(self, consts):
        var_name, list_expr = self.var_name, self.list_expr._compile(consts)
        inner = _without(consts, var_name)
        where = self.where._compile(inner) if self.where is not None else None
        mapper = self.mapper._compile(inner) if self.mapper is not None else None

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

    def _compile(self, consts):
        if self.name == "head":
            arg = self.args[0]._compile(consts)

            def head(env, params):
                v = arg(env, params)
                if v is None:
                    return None
                if not _is_list(v):
                    raise TypeMismatch("head requires a list", self.line, self.column)
                return v[0] if v else None

            return head
        if self.name == "range":
            low, high = (a._compile(consts) for a in self.args)

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
