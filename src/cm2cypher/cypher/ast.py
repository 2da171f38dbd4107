"""AST nodes and their evaluation semantics.

Values use native Python types: None (null), bool, int (64-bit checked),
str, list/range, dict. Semantics follow Cypher for the supported subset:
three-valued logic, null propagation through arithmetic and comparison,
null-on-missing for map keys and out-of-range list indexes, negative list
indexes counting from the end, truncating integer division, and a simple
CASE whose null subject never matches an arm.

One node class per construct: ``Literal`` holds every constant (null, a
boolean, an integer or a string) and ``Case`` both CASE forms, the searched
one having no subject.

A tree is evaluated by compiling it once into nested closures
``f(env, params)`` and calling the root (Feeley & Lapalme, "Using Closures
for Code Generation", 1987). Each node's ``_compile`` picks its operator's
code, captures its children's closures, and may only specialise without
changing results or errors. It keeps the specialisations the fold runs: a
property of a variable read straight from ``env``, ``=`` and ``+ - *``
against an integer literal tried before the general checks, a searched
CASE of one arm without its loop, and a fixpoint exit in ``reduce``. The
exit applies when no ``Var`` in the body is named like the element variable
(shadowed mentions count too). Such a body sees only the accumulator and an
environment that does not change from one iteration to the next: the subset
is pure and deterministic, and every binder restores what it binds. So once
an iteration returns the accumulator object itself (``is``, not equality),
every later iteration would return an equal value without error, and the
loop stops there: a halted fold costs the steps to its halt, not its
``max_steps``.

Compiling also threads constants, a partial evaluation (Jones, Gomard &
Sestoft, *Partial Evaluation and Automatic Program Generation*, 1993).
``_compile(consts)`` takes a map from names to the values ``env`` holds for
them throughout the evaluation; ``run_query`` hands each LET binding and
RETURN item a snapshot of the earlier LET values. A ``Var`` named in
``consts`` compiles to a constant that returns the very object an ``env``
lookup would. Every binder (``reduce``'s accumulator and element, a
comprehension's variable, the ``head`` direct bind) drops the names it binds
from ``consts`` before compiling the code in its scope, so a shadowed name
is read from ``env`` as before. A property of a known map or null folds to a
constant; a known non-map keeps its closure and so its ``TypeMismatch`` at
run time. A simple CASE whose subject is known and whose match values are
all literals compiles only the arm ``eq3`` picks. In ``head([v IN [c[e]] |
m])`` with ``c`` a known list, an integer ``0 <= e < len(c)`` runs an ``m``
compiled with ``v`` known to be ``c[e]``, on first use of that index and
memoised in the compiled closure: a fold over a program table compiles one
step body per state it visits, with every field of the entry folded, and
builds neither list of the comprehension. Any other ``e`` takes the general
path, with the errors of ``c[e]``; any other argument of ``head`` builds its
lists. No value is copied or built at compile time, so results, their
identity, errors and their positions stay as they are.

``Expr.eval`` (compile, then call) is the one evaluation path, except that a
tree made only of literals (the fold's program table) is built as its value
without compiling.
Compiling recurses once per nesting level, as evaluating does;
``evaluator.evaluate`` maps the resulting ``RecursionError`` to EvalError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import (
    DivisionByZero,
    EvalError,
    IntegerOverflow,
    TypeMismatch,
    UnknownParameter,
    UnknownVariable,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
# the most elements a comprehension reads or format_value renders from one
# list or range; a range is lazy, but both would materialise every element
MAX_LIST_LENGTH = 1_000_000
# the most entries of a known table one head bind compiles a step body for;
# later indexes take the general path, so a table read once per entry costs
# neither a compile per entry nor the memory of its bodies
MAX_SPECIALISED = 4096

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


def _int_literal(node: "Expr") -> Optional[int]:
    """An integer literal's value, for operator fast paths; else None."""
    return node.value if type(node) is Literal and type(node.value) is int else None


def _unknown(var: "Var") -> UnknownVariable:
    return UnknownVariable(f"variable {var.name!r} not defined", var.line, var.column)


def _restore(env: dict, name: str, saved) -> None:
    if saved is _MISSING:
        env.pop(name, None)
    else:
        env[name] = saved


def _mentions(tree: "Expr", name: str) -> bool:
    """Whether any Var in the tree is called name, shadowed by an inner binder
    or not: the safe side for the reduce fixpoint exit."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if type(node) is Var:
            if node.name == name:
                return True
        elif isinstance(node, Expr):
            stack.extend(getattr(node, slot) for slot in type(node).__slots__)
        elif type(node) is list or type(node) is tuple:
            stack.extend(node)  # a ListLit's items, MapLit entries, CASE arms, Call args
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


def _without(consts: dict, *names: str) -> dict:
    """consts inside a binder of names: what it binds is no longer known."""
    if any(name in consts for name in names):
        return {k: v for k, v in consts.items() if k not in names}
    return consts


class Expr:
    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int):
        self.line = line
        self.column = column

    def eval(self, env: dict, params: dict, consts: dict | None = None) -> Value:
        """Compile this tree, then evaluate it once. consts maps names to the
        very values env holds for them throughout the evaluation (module
        docstring); the caller does not change it while the tree runs."""
        value = _literal_value(self)  # a literal tree's fold is already a fresh value
        if value is not _MISSING:
            return value
        return self._compile({} if consts is None else consts)(env, params)

    def _compile(self, consts: dict) -> Compiled:
        raise NotImplementedError


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value, line: int, column: int):
        # not through super(): the parser builds one per INT and STRING token
        self.value = value  # None, a bool, an int or a str
        self.line = line
        self.column = column

    def _compile(self, consts):
        return _constant(self.value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, line: int, column: int):
        super().__init__(line, column)
        self.name = name

    def _compile(self, consts):
        name = self.name
        if name in consts:
            return _constant(consts[name])

        def var(env, params):
            try:
                return env[name]
            except KeyError:
                raise _unknown(self) from None

        return var


class Param(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, line: int, column: int):
        super().__init__(line, column)
        self.name = name

    def _compile(self, consts):
        name = self.name

        def param(env, params):
            if name not in params:
                raise UnknownParameter(f"parameter ${name} not supplied", self.line, self.column)
            return params[name]

        return param


class MapLit(Expr):
    __slots__ = ("items",)

    def __init__(self, items: list[tuple[str, Expr]], line: int, column: int):
        super().__init__(line, column)
        self.items = items

    def _compile(self, consts):
        items = [(k, e._compile(consts)) for k, e in self.items]

        def map_lit(env, params):
            out = {}  # a loop: a comprehension costs a function call in Python 3.11
            for k, f in items:
                out[k] = f(env, params)
            return out

        return map_lit


class ListLit(Expr):
    __slots__ = ("items",)

    def __init__(self, items: list[Expr], line: int, column: int):
        super().__init__(line, column)
        self.items = items

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

    def __init__(self, obj: Expr, key: str, line: int, column: int):
        super().__init__(line, column)
        self.obj = obj
        self.key = key

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

        if type(obj) is Var and obj.name not in consts:
            name = obj.name

            def var_prop(env, params):
                try:
                    v = env[name]
                except KeyError:
                    raise _unknown(obj) from None
                return v.get(key) if type(v) is dict else general(v)

            return var_prop, _MISSING
        f = obj._compile(consts) if f is None else f

        def prop(env, params):
            v = f(env, params)
            return v.get(key) if type(v) is dict else general(v)

        return prop, _MISSING


class Index(Expr):
    __slots__ = ("obj", "index")

    def __init__(self, obj: Expr, index: Expr, line: int, column: int):
        super().__init__(line, column)
        self.obj = obj
        self.index = index

    def _compile(self, consts):
        obj, index = self.obj._compile(consts), self.index._compile(consts)
        return lambda env, params: self._general(obj(env, params), index(env, params))

    def _general(self, container, idx):
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


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr, line: int, column: int):
        super().__init__(line, column)
        self.operand = operand

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

    def __init__(self, operand: Expr, line: int, column: int):
        super().__init__(line, column)
        self.operand = operand

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

    def __init__(self, op: str, left: Expr, right: Expr, line: int, column: int):
        super().__init__(line, column)
        self.op = op
        self.left = left
        self.right = right

    def _compile(self, consts):
        op, left, right = self.op, self.left._compile(consts), self.right._compile(consts)
        c = _int_literal(self.right)
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
        if op == "=" and c is not None:

            def equals_literal(env, params):
                l = left(env, params)
                return l == c if type(l) is int else eq3(l, c)

            return equals_literal
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
        compute = _ARITHMETIC.get(op)
        # + - * by an integer literal, as the generated folds use them, skip
        # the general path while the result fits; / and % never do
        if c is not None and compute is not None and op not in _BY_ZERO:

            def arithmetic_literal(env, params):
                l = left(env, params)
                if type(l) is int:
                    v = compute(l, c)
                    if INT64_MIN <= v <= INT64_MAX:
                        return v
                return self._arithmetic(compute, l, c)

            return arithmetic_literal

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

    def __init__(self, subject, whens, default, line, column):
        super().__init__(line, column)
        self.subject = subject
        self.whens = whens  # list of (match or condition expr, result expr)
        self.default = default

    def _compile(self, consts):
        default = self.default._compile(consts) if self.default is not None else _constant(None)
        if self.subject is None:
            arms = [(c._compile(consts), result._compile(consts)) for c, result in self.whens]
            if len(arms) == 1:  # the fold's two-way CASE: no loop
                ((cond, result),) = arms

                def case_one(env, params):
                    c = cond(env, params)
                    if c is True:
                        return result(env, params)
                    if c is False or c is None:
                        return default(env, params)
                    raise TypeMismatch("CASE condition must be boolean", self.line, self.column)

                return case_one

            def searched_case(env, params):
                for cond, result in arms:
                    c = cond(env, params)
                    if c is True:
                        return result(env, params)
                    if c is not None and c is not False:
                        raise TypeMismatch("CASE condition must be boolean", self.line, self.column)
                return default(env, params)

            return searched_case
        if all(type(m) is Literal for m, _ in self.whens):
            s = _known(self.subject, consts)
            if s is not _MISSING:  # the arm is known too: compile only that one
                for match, result in self.whens:
                    if eq3(s, match.value) is True:
                        return result._compile(consts)
                return default
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


class Reduce(Expr):
    __slots__ = ("acc_name", "init", "var_name", "list_expr", "body")

    def __init__(self, acc_name, init, var_name, list_expr, body, line, column):
        super().__init__(line, column)
        self.acc_name = acc_name
        self.init = init
        self.var_name = var_name
        self.list_expr = list_expr
        self.body = body

    def _compile(self, consts):
        acc_name, var_name = self.acc_name, self.var_name
        list_expr, init = self.list_expr._compile(consts), self.init._compile(consts)
        body = self.body._compile(_without(consts, acc_name, var_name))
        # once a body blind to the element returns its accumulator itself,
        # every later iteration would give an equal value (module docstring)
        fixpoint = not _mentions(self.body, var_name)

        def reduce_(env, params):
            items = list_expr(env, params)
            if not _is_list(items):
                raise TypeMismatch("reduce requires a list", self.line, self.column)
            acc = init(env, params)
            saved_acc = env.get(acc_name, _MISSING)
            saved_var = env.get(var_name, _MISSING)
            try:
                for x in items:
                    env[acc_name] = acc
                    env[var_name] = x
                    value = body(env, params)
                    if value is acc and fixpoint:
                        break
                    acc = value
            finally:
                _restore(env, acc_name, saved_acc)
                _restore(env, var_name, saved_var)
            return acc

        return reduce_


class Comprehension(Expr):
    __slots__ = ("var_name", "list_expr", "where", "mapper")

    def __init__(self, var_name, list_expr, where, mapper, line, column):
        super().__init__(line, column)
        self.var_name = var_name
        self.list_expr = list_expr
        self.where = where
        self.mapper = mapper

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


def _single_bind(node: Expr, consts: dict) -> Optional[Compiled]:
    """head([v IN [c[e]] | m]) with c a known list, the fold's read of its
    program table, as a direct bind that builds neither of the
    comprehension's lists. Each index of c that e takes gets its own m,
    compiled on first use with v known to be that entry, so it reads nothing
    from env for v and needs no bind. Any other value of e, and any index
    past MAX_SPECIALISED bodies, binds v to c[e] around the general m, with
    the errors of c[e]. None for any other argument of head, which then
    takes the general path."""
    if not (
        type(node) is Comprehension
        and node.where is None
        and node.mapper is not None
        and type(node.list_expr) is ListLit
        and len(node.list_expr.items) == 1
    ):
        return None
    var_name, source = node.var_name, node.list_expr.items[0]
    table = _known(source.obj, consts) if type(source) is Index else _MISSING
    if type(table) is not list:
        return None
    mapper = node.mapper._compile(_without(consts, var_name))
    index, n, bodies = source.index._compile(consts), len(table), {}

    def bind_entry(env, params):
        i = index(env, params)
        if type(i) is int and 0 <= i < n:
            body = bodies.get(i)
            if body is not None:
                return body(env, params)
            if len(bodies) < MAX_SPECIALISED:
                body = bodies[i] = node.mapper._compile({**consts, var_name: table[i]})
                return body(env, params)
        saved = env.get(var_name, _MISSING)
        env[var_name] = source._general(table, i)
        try:
            return mapper(env, params)
        finally:
            _restore(env, var_name, saved)

    return bind_entry


class Call(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list[Expr], line: int, column: int):
        super().__init__(line, column)
        self.name = name
        self.args = args

    def _compile(self, consts):
        if self.name == "head":
            bind = _single_bind(self.args[0], consts)
            if bind is not None:
                return bind
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
