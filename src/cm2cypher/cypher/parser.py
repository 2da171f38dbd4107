"""Recursive-descent parser for the expression subset.

Query shape: optional "CYPHER 25" header, zero or more LET bindings, one
RETURN clause, optional trailing semicolon. A LET name or a RETURN alias
that repeats is a CypherSyntaxError at the repeat. Anything outside the
subset (MATCH, CALL, WITH, unknown functions, ...) is rejected at parse
time with UnsupportedFeature naming the construct, and nesting too deep
for Python's recursion limit with CypherSyntaxError.

The parser reads the lexer's pieces of the text (lexer._pieces), not Token
objects: each test of the input compares one piece string, and a string
piece keeps its quotes, so only a name can equal a keyword and only
punctuation an operator. A node keeps the parse's lexer.Source and the
index of its piece, so no offset, line or column is worked out while
parsing: the Source finds them the first time a node's or an error's
position, or the alias of a return item of more than one piece, is read. A
string is unescaped only when its Literal is built.

Binary operators are read by one precedence-climbing loop (Pratt, "Top Down
Operator Precedence", 1973) over the _BINDING_POWER table, loosest first:
OR, AND, prefix NOT, = <> < <= > >=, + -, * / %. An operator is a
punctuation piece or the keyword AND/OR, never a string or another name.

Literal fast path: parse_map reads every entry in one loop over the
pieces, testing the key and its ':' inline. It builds the Literal of a
value 'int or string' followed by ',' or '}' itself, testing each piece's
first character; an int of more than 18 digits, which may be outside 64
bits, is not read there. Any other value is read by parse_expr. parse_list
hands an item that starts with '{' to parse_map directly, then reads
whatever follows its '}' as parse_expr would. An item of any other shape
takes the general descent, so trees and errors are the same.

Operand fast path: parse_expr reads the common operand itself, and is the
one place a Var is built. A name that is neither a keyword nor a refused
word, and is not followed by '(', becomes a Var, and each '.' and name
after it a Prop; an int of at most 18 digits or a string becomes a Literal.
A sign is read by parse_unary, which reads the operand after its signs with
parse_expr at the binding power of '*'. NOT is read by parse_expr, and any
other operand ('(', '[', '{', '$', CASE, a call, a keyword, the end) by
parse_primary; a '.' or '[' after an operand is read by parse_suffixes, so
trees and errors are those of the descent. When the next piece binds no
tighter than min_power the operand is returned at once, and otherwise
parse_operators goes on. The parser keeps the name of each Var it builds,
and parse_reduce hands its Reduce whether its body built one named like its
element: the verdict of ast._mentions on that body, which the reduce's
fixpoint exit needs (ast).
"""

from __future__ import annotations

from . import ast
from .errors import CypherSyntaxError, UnsupportedFeature
from .lexer import _KINDS, IDENT, INT, STRING, Source, _kind, _lexeme, _pieces

KEYWORDS = {
    "LET", "RETURN", "CASE", "WHEN", "THEN", "ELSE", "END",
    "IN", "AS", "AND", "OR", "NOT", "XOR", "TRUE", "FALSE", "NULL", "WHERE",
}

UNSUPPORTED = {
    "MATCH", "OPTIONAL", "CREATE", "MERGE", "SET", "DELETE", "DETACH", "REMOVE",
    "CALL", "UNWIND", "WITH", "FOREACH", "ORDER", "SKIP", "LIMIT", "UNION",
    "USE", "USING", "SHOW", "NEXT", "LOAD", "EXISTS", "COUNT", "COLLECT",
}

# the words that are never a variable's name
_WORDS = KEYWORDS | UNSUPPORTED

# the keywords that are constants, each read as a Literal
_CONSTANTS = {"TRUE": True, "FALSE": False, "NULL": None}

# callable functions and their argument counts; reduce() has its own syntax
FUNCTION_ARITY = {"head": 1, "range": 2}

# How tightly each binary operator binds; all of them group to the left.
# Prefix NOT binds between AND and the comparisons.
_BINDING_POWER = {"OR": 1, "AND": 2, "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
                  "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}
_NOT_POWER = 3


class _Parser:
    def __init__(self, text: str):
        # pieces end in the end marker "", and no test reads past a piece
        # that is "", so no read runs off the end
        self.pieces = _pieces(text)
        self.source = Source(text)
        self.pos = 0
        self.names: list[str] = []  # the name of each Var built, in order

    # --- piece helpers -------------------------------------------------

    def position(self, i: int) -> tuple[int, int]:
        """The line and column of piece i, for an error."""
        return self.source.position(i)

    def peek(self, ahead: int = 0) -> str:
        return self.pieces[self.pos + ahead]

    def next(self) -> int:
        """The index of the current piece, which is not the end; moves past it."""
        i = self.pos
        self.pos = i + 1
        return i

    def at_keyword(self, word: str, ahead: int = 0) -> bool:
        return self.pieces[self.pos + ahead].upper() == word

    def _expected(self, what: str) -> CypherSyntaxError:
        piece = self.peek()
        found = _lexeme(piece) if piece else "end of input"
        return CypherSyntaxError(f"expected {what}, found {found!r}", *self.position(self.pos))

    def expect_keyword(self, word: str):
        if not self.at_keyword(word):
            raise self._expected(word)
        self.pos += 1

    def expect_punct(self, lexeme: str) -> int:
        if self.pieces[self.pos] != lexeme:
            raise self._expected(repr(lexeme))
        return self.next()

    def expect_name(self) -> int:
        piece = self.peek()
        if _kind(piece) != IDENT or piece.upper() in KEYWORDS:
            raise self._expected("a name")
        self._reject_unsupported(self.pos)
        return self.next()

    def expect_ident(self, message: str) -> str:
        piece = self.peek()
        if _kind(piece) != IDENT:
            raise CypherSyntaxError(message, *self.position(self.pos))
        self.pos += 1
        return piece

    def parse_comma_list(self, parse_item) -> list:
        items = [parse_item()]
        while self.pieces[self.pos] == ",":
            self.pos += 1
            items.append(parse_item())
        return items

    def _reject_unsupported(self, i: int):
        upper = self.pieces[i].upper()
        if upper in UNSUPPORTED:
            raise UnsupportedFeature(upper, *self.position(i))

    def _literal(self, i: int, minus: int | None = None) -> ast.Literal:
        """The Literal of the int or string piece i; an int after the '-'
        piece ``minus`` is negative and sits at the '-'."""
        piece = self.pieces[i]
        if _kind(piece) == STRING:
            return ast.Literal(_lexeme(piece), self.source, i)
        try:
            value = int(piece)
        except ValueError:  # past Python's limit on int() of a digit string
            raise CypherSyntaxError(
                f"integer literal of {len(piece)} digits is too long", *self.position(i)
            ) from None
        if minus is not None:
            value, i = -value, minus
        return self._int_literal(value, i)

    def _int_literal(self, value: int, i: int) -> ast.Literal:
        """An integer Literal at piece i; the subset's integers are 64-bit."""
        if not ast.INT64_MIN <= value <= ast.INT64_MAX:
            raise CypherSyntaxError(
                f"integer literal {value} is outside the 64-bit range", *self.position(i)
            )
        return ast.Literal(value, self.source, i)

    # --- query ----------------------------------------------------------

    def parse_query(self) -> ast.QueryAst:
        if self.at_keyword("CYPHER") and _kind(self.peek(1)) == INT:
            self.pos += 2
        bindings: list[tuple[str, ast.Expr]] = []
        seen = set()
        while self.at_keyword("LET"):
            self.pos += 1
            i = self.expect_name()
            name = self.pieces[i]
            if name in seen:
                raise CypherSyntaxError(f"duplicate binding {name!r}", *self.position(i))
            seen.add(name)
            self.expect_punct("=")
            bindings.append((name, self.parse_expr()))
        self._reject_unsupported(self.pos)
        self.expect_keyword("RETURN")
        aliases: set[str] = set()
        returns = self.parse_comma_list(lambda: self.parse_return_item(aliases))
        if self.peek() == ";":
            self.pos += 1
        piece = self.peek()
        if piece:
            self._reject_unsupported(self.pos)
            raise CypherSyntaxError(
                f"unexpected input after RETURN clause: {_lexeme(piece)!r}",
                *self.position(self.pos),
            )
        return ast.QueryAst(tuple(bindings), tuple(returns))

    def parse_expression(self) -> ast.Expr:
        expr = self.parse_expr()
        piece = self.peek()
        if piece:
            raise CypherSyntaxError(
                f"unexpected trailing input {_lexeme(piece)!r}", *self.position(self.pos)
            )
        return expr

    def parse_return_item(self, aliases: set[str]) -> ast.ReturnItem:
        # a repeated alias is reported at the name after AS, or at the item's
        # first piece when the alias is the item's own text: from the start
        # of its first piece to the end of its last, so no comment after it;
        # only an item of more than one piece reads offsets for that
        first = self.pos
        expr = self.parse_expr()
        if self.at_keyword("AS"):
            self.pos += 1
            at = self.expect_name()
            alias = self.pieces[at]
        else:
            at, last = first, self.pos - 1
            alias = self.pieces[last]
            if last != first:
                offset = self.source.offset
                alias = self.source.text[offset(first):offset(last) + len(alias)]
        if alias in aliases:
            raise CypherSyntaxError(f"duplicate return alias {alias!r}", *self.position(at))
        aliases.add(alias)
        return ast.ReturnItem(expr, alias)

    # --- expressions: one binding-power loop over the binary operators ---

    def parse_expr(self, min_power: int = 0) -> ast.Expr:
        # an operand, then the binary operators that bind tighter than min_power
        pieces, source = self.pieces, self.source
        i = self.pos
        piece = pieces[i]
        first = piece[:1]
        # the operand fast path (module docstring): a name and its property
        # reads, or an int or string literal, built here; the node classes
        # are read from ast at each call, so a test may replace one
        if first not in _KINDS and piece.upper() not in _WORDS and pieces[i + 1] != "(":
            self.names.append(piece)
            left = ast.Var(piece, source, i)
            i += 1
            while pieces[i] == "." and pieces[i + 1][:1] not in _KINDS:
                left = ast.Prop(left, pieces[i + 1], source, i)
                i += 2
            self.pos = i
        elif first == "'":
            left = ast.Literal(piece[1:-1] if "\\" not in piece else _lexeme(piece), source, i)
            self.pos = i + 1
        elif "0" <= first <= "9" and len(piece) < 19:  # so inside 64 bits
            left = ast.Literal(int(piece), source, i)
            self.pos = i + 1
        # NOT may start an operand of OR, AND or NOT, not of a tighter operator
        elif min_power <= _NOT_POWER and piece.upper() == "NOT":
            self.pos = i + 1
            left = ast.Not(self.parse_expr(_NOT_POWER), source, i)
        elif piece == "-" or piece == "+":
            left = self.parse_unary()
        else:
            left = self.parse_primary()
        # parse_unary and NOT leave no '.' or '[' after their operand
        piece = pieces[self.pos]
        if piece == "." or piece == "[":
            left = self.parse_suffixes(left)
        elif _BINDING_POWER.get(piece.upper(), 0) <= min_power:
            return left
        return self.parse_operators(left, min_power)

    def parse_operators(self, left: ast.Expr, min_power: int) -> ast.Expr:
        pieces = self.pieces
        while True:
            i = self.pos
            op = pieces[i].upper()
            power = _BINDING_POWER.get(op, 0)
            if power <= min_power:
                return left
            self.pos = i + 1
            left = ast.Binary(op, left, self.parse_expr(power), self.source, i)

    def parse_unary(self) -> ast.Expr:
        piece = self.peek()
        if piece == "-":
            i = self.next()
            # -<digits> is one literal, so -9223372036854775808 is in range;
            # a '.' or '[' after the digits binds tighter than the '-'
            if _kind(self.peek()) == INT and self.peek(1) != "." and self.peek(1) != "[":
                return self._literal(self.next(), i)
            operand = self.parse_unary()
            # fold -<int> into a literal; -true, -null and -'a' keep Neg's checks
            if type(operand) is ast.Literal and type(operand.value) is int:
                return self._int_literal(-operand.value, i)
            return ast.Neg(operand, self.source, i)
        if piece == "+":
            self.pos += 1
            return self.parse_unary()
        return self.parse_expr(_BINDING_POWER["*"])

    def parse_suffixes(self, expr: ast.Expr) -> ast.Expr:
        while True:
            piece = self.peek()
            if piece == ".":
                i = self.next()
                key = self.expect_ident("expected property name after '.'")
                expr = ast.Prop(expr, key, self.source, i)
            elif piece == "[":
                i = self.next()
                index = self.parse_expr()
                self.expect_punct("]")
                expr = ast.Index(expr, index, self.source, i)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        i = self.pos
        piece = self.pieces[i]
        kind = _kind(piece)
        if kind == INT or kind == STRING:
            self.pos = i + 1
            return self._literal(i)
        if kind == IDENT:
            upper = piece.upper()
            self._reject_unsupported(i)
            if upper == "CASE":
                return self.parse_case()
            if upper in _CONSTANTS:
                self.pos = i + 1
                return ast.Literal(_CONSTANTS[upper], self.source, i)
            if upper in KEYWORDS:
                raise CypherSyntaxError(f"unexpected keyword {piece!r}", *self.position(i))
            return self.parse_call()  # parse_expr reads a name with no '(' after it
        if piece == "(":
            self.pos = i + 1
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if piece == "[":
            return self.parse_list()
        if piece == "{":
            return self.parse_map()
        if piece == "$":
            self.pos = i + 1
            name = self.expect_ident("expected parameter name after '$'")
            return ast.Param(name, self.source, i)
        if piece:
            raise CypherSyntaxError(f"unexpected {piece!r}", *self.position(i))
        raise CypherSyntaxError("unexpected end of input", *self.position(i))

    def parse_call(self) -> ast.Expr:
        i = self.next()
        name = self.pieces[i]
        if name == "reduce":
            return self.parse_reduce(i)
        if name not in FUNCTION_ARITY:
            raise UnsupportedFeature(f"function {name}()", *self.position(i))
        self.expect_punct("(")
        args = self.parse_comma_list(self.parse_expr)
        self.expect_punct(")")
        arity = FUNCTION_ARITY[name]
        if len(args) != arity:
            raise CypherSyntaxError(
                f"{name}() takes {arity} argument(s), got {len(args)}", *self.position(i)
            )
        return ast.Call(name, args, self.source, i)

    def parse_reduce(self, i: int) -> ast.Expr:
        self.expect_punct("(")
        acc = self.pieces[self.expect_name()]
        self.expect_punct("=")
        init = self.parse_expr()
        self.expect_punct(",")
        var = self.pieces[self.expect_name()]
        self.expect_keyword("IN")
        list_expr = self.parse_expr()
        self.expect_punct("|")
        mark = len(self.names)
        body = self.parse_expr()
        self.expect_punct(")")
        # the fixpoint verdict Reduce._compile would find with ast._mentions
        mentioned = var in self.names[mark:]
        return ast.Reduce(acc, init, var, list_expr, body, self.source, i, mentioned)

    def parse_list(self) -> ast.Expr:
        open_i = self.expect_punct("[")
        # two-piece lookahead: "[ name IN" starts a comprehension
        piece = self.peek()
        if _kind(piece) == IDENT and piece.upper() not in KEYWORDS and self.at_keyword("IN", 1):
            var = self.pieces[self.expect_name()]
            self.expect_keyword("IN")
            list_expr = self.parse_expr()
            where = None
            mapper = None
            if self.at_keyword("WHERE"):
                self.pos += 1
                where = self.parse_expr()
            if self.peek() == "|":
                self.pos += 1
                mapper = self.parse_expr()
            self.expect_punct("]")
            return ast.Comprehension(var, list_expr, where, mapper, self.source, open_i)
        items = [] if piece == "]" else self.parse_comma_list(self.parse_list_item)
        self.expect_punct("]")
        return ast.ListLit(items, self.source, open_i)

    def parse_list_item(self) -> ast.Expr:
        # an item that starts with '{' is read by parse_map directly; whatever
        # else follows its '}' ('.k', '+ 1', ...) is read as parse_expr reads it
        if self.peek() != "{":
            return self.parse_expr()
        item = self.parse_map()
        piece = self.peek()
        if piece == "," or piece == "]":
            return item
        return self.parse_operators(self.parse_suffixes(item), 0)

    def parse_map(self) -> ast.Expr:
        open_i = self.expect_punct("{")
        pieces, source = self.pieces, self.source
        pos, items = self.pos, []
        if pieces[pos] == "}":
            self.pos = pos + 1
            return ast.MapLit(items, source, open_i)
        while True:
            # the literal fast path: each entry 'name: <string or int of at
            # most 18 digits, so inside 64 bits>' followed by ',' or '}'
            # becomes its Literal here. Each test reads one piece past the one
            # before it, and the end marker fails every test, so none reads
            # past the end.
            while pieces[pos][:1] not in _KINDS and pieces[pos + 1] == ":":
                value = pieces[pos + 2]
                first = value[:1]
                if first == "'":
                    value = value[1:-1] if "\\" not in value else _lexeme(value)
                elif "0" <= first <= "9" and len(value) < 19:
                    value = int(value)
                else:
                    break
                end = pieces[pos + 3]
                if end != "," and end != "}":
                    break
                items.append((pieces[pos], ast.Literal(value, source, pos + 2)))
                pos += 4
                if end == "}":
                    self.pos = pos
                    return ast.MapLit(items, source, open_i)
            # any other entry: its value is read by parse_expr
            key = pieces[pos]
            if key[:1] in _KINDS:
                raise CypherSyntaxError("expected map key", *self.position(pos))
            if pieces[pos + 1] != ":":
                self.pos = pos + 1
                raise self._expected("':'")
            self.pos = pos + 2
            items.append((key, self.parse_expr()))
            pos = self.pos
            end = pieces[pos]
            if end == "}":
                self.pos = pos + 1
                return ast.MapLit(items, source, open_i)
            if end != ",":
                raise self._expected("'}'")
            pos += 1

    def parse_case(self) -> ast.Expr:
        # the simple form is the searched form with a subject
        case_i = self.next()
        subject = None if self.at_keyword("WHEN") else self.parse_expr()
        whens = []
        while self.at_keyword("WHEN"):
            self.pos += 1
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            whens.append((cond, self.parse_expr()))
        if not whens:
            raise CypherSyntaxError(
                "CASE requires at least one WHEN arm", *self.position(self.pos)
            )
        default = None
        if self.at_keyword("ELSE"):
            self.pos += 1
            default = self.parse_expr()
        self.expect_keyword("END")
        return ast.Case(subject, whens, default, self.source, case_i)


def _parse(text: str, rule):
    try:
        return rule(_Parser(text))
    except RecursionError:
        raise CypherSyntaxError("expression nested too deeply") from None


def parse_query(text: str) -> ast.QueryAst:
    return _parse(text, _Parser.parse_query)


def parse_expression(text: str) -> ast.Expr:
    return _parse(text, _Parser.parse_expression)
