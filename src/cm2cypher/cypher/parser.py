"""Recursive-descent parser for the expression subset.

Query shape: optional "CYPHER 25" header, zero or more LET bindings, one
RETURN clause, optional trailing semicolon. Anything outside the subset
(MATCH, CALL, WITH, unknown functions, ...) is rejected at parse time
with UnsupportedFeature naming the construct, and nesting too deep for
Python's recursion limit with CypherSyntaxError.

Binary operators are read by one precedence-climbing loop (Pratt, "Top Down
Operator Precedence", 1973) over the _BINDING_POWER table, loosest first:
OR, AND, prefix NOT, = <> < <= > >=, + -, * / %. An operator is a
punctuation token or the keyword AND/OR, never a string or another name.

Literal fast path: parse_map reads each entry 'key: <int or string>'
followed by ',' or '}' in one loop over the tokens, and parse_list hands an
item that starts with '{' to parse_map directly, then reads whatever
follows its '}' as parse_expr would; the first entry or item of any other
shape falls back to the general descent, so trees and errors are the same.
"""

from __future__ import annotations

from . import ast
from .errors import CypherSyntaxError, UnsupportedFeature
from .lexer import EOF, IDENT, INT, PUNCT, STRING, Token, tokenize

KEYWORDS = {
    "LET", "RETURN", "CASE", "WHEN", "THEN", "ELSE", "END",
    "IN", "AS", "AND", "OR", "NOT", "XOR", "TRUE", "FALSE", "NULL", "WHERE",
}

UNSUPPORTED = {
    "MATCH", "OPTIONAL", "CREATE", "MERGE", "SET", "DELETE", "DETACH", "REMOVE",
    "CALL", "UNWIND", "WITH", "FOREACH", "ORDER", "SKIP", "LIMIT", "UNION",
    "USE", "USING", "SHOW", "NEXT", "LOAD", "EXISTS", "COUNT", "COLLECT",
}

# the keywords that are constants, each read as a Literal
_CONSTANTS = {"TRUE": True, "FALSE": False, "NULL": None}

# callable functions and their argument counts; reduce() has its own syntax
FUNCTION_ARITY = {"head": 1, "range": 2}

# How tightly each binary operator binds; all of them group to the left.
# Prefix NOT binds between AND and the comparisons.
_BINDING_POWER = {"OR": 1, "AND": 2, "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
                  "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}
_NOT_POWER = 3


def _literal(tok: Token, minus: Token | None = None) -> ast.Literal:
    """The Literal of an INT or STRING token; an INT after the '-' token
    ``minus`` is negative and sits at the '-'."""
    if tok.kind == STRING:
        return ast.Literal(tok.lexeme, tok.line, tok.column)
    try:
        value = int(tok.lexeme)
    except ValueError:  # past Python's limit on int() of a digit string
        raise CypherSyntaxError(
            f"integer literal of {len(tok.lexeme)} digits is too long", tok.line, tok.column
        ) from None
    if minus is not None:
        value, tok = -value, minus
    return _int_literal(value, tok)


def _int_literal(value: int, tok: Token) -> ast.Literal:
    """An integer Literal at tok; the subset's integers are 64-bit."""
    if not ast.INT64_MIN <= value <= ast.INT64_MAX:
        raise CypherSyntaxError(
            f"integer literal {value} is outside the 64-bit range", tok.line, tok.column
        )
    return ast.Literal(value, tok.line, tok.column)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # --- token helpers -------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at_keyword(self, word: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == IDENT and tok.lexeme.upper() == word

    def _expected(self, what: str) -> CypherSyntaxError:
        tok = self.peek()
        found = "end of input" if tok.kind == EOF else tok.lexeme
        return CypherSyntaxError(f"expected {what}, found {found!r}", tok.line, tok.column)

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self._expected(word)
        return self.next()

    def at_punct(self, lexeme: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == PUNCT and tok.lexeme == lexeme

    def expect_punct(self, lexeme: str) -> Token:
        if not self.at_punct(lexeme):
            raise self._expected(repr(lexeme))
        return self.next()

    def expect_name(self) -> Token:
        tok = self.peek()
        if tok.kind != IDENT or tok.lexeme.upper() in KEYWORDS:
            raise self._expected("a name")
        self._reject_unsupported(tok)
        return self.next()

    def expect_ident(self, message: str) -> Token:
        tok = self.peek()
        if tok.kind != IDENT:
            raise CypherSyntaxError(message, tok.line, tok.column)
        return self.next()

    def parse_comma_list(self, parse_item) -> list:
        items = [parse_item()]
        while self.at_punct(","):
            self.next()
            items.append(parse_item())
        return items

    def _reject_unsupported(self, tok: Token):
        if tok.kind == IDENT and tok.lexeme.upper() in UNSUPPORTED:
            raise UnsupportedFeature(tok.lexeme.upper(), tok.line, tok.column)

    # --- query ----------------------------------------------------------

    def parse_query(self) -> ast.QueryAst:
        has_header = False
        if self.at_keyword("CYPHER") and self.peek(1).kind == INT:
            self.next()
            self.next()
            has_header = True
        bindings: list[tuple[str, ast.Expr]] = []
        seen = set()
        while self.at_keyword("LET"):
            self.next()
            name_tok = self.expect_name()
            if name_tok.lexeme in seen:
                raise CypherSyntaxError(
                    f"duplicate binding {name_tok.lexeme!r}", name_tok.line, name_tok.column
                )
            seen.add(name_tok.lexeme)
            self.expect_punct("=")
            bindings.append((name_tok.lexeme, self.parse_expr()))
        self._reject_unsupported(self.peek())
        self.expect_keyword("RETURN")
        returns = self.parse_comma_list(self.parse_return_item)
        if self.at_punct(";"):
            self.next()
        tok = self.peek()
        if tok.kind != EOF:
            self._reject_unsupported(tok)
            raise CypherSyntaxError(
                f"unexpected input after RETURN clause: {tok.lexeme!r}", tok.line, tok.column
            )
        return ast.QueryAst(has_header, tuple(bindings), tuple(returns))

    def parse_expression(self) -> ast.Expr:
        expr = self.parse_expr()
        tok = self.peek()
        if tok.kind != EOF:
            raise CypherSyntaxError(f"unexpected trailing input {tok.lexeme!r}", tok.line, tok.column)
        return expr

    def parse_return_item(self) -> ast.ReturnItem:
        start = self.peek().offset
        expr = self.parse_expr()
        if self.at_keyword("AS"):
            self.next()
            alias = self.expect_name().lexeme
        else:
            end = self.peek().offset
            alias = self.text[start:end].strip()
        return ast.ReturnItem(expr, alias)

    # --- expressions: one binding-power loop over the binary operators ---

    def parse_expr(self, min_power: int = 0) -> ast.Expr:
        # an operand, then the binary operators that bind tighter than min_power
        tok = self.peek()
        # NOT may start an operand of OR, AND or NOT, not of a tighter operator
        if min_power <= _NOT_POWER and tok.kind == IDENT and tok.lexeme.upper() == "NOT":
            self.next()
            left = ast.Not(self.parse_expr(_NOT_POWER), tok.line, tok.column)
        else:
            left = self.parse_unary()
        return self.parse_operators(left, min_power)

    def parse_operators(self, left: ast.Expr, min_power: int) -> ast.Expr:
        while True:
            tok = self.peek()
            if tok.kind == PUNCT:
                op = tok.lexeme
            elif tok.kind == IDENT:
                op = tok.lexeme.upper()
            else:
                return left
            power = _BINDING_POWER.get(op, 0)
            if power <= min_power:
                return left
            self.next()
            left = ast.Binary(op, left, self.parse_expr(power), tok.line, tok.column)

    def parse_unary(self) -> ast.Expr:
        if self.at_punct("-"):
            tok = self.next()
            # -<digits> is one literal, so -9223372036854775808 is in range;
            # a '.' or '[' after the digits binds tighter than the '-'
            if self.peek().kind == INT and not (self.at_punct(".", 1) or self.at_punct("[", 1)):
                return _literal(self.next(), tok)
            operand = self.parse_unary()
            # fold -<int> into a literal; -true, -null and -'a' keep Neg's checks
            if type(operand) is ast.Literal and type(operand.value) is int:
                return _int_literal(-operand.value, tok)
            return ast.Neg(operand, tok.line, tok.column)
        if self.at_punct("+"):
            self.next()
            return self.parse_unary()
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        return self.parse_suffixes(self.parse_primary())

    def parse_suffixes(self, expr: ast.Expr) -> ast.Expr:
        while True:
            if self.at_punct("."):
                tok = self.next()
                key = self.expect_ident("expected property name after '.'")
                expr = ast.Prop(expr, key.lexeme, tok.line, tok.column)
            elif self.at_punct("["):
                tok = self.next()
                index = self.parse_expr()
                self.expect_punct("]")
                expr = ast.Index(expr, index, tok.line, tok.column)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == INT or tok.kind == STRING:
            self.next()
            return _literal(tok)
        if tok.kind == PUNCT:
            if tok.lexeme == "(":
                self.next()
                expr = self.parse_expr()
                self.expect_punct(")")
                return expr
            if tok.lexeme == "[":
                return self.parse_list()
            if tok.lexeme == "{":
                return self.parse_map()
            if tok.lexeme == "$":
                self.next()
                name = self.expect_ident("expected parameter name after '$'")
                return ast.Param(name.lexeme, tok.line, tok.column)
            raise CypherSyntaxError(f"unexpected {tok.lexeme!r}", tok.line, tok.column)
        if tok.kind == IDENT:
            upper = tok.lexeme.upper()
            self._reject_unsupported(tok)
            if upper == "CASE":
                return self.parse_case()
            if upper in _CONSTANTS:
                self.next()
                return ast.Literal(_CONSTANTS[upper], tok.line, tok.column)
            if upper in KEYWORDS:
                raise CypherSyntaxError(f"unexpected keyword {tok.lexeme!r}", tok.line, tok.column)
            if self.at_punct("(", ahead=1):
                return self.parse_call()
            self.next()
            return ast.Var(tok.lexeme, tok.line, tok.column)
        raise CypherSyntaxError("unexpected end of input", tok.line, tok.column)

    def parse_call(self) -> ast.Expr:
        name_tok = self.next()
        name = name_tok.lexeme
        if name == "reduce":
            return self.parse_reduce(name_tok)
        if name not in FUNCTION_ARITY:
            raise UnsupportedFeature(f"function {name}()", name_tok.line, name_tok.column)
        self.expect_punct("(")
        args = self.parse_comma_list(self.parse_expr)
        self.expect_punct(")")
        arity = FUNCTION_ARITY[name]
        if len(args) != arity:
            raise CypherSyntaxError(
                f"{name}() takes {arity} argument(s), got {len(args)}",
                name_tok.line,
                name_tok.column,
            )
        return ast.Call(name, args, name_tok.line, name_tok.column)

    def parse_reduce(self, name_tok) -> ast.Expr:
        self.expect_punct("(")
        acc = self.expect_name()
        self.expect_punct("=")
        init = self.parse_expr()
        self.expect_punct(",")
        var = self.expect_name()
        self.expect_keyword("IN")
        list_expr = self.parse_expr()
        self.expect_punct("|")
        body = self.parse_expr()
        self.expect_punct(")")
        return ast.Reduce(
            acc.lexeme, init, var.lexeme, list_expr, body, name_tok.line, name_tok.column
        )

    def parse_list(self) -> ast.Expr:
        open_tok = self.expect_punct("[")
        # two-token lookahead: "[ name IN" starts a comprehension
        if (
            self.peek().kind == IDENT
            and self.peek().lexeme.upper() not in KEYWORDS
            and self.at_keyword("IN", ahead=1)
        ):
            var = self.expect_name()
            self.expect_keyword("IN")
            list_expr = self.parse_expr()
            where = None
            mapper = None
            if self.at_keyword("WHERE"):
                self.next()
                where = self.parse_expr()
            if self.at_punct("|"):
                self.next()
                mapper = self.parse_expr()
            self.expect_punct("]")
            return ast.Comprehension(
                var.lexeme, list_expr, where, mapper, open_tok.line, open_tok.column
            )
        items = [] if self.at_punct("]") else self.parse_comma_list(self.parse_list_item)
        self.expect_punct("]")
        return ast.ListLit(items, open_tok.line, open_tok.column)

    def parse_list_item(self) -> ast.Expr:
        # an item that starts with '{' is read by parse_map directly; whatever
        # else follows its '}' ('.k', '+ 1', ...) is read as parse_expr reads it
        if not self.at_punct("{"):
            return self.parse_expr()
        item = self.parse_map()
        tok = self.tokens[self.pos]
        if tok.kind == PUNCT and (tok.lexeme == "," or tok.lexeme == "]"):
            return item
        return self.parse_operators(self.parse_suffixes(item), 0)

    def parse_map(self) -> ast.Expr:
        open_tok = self.expect_punct("{")
        tokens, pos, items = self.tokens, self.pos, []
        # fast path: each entry 'key: <int or string>' followed by ',' or '}'
        # becomes its Literal here. Each test reads one token past the one
        # before it, and EOF fails every test, so none reads past the end.
        while tokens[pos].kind == IDENT:
            colon = tokens[pos + 1]
            if colon.kind != PUNCT or colon.lexeme != ":":
                break
            value = tokens[pos + 2]
            if value.kind != INT and value.kind != STRING:
                break
            literal = _literal(value)
            end = tokens[pos + 3]
            if end.kind != PUNCT or (end.lexeme != "," and end.lexeme != "}"):
                break
            items.append((tokens[pos].lexeme, literal))
            pos += 4
            if end.lexeme == "}":
                self.pos = pos
                return ast.MapLit(items, open_tok.line, open_tok.column)
        # the general path, from the first entry the fast path did not read
        self.pos = pos
        if items or not self.at_punct("}"):
            items += self.parse_comma_list(self.parse_map_entry)
        self.expect_punct("}")
        return ast.MapLit(items, open_tok.line, open_tok.column)

    def parse_map_entry(self) -> tuple[str, ast.Expr]:
        key = self.expect_ident("expected map key")
        self.expect_punct(":")
        return key.lexeme, self.parse_expr()

    def parse_case(self) -> ast.Expr:
        # the simple form is the searched form with a subject
        case_tok = self.next()
        subject = None if self.at_keyword("WHEN") else self.parse_expr()
        whens = []
        while self.at_keyword("WHEN"):
            self.next()
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            whens.append((cond, self.parse_expr()))
        if not whens:
            tok = self.peek()
            raise CypherSyntaxError("CASE requires at least one WHEN arm", tok.line, tok.column)
        default = None
        if self.at_keyword("ELSE"):
            self.next()
            default = self.parse_expr()
        self.expect_keyword("END")
        return ast.Case(subject, whens, default, case_tok.line, case_tok.column)


def _parse(text: str, rule):
    try:
        return rule(_Parser(text))
    except RecursionError:
        raise CypherSyntaxError("expression nested too deeply") from None


def parse_query(text: str) -> ast.QueryAst:
    return _parse(text, _Parser.parse_query)


def parse_expression(text: str) -> ast.Expr:
    return _parse(text, _Parser.parse_expression)
