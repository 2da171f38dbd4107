import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cm2cypher.codegen import gen_reduce_query
from cm2cypher.cypher import (
    CypherError,
    CypherSyntaxError,
    DivisionByZero,
    EvalError,
    IntegerOverflow,
    TypeMismatch,
    UnknownParameter,
    UnknownVariable,
    UnsupportedFeature,
    ast,
    evaluate,
    format_results,
    format_value,
    parse_expression,
    parse_query,
    run_query,
    run_query_text,
    tokenize,
)
from cm2cypher.cypher.parser import FUNCTION_ARITY, KEYWORDS, UNSUPPORTED
from cm2cypher.frontend import random_program
from cm2cypher.machine import run
from conftest import GOLDEN

INT64_MAX = 2**63 - 1


def ev(text, params=None):
    return parse_expression(text).eval({}, params or {})


# ---------------------------------------------------------------- lexer


def test_tokenize_kinds():
    toks = tokenize("LET x = head([1, 2]) // note")
    kinds = [(t.kind, t.lexeme) for t in toks]
    assert kinds == [
        ("ident", "LET"),
        ("ident", "x"),
        ("punct", "="),
        ("ident", "head"),
        ("punct", "("),
        ("punct", "["),
        ("int", "1"),
        ("punct", ","),
        ("int", "2"),
        ("punct", "]"),
        ("punct", ")"),
        ("eof", ""),
    ]


def test_tokenize_string_escapes():
    toks = tokenize(r"'a\'b'")
    assert toks[0].kind == "string"
    assert toks[0].lexeme == "a'b"


def test_tokenize_multichar_operators():
    lexemes = [t.lexeme for t in tokenize("a <= b >= c <> d") if t.kind == "punct"]
    assert lexemes == ["<=", ">=", "<>"]


def test_tokenize_block_comment():
    toks = tokenize("1 /* skip\nme */ + 2")
    assert [t.lexeme for t in toks if t.kind != "eof"] == ["1", "+", "2"]


def test_tokenize_positions():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (2, 3)


def test_tokenize_unterminated_string():
    with pytest.raises(CypherSyntaxError):
        tokenize("'open")


@pytest.mark.parametrize("text, message, line, column", [
    ("RETURN\n  'open", "unterminated string literal", 2, 3),
    ("RETURN 'a\\'", "unterminated string literal", 1, 8),
    ("1 +\n /* open */ 2 /* open", "unterminated block comment", 2, 15),
    ("/*/", "unterminated block comment", 1, 1),
    ("RETURN 1 ! 2", "illegal character '!'", 1, 10),
    ("RETURN\r\n\t\"a\"", "illegal character '\"'", 2, 2),
])
def test_tokenize_error_messages_and_positions(text, message, line, column):
    with pytest.raises(CypherSyntaxError) as exc_info:
        tokenize(text)
    assert (exc_info.value.message, exc_info.value.line, exc_info.value.column) == (
        message, line, column
    )


def test_tokenize_strings_and_comments_span_lines():
    toks = tokenize("'a\nb' /* c\n\nd */ x // '\ny")
    assert [(t.kind, t.lexeme, t.line, t.column) for t in toks] == [
        ("string", "a\nb", 1, 1),
        ("ident", "x", 4, 6),
        ("ident", "y", 5, 1),
        ("eof", "", 5, 2),
    ]


def test_tokenize_comment_markers_inside_strings_are_content():
    toks = tokenize("'//' + '/* x */'")
    assert [(t.kind, t.lexeme) for t in toks] == [
        ("string", "//"), ("punct", "+"), ("string", "/* x */"), ("eof", ""),
    ]


def test_tokenize_non_ascii_identifiers():
    assert [(t.kind, t.lexeme) for t in tokenize("é1 x² _ß")][:-1] == [
        ("ident", "é1"), ("ident", "x²"), ("ident", "_ß"),
    ]


@pytest.mark.parametrize("text", ["RETURN ²", "RETURN ٣", "RETURN 1²"])
def test_integer_literals_are_ascii_digits(text):
    # '²' used to reach int() and raise ValueError; '٣' evaluated to 3
    with pytest.raises(CypherSyntaxError, match="illegal character"):
        run_query_text(text)


_CYPHERISH = st.sampled_from(list("aZx_é09² \t\r\n'\"\\/*()[]{},:.|+-%=<>$;!") + ["//", "/*", "*/"])


@given(st.lists(_CYPHERISH, max_size=30).map("".join))
@settings(max_examples=300, deadline=None)
def test_tokenize_positions_property(text):
    try:
        toks = tokenize(text)
    except CypherSyntaxError:
        return
    assert toks[-1].kind == "eof" and toks[-1].offset == len(text)
    offsets = [t.offset for t in toks]
    assert offsets == sorted(set(offsets))  # strictly increasing
    for t in toks:
        assert t.line == text.count("\n", 0, t.offset) + 1
        assert t.column == t.offset - (text.rfind("\n", 0, t.offset) + 1) + 1
        if t.kind != "string":
            assert text[t.offset:t.offset + len(t.lexeme)] == t.lexeme


# ---------------------------------------------------------------- parser


def test_parse_query_golden_reduce_structure():
    text = (GOLDEN / "demo.reduce.cypher").read_text()
    q = parse_query(text)
    assert [name for name, _ in q.bindings] == ["program", "max_steps", "result"]
    assert [item.alias for item in q.returns] == ["result"]


def test_parse_query_bare_return():
    q = parse_query("RETURN 1")
    assert list(q.bindings) == []


def test_parse_query_duplicate_binding():
    with pytest.raises(CypherSyntaxError, match="duplicate"):
        parse_query("LET x = 1 LET x = 2 RETURN x")


def test_return_alias_defaults_to_source_text():
    q = parse_query("RETURN 1 + 2")
    assert q.returns[0].alias == "1 + 2"


def test_unsupported_clauses():
    for text, feature in [
        ("MATCH (n) RETURN n", "MATCH"),
        ("CREATE (n) RETURN 1", "CREATE"),
        ("CALL db.labels()", "CALL"),
        ("LET x = 1 RETURN x NEXT RETURN x", "NEXT"),
    ]:
        with pytest.raises(UnsupportedFeature, match=feature):
            parse_query(text)


def test_unsupported_function():
    with pytest.raises(UnsupportedFeature, match="size"):
        parse_query("RETURN size([1])")


def test_syntax_error_reports_position():
    with pytest.raises(CypherSyntaxError) as exc_info:
        parse_query("RETURN (1 + ")
    assert exc_info.value.line == 1


DEPTH = 3000


@pytest.mark.parametrize("text", [
    "(" * DEPTH + "1" + ")" * DEPTH,
    "head([" * DEPTH + "1" + "])" * DEPTH,
    "NOT " * DEPTH + "true",
    "-" * DEPTH + "1",
    "- " * DEPTH + "x",
], ids=["parentheses", "head", "not", "minus-literal", "minus-variable"])
def test_deep_nesting_is_a_syntax_error(text):
    for parse in (parse_query, parse_expression):
        with pytest.raises(CypherSyntaxError, match="nested too deeply"):
            parse("RETURN " + text if parse is parse_query else text)


# every raise site of the parser, reached through parse_query
@pytest.mark.parametrize("text, error, message, line, column", [
    # an operator lexeme inside a string or a name is not an operator
    ("RETURN 1 '+' 2", CypherSyntaxError, "unexpected input after RETURN clause: '+'", 1, 10),
    ("RETURN 1 XOR 2", CypherSyntaxError, "unexpected input after RETURN clause: 'XOR'", 1, 10),
    ("RETURN a NOT b", CypherSyntaxError, "unexpected input after RETURN clause: 'NOT'", 1, 10),
    ("RETURN 1 ; 2", CypherSyntaxError, "unexpected input after RETURN clause: '2'", 1, 12),
    # prefix NOT only where a boolean operand may start
    ("RETURN 1 = NOT true", CypherSyntaxError, "unexpected keyword 'NOT'", 1, 12),
    ("RETURN 1 =\n  NOT x", CypherSyntaxError, "unexpected keyword 'NOT'", 2, 3),
    ("RETURN - NOT x", CypherSyntaxError, "unexpected keyword 'NOT'", 1, 10),
    ("RETURN WHEN", CypherSyntaxError, "unexpected keyword 'WHEN'", 1, 8),
    ("RETURN CASE x WHEN 1 THEN 2 ELSE END", CypherSyntaxError, "unexpected keyword 'END'", 1, 34),
    ("RETURN 1 +", CypherSyntaxError, "unexpected end of input", 1, 11),
    ("RETURN 1 AND", CypherSyntaxError, "unexpected end of input", 1, 13),
    ("RETURN NOT", CypherSyntaxError, "unexpected end of input", 1, 11),
    ("RETURN )", CypherSyntaxError, "unexpected ')'", 1, 8),
    ("RETURN CASE 1 END", CypherSyntaxError, "CASE requires at least one WHEN arm", 1, 15),
    ("RETURN CASE WHEN true 1 END", CypherSyntaxError, "expected THEN, found '1'", 1, 23),
    ("RETURN CASE WHEN true THEN 1", CypherSyntaxError, "expected END, found 'end of input'", 1, 29),
    ("RETURN head()", CypherSyntaxError, "unexpected ')'", 1, 13),
    ("RETURN head(1, 2)", CypherSyntaxError, "head() takes 1 argument(s), got 2", 1, 8),
    ("RETURN range(1)", CypherSyntaxError, "range() takes 2 argument(s), got 1", 1, 8),
    ("RETURN size([1])", UnsupportedFeature, "function size()", 1, 8),
    ("RETURN $ + 1", CypherSyntaxError, "expected parameter name after '$'", 1, 10),
    ("RETURN x.", CypherSyntaxError, "expected property name after '.'", 1, 10),
    ("RETURN x.1", CypherSyntaxError, "expected property name after '.'", 1, 10),
    ("RETURN {1: 2}", CypherSyntaxError, "expected map key", 1, 9),
    ("RETURN {'a': 1}", CypherSyntaxError, "expected map key", 1, 9),
    ("RETURN {a 1}", CypherSyntaxError, "expected ':', found '1'", 1, 11),
    # an empty string literal is not the end of input
    ("RETURN {a ''}", CypherSyntaxError, "expected ':', found ''", 1, 11),
    ("RETURN {a: 1 b: 2}", CypherSyntaxError, "expected '}', found 'b'", 1, 14),
    ("RETURN (1", CypherSyntaxError, "expected ')', found 'end of input'", 1, 10),
    ("RETURN x[1", CypherSyntaxError, "expected ']', found 'end of input'", 1, 11),
    ("RETURN [x IN [1] WHERE x 1]", CypherSyntaxError, "expected ']', found '1'", 1, 26),
    ("RETURN reduce(a = 0, x 5 | a)", CypherSyntaxError, "expected IN, found '5'", 1, 24),
    ("RETURN reduce(1 = 0, x IN [1] | a)", CypherSyntaxError, "expected a name, found '1'", 1, 15),
    ("RETURN 1 AS return", CypherSyntaxError, "expected a name, found 'return'", 1, 13),
    ("LET 1 = 2 RETURN 1", CypherSyntaxError, "expected a name, found '1'", 1, 5),
    ("LET x 1 RETURN x", CypherSyntaxError, "expected '=', found '1'", 1, 7),
    ("LET x = 1 x", CypherSyntaxError, "expected RETURN, found 'x'", 1, 11),
    ("", CypherSyntaxError, "expected RETURN, found 'end of input'", 1, 1),
    ("LET x = 1 LET x = 2 RETURN x", CypherSyntaxError, "duplicate binding 'x'", 1, 15),
    # a repeated RETURN alias, at the name after AS or at the implicit alias's
    # first token
    ("RETURN 1 AS x, 2 AS x", CypherSyntaxError, "duplicate return alias 'x'", 1, 21),
    ("RETURN x, x", CypherSyntaxError, "duplicate return alias 'x'", 1, 11),
    ("RETURN 1 + 1, 2 AS y, 1 + 1", CypherSyntaxError, "duplicate return alias '1 + 1'", 1, 23),
    ("RETURN 1 AS a, a", CypherSyntaxError, "duplicate return alias 'a'", 1, 16),
    ("MATCH (n) RETURN n", UnsupportedFeature, "MATCH", 1, 1),
    ("LET match = 1 RETURN 1", UnsupportedFeature, "MATCH", 1, 5),
    ("RETURN exists", UnsupportedFeature, "EXISTS", 1, 8),
    ("RETURN 1 LIMIT 1", UnsupportedFeature, "LIMIT", 1, 10),
    # map and list literals cut short or run together: the literal fast path
    # must read no token past the end and hand each of these to the general
    # path at the entry or item where it stops
    ("RETURN {a:", CypherSyntaxError, "unexpected end of input", 1, 11),
    ("RETURN {a: 1", CypherSyntaxError, "expected '}', found 'end of input'", 1, 13),
    ("RETURN {a: 1,", CypherSyntaxError, "expected map key", 1, 14),
    ("RETURN {a: 1,}", CypherSyntaxError, "expected map key", 1, 14),
    ("RETURN [{a: 1}", CypherSyntaxError, "expected ']', found 'end of input'", 1, 15),
    ("RETURN [{a: 1},", CypherSyntaxError, "unexpected end of input", 1, 16),
    ("RETURN [{a: 1} {b: 2}]", CypherSyntaxError, "expected ']', found '{'", 1, 16),
    ("RETURN {a: 1 'x'}", CypherSyntaxError, "expected '}', found 'x'", 1, 14),
    ("RETURN [{a: 1, b: 2 c: 3}]", CypherSyntaxError, "expected '}', found 'c'", 1, 21),
    # an INT literal past Python's int() digit limit, in the general path, the
    # map fast path and under a minus
    pytest.param("RETURN " + "1" * 5000, CypherSyntaxError,
                 "integer literal of 5000 digits is too long", 1, 8, id="int-5000-digits"),
    pytest.param("RETURN {a: " + "1" * 5000 + "}", CypherSyntaxError,
                 "integer literal of 5000 digits is too long", 1, 12, id="map-int-5000-digits"),
    pytest.param("RETURN -" + "1" * 5000, CypherSyntaxError,
                 "integer literal of 5000 digits is too long", 1, 9, id="neg-int-5000-digits"),
    # an INT literal outside 64 bits after the '-' fold: alone, in the map
    # fast path, negated twice, below -2^63, in parentheses, under a suffix
    ("RETURN 100000000000000000000000 AS x", CypherSyntaxError,
     "integer literal 100000000000000000000000 is outside the 64-bit range", 1, 8),
    ("RETURN 9223372036854775808", CypherSyntaxError,
     "integer literal 9223372036854775808 is outside the 64-bit range", 1, 8),
    ("RETURN {a: 9223372036854775808}", CypherSyntaxError,
     "integer literal 9223372036854775808 is outside the 64-bit range", 1, 12),
    ("RETURN - -9223372036854775808", CypherSyntaxError,
     "integer literal 9223372036854775808 is outside the 64-bit range", 1, 8),
    ("RETURN [1, -9223372036854775809]", CypherSyntaxError,
     "integer literal -9223372036854775809 is outside the 64-bit range", 1, 12),
    ("RETURN -(9223372036854775808)", CypherSyntaxError,
     "integer literal 9223372036854775808 is outside the 64-bit range", 1, 10),
    ("RETURN -9223372036854775808.x", CypherSyntaxError,
     "integer literal 9223372036854775808 is outside the 64-bit range", 1, 9),
])
def test_parse_error_class_message_and_position(text, error, message, line, column):
    with pytest.raises(CypherError) as exc_info:
        parse_query(text)
    got = exc_info.value
    assert (type(got), got.message, got.line, got.column) == (error, message, line, column)


def test_parse_expression_rejects_trailing_input():
    with pytest.raises(CypherSyntaxError) as exc_info:
        parse_expression("1 )")
    got = exc_info.value
    assert (got.message, got.line, got.column) == ("unexpected trailing input ')'", 1, 3)


def sexpr(node):
    """Operators fully parenthesised, to show how a parse grouped them."""
    kind = type(node)
    if kind is ast.Binary:
        return f"({sexpr(node.left)} {node.op} {sexpr(node.right)})"
    if kind is ast.Not:
        return f"(NOT {sexpr(node.operand)})"
    if kind is ast.Neg:
        return f"(- {sexpr(node.operand)})"
    if kind is ast.Prop:
        return f"{sexpr(node.obj)}.{node.key}"
    if kind is ast.Index:
        return f"{sexpr(node.obj)}[{sexpr(node.index)}]"
    if kind is ast.Var:
        return node.name
    return repr(node.value)


@pytest.mark.parametrize("text, grouped", [
    ("1 - 2 - 3", "((1 - 2) - 3)"),
    ("a = b = c", "((a = b) = c)"),
    ("a < b <> c", "((a < b) <> c)"),
    ("NOT a = b", "(NOT (a = b))"),
    ("NOT a AND b", "((NOT a) AND b)"),
    ("NOT NOT a", "(NOT (NOT a))"),
    ("a AND NOT b OR c", "((a AND (NOT b)) OR c)"),
    ("a OR b AND c", "(a OR (b AND c))"),
    ("a or b and not c", "(a OR (b AND (NOT c)))"),
    ("a AND b = c + 1", "(a AND (b = (c + 1)))"),
    ("NOT a <> b - c", "(NOT (a <> (b - c)))"),
    ("NOT a < b + c", "(NOT (a < (b + c)))"),
    ("NOT a <= b - c", "(NOT (a <= (b - c)))"),
    ("NOT a > b + c", "(NOT (a > (b + c)))"),
    ("NOT a >= b - c", "(NOT (a >= (b - c)))"),
    ("a - b / c", "(a - (b / c))"),
    ("a % b - c", "((a % b) - c)"),
    ("-2 * 3", "(-2 * 3)"),
    ("- x.y[0]", "(- x.y[0])"),
    ("a - -1", "(a - -1)"),
    ("+ a * - b", "(a * (- b))"),
    ("1 + 2 * 3 % 4", "(1 + ((2 * 3) % 4))"),
    ("1 * 2 + 3 / 4 - 5", "(((1 * 2) + (3 / 4)) - 5)"),
    ("(1 + 2) * 3", "((1 + 2) * 3)"),
])
def test_operator_precedence_and_associativity(text, grouped):
    assert sexpr(parse_expression(text)) == grouped


def test_binary_operators_carry_their_own_position():
    tree = parse_expression("a OR\n  b and 1 + 2")
    assert (tree.op, tree.line, tree.column) == ("OR", 1, 3)
    assert (tree.right.op, tree.right.line, tree.right.column) == ("AND", 2, 5)
    plus = tree.right.right
    assert (plus.op, plus.line, plus.column) == ("+", 2, 11)


# literal trees: the parser's fast path for map entries and map items of a
# list must build the tree the general descent builds
_GAPS = st.sampled_from(["", " ", "\n", "\t ", "// c\n", "/* c */", "/*\n */ "])
_KEYS = st.sampled_from(["a", "k", "x_1", "end", "next", "match", "else", "null", "RETURN"])
_INTS = st.one_of(st.integers(-3, 3), st.integers(-(2**63), INT64_MAX))
_STRS = st.text(alphabet="ab' \\\n\t/*{},:", max_size=6)


def _quote(data, s):
    out = []
    for c in s:
        if c in "\\'":
            out.append("\\" + c)
        elif c in "\n\t" and data.draw(st.booleans()):
            out.append("\\n" if c == "\n" else "\\t")  # else the character itself
        else:
            out.append(c)
    return "'" + "".join(out) + "'"


def _literal_tree(data, depth):
    """(text, value, nodes) of a random literal tree, with a random gap of
    blanks, line breaks or comments around its tokens and some values
    followed by '+ 1', '.k' or '[0]'."""
    def gap():
        return data.draw(_GAPS)

    kind = data.draw(st.sampled_from(["int", "str", "list", "map"][: 4 if depth else 2]))
    if kind == "int":
        n = data.draw(_INTS)
        text, value, nodes = ("-" + gap() + str(-n) if n < 0 else str(n)), n, 1
    elif kind == "str":
        s = data.draw(_STRS)
        text, value, nodes = _quote(data, s), s, 1
    elif kind == "list":
        items = [_literal_tree(data, depth - 1) for _ in range(data.draw(st.integers(0, 3)))]
        text = "[" + ",".join(gap() + t + gap() for t, _, _ in items) + gap() + "]"
        value, nodes = [v for _, v, _ in items], 1 + sum(n for _, _, n in items)
    else:
        entries = [(data.draw(_KEYS), _literal_tree(data, depth - 1))
                   for _ in range(data.draw(st.integers(0, 3)))]
        text = "{" + ",".join(f"{gap()}{k}{gap()}:{gap()}{t}{gap()}"
                              for k, (t, _, _) in entries) + gap() + "}"
        value = {k: v for k, (_, v, _) in entries}  # a repeated key: the last one wins
        nodes = 1 + sum(n for _, (_, _, n) in entries)
    suffix = data.draw(st.sampled_from(["", "", "+", ".k", "[0]"]))
    if suffix == "+" and type(value) is int and -(2**63) <= value < INT64_MAX:
        return f"{text}{gap()}+{gap()}1", value + 1, nodes + 2
    if suffix == ".k" and type(value) is dict:
        return f"{text}{gap()}.{gap()}k", value.get("k"), nodes + 1
    if suffix == "[0]" and type(value) is list:
        return f"{text}{gap()}[{gap()}0{gap()}]", value[0] if value else None, nodes + 2
    return text, value, nodes


def _nodes(tree):
    """Every Expr of a tree, each before its children, in source order."""
    if isinstance(tree, (list, tuple)):
        for x in tree:
            yield from _nodes(x)
    elif isinstance(tree, ast.Expr):
        yield tree
        for slot in type(tree).__slots__:
            yield from _nodes(getattr(tree, slot))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_literal_trees_parse_to_their_value_positions_and_size(data):
    text, value, nodes = _literal_tree(data, 3)
    text = data.draw(_GAPS) + text + data.draw(_GAPS)
    tree = parse_expression(text)
    assert tree.eval({}, {}) == value
    # each Literal sits at its INT or STRING token, or at the '-' folded into it
    tokens = tokenize(text)
    expected = []
    for before, tok in zip([None] + tokens, tokens):
        if tok.kind in ("int", "string"):
            signed = before is not None and before.kind == "punct" and before.lexeme == "-"
            literal = int(tok.lexeme) if tok.kind == "int" else tok.lexeme
            at = before if signed else tok
            expected.append((at.line, at.column, -literal if signed else literal))
    nodes_built = list(_nodes(tree))
    literals = [(n.line, n.column, n.value) for n in nodes_built if type(n) is ast.Literal]
    assert literals == expected
    assert len(nodes_built) == nodes


def test_map_item_with_a_suffix_is_read_once(monkeypatch):
    # a parser that reread such an item from its '{' would build 2^12 maps here
    built = []

    class CountedMapLit(ast.MapLit):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(ast, "MapLit", CountedMapLit)
    text, value = "1", 1
    for _ in range(12):
        text, value = "[{a: " + text + "}.a]", [value]
    assert parse_expression(text).eval({}, {}) == value
    assert len(built) == 12


# ---------------------------------------------------------------- evaluation


def test_arithmetic_and_precedence():
    assert ev("1 + 2 * 3") == 7
    assert ev("(1 + 2) * 3") == 9
    assert ev("7 % 3") == 1
    assert ev("-5") == -5
    assert ev("- -1") == 1


def test_integer_division_truncates_toward_zero():
    assert ev("7 / 2") == 3
    assert ev("-7 / 2") == -3
    assert ev("7 / -2") == -3


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ev("1 / 0")
    with pytest.raises(DivisionByZero):
        ev("1 % 0")


def test_overflow_detection():
    with pytest.raises(IntegerOverflow):
        ev(f"{INT64_MAX} + 1")
    assert ev(f"{INT64_MAX} + 0") == INT64_MAX


def test_reduce_sum():
    assert ev("reduce(acc = 0, x IN [1, 2, 3] | acc + x)") == 6


def test_reduce_restores_shadowed_variables():
    result = run_query_text(
        "LET x = 99 LET s = reduce(acc = 0, x IN [1, 2] | acc + x) RETURN x, s"
    )
    assert result == {"x": 99, "s": 3}


def test_reduce_over_non_list():
    with pytest.raises(TypeMismatch):
        ev("reduce(acc = 0, x IN 5 | acc + x)")


def test_head_let_binding_idiom():
    # the single-element comprehension used to bind a loop-local name
    assert ev("head([v IN [[1, 2, 3]] | v[0] + v[1] + v[2]])") == 6


def test_head_cases():
    assert ev("head([7, 8])") == 7
    assert ev("head([])") is None


# ---------------------------------------------------------------- reduce fixpoint exit


class Counted(ast.Expr):
    """A reduce body that counts the calls of its compiled closure."""

    __slots__ = ("inner", "calls")

    def __init__(self, inner):
        super().__init__(inner.line, inner.column)
        self.inner = inner
        self.calls = 0

    def _compile(self, consts):
        inner = self.inner._compile(consts)

        def counted(env, params):
            self.calls += 1
            return inner(env, params)

        return counted


def counted_reduce(text):
    """The reduce in text with a counting body: (value, body calls)."""
    expr = parse_expression(text)
    expr.body = body = Counted(expr.body)
    return expr.eval({}, {}), body.calls


def test_reduce_stops_at_its_fixpoint():
    text = f"reduce(a = 0, s IN range(1, {INT64_MAX}) | CASE WHEN a = 3 THEN a ELSE a + 1 END)"
    assert counted_reduce(text) == (3, 4)


def test_reduce_body_that_mentions_its_element_runs_every_iteration():
    text = "reduce(a = 0, s IN [1, 2, 3] | CASE WHEN s = 1 THEN a ELSE a + s END)"
    assert counted_reduce(text) == (5, 3)


@pytest.mark.parametrize("text, value", [
    # the element reaches the body only through the inner comprehension's list
    ("reduce(a = 0, s IN [1, 2, 3] | CASE WHEN [s IN [s] | s] = [1] THEN a "
     "ELSE a + [s IN [s] | s][0] END)", 5),
    ("reduce(a = 0, s IN [1, 2, 3] | CASE WHEN head([s IN [s] | s]) = 1 THEN a "
     "ELSE a + head([s IN [s] | s]) END)", 5),
    # a mention shadowed by an inner binder counts too: the check errs on the safe side
    ("reduce(a = 0, s IN [1, 2, 3] | head([s IN [a] | s]))", 0),
    ("reduce(a = 0, s IN [1, 2, 3] | reduce(b = a, s IN [] | s))", 0),
])
def test_reduce_body_with_an_inner_mention_runs_every_iteration(text, value):
    assert counted_reduce(text) == (value, 3)


def test_reduce_body_returning_an_equal_new_map_keeps_iterating():
    text = "reduce(m = {n: 0}, s IN [1, 2, 3] | CASE WHEN m.n = 0 THEN {n: m.n} ELSE m END)"
    assert counted_reduce(text) == ({"n": 0}, 3)


def test_reduce_error_before_the_fixpoint_is_raised():
    text = (f"reduce(m = {{n: 0}}, s IN range(1, {INT64_MAX}) | "
            "CASE WHEN m.n = 3 THEN m WHEN m.n = 2 THEN 1 / 0 ELSE {n: m.n + 1} END)")
    env = {"m": 7}
    with pytest.raises(DivisionByZero) as exc_info:
        parse_expression(text).eval(env, {})
    got = exc_info.value
    assert (got.message, got.line, got.column) == ("division by zero", 1, 102)
    assert env == {"m": 7}


def test_reduce_fixpoint_exit_restores_shadowed_variables():
    fold = "reduce(a = 0, s IN range(1, 9) | CASE WHEN a = 2 THEN a ELSE a + 1 END)"
    assert run_query_text(f"LET a = 7 LET s = 8 LET r = {fold} RETURN a, s, r") == {
        "a": 7, "s": 8, "r": 2,
    }
    env = {"x": 1}
    assert parse_expression(fold).eval(env, {}) == 2
    assert env == {"x": 1}


def test_fold_of_2_to_the_63_steps_returns_after_the_halt(demo):
    query = gen_reduce_query(demo, INT64_MAX)
    assert run_query_text(query.text)["result"] == {"state": -1, "A": 2, "B": 0}


def test_fold_of_non_halting_programs_matches_run():
    checked = 0
    for seed in range(60):
        program = random_program(seed, 8)
        reference = run(program, fuel=5000)
        if reference.halted:
            continue
        final = reference.final
        result = run_query_text(gen_reduce_query(program, 5000).text)["result"]
        assert result == {"state": final.state, "A": final.a, "B": final.b}
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------- head direct bind


def test_head_bind_of_null_binds_null():
    assert ev("head([v IN [null] | v])") is None
    assert ev("head([v IN [null] | v.a])") is None
    assert ev("head([v IN [null] | [v, v]])") == [None, None]


def test_head_bind_restores_an_outer_variable():
    assert run_query_text("LET v = 5 LET r = head([v IN [v + 1] | v * 10]) RETURN v, r") == {
        "v": 5, "r": 60,
    }
    env = {"x": 1}
    assert parse_expression("head([v IN [x] | v + 1])").eval(env, {}) == 2
    assert env == {"x": 1}


@pytest.mark.parametrize("text, value", [
    ("head([v IN [1] WHERE v > 0 | v + 1])", 2),
    ("head([v IN [1] WHERE v > 1 | v + 1])", None),
    ("head([v IN [1, 2] | v * 10])", 10),
    ("head([v IN [3]])", 3),
    ("head([v IN [] | v])", None),
    ("head([v IN null | v])", None),
])
def test_head_of_other_comprehensions_takes_the_general_path(text, value):
    assert ev(text) == value


# ---------------------------------------------------------------- LET constants

# the LET values a query may hold: scalars, lists and maps, and tables of maps
_SCALARS = ["null", "true", "false", "0", "1", "-1", "2", "9223372036854775807",
            "'INC'", "'JZDEC'", "'A'", "'B'", "''"]
_FIELDS = ("op", "counter", "next", "k")
_INDEXES = ["0", "1", "2", "3", "-1", "-2", "-5", "7", "null", "'op'", "true", "false",
            "9223372036854775807"]


def _const_text(rng, depth):
    kind = rng.choice(["scalar", "table", "table", "list", "map"][: 5 if depth else 1])
    if kind == "scalar":
        return rng.choice(_SCALARS)
    if kind == "list":
        return "[" + ", ".join(_const_text(rng, depth - 1) for _ in range(rng.randint(0, 3))) + "]"
    if kind == "map":
        return _const_map(rng, depth - 1)
    return "[" + ", ".join(_const_map(rng, depth - 1) for _ in range(rng.randint(0, 4))) + "]"


def _const_map(rng, depth):
    keys = rng.sample(_FIELDS, rng.randint(1, len(_FIELDS)))
    return "{" + ", ".join(f"{k}: {_const_text(rng, depth)}" for k in keys) + "}"


def _expr_text(rng, depth, scope=()):
    """A random expression over the constants c and d, the binder names v and
    acc, and the parameter $p; binders may shadow c and d. A name is most
    often one of the two innermost binders in scope."""
    def sub(*bound):
        return "(" + _expr_text(rng, depth - 1, scope + bound) + ")"

    def body(*bound):  # a binder's body, often a plain use of what it binds
        var = rng.choice(bound)
        return rng.choice([lambda: var, lambda: f"{var}.op", lambda: f"[{var}, {sub(*bound)}]",
                           lambda: sub(*bound), lambda: sub(*bound)])()

    def name():
        if scope and rng.random() < 0.6:
            return rng.choice(scope[-2:])
        return rng.choice(["c", "c", "d", "d", "v", *scope])

    def binder():
        return rng.choice(["c", "d", "v", "v"])

    def entry():  # c[e], mostly with an index that needs no evaluation
        return f"c[{rng.choice(_INDEXES) if rng.random() < 0.8 else sub()}]"

    if depth == 0:
        return name() if rng.random() < 0.5 else rng.choice(_SCALARS + ["$p"])
    kind = rng.choice(["index", "prop", "case", "searched", "arith", "head", "head",
                       "comprehension", "reduce", "map", "list"])
    if kind == "index":
        return entry() if rng.random() < 0.5 else f"{sub()}[{sub()}]"
    if kind == "prop":
        target = rng.choice([entry, name, name, sub])()
        return f"{target}.{rng.choice(_FIELDS + ('zz',))}"
    if kind == "case":
        subject = rng.choice([lambda: name() + ".op", lambda: name() + ".counter",
                              lambda: entry() + ".op", name, sub])()
        whens = " ".join(f"WHEN {rng.choice(_SCALARS)} THEN {sub()}"
                         for _ in range(rng.randint(1, 3)))
        default = f" ELSE {sub()}" if rng.random() < 0.5 else ""
        return f"CASE {subject} {whens}{default} END"
    if kind == "searched":
        return f"CASE WHEN {sub()} THEN {sub()} ELSE {sub()} END"
    if kind == "arith":
        op = rng.choice(["+", "-", "=", "<>", "<"])
        return f"{sub()} {op} {'1' if rng.random() < 0.5 else sub()}"
    if kind == "head":
        var, source = binder(), entry() if rng.random() < 0.5 else sub()
        return f"head([{var} IN [{source}] | {body(var)}])"
    if kind == "comprehension":
        var = binder()
        where = f" WHERE {body(var)}" if rng.random() < 0.5 else ""
        items = rng.choice([lambda: "c", lambda: "[c, d]", lambda: "range(1, 3)", sub])()
        return f"[{var} IN {items}{where} | {body(var)}]"
    if kind == "reduce":
        acc, var = rng.choice(["acc", "c", "d"]), binder()
        items = rng.choice([lambda: "c", lambda: "range(1, 3)", sub])()
        return f"reduce({acc} = {sub()}, {var} IN {items} | {body(acc, var)})"
    if kind == "map":
        return f"{{op: {sub()}, next: {sub()}}}"
    return f"[{sub()}, {sub()}]"


def _outcome_of(thunk):
    """A value by repr, which tells true from 1, or an error's class,
    message and position."""
    try:
        return "value", repr(thunk())
    except EvalError as exc:
        return "error", type(exc), exc.message, exc.line, exc.column


@given(st.integers(0, 2**32))  # a seed: hypothesis draws are slow for a grammar this size
@settings(max_examples=1000, deadline=None)
def test_let_constants_change_no_value_error_or_environment(seed):
    rng = random.Random(seed)
    lets = [f"LET c = {_const_text(rng, 3)}",
            f"LET d = {rng.choice([_const_text(rng, 2), 'c[1]', 'c'])}"]
    returns = [_expr_text(rng, 3) for _ in range(rng.randint(1, 2))]
    text = "\n".join(lets) + "\nRETURN " + ", ".join(f"{e} AS r{i}" for i, e in enumerate(returns))
    tree = parse_query(text)
    params = {"p": rng.choice([None, 1, "INC", [0, 1]])}

    def reference():  # every expression evaluated with no constants
        env = {}
        for name, expr in tree.bindings:
            env[name] = evaluate(expr, env, params)
        return {item.alias: evaluate(item.expr, env, params) for item in tree.returns}

    assert _outcome_of(lambda: run_query(tree, params)) == _outcome_of(reference), text
    env = {}
    for name, expr in tree.bindings:
        got = _outcome_of(lambda: evaluate(expr, env, params, dict(env)))
        assert got == _outcome_of(lambda: evaluate(expr, env, params)), text
        if got[0] == "error":
            return
        env[name] = evaluate(expr, env, params)
    for item in tree.returns:
        before = dict(env)
        got = _outcome_of(lambda: evaluate(item.expr, env, params, dict(env)))
        assert env == before and all(env[k] is before[k] for k in env), text
        assert got == _outcome_of(lambda: evaluate(item.expr, env, params)), text


@pytest.mark.parametrize("text, value", [
    # a known map's property and a CASE over it fold, with Cypher equality
    ("LET c = {op: 'INC'} RETURN CASE c.op WHEN 'INC' THEN 1 ELSE 2 END AS r", 1),
    ("LET c = [{op: 1}] RETURN head([v IN [c[0]] | CASE v.op WHEN '1' THEN 1 WHEN 1 THEN 3 END])"
     " AS r", 3),
    ("LET c = [{}] RETURN head([v IN [c[0]] | CASE v.op WHEN null THEN 1 ELSE 2 END]) AS r", 2),
    ("LET c = true RETURN CASE c WHEN 1 THEN 1 WHEN true THEN 2 END AS r", 2),
    ("LET c = 0 RETURN CASE c WHEN false THEN 1 END AS r", None),
    ("LET c = [1] RETURN CASE c WHEN 1 THEN 1 ELSE c END AS r", [1]),
    ("LET c = null RETURN c.op AS r", None),
    # a binder's name is not the constant inside its scope
    ("LET c = [{op: 'INC'}] RETURN head([c IN [c[0].op] | c]) AS r", "INC"),
    ("LET c = [5, 6] RETURN [c IN [1, 2] | c] AS r", [1, 2]),
    ("LET c = [5, 6] RETURN reduce(c = 0, s IN [1, 2] | c + s) AS r", 3),
    ("LET c = [5, 6] RETURN head([v IN [c[-1]] | head([c IN [v] | c + 1])]) AS r", 7),
    # the indexes that take the general path of c[e]
    ("LET c = [5, 6] RETURN head([v IN [c[-2]] | v]) AS r", 5),
    ("LET c = [5, 6] RETURN head([v IN [c[2]] | v]) AS r", None),
    ("LET c = [5, 6] RETURN head([v IN [c[null]] | v]) AS r", None),
])
def test_let_constants_fold_within_their_scope(text, value):
    assert run_query_text(text)["r"] == value


@pytest.mark.parametrize("text, error, message, column", [
    ("LET c = [5] RETURN head([v IN [c['a']] | v]) AS r", TypeMismatch,
     "list index must be an integer", 33),
    ("LET c = [5] RETURN head([v IN [c[true]] | v]) AS r", TypeMismatch,
     "list index must be an integer", 33),
    ("LET c = [5] RETURN head([v IN [c[0]] | v.op]) AS r", TypeMismatch,
     "property access on non-map value of type int", 41),
    ("LET c = 5 RETURN c.op AS r", TypeMismatch,
     "property access on non-map value of type int", 19),
    ("LET c = [{n: 9223372036854775807}] RETURN head([v IN [c[0]] | v.n + 1]) AS r",
     IntegerOverflow, "integer out of 64-bit range", 67),
])
def test_let_constants_keep_errors_and_positions(text, error, message, column):
    with pytest.raises(EvalError) as exc_info:
        run_query_text(text)
    got = exc_info.value
    assert (type(got), got.message, got.line, got.column) == (error, message, 1, column)


def test_a_constant_is_the_let_value_itself():
    tree = parse_query("LET c = [{a: [1]}] RETURN c AS r, c[0].a AS s, "
                       "head([v IN [c[0]] | v]) AS t")
    results = run_query(tree)
    assert results["r"][0]["a"] is results["s"]
    assert results["t"] is results["r"][0]


class CountedCompiles(ast.Expr):
    """A head bind's body that records the value of its variable, if known,
    each time it is compiled."""

    __slots__ = ("inner", "var_name", "known")

    def __init__(self, inner, var_name):
        super().__init__(inner.line, inner.column)
        self.inner, self.var_name, self.known = inner, var_name, []

    def _compile(self, consts):
        self.known.append(consts.get(self.var_name, "unknown"))
        return self.inner._compile(consts)


def test_each_table_entry_compiles_once_per_query():
    program = random_program(4, 8)
    steps = 60
    trace = run(program, fuel=steps, capture_trace=True).trace
    visited = {row.config_before.state for row in trace}
    tree = parse_query(gen_reduce_query(program, steps).text)
    (head,) = (n for n in _nodes(tree.bindings) if type(n) is ast.Comprehension)
    head.mapper = counted = CountedCompiles(head.mapper, head.var_name)
    first = run_query(tree)
    assert counted.known.count("unknown") == 1  # the general path, compiled eagerly
    entries = [e for e in counted.known if e != "unknown"]
    assert sorted(e["state"] for e in entries) == sorted(visited)
    assert len(visited) > 1
    # a second run compiles afresh: no memo outlives its query's evaluation
    assert run_query(tree) == first
    assert len(counted.known) == 2 * (1 + len(entries))


def test_a_table_read_once_per_entry_compiles_a_bounded_number_of_bodies(monkeypatch):
    monkeypatch.setattr(ast, "MAX_SPECIALISED", 3)
    tree = parse_query("LET c = [x IN range(0, 9) | {a: x}] "
                       "RETURN [i IN range(0, 11) | head([v IN [c[i]] | v.a])] AS r")
    (comprehension, head) = (n for n in _nodes(tree.returns[0].expr)
                             if type(n) is ast.Comprehension)
    head.mapper = counted = CountedCompiles(head.mapper, head.var_name)
    assert run_query(tree) == {"r": list(range(10)) + [None, None]}
    assert [e for e in counted.known if e != "unknown"] == [{"a": 0}, {"a": 1}, {"a": 2}]


def test_range_is_inclusive():
    assert list(ev("range(1, 4)")) == [1, 2, 3, 4]
    assert list(ev("range(3, 2)")) == []


def test_range_is_lazy():
    assert isinstance(ev("range(1, 9223372036854775807)"), range)


HUGE = "range(0, 9223372036854775807)"  # 2^63 elements: more than len() can count


@pytest.mark.parametrize("text, value", [
    ("head(range(-1, 9223372036854775807))", -1),
    (f"{HUGE}[-1]", INT64_MAX),
    (f"{HUGE}[9223372036854775807]", INT64_MAX),
    (f"{HUGE}[-9223372036854775808]", 0),
    (f"range(1, 9223372036854775807)[-9223372036854775808]", None),
    (f"{HUGE} = [1]", False),
    (f"[0, null] = {HUGE}", False),
    (f"{HUGE} = {HUGE}", True),
    (f"{HUGE} = range(1, 9223372036854775807)", False),
    ("range(3, 1) = range(5, 2)", True),
    ("range(1, 2) = [1, null]", None),
])
def test_ranges_past_sys_maxsize(text, value):
    got = ev(text)
    assert (type(got), got) == (type(value), value)


def test_list_indexing():
    assert ev("[10, 20, 30][0]") == 10
    assert ev("[10, 20, 30][-1]") == 30
    assert ev("[10, 20, 30][5]") is None
    assert ev("[10, 20, 30][-4]") is None


def test_map_literals_and_property_access():
    assert ev("{a: 1, b: 2}.b") == 2
    assert ev("{a: 1}.missing") is None


def test_comprehension():
    assert ev("[x IN [1, 2, 3] | x * x]") == [1, 4, 9]


def test_comparisons():
    assert ev("1 < 2") is True
    assert ev("2 <= 1") is False
    assert ev("1 <> 2") is True
    assert ev("'a' = 'a'") is True
    assert ev("[1, 2] = [1, 2]") is True


def test_three_valued_logic():
    assert ev("true OR null") is True
    assert ev("false OR null") is None
    assert ev("false AND null") is False
    assert ev("true AND null") is None
    assert ev("NOT null") is None
    assert ev("null = null") is None


# operands the parser cannot fold, so the compiled NOT, OR, map equality, range
# and map index run
@pytest.mark.parametrize("text, params, value", [
    ("NOT $p", {"p": True}, False),
    ("NOT $p", {"p": False}, True),
    ("NOT $p", {"p": None}, None),
    ("false OR true", {}, True),
    ("{a: 1, b: [2]} = {b: [2], a: 1}", {}, True),
    ("{a: 1} = {a: 2}", {}, False),
    ("{a: 1} = {b: 1}", {}, False),
    ("{a: 1} = {a: 1, b: 1}", {}, False),
    ("{a: null} = {a: null}", {}, None),
    ("{a: null, b: 1} = {a: null, b: 2}", {}, False),
    ("{a: 1} <> {a: null}", {}, None),
    ("{a: 1} <> {a: 1}", {}, False),
    ("range(null, 1)", {}, None),
    ("range(1, null)", {}, None),
    ("{a: 1}['a']", {}, 1),
    ("{a: 1}['b']", {}, None),
])
def test_logic_and_map_equality_at_run_time(text, params, value):
    got = ev(text, params)
    assert (type(got), got) == (type(value), value)


def test_duplicate_return_alias_is_a_syntax_error():
    with pytest.raises(CypherError) as exc_info:
        run_query_text("RETURN 1 AS x, 2 AS x")
    got = exc_info.value
    assert (type(got), got.message, got.line, got.column) == (
        CypherSyntaxError, "duplicate return alias 'x'", 1, 21
    )


def test_null_propagation_arithmetic():
    assert ev("null + 1") is None
    assert ev("null[0]") is None
    assert ev("null.x") is None
    assert ev("-null") is None


def test_simple_case():
    assert ev("CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' ELSE 'c' END") == "b"
    assert ev("CASE 9 WHEN 1 THEN 'a' END") is None
    # a null subject never matches any WHEN arm, even WHEN null
    assert ev("CASE null WHEN null THEN 'hit' ELSE 'miss' END") == "miss"
    assert ev("CASE null WHEN 'a' THEN 1 ELSE 0 END") == 0
    assert ev("CASE true WHEN true THEN 1 END") == 1
    # arms that are not all string literals take the general path
    assert ev("CASE 'a' WHEN 'a' THEN 1 WHEN 1 THEN 2 END") == 1
    assert ev("CASE 1 WHEN 'a' THEN 1 WHEN 1 THEN 2 END") == 2


def test_searched_case():
    assert ev("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' END") == "b"
    assert ev("CASE WHEN false THEN 'a' END") is None


def test_parameters():
    assert ev("$n * 2", {"n": 21}) == 42
    with pytest.raises(UnknownParameter):
        ev("$missing")


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        ev("nope")


def test_type_mismatch():
    with pytest.raises(TypeMismatch):
        ev("1 + 'a'")
    with pytest.raises(TypeMismatch):
        ev("1 AND true")


def test_let_chain():
    assert run_query_text("LET x = 2 LET y = x + 3 RETURN y AS z") == {"z": 5}


def test_run_query_text_multiple_returns():
    assert run_query_text("RETURN 1 AS a, 2 AS b") == {"a": 1, "b": 2}


@given(st.integers(-100, 100))
@settings(max_examples=50, deadline=None)
def test_null_absorbs_binary_arithmetic(n):
    for op in ("+", "-", "*"):
        assert ev(f"null {op} {n}") is None
        assert ev(f"{n} {op} null") is None


def test_eval_does_not_mutate_env():
    expr = parse_expression("reduce(acc = 0, x IN [1] | acc + x)")
    env = {"y": 1}
    expr.eval(env, {})
    assert env == {"y": 1}


def test_deep_expression_is_an_eval_error():
    expr = ast.Literal(True, 1, 1)
    for _ in range(DEPTH):
        expr = ast.Not(expr, 1, 1)
    with pytest.raises(EvalError, match="nested too deeply"):
        evaluate(expr)
    query = ast.QueryAst((), (ast.ReturnItem(expr, "x"),))
    with pytest.raises(EvalError, match="nested too deeply"):
        run_query(query)


def test_deep_values_are_eval_errors():
    nest = f"reduce(acc = [], i IN range(1, {DEPTH}) | [acc])"
    with pytest.raises(EvalError, match="nested too deeply"):
        run_query_text(f"LET a = {nest} RETURN a = a")
    deep = run_query_text(f"RETURN {nest} AS a")
    with pytest.raises(EvalError, match="nested too deeply"):
        format_results(deep)


# ---------------------------------------------------------------- formatting


def test_format_value():
    assert format_value(None) == "null"
    assert format_value(True) == "true"
    assert format_value("hi") == "'hi'"
    assert format_value([1, None]) == "[1, null]"
    assert format_value({"state": -1, "A": 2, "B": 0}) == "{A:2, B:0, state:-1}"


def test_format_value_caps_list_length(monkeypatch):
    monkeypatch.setattr(ast, "MAX_LIST_LENGTH", 3)
    assert format_value([[1, 2, 3], range(4, 7)]) == "[[1, 2, 3], [4, 5, 6]]"
    for value, n in [([1, 2, 3, 4], 4), ([[1, 2, 3, 4]], 4), (range(0, INT64_MAX), INT64_MAX)]:
        with pytest.raises(EvalError) as exc_info:
            format_value(value)
        got = exc_info.value
        assert (type(got), got.line, got.column) == (EvalError, None, None)
        assert got.message == f"list of {n} elements exceeds the limit of 3"


def test_comprehension_caps_list_length(monkeypatch):
    monkeypatch.setattr(ast, "MAX_LIST_LENGTH", 3)
    assert ev("[x IN range(1, 3) | x * 2]") == [2, 4, 6]
    assert ev("[x IN [1, 2, 3] WHERE x > 1]") == [2, 3]
    for text, n in [("[x IN range(1, 4) | x]", 4), ("[x IN [1, 2, 3, 4]]", 4),
                    (f"[x IN range(0, {INT64_MAX}) WHERE false]", 2**63)]:
        with pytest.raises(EvalError) as exc_info:
            ev("\n  " + text)
        got = exc_info.value
        assert (type(got), got.line, got.column) == (EvalError, 2, 3)
        assert got.message == f"list of {n} elements exceeds the limit of 3"


def test_format_results_flattens_single_map():
    assert format_results({"result": {"A": 2}}) == "{A:2}"
    assert format_results({"a": 1, "b": 2}) == "{a:1, b:2}"


# ---------------------------------------------------------------- error positions

M63 = 2**63
ERROR_ENV = {"x": 1, "m": {"a": 1}}


@pytest.mark.parametrize("text, params, error, message, line, column", [
    ("{a: 1}.a.b", {}, TypeMismatch, "property access on non-map value of type int", 1, 9),
    ("x.a", {}, TypeMismatch, "property access on non-map value of type int", 1, 2),
    ("m.a.b", {}, TypeMismatch, "property access on non-map value of type int", 1, 4),
    ("[1]\n  ['a']", {}, TypeMismatch, "list index must be an integer", 2, 3),
    ("[x]['a']", {}, TypeMismatch, "list index must be an integer", 1, 4),
    ("{a: 1}[0]", {}, TypeMismatch, "map index must be a string", 1, 7),
    ("m[x]", {}, TypeMismatch, "map index must be a string", 1, 2),
    ("'s'[0]", {}, TypeMismatch, "cannot index value of type str", 1, 4),
    ("NOT 1", {}, TypeMismatch, "NOT requires a boolean", 1, 1),
    ("NOT x", {}, TypeMismatch, "NOT requires a boolean", 1, 1),
    ("-'a'", {}, TypeMismatch, "unary minus requires an integer", 1, 1),
    ("-\nm", {}, TypeMismatch, "unary minus requires an integer", 1, 1),
    ("1 AND true", {}, TypeMismatch, "AND requires booleans", 1, 3),
    ("true AND 1", {}, TypeMismatch, "AND requires booleans", 1, 6),
    ("false OR 'x'", {}, TypeMismatch, "OR requires booleans", 1, 7),
    ("x OR true", {}, TypeMismatch, "OR requires booleans", 1, 3),
    # the right side is evaluated before the left side is type-checked
    ("1 AND nope", {}, UnknownVariable, "variable 'nope' not defined", 1, 7),
    ("1 +\n  'a'", {}, TypeMismatch, "operator + requires integers, got int and str", 1, 3),
    ("'a' + 1", {}, TypeMismatch, "operator + requires integers, got str and int", 1, 5),
    ("[1] * 2", {}, TypeMismatch, "operator * requires integers, got list and int", 1, 5),
    ("CASE WHEN 1 THEN 2 END", {}, TypeMismatch, "CASE condition must be boolean", 1, 1),
    ("reduce(acc = 0, x IN 5 | acc)", {}, TypeMismatch, "reduce requires a list", 1, 1),
    ("[x IN 'ab' | x]", {}, TypeMismatch, "list comprehension requires a list", 1, 1),
    ("[y IN [1] WHERE y.a | y]", {}, TypeMismatch,
     "property access on non-map value of type int", 1, 18),
    ("head(5)", {}, TypeMismatch, "head requires a list", 1, 1),
    ("range(1, true)", {}, TypeMismatch, "range requires integers", 1, 1),
    ("9223372036854775807 + 1", {}, IntegerOverflow, "integer out of 64-bit range", 1, 21),
    ("m.a + 9223372036854775807", {}, IntegerOverflow, "integer out of 64-bit range", 1, 5),
    ("-9223372036854775807 - 2", {}, IntegerOverflow, "integer out of 64-bit range", 1, 22),
    ("m.a - -9223372036854775808", {}, IntegerOverflow, "integer out of 64-bit range", 1, 5),
    ("$a * 2", {"a": 2**62}, IntegerOverflow, "integer out of 64-bit range", 1, 4),
    ("x * $a", {"a": M63}, IntegerOverflow, "integer out of 64-bit range", 1, 3),
    ("-9223372036854775808 / -1", {}, IntegerOverflow, "integer out of 64-bit range", 1, 22),
    ("$a % $b", {"a": M63, "b": M63 + 1}, IntegerOverflow, "integer out of 64-bit range", 1, 4),
    ("- $a", {"a": -M63}, IntegerOverflow, "integer out of 64-bit range", 1, 1),
    ("1 / 0", {}, DivisionByZero, "division by zero", 1, 3),
    ("1 % (1 - 1)", {}, DivisionByZero, "modulo by zero", 1, 3),
    ("nope.a", {}, UnknownVariable, "variable 'nope' not defined", 1, 1),
    ("1 + nope", {}, UnknownVariable, "variable 'nope' not defined", 1, 5),
    ("x - nope", {}, UnknownVariable, "variable 'nope' not defined", 1, 5),
    ("x = nope", {}, UnknownVariable, "variable 'nope' not defined", 1, 5),
    ("x < nope", {}, UnknownVariable, "variable 'nope' not defined", 1, 5),
    ("CASE x WHEN nope THEN 1 END", {}, UnknownVariable, "variable 'nope' not defined", 1, 13),
    ("CASE 'a' WHEN 'a' THEN nope END", {}, UnknownVariable,
     "variable 'nope' not defined", 1, 24),
    ("[1, $missing]", {}, UnknownParameter, "parameter $missing not supplied", 1, 5),
    ("-true", {}, TypeMismatch, "unary minus requires an integer", 1, 1),
    ("-false", {}, TypeMismatch, "unary minus requires an integer", 1, 1),
    ("head([v IN [nope] | v])", {}, UnknownVariable, "variable 'nope' not defined", 1, 13),
    ("head([v IN [1 / 0] | v])", {}, DivisionByZero, "division by zero", 1, 15),
    ("head([v IN [x] | v.a])", {}, TypeMismatch,
     "property access on non-map value of type int", 1, 19),
    ("head([x IN ['s'] | -x])", {}, TypeMismatch, "unary minus requires an integer", 1, 20),
    ("head([v IN [$a] | v * 2])", {"a": 2**62}, IntegerOverflow,
     "integer out of 64-bit range", 1, 21),
    ("reduce(x = 0, s IN range(1, 5) | CASE WHEN x = 2 THEN x ELSE x + 1 END) + nope", {},
     UnknownVariable, "variable 'nope' not defined", 1, 75),
    # a non-boolean condition after the first arm, in the loop over the arms
    ("CASE WHEN false THEN 1 WHEN 2 THEN 3 END", {}, TypeMismatch,
     "CASE condition must be boolean", 1, 1),
])
def test_error_class_message_and_position(text, params, error, message, line, column):
    env = dict(ERROR_ENV)
    with pytest.raises(EvalError) as exc_info:
        parse_expression(text).eval(env, params)
    got = exc_info.value
    assert (type(got), got.message, got.line, got.column) == (error, message, line, column)
    assert env == ERROR_ENV


def test_unknown_variables_are_only_errors_when_evaluated():
    assert ev("CASE WHEN false THEN undefined_var ELSE 1 END") == 1
    assert ev("CASE 'b' WHEN 'a' THEN undefined_var ELSE 1 END") == 1
    assert ev("false AND undefined_var") is False


# ---------------------------------------------------------------- int64 boundary

INT64_MIN = -(2**63)
_BOUNDARY = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.integers(INT64_MIN - 3, INT64_MIN + 3),  # includes out-of-range values
    st.integers(INT64_MAX - 3, INT64_MAX + 3),
    st.integers(-(2**33), 2**33),
)
_ORDER = {"<": int.__lt__, "<=": int.__le__, ">": int.__gt__, ">=": int.__ge__}


def _reference(op, l, r=None):
    """Cypher integer semantics in plain Python: ("value", v) or ("error", class)."""
    if op == "neg":
        if l is None:
            return "value", None
        v = -l
    elif l is None or r is None:
        return "value", None
    elif op in ("=", "<>"):
        return "value", (l == r) == (op == "=")
    elif op in _ORDER:
        return "value", _ORDER[op](l, r)
    elif op in ("/", "%") and r == 0:
        return "error", DivisionByZero
    elif op == "/":
        v = abs(l) // abs(r) * (-1 if (l < 0) != (r < 0) else 1)
    elif op == "%":
        v = abs(l) % abs(r) * (-1 if l < 0 else 1)
    else:
        v = {"+": l + r, "-": l - r, "*": l * r}[op]
    if INT64_MIN <= v <= INT64_MAX:
        return "value", v
    return "error", IntegerOverflow


def _outcome(text, params):
    try:
        v = parse_expression(text).eval({}, params)
    except CypherError as exc:
        return "error", type(exc)
    return "value", v


def _literal(v):
    return "null" if v is None else f"({v})"


def _with_literal(want, v):
    """``want`` for an expression holding the literal of v: a literal
    outside 64 bits is a syntax error, before anything is evaluated."""
    if v is not None and not INT64_MIN <= v <= INT64_MAX:
        return "error", CypherSyntaxError
    return want


@given(_BOUNDARY, _BOUNDARY)
@settings(max_examples=300, deadline=None)
def test_int64_boundary_matches_python_reference(l, r):
    params = {"a": l, "b": r}
    for op in ("+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">="):
        want = _reference(op, l, r)
        for text, expected in ((f"$a {op} $b", want),
                               (f"$a {op} {_literal(r)}", _with_literal(want, r)),
                               (f"{_literal(l)} {op} $b", _with_literal(want, l))):
            got = _outcome(text, params)
            assert (got, type(got[1])) == (expected, type(expected[1])), text
    want = _reference("neg", l)
    got = _outcome("-$a", params)
    assert (got, type(got[1])) == (want, type(want[1]))


def test_literal_results_are_fresh_for_every_run():
    tree = parse_query("LET p = [{a: [1]}, [2]] RETURN p AS x, [3, [4]] AS y, {m: {n: 5}} AS z")
    expected = {"x": [{"a": [1]}, [2]], "y": [3, [4]], "z": {"m": {"n": 5}}}
    first = run_query(tree)
    assert first == expected
    first["x"][0]["a"].append(9)
    first["x"][1].append(9)
    first["x"].append(9)
    first["y"][1].append(9)
    first["z"]["m"]["n"] = 0
    assert run_query(tree) == expected
    rows = run_query_text("RETURN [i IN range(1, 2) | [[0], {k: [0]}]] AS a")["a"]
    rows[0][0].append(1)
    rows[0][1]["k"].append(1)
    rows[0].append(1)
    assert rows == [[[0, 1], {"k": [0, 1]}, 1], [[0], {"k": [0]}]]
    maps = run_query_text("RETURN [i IN range(1, 2) | {k: {j: [0]}}] AS a")["a"]
    maps[0]["k"]["j"].append(1)
    assert maps == [{"k": {"j": [0, 1]}}, {"k": {"j": [0]}}]


def test_simple_case_over_string_arms():
    assert ev("CASE 'a' WHEN 'a' THEN 1 WHEN 'a' THEN 2 END") == 1  # first arm wins
    for subject in ("1", "true", "null", "['a']", "{a: 'a'}", "$s"):
        assert ev(f"CASE {subject} WHEN 'a' THEN 1 ELSE 0 END", {"s": 5}) == 0
    assert ev("CASE $s WHEN 'x' THEN 1 WHEN 'y' THEN 2 END", {"s": "y"}) == 2
    assert ev("CASE 'z' WHEN 'x' THEN 1 END") is None


def test_string_escapes_decode_to_characters():
    text = r"RETURN 'a\nb\tc\rd\be\ff\\g\'h\"i\qj' AS s"
    assert run_query_text(text) == {"s": "a\nb\tc\rd\be\ff\\g'h\"iqj"}
    assert format_results(run_query_text(text)) == r"""{s:'a\nb\tc\rd\be\ff\\g\'h"iqj'}"""


@given(st.text())
@settings(max_examples=300, deadline=None)
def test_format_value_round_trips_strings(s):
    literal = format_value(s)
    assert not any(c in literal for c in "\n\r\t\b\f")
    assert run_query_text("RETURN " + literal + " AS x")["x"] == s


def test_booleans_are_not_integers():
    # the integer fast paths test type(x) is int; bool is a subclass of int
    params = {"t": True}
    assert ev("true = 1") is False
    assert ev("$t = 1", params) is False
    assert ev("$t <> 1", params) is True
    assert ev("$t < 2", params) is None
    for text in ("$t + 1", "$t - 1", "$t * 1", "1 + $t", "-$t", "[1, 2][$t]"):
        with pytest.raises(TypeMismatch):
            ev(text, params)


def test_null_case_condition_falls_through():
    assert ev("CASE WHEN null THEN 1 ELSE 2 END") == 2
    assert ev("CASE WHEN null THEN 1 WHEN true THEN 3 END") == 3
    assert ev("CASE WHEN null THEN 1 END") is None


# ---------------------------------------------------- library failure contract
# parse_query and run_query_text raise only CypherError subclasses, whatever
# the text and whatever subset values the parameters hold. These inputs also
# reach the general paths that serve every case without a fast path.

_SUBSET_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.integers(-INT64_MAX - 1, INT64_MAX)
    | st.sampled_from([0, 1, -1, INT64_MAX, -INT64_MAX - 1]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["x", "state", "A"]) | st.text(max_size=2),
                                     inner, max_size=3)),
    max_leaves=6,
)
_PARAMS = st.fixed_dictionaries({"p": _SUBSET_VALUES})  # $q stays unsupplied
_SOUP_TOKENS = st.sampled_from(
    sorted(KEYWORDS) + sorted(UNSUPPORTED)[:3] + sorted(FUNCTION_ARITY)
    + ["reduce", "CYPHER", "25", "x", "acc", "state", "$p", "$q", "$", "'s'", "''"]
    + list("()[]{},:.|+-*/%=<>;") + ["<=", ">=", "<>", "//", "/*", "*/", "\n"]
    + ["0", "1", str(INT64_MAX), str(INT64_MAX + 1), str(2**64), "9" * 4301]
    # operands for general paths the fold never takes: indexing, a simple
    # CASE over strings, head of a one-element comprehension over no table
    + ["$p.x", "$p[0]", "$p['x']", "CASE $p WHEN 'a' THEN 1 WHEN 's' THEN 2 END",
       "head([v IN [$p] | v])", "head([v IN [$p[1]] | v + 1])", "[$p, {x: $p}]"]
)


def _raises_only_cypher_errors(text, params):
    try:
        parse_query(text)
    except CypherError:
        pass
    try:
        run_query_text(text, params)
    except CypherError:
        pass


@given(st.text(max_size=80), _PARAMS)
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_raises_only_cypher_errors(text, params):
    _raises_only_cypher_errors(text, params)


@given(st.sampled_from(["", "RETURN ", "LET x = "]), st.lists(_SOUP_TOKENS, max_size=24),
       st.sampled_from([" ", ""]), _PARAMS)
@settings(max_examples=1000, deadline=None)
def test_token_soup_raises_only_cypher_errors(prefix, tokens, separator, params):
    _raises_only_cypher_errors(prefix + separator.join(tokens), params)


@given(st.sampled_from(["", "RETURN ", "LET x = "]), st.lists(_SOUP_TOKENS, max_size=24),
       st.sampled_from([" ", ""]), _PARAMS)
# the soup seldom parses, and 1,000 examples did not draw a repeated alias
# without these two
@example("RETURN ", ["1", "AS", "x", ",", "2", "AS", "x"], " ", {"p": None})
@example("RETURN ", ["$p", ",", "$p"], "", {"p": 1})
@settings(max_examples=1000, deadline=None)
def test_a_query_the_parser_accepts_raises_no_syntax_error_at_run_time(
    prefix, tokens, separator, params
):
    try:
        query = parse_query(prefix + separator.join(tokens))
    except CypherError:
        return
    try:
        run_query(query, params)
    except CypherError as exc:
        assert not isinstance(exc, CypherSyntaxError), exc


# ------------------------------------------------------ parameter domain
# run_query refuses a parameter value outside the subset before it
# evaluates anything, whatever Python value it is handed.

_SUBSET_NOTE = "only integers, strings, booleans, null, lists and maps are supported"


@pytest.mark.parametrize("value, error, message", [
    (1.5, TypeMismatch, f"parameter 'p' holds the float 1.5; {_SUBSET_NOTE}"),
    ([{"m": float("nan")}], TypeMismatch, f"parameter 'p' holds the float nan; {_SUBSET_NOTE}"),
    ((1, 2), TypeMismatch, f"parameter 'p' holds a tuple; {_SUBSET_NOTE}"),
    (range(3), TypeMismatch, f"parameter 'p' holds a range; {_SUBSET_NOTE}"),
    ({1: 2}, TypeMismatch, "parameter 'p' holds a map key that is not a string"),
    ([{"a": 1, None: 3}], TypeMismatch, "parameter 'p' holds a map key that is not a string"),
    ([1, {"m": 2**70}], IntegerOverflow,
     f"parameter 'p' holds the integer {2**70}, outside the 64-bit range"),
    (-(2**63) - 1, IntegerOverflow,
     f"parameter 'p' holds the integer {-(2**63) - 1}, outside the 64-bit range"),
])
def test_parameter_values_outside_the_subset_are_refused(value, error, message):
    with pytest.raises(CypherError) as exc_info:
        run_query_text("RETURN $p = $p AS x", {"p": value})
    assert (type(exc_info.value), exc_info.value.message) == (error, message)


def test_parameter_check_reads_shared_and_cyclic_values_once():
    shared: list = []
    for _ in range(100):  # 101 lists, 2^100 paths through them
        shared = [shared, shared]
    cyclic: list = [1]
    cyclic.append(cyclic)
    assert run_query_text("RETURN 1 AS x", {"p": shared, "q": cyclic}) == {"x": 1}


_PYTHON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.binary(max_size=2) | st.sampled_from([INT64_MAX, INT64_MAX + 1, -INT64_MAX - 2, range(2)]),
    lambda inner: (st.lists(inner, max_size=3) | st.tuples(inner)
                   | st.frozensets(st.integers(), max_size=2)
                   | st.dictionaries(st.text(max_size=2) | st.integers(-1, 1) | st.none(),
                                     inner, max_size=3)),
    max_leaves=6,
)
_PARAMETER_QUERIES = [
    "RETURN $p AS x", "RETURN $p = $p AS x", "RETURN [$p, {a: $p}] AS x", "RETURN $p.a AS x",
    "RETURN $p[0] AS x", "RETURN $p + 1 AS x", "RETURN head([v IN [$p] | v]) AS x",
    "RETURN CASE $p WHEN 1 THEN 'one' ELSE $p END AS x", "RETURN $p AS x, $p < $p AS y",
]


@given(st.sampled_from(_PARAMETER_QUERIES), _PYTHON_VALUES)
@settings(max_examples=1000, deadline=None)
def test_any_python_parameter_value_renders_or_is_a_cypher_error(text, value):
    try:
        result = run_query_text(text, {"p": value})
    except CypherError:
        return
    format_results(result)
