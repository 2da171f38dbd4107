import dataclasses
import gc
import hashlib
import random
import re
import sys
import time
import unittest.mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cm2cypher import codegen
from cm2cypher.codegen import gen_reduce_query, lint_primitives
from cm2cypher.cypher import (
    CypherError,
    CypherSyntaxError,
    DivisionByZero,
    EvalError,
    IntegerOverflow,
    Token,
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
from cm2cypher.cypher import lexer, parser
from cm2cypher.cypher.parser import FUNCTION_ARITY, KEYWORDS, UNSUPPORTED
from cm2cypher.frontend import parse_dsl, random_program
from cm2cypher.machine import run
from cm2cypher.reduction import k_counters_to_two, load_tm_file, two_stack_to_counters
from conftest import FIXTURES, GOLDEN

INT64_MAX = 2**63 - 1


def ev(text, params=None):
    return evaluate(parse_expression(text), {}, params or {})


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


# \x0b, \x0c and \xa0 are illegal pieces, not blanks, beside runs of blanks
_CYPHERISH = st.sampled_from(list("aZx_é09²٣ \t\r\n'\"\\/*()[]{},:.|+-%=<>$;!")
                             + ["//", "/*", "*/", "\x0b", "\x0c", "\xa0", " ", "  ", "\r\n"])


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


@given(st.lists(_CYPHERISH, max_size=30).map("".join))
@settings(max_examples=500, deadline=None)
def test_findall_pieces_are_the_scan_pieces(text):
    # only blanks fall between two matches, so findall gives the split's pieces
    assert lexer._FINDALL(text) == lexer._SPLIT(text)[1::2]

    def outcome(scan):
        try:
            return scan(text)
        except CypherSyntaxError as exc:
            return type(exc), exc.message, exc.line, exc.column

    assert outcome(lexer._pieces) == outcome(lambda text: lexer._scan(text)[0])
    # text the lexer passes without looking for faults has none
    if lexer._PLAIN(text) and text.count("'") % 2 == 0:
        assert lexer._faults(lexer._FINDALL(text)) == {}


@given(st.text("a1_ \t\r\n'(),.:+-*{}[]$;", max_size=30))
@settings(max_examples=300, deadline=None)
def test_plain_text_has_a_fault_only_if_a_string_is_left_open(text):
    # with no '/' and no backslash the quotes open and close strings in turn
    assert lexer._PLAIN(text)
    faults = lexer._faults(lexer._FINDALL(text))
    assert any(faults.values()) == (text.count("'") % 2 == 1)


# pieces, or the error, as _pieces gave them before it skipped looking for
# faults in text that can have none: a fault's text goes the old way
@pytest.mark.parametrize("text, outcome", [
    ("a \x0b b", ("CypherSyntaxError", "illegal character '\\x0b'", 1, 3)),
    ("1 +\xa0 2", ("CypherSyntaxError", "illegal character '\\xa0'", 1, 4)),
    ("x # y", ("CypherSyntaxError", "illegal character '#'", 1, 3)),
    ('"a"', ("CypherSyntaxError", "illegal character '\"'", 1, 1)),
    ("!x", ("CypherSyntaxError", "illegal character '!'", 1, 1)),
    ("x² + ²", ("CypherSyntaxError", "illegal character '²'", 1, 6)),
    ("1 + ٣", ("CypherSyntaxError", "illegal character '٣'", 1, 5)),
    ("é + 1", ["é", "+", "1", ""]),
    ("'é' + x", ["'é'", "+", "x", ""]),
    ("RETURN 'open", ("CypherSyntaxError", "unterminated string literal", 1, 8)),
    ("1 // c\n+ 2", ["1", "+", "2", ""]),
    ("1 /* c */ + 2", ["1", "+", "2", ""]),
    ("1 /* open", ("CypherSyntaxError", "unterminated block comment", 1, 3)),
    ("1 /*/ 2", ("CypherSyntaxError", "unterminated block comment", 1, 3)),
    ("'a//b' + '/*'", ["'a//b'", "+", "'/*'", ""]),
    ("'it\\'s", ("CypherSyntaxError", "unterminated string literal", 1, 1)),
    ("x\n  'a\\'", ("CypherSyntaxError", "unterminated string literal", 2, 3)),
    ("a\r\n\xa0", ("CypherSyntaxError", "illegal character '\\xa0'", 2, 1)),
    ("a / b", ["a", "/", "b", ""]),
    ("x\\y", ("CypherSyntaxError", "illegal character '\\\\'", 1, 2)),
    ("`x`", ("CypherSyntaxError", "illegal character '`'", 1, 1)),
    ("x/", ["x", "/", ""]),
    ("'a' 'b", ("CypherSyntaxError", "unterminated string literal", 1, 5)),
    ("'\n'\néx /*", ("CypherSyntaxError", "unterminated block comment", 3, 4)),
    # plain text, whose quotes are counted
    ("{k: 'x'} ['y']", ["{", "k", ":", "'x'", "}", "[", "'y'", "]", ""]),
    ("'a''b' 'c", ("CypherSyntaxError", "unterminated string literal", 1, 8)),
    ("'' + '''", ("CypherSyntaxError", "unterminated string literal", 1, 8)),
])
def test_pieces_of_texts_with_and_without_faults(text, outcome):
    try:
        got = lexer._pieces(text)
    except CypherSyntaxError as exc:
        got = (type(exc).__name__, exc.message, exc.line, exc.column)
    assert got == outcome


@pytest.mark.parametrize("text, column", [
    ("RETURN 1 " + "/* " * 20_000, 10), ("RETURN 1 /*/", 10), ("RETURN /*/ 1", 8),
    ("RETURN 1 /* a */ /*/", 18),
], ids=["many", "slash-star-slash", "slash-star-slash-inside", "after-a-comment"])
def test_an_unclosed_block_comment_is_found_in_linear_time(text, column):
    # the first unclosed /* takes the rest of the text, so its */ is sought
    # once; '/*/' ends in '*/', but that '*/' overlaps its '/*'
    start = time.perf_counter()
    with pytest.raises(CypherSyntaxError) as exc_info:
        parse_query(text)
    assert time.perf_counter() - start < 1
    got = exc_info.value
    assert (got.message, got.line, got.column) == ("unterminated block comment", 1, column)
    assert evaluate(parse_expression("1 /**/ + /***/ 2"), {}, {}) == 3


def test_final_blanks_take_linear_time():
    # findall, which takes each piece's blanks in its match, would take all
    # the final blanks from each of them and fail: tens of seconds for these
    text = "RETURN 1" + " \n" * 15_000
    start = time.perf_counter()
    assert lexer._pieces(text) == ["RETURN", "1", ""]
    assert time.perf_counter() - start < 1


# The lexer as it was before tokenize became a view of the pieces the parser
# reads: one master pattern, matched token by token, with the line and column
# carried along. It is the oracle that tokenize must agree with.
_REFERENCE_MASTER = re.compile(
    r"""
      (?P<space>[ \t\r]+|//[^\n]*)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<punct><=|>=|<>|/(?![/*])|[()\[\]{},:.|+\-*%=<>$;])
    | (?P<int>[0-9]+)
    | (?P<lines>(?:\n|/\*.*?\*/)[ \t\r\n]*)
    | (?P<string>'[^'\\]*(?:\\.[^'\\]*)*')
    | (?P<word>[^\W\d]\w*)
    | (?P<error>/\*|.)
    """,
    re.VERBOSE | re.DOTALL,
)
_REFERENCE_ESCAPED = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f"}
_REFERENCE_UNTERMINATED = {"/*": "unterminated block comment",
                           "'": "unterminated string literal"}


def _reference_tokenize(text):
    tokens = []
    line = 1
    line_start = 0  # offset of the first character of the current line
    for m in _REFERENCE_MASTER.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        start = m.start()
        lexeme = m.group()
        if kind in ("ident", "punct", "int"):
            tokens.append(Token(kind, lexeme, line, start - line_start + 1, start))
            continue
        if kind == "string":
            value = re.sub(r"\\(.)", lambda e: _REFERENCE_ESCAPED.get(e[1], e[1]),
                           lexeme[1:-1], flags=re.DOTALL)
            tokens.append(Token("string", value, line, start - line_start + 1, start))
        elif kind == "word" and lexeme[0].isalpha():
            tokens.append(Token("ident", lexeme, line, start - line_start + 1, start))
        elif kind == "error" or kind == "word":
            message = _REFERENCE_UNTERMINATED.get(lexeme) or f"illegal character {lexeme[0]!r}"
            raise CypherSyntaxError(message, line, start - line_start + 1)
        if "\n" in lexeme:  # lines, or a string that spans lines
            line += lexeme.count("\n")
            line_start = start + lexeme.rindex("\n") + 1
    tokens.append(Token("eof", "", line, len(text) - line_start + 1, len(text)))
    return tokens


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except CypherSyntaxError as exc:
        return ("error", exc.message, exc.line, exc.column)


# whole strings and comments that span lines, beside the single characters,
# so that a piece on the line where one of them ends is common
_SPANNING = st.sampled_from(["'a\nb'", "'\\'\r\n'", "/*\n*/", "// x\n", " x1 "])


@given(st.lists(_CYPHERISH | _SPANNING, max_size=40).map("".join))
@settings(max_examples=1000, deadline=None)
@example("'a\nb' /* c\r\n\nd */ x // '\ny '\\'\n' z")
@example("RETURN 1 /* open")
@example("RETURN 'open\n")
def test_tokenize_equals_the_reference_lexer(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(_reference_tokenize, text)


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


def test_return_alias_ends_at_the_item_s_last_piece():
    assert run_query_text("LET x = 1 RETURN x // c") == {"x": 1}
    q = parse_query("RETURN 1 /* a */ + 2 /* b */, 3 /* c\n */")
    assert [item.alias for item in q.returns] == ["1 /* a */ + 2", "3"]
    assert lint_primitives("LET x = 1 RETURN x // a\n, x") == [
        "SyntaxError at line 2, column 3: duplicate return alias 'x'"
    ]


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
    # a comment after an implicit alias is not part of it
    ("LET x = 1 RETURN x // a\n, x", CypherSyntaxError, "duplicate return alias 'x'", 2, 3),
    ("RETURN x /* a */, x", CypherSyntaxError, "duplicate return alias 'x'", 1, 19),
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
    # map entries the fast path reads or leaves to the general path, each
    # recorded before the fast path tested its pieces inline
    ("RETURN {a: 1, b: 1234567890123456789012345}", CypherSyntaxError,
     "integer literal 1234567890123456789012345 is outside the 64-bit range", 1, 18),
    ("RETURN {a: 9223372036854775807, b: 9223372036854775808}", CypherSyntaxError,
     "integer literal 9223372036854775808 is outside the 64-bit range", 1, 36),
    ("RETURN {a: -9223372036854775809}", CypherSyntaxError,
     "integer literal -9223372036854775809 is outside the 64-bit range", 1, 12),
    ("RETURN {a: 'x',\n  end: 99999999999999999999}", CypherSyntaxError,
     "integer literal 99999999999999999999 is outside the 64-bit range", 2, 8),
    ("RETURN {a: 1, case: 2} AS m, {a: 1, case: 9223372036854775808} AS n", CypherSyntaxError,
     "integer literal 9223372036854775808 is outside the 64-bit range", 1, 43),
    ("RETURN {end: 1, a: 'it\\'s', b:", CypherSyntaxError, "unexpected end of input", 1, 31),
    ("RETURN {a: 1, b: true,", CypherSyntaxError, "expected map key", 1, 23),
    ("RETURN {", CypherSyntaxError, "expected map key", 1, 9),
    ("RETURN {a: 1 + 2, b: {c:", CypherSyntaxError, "unexpected end of input", 1, 25),
    ("RETURN {a: 'x\\n' b: 1}", CypherSyntaxError, "expected '}', found 'b'", 1, 18),
    ("RETURN {1: 2}", CypherSyntaxError, "expected map key", 1, 9),
    ("RETURN {a: [1],\n b: 0999999999999999999 c}", CypherSyntaxError,
     "expected '}', found 'c'", 2, 25),
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
    assert evaluate(tree, {}, {}) == value
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
    assert evaluate(parse_expression(text), {}, {}) == value
    assert len(built) == 12


# map entries for the fast path's parity: ints of 1-25 digits, 19 of them
# just inside and just outside 64 bits; strings with and without escapes; and
# values the fast path leaves to the general descent
_MAP_INTS = (st.integers(1, 25).flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n))
             | st.sampled_from(["9223372036854775807", "9223372036854775808",
                                "9999999999999999999", "0999999999999999999"]))
_MAP_VALUES = (st.tuples(st.sampled_from(["", "-"]), _MAP_INTS).map("".join)
               | st.sampled_from(["'a'", "''", "'a\\nb'", "'it\\'s'", "'\\n\\''"])
               | st.sampled_from(["true", "null", "[1]", "{a: 1}", "1 + 2"]))
_MAP_KEYS = st.sampled_from(["a", "b", "x_1", "end", "CASE", "null"])


@given(st.lists(st.tuples(_MAP_KEYS, _MAP_VALUES), max_size=4), st.data())
@settings(max_examples=500, deadline=None)
def test_map_fast_path_equals_the_general_path(entries, data):
    # the same map with every value in parentheses, which the fast path never
    # reads; either may be cut after one of its '{', ':' and ','
    texts = ["{" + ", ".join(f"{k}: {v}" for k, v in entries) + "}",
             "{" + ", ".join(f"{k}: ({v})" for k, v in entries) + "}"]
    cuts = [[i + 1 for i, c in enumerate(text) if c in "{:,"] for text in texts]
    k = data.draw(st.sampled_from([None, *range(len(cuts[0]))]))
    if k is not None:
        texts = [text[:cut[k]] for text, cut in zip(texts, cuts)]
    fast, general = texts
    try:
        tree = parse_expression(fast)
    except CypherSyntaxError as exc:
        with pytest.raises(CypherSyntaxError) as general_exc:
            parse_expression(general)
        assert exc.message == general_exc.value.message
        return
    general_tree = parse_expression(general)
    fast_pieces, general_pieces = lexer._pieces(fast), lexer._pieces(general)
    assert len(tree.items) == len(general_tree.items)
    for (key, node), (general_key, general_node) in zip(tree.items, general_tree.items):
        assert key == general_key
        # class and slots, but no position; each node sits at the same piece
        assert (re.sub(r"@\d+:\d+", "", _dump(node))
                == re.sub(r"@\d+:\d+", "", _dump(general_node)))
        assert fast_pieces[node.at] == general_pieces[general_node.at]


def _dump(tree) -> str:
    """Class, every slot, and the line and column of every node of a parse
    tree, as one string."""
    if isinstance(tree, ast.Expr):
        slots = ", ".join(f"{s}={_dump(getattr(tree, s))}" for s in type(tree).__slots__)
        return f"{type(tree).__name__}@{tree.line}:{tree.column}({slots})"
    if dataclasses.is_dataclass(tree):
        fields = ", ".join(f"{f.name}={_dump(getattr(tree, f.name))}"
                           for f in dataclasses.fields(tree))
        return f"{type(tree).__name__}({fields})"
    if isinstance(tree, list):
        return "[" + ", ".join(map(_dump, tree)) + "]"
    if isinstance(tree, tuple):
        return "(" + ", ".join(map(_dump, tree)) + ")"
    return repr(tree)


# comments, strings that span lines, and \r\n line ends
_HAND_WRITTEN = (
    "CYPHER 25 // a header comment\r\n"
    "LET s = 'one\r\ntwo\\'s' /* a block\r\n  comment */ + 'x'\r\n"
    "LET m = {a: 1, b: 'x\\ny', c: -3, d: [1, 2][0]}\r\n"
    "LET l = [x IN range(1, 3) WHERE x <> 2 | x * 2 % 5] // trailing\r\n"
    "RETURN CASE WHEN s = 'a' THEN 1 ELSE reduce(t = 0, y IN l | t + y) END AS r,\r\n"
    "  m.a, head([v IN [l[0]] | v]) AS h, $p AS p, NOT true OR false AND null AS b,\r\n"
    "  CASE m.c WHEN -3 THEN [{k: 'v'}.k, -(1)] END AS c;\r\n"
)


def _pinned_text(name: str) -> str:
    if name == "demo.reduce.cypher":
        return (GOLDEN / name).read_text()
    if name == "hand-written":
        return _HAND_WRITTEN
    tm = load_tm_file(FIXTURES / "tm" / f"{name}.json")
    return gen_reduce_query(k_counters_to_two(two_stack_to_counters(tm))).text


@pytest.mark.parametrize("name, digest", [
    ("demo.reduce.cypher", "4aad65d388287d046ecfeb65d8c3321764273571294018fb76efcf0853cbb786"),
    ("immediate_halt", "3a533e9fdae10d2a06be218f7b0d15610e052f1dabd5ad836ea79b544d2d5800"),
    ("right_move", "f64d5662fc825b1e336e40dcf6cfd9618e169d999b7d16eb55ff0669ece06bfa"),
    ("unary_successor", "89900b527bc7004a841fc98fdd6766bd9f2329bed320635c60cc0b66ec3d215c"),
    ("hand-written", "6763b7cc3864c740f8b2b9e29ed8224163871fa76c35d7a07011eab9ea319c7d"),
])
def test_parse_trees_and_node_positions_are_pinned(name, digest):
    # digests of the trees as a parser over Token lists built them
    dump = _dump(parse_query(_pinned_text(name)))
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


def test_parsing_builds_no_tokens(monkeypatch):
    def refused(text):
        raise AssertionError("tokenize called")

    # wherever a module of the front end may have bound it
    for module in (lexer, parser, codegen):
        monkeypatch.setattr(module, "tokenize", refused, raising=False)
    text = _pinned_text("hand-written")
    assert _dump(parse_query(text))
    assert lint_primitives(text) == []
    assert parse_expression("[{a: 'b'}][0].a") is not None


@pytest.mark.parametrize("name, scans", [
    ("unary_successor", 0),
    # its unaliased 'm.a' is named by its own text, so one scan finds that
    ("hand-written", 1),
])
def test_parsing_works_out_no_position_until_one_is_read(name, scans, monkeypatch):
    text = _pinned_text(name)
    expected = _dump(parse_query(text))
    # the offset scan and the line split count their calls, and raise
    # while refuse is set
    calls = {"_scan": 0, "_line_starts": 0}
    refuse = scans == 0
    for f in calls:
        def counted(text, f=f, real=getattr(lexer, f)):
            if refuse:
                raise AssertionError(f"{f} called")
            calls[f] += 1
            return real(text)

        monkeypatch.setattr(lexer, f, counted)
    assert lint_primitives(text) == []
    assert calls == {"_scan": scans, "_line_starts": 0}
    calls["_scan"] = 0
    tree = parse_query(text)
    assert calls == {"_scan": scans, "_line_starts": 0}
    refuse = False
    assert _dump(tree) == expected  # reads every node's line and column
    # one offset scan and one line split for the parse of tree, in all
    assert calls == {"_scan": 1, "_line_starts": 1}


class _ReferenceParser(parser._Parser):
    """The expression descent as it was before parse_expr read an operand
    inline: every operand through parse_unary, parse_primary and
    parse_suffixes, and every map entry that is not a literal through
    parse_map_entry. It is the oracle for the trees and errors of the operand
    fast path and of parse_map's one loop; it records no Var names, so its
    reduces are not evaluated."""

    def parse_expr(self, min_power=0):
        i = self.pos
        if min_power <= parser._NOT_POWER and self.pieces[i].upper() == "NOT":
            self.pos = i + 1
            left = ast.Not(self.parse_expr(parser._NOT_POWER), self.source, i)
        else:
            left = self.parse_unary()
        return self.parse_operators(left, min_power)

    def parse_unary(self):
        piece = self.peek()
        if piece == "-":
            i = self.next()
            if (lexer._kind(self.peek()) == lexer.INT and self.peek(1) != "."
                    and self.peek(1) != "["):
                return self._literal(self.next(), i)
            operand = self.parse_unary()
            if type(operand) is ast.Literal and type(operand.value) is int:
                return self._int_literal(-operand.value, i)
            return ast.Neg(operand, self.source, i)
        if piece == "+":
            self.pos += 1
            return self.parse_unary()
        return self.parse_suffixes(self.parse_primary())

    def parse_suffixes(self, expr):
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

    def parse_primary(self):
        i = self.pos
        piece = self.pieces[i]
        kind = lexer._kind(piece)
        if kind == lexer.INT or kind == lexer.STRING:
            self.pos = i + 1
            return self._literal(i)
        if kind == lexer.IDENT:
            upper = piece.upper()
            self._reject_unsupported(i)
            if upper == "CASE":
                return self.parse_case()
            if upper in parser._CONSTANTS:
                self.pos = i + 1
                return ast.Literal(parser._CONSTANTS[upper], self.source, i)
            if upper in KEYWORDS:
                raise CypherSyntaxError(f"unexpected keyword {piece!r}", *self.position(i))
            if self.peek(1) == "(":
                return self.parse_call()
            self.pos = i + 1
            return ast.Var(piece, self.source, i)
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

    def parse_map(self):
        open_i = self.expect_punct("{")
        pieces, source = self.pieces, self.source
        pos, items = self.pos, []
        while pieces[pos][:1] not in lexer._KINDS and pieces[pos + 1] == ":":
            value = pieces[pos + 2]
            first = value[:1]
            if first == "'":
                value = value[1:-1] if "\\" not in value else lexer._lexeme(value)
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
        self.pos = pos
        if items or pieces[pos] != "}":
            items += self.parse_comma_list(self.parse_map_entry)
        self.expect_punct("}")
        return ast.MapLit(items, self.source, open_i)

    def parse_map_entry(self):
        key = self.expect_ident("expected map key")
        self.expect_punct(":")
        return key, self.parse_expr()


def _parse_outcome(parser_class, text):
    """The dump of the expression's tree, or the error's class, message and
    position."""
    try:
        return _dump(parser_class(text).parse_expression())
    except CypherError as exc:
        return type(exc).__name__, exc.message, exc.line, exc.column


# names, keywords in any case and the words the subset refuses; ints of 18
# digits, just inside and outside 64 bits, and longer; strings with escapes
_OPERAND_NAMES = ["a", "m", "x_1", "é", "end", "In", "as", "not", "NOT", "Case", "TRUE",
                  "null", "false", "WHEN", "MATCH", "count", "head", "reduce"]
_OPERAND_INTS = ["0", "7", "007", "1" * 18, "9" * 18, "9" * 19, "9223372036854775807",
                 "9223372036854775808", "1" * 25]
_OPERAND_STRINGS = ["''", "'a'", "'a\\nb'", "'it\\'s'", "'\\\\'", "'//'"]
_OPERATORS = ["OR", "or", "AND", "And", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]


def _operand_text(rng, depth):
    """A random expression of the subset or near it: operands, '.' and '['
    suffixes, calls, every binary operator, NOT and the signs, and the other
    primaries, joined by random blanks or none."""
    def gap():
        return rng.choice(["", " ", " ", "  ", "\n ", "\r\n"])

    def sub():
        return _operand_text(rng, depth - 1)

    kind = rng.choice(["name", "name", "int", "string", "param"] if depth == 0 else [
        "name", "int", "string", "suffix", "suffix", "binary", "binary", "binary",
        "prefix", "call", "paren", "list", "map", "map", "case"])
    if kind == "name":
        return rng.choice(_OPERAND_NAMES)
    if kind == "int":
        return rng.choice(_OPERAND_INTS)
    if kind == "string":
        return rng.choice(_OPERAND_STRINGS)
    if kind == "param":
        return "$" + rng.choice(["p", "p", "p", "1", ""])
    if kind == "suffix":
        suffix = rng.choice([".k", ".END", ".k.b", "[" + sub() + "]", ".", ". 1", ".'k'"])
        return sub() + gap() + suffix
    if kind == "binary":
        return sub() + gap() + rng.choice(_OPERATORS) + gap() + sub()
    if kind == "prefix":
        return rng.choice(["NOT ", "not ", "-", "- ", "+"]) + sub()
    if kind == "call":
        name = rng.choice(["head", "range", "Head", "nope", "count", "m"])
        if rng.random() < 0.3:
            return f"reduce({gap()}acc = {sub()}, x IN {sub()} |{gap()}{sub()})"
        return name + "(" + ", ".join(sub() for _ in range(rng.randint(0, 2))) + ")"
    if kind == "paren":
        return "(" + gap() + sub() + gap() + ")"
    if kind == "list":
        return "[" + ", ".join(sub() for _ in range(rng.randint(0, 2))) + "]"
    if kind == "map":
        # now and then without a key, a ':', a ',' or the '}'
        entries = [rng.choice(["k", "k", "END", "1", "'k'", ""]) + rng.choice([": ", ":", " "])
                   + rng.choice([sub, lambda: rng.choice(_OPERAND_INTS + _OPERAND_STRINGS)])()
                   for _ in range(rng.randint(0, 3))]
        return "{" + rng.choice([", ", ", ", " "]).join(entries) + rng.choice(["}", "}", ",}", ""])
    return f"CASE WHEN {sub()} THEN {sub()} ELSE {sub()} END"


@given(st.integers(0, 2**32), st.integers(0, 1000))
@settings(max_examples=1000, deadline=None)
@example(0, 0)
def test_the_operand_fast_path_equals_the_reference_descent(seed, cut):
    # the text whole, or cut at the start of one of its pieces
    rng = random.Random(seed)
    text = _operand_text(rng, rng.randint(0, 4))
    try:
        offsets = lexer._scan(text)[1]
    except CypherSyntaxError:
        offsets = [len(text)]
    text = text[:offsets[cut % len(offsets)]] if cut % 2 else text
    assert _parse_outcome(parser._Parser, text) == _parse_outcome(_ReferenceParser, text)


@pytest.mark.parametrize("text", [
    "m.", "m.k[1", "12345678901234567890", "m.k.END + 'a\\'b'.x * -x[0] % $p",
    "a.b.c OR NOT d AND e = 1", "x MATCH", "count.k", "x\n.\n1", "1.k", "'s'[0]",
    "f(1).k", "head([x IN [1] | x.y])", "a < b < c", "007 + 999999999999999999",
])
def test_the_operand_fast_path_keeps_trees_and_errors(text):
    assert _parse_outcome(parser._Parser, text) == _parse_outcome(_ReferenceParser, text)


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
        super().__init__(inner.source, inner.at)
        self.inner = inner
        self.calls = 0

    def _compile(self):
        inner = self.inner._compile()

        def counted(env, params):
            self.calls += 1
            return inner(env, params)

        return counted


def counted_reduce(text):
    """The reduce in text with a counting body: (value, body calls)."""
    expr = parse_expression(text)
    expr.body = body = Counted(expr.body)
    return evaluate(expr, {}, {}), body.calls


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
        evaluate(parse_expression(text), env, {})
    got = exc_info.value
    assert (got.message, got.line, got.column) == ("division by zero", 1, 102)
    assert env == {"m": 7}


def test_reduce_fixpoint_exit_restores_shadowed_variables():
    fold = "reduce(a = 0, s IN range(1, 9) | CASE WHEN a = 2 THEN a ELSE a + 1 END)"
    assert run_query_text(f"LET a = 7 LET s = 8 LET r = {fold} RETURN a, s, r") == {
        "a": 7, "s": 8, "r": 2,
    }
    env = {"x": 1}
    assert evaluate(parse_expression(fold), env, {}) == 2
    assert env == {"x": 1}


def test_a_reduce_that_can_stop_at_its_fixpoint_does_not_bind_its_element():
    seen = []

    class Peek(ast.Expr):
        """A body that records env's s and adds one; inner only gives _mentions a tree."""

        __slots__ = ("inner",)

        def __init__(self, inner):
            super().__init__(inner.source, inner.at)
            self.inner = inner

        def _compile(self):
            def peek(env, params):
                seen.append(env.get("s"))
                return env["a"] + 1

            return peek

    expr = parse_expression("reduce(a = 0, s IN [1, 2] | a)")
    for inner, bound in (("a", [7, 7]), ("s", [1, 2])):
        seen.clear()
        expr.body = Peek(parse_expression(inner))
        env = {"s": 7}
        assert evaluate(expr, env, {}) == 2
        assert (seen, env) == (bound, {"s": 7})


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
    assert evaluate(parse_expression("head([v IN [x] | v + 1])"), env, {}) == 2
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


# ---------------------------------------------------------------- property reads, map literals

# each node that reads a property of a variable, as a fold's step does, with
# the column of the variable and the value when the property reads null; c is
# a list
_FUSED = [
    ("m.k = 0", 1, None),
    ("m.k = -1", 1, None),
    ("m.k + 1", 1, None),
    ("m.k - 1", 1, None),
    ("m.k * 2", 1, None),
    ("CASE WHEN m.k = 0 THEN 1 ELSE 2 END", 11, 2),
    ("head([v IN [c[m.k]] | v])", 15, None),
    ("{s: 1, A: m.k, B: c}", 11, {"s": 1, "A": None, "B": [10, 20]}),
]
_TABLE = [10, 20]


def _fused_outcome(text, env):
    env = {**env, "c": _TABLE}
    return _outcome_of(lambda: evaluate(parse_expression(text), env, {}))


@pytest.mark.parametrize("text, column, null_value", _FUSED)
def test_fused_reads_keep_their_values_and_errors(text, column, null_value):
    non_map = "property access on non-map value of type "
    cases = [
        ({}, ("error", UnknownVariable, "variable 'm' not defined", 1, column)),
        ({"m": None}, ("value", repr(null_value))),
        ({"m": {"j": 1}}, ("value", repr(null_value))),  # a map without the key
        ({"m": 5}, ("error", TypeMismatch, non_map + "int", 1, column + 1)),
        ({"m": "x"}, ("error", TypeMismatch, non_map + "str", 1, column + 1)),
        ({"m": [1]}, ("error", TypeMismatch, non_map + "list", 1, column + 1)),
    ]
    for env, want in cases:
        assert _fused_outcome(text, env) == want, env


@pytest.mark.parametrize("text, k, want", [
    ("m.k = 0", 0, ("value", "True")),
    ("m.k = 0", True, ("value", "False")),
    ("m.k = 0", [0], ("value", "False")),
    ("m.k + 1", INT64_MAX, ("error", IntegerOverflow, "integer out of 64-bit range", 1, 5)),
    ("m.k * 2", INT64_MAX, ("error", IntegerOverflow, "integer out of 64-bit range", 1, 5)),
    ("m.k - 1", INT64_MAX, ("value", str(INT64_MAX - 1))),
    ("m.k + 1", True, ("error", TypeMismatch, "operator + requires integers, got bool and int",
                       1, 5)),
    ("m.k - 1", [0], ("error", TypeMismatch, "operator - requires integers, got list and int",
                      1, 5)),
    ("CASE WHEN m.k = 0 THEN 1 ELSE 2 END", 0, ("value", "1")),
    ("CASE WHEN m.k = 0 THEN 1 ELSE 2 END", True, ("value", "2")),
    ("head([v IN [c[m.k]] | v])", 1, ("value", "20")),
    ("head([v IN [c[m.k]] | v])", INT64_MAX, ("value", "None")),
    ("head([v IN [c[m.k]] | v])", True, ("error", TypeMismatch, "list index must be an integer",
                                         1, 14)),
    ("{s: 1, A: m.k, B: c}", True, ("value", "{'s': 1, 'A': True, 'B': [10, 20]}")),
])
def test_fused_reads_of_a_present_key(text, k, want):
    assert _fused_outcome(text, {"m": {"k": k}}) == want


@pytest.mark.parametrize("text, column", [
    ("RETURN reduce(m = 1, x IN range(1, 2) | m.A + 1) AS r", 42),
    ("RETURN reduce(m = {s: 0}, x IN range(1, 3) | {s: 1, A: m.s.k}) AS r", 59),
])
def test_a_fused_read_of_a_non_map_names_the_dot(text, column):
    with pytest.raises(TypeMismatch) as exc_info:
        run_query_text(text)
    assert str(exc_info.value) == (
        f"TypeMismatch at line 1, column {column}: property access on non-map value of type int")


_SUBSET_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**63), INT64_MAX) | st.sampled_from([0, 1, -1])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("jk"), inner),
    max_leaves=6,
)


@given(st.sampled_from([text for text, _, _ in _FUSED]),
       st.one_of(st.just({}), _SUBSET_VALUES.map(lambda m: {"m": m})))
@settings(max_examples=500, deadline=None)
def test_fused_reads_equal_the_general_path(text, env):
    # head([m]).k reads the same property through the general path
    fused = _fused_outcome(text, env)
    general = _fused_outcome(text.replace("m.k", "head([m]).k"), env)
    assert fused[:3] == general[:3]  # the value, or the error's class and message


def test_map_keys_keep_their_order_and_the_last_repeat_wins():
    env = {"m": {"x": 5}}
    got = evaluate(parse_expression("{b: m.x, a: 1}"), env, {})
    assert list(got.items()) == [("b", 5), ("a", 1)]
    got = evaluate(parse_expression("{a: 1, b: m.x, a: 2}"), env, {})
    assert list(got.items()) == [("a", 2), ("b", 5)]
    got = evaluate(parse_expression("{a: m.x, b: 1, a: 2, c: m.x}"), env, {})
    assert list(got.items()) == [("a", 2), ("b", 1), ("c", 5)]


def test_a_map_of_known_entries_is_a_fresh_dict_each_time():
    table = [1]
    env = {"c": table, "d": {"n": 2}}
    fn = parse_expression("{s: 0, t: c, u: d.n, v: null}")._compile()
    first, second = fn(env, {}), fn(env, {})
    assert first == second == {"s": 0, "t": table, "u": 2, "v": None}
    assert first is not second and first["t"] is table
    first["s"] = 9
    assert fn(env, {})["s"] == 0
    # so outside the fold's step loop, a fold whose body builds an equal map
    # never takes the fixpoint exit
    assert counted_reduce("reduce(m = {s: 0}, x IN range(1, 5) | {s: 0})") == ({"s": 0}, 5)


def _ast_calls_per_live_step(fuel, source="state 0: INC A -> 1\nstate 1: JZDEC B ? 0 : 0\n"
                             "state 2: HALT\n"):
    program = parse_dsl(source)
    final = run(program, fuel=fuel).final
    tree = parse_query(gen_reduce_query(program, fuel).text)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == ast.__file__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert run_query(tree)["result"] == {"state": final.state, "A": final.a, "B": final.b}
    finally:
        sys.setprofile(previous)
    return calls


def test_a_live_fold_step_makes_at_most_2_calls():
    # the program never halts and never repeats a configuration (A grows):
    # every iteration between the two fuels is live, and both runs compile
    # the same two step bodies
    per_step = (_ast_calls_per_live_step(2001) - _ast_calls_per_live_step(1001)) / 1000
    assert per_step <= 2, per_step


# ---------------------------------------------------------------- fold loop dispatch

_FOLD_INIT = "machine = {state: 0, A: 0, B: 0}"


def _fold_text(program, fuel, init="{state: 0, A: 0, B: 0}"):
    text = gen_reduce_query(program, fuel).text
    assert _FOLD_INIT in text
    return text.replace(_FOLD_INIT, "machine = " + init)


def _fold_outcome(text):
    return _outcome_of(lambda: run_query(parse_query(text))["result"])


def _fold_step_of(text):
    """ast._fold_step of the fold bound to result."""
    fold = dict(parse_query(text).bindings)["result"]
    return ast._fold_step(fold.body, fold.acc_name)


_NEAR_INT64 = st.one_of(st.integers(0, 3), st.integers(INT64_MAX - 3, INT64_MAX),
                        st.integers(-(2**63), -(2**63) + 2))


# past its bound the loop's memo is full, and a visit calls the whole body
@given(st.integers(0, 2**32), st.integers(1, 300), _NEAR_INT64, _NEAR_INT64,
       st.sampled_from([4096, 1, 0]))
@settings(max_examples=300, deadline=None)
def test_the_fold_loop_dispatch_equals_the_general_step(seed, fuel, a, b, max_specialised):
    text = _fold_text(random_program(seed, 8), fuel, f"{{state: 0, A: {a}, B: {b}}}")
    # an absorb arm that is not the accumulator itself: the same value, the
    # loop calls the whole body every step
    general = text.replace("THEN machine\n", "THEN head([machine])\n")
    assert _fold_step_of(text)[0] == "state" and _fold_step_of(general) is None
    with unittest.mock.patch.object(ast, "MAX_SPECIALISED", max_specialised):
        assert _fold_outcome(text) == _fold_outcome(general)


# the loop's own halt rule: it stops where the CASE test holds, at an int
# acc.k equal to an int literal, an index of the table or not; a literal that
# is not an int holds for no int, so the fold runs on past its HALT
_HALT_LITERALS = ["1", "0", "true", "'1'", "null"]


def _halt_texts(text, literal):
    """The fold text with the halt test against literal, and the same with the
    general absorb arm."""
    text = text.replace("CASE WHEN machine.state = -1\n", f"CASE WHEN machine.state = {literal}\n")
    return text, text.replace("THEN machine\n", "THEN head([machine])\n")


@given(st.integers(0, 2**32), st.integers(1, 300), _NEAR_INT64, _NEAR_INT64,
       st.sampled_from(_HALT_LITERALS), st.sampled_from([4096, 1, 0]))
@settings(max_examples=300, deadline=None)
def test_the_fold_loop_stops_where_its_test_holds(seed, fuel, a, b, literal, max_specialised):
    text = _fold_text(random_program(seed, 8), fuel, f"{{state: 0, A: {a}, B: {b}}}")
    text, general = _halt_texts(text, literal)
    assert _fold_step_of(text)[0] == "state" and _fold_step_of(general) is None
    with unittest.mock.patch.object(ast, "MAX_SPECIALISED", max_specialised):
        assert _fold_outcome(text) == _fold_outcome(general)


_HALT_CHAIN = "state 0: INC A -> 1\nstate 1: INC B -> 2\nstate 2: HALT\n"


@pytest.mark.parametrize("max_specialised", [4096, 1, 0])
@pytest.mark.parametrize("literal, outcome", [
    ("1", ("value", "{'state': 1, 'A': 1, 'B': 0}")),
    ("0", ("value", "{'state': 0, 'A': 0, 'B': 0}")),
    ("true", ("value", "{'state': -1, 'A': 1, 'B': 1}")),
    ("'1'", ("value", "{'state': -1, 'A': 1, 'B': 1}")),
    ("null", ("value", "{'state': -1, 'A': 1, 'B': 1}")),
])
@pytest.mark.parametrize("init", ["{state: 0, A: 0, B: 0}", "{state: 1, A: 0, B: 0}",
                                  "{state: 2, A: 0, B: 0}", "{state: true, A: 0, B: 0}",
                                  "{state: '1', A: 0, B: 0}", "{A: 0, B: 0}", "5", "null"])
def test_a_fold_with_an_odd_halt_test(init, literal, outcome, max_specialised):
    text, general = _halt_texts(_fold_text(parse_dsl(_HALT_CHAIN), 20, init), literal)
    with unittest.mock.patch.object(ast, "MAX_SPECIALISED", max_specialised):
        got = _fold_outcome(text)
        assert got == _fold_outcome(general)
    if init == "{state: 0, A: 0, B: 0}":
        assert got == outcome


_SMALL_FOLD = "state 0: INC A -> 1\nstate 1: JZDEC A ? 2 : 0\nstate 2: HALT\n"
_NON_MAP = "property access on non-map value of type"
_NOT_AN_INDEX = (TypeMismatch, "list index must be an integer", 13, 33)


# values and errors as the fold evaluated them before the loop dispatch
@pytest.mark.parametrize("init, outcome", [
    ("5", ("error", TypeMismatch, f"{_NON_MAP} int", 11, 20)),
    ("'s'", ("error", TypeMismatch, f"{_NON_MAP} str", 11, 20)),
    ("[0]", ("error", TypeMismatch, f"{_NON_MAP} list", 11, 20)),
    ("null", ("value", "None")),
    ("{state: null, A: 0, B: 0}", ("value", "None")),
    ("{state: true, A: 0, B: 0}", ("error", *_NOT_AN_INDEX)),
    ("{state: false, A: 0, B: 0}", ("error", *_NOT_AN_INDEX)),
    ("{state: '0', A: 0, B: 0}", ("error", *_NOT_AN_INDEX)),
    ("{state: -2, A: 0, B: 0}", ("value", "{'state': -1, 'A': 0, 'B': 0}")),
    ("{state: -1, A: 7, B: 0}", ("value", "{'state': -1, 'A': 7, 'B': 0}")),
    ("{state: 3, A: 0, B: 0}", ("value", "None")),
    ("{A: 0, B: 0}", ("value", "None")),
    ("{state: 0, A: 9223372036854775807, B: 0}",
     ("error", IntegerOverflow, "integer out of 64-bit range", 17, 60)),
    ("{state: 1, A: 0, B: 9223372036854775807}",
     ("value", "{'state': -1, 'A': 0, 'B': 9223372036854775807}")),
    ("{state: 1, A: -9223372036854775808, B: 0}",
     ("error", IntegerOverflow, "integer out of 64-bit range", 25, 56)),
    ("{state: 0, A: 'x', B: 0}",
     ("error", TypeMismatch, "operator + requires integers, got str and int", 17, 60)),
    ("{state: 0, A: null, B: 0}", ("value", "{'state': 0, 'A': None, 'B': 0}")),
    ("{state: 0, B: 1}", ("value", "{'state': 0, 'A': None, 'B': 1}")),
])
def test_a_fold_from_an_odd_accumulator(init, outcome):
    assert _fold_outcome(_fold_text(parse_dsl(_SMALL_FOLD), 20, init)) == outcome


# a step to a state that is not an index of the table, once the loop has
# step bodies to call: true must not call the body of state 1
@pytest.mark.parametrize("state, outcome", [
    ("true", ("error", *_NOT_AN_INDEX)),
    ("false", ("error", *_NOT_AN_INDEX)),
    ("'0'", ("error", *_NOT_AN_INDEX)),
    ("[1]", ("error", *_NOT_AN_INDEX)),
    ("null", ("value", "None")),
    ("-1", ("value", "{'state': -1, 'A': 1, 'B': 1}")),
    ("-3", ("value", "{'state': -3, 'A': 10, 'B': 10}")),  # the first entry, from the end
    ("3", ("value", "None")),
])
def test_a_fold_that_steps_to_an_odd_state(state, outcome):
    text = _fold_text(parse_dsl("state 0: INC A -> 1\nstate 1: INC B -> 0\nstate 2: HALT\n"), 20)
    entry = "{state: 1, op: 'INC', counter: 'B', next: 0}"
    assert entry in text
    text = text.replace(entry, entry.replace("next: 0", f"next: {state}"))
    assert _fold_outcome(text) == outcome


@pytest.mark.parametrize("a, result", [(0, {"state": 0, "A": 0, "B": 0}),
                                       (2, {"state": -1, "A": 2, "B": 0})])
def test_a_fold_whose_index_reads_another_key_than_its_test(a, result):
    text = _fold_text(parse_dsl(_SMALL_FOLD), 20, f"{{state: 0, A: {a}, B: 0}}")
    text = text.replace("program[machine.state]", "program[machine.A]")
    assert _fold_step_of(text) is None
    assert run_query(parse_query(text))["result"] == result


@pytest.mark.parametrize("fuel, result", [(6000, {"state": -1, "A": 5000, "B": 0}),
                                          (4500, {"state": 4500, "A": 4500, "B": 0})])
def test_a_fold_over_a_table_wider_than_its_specialised_bodies(fuel, result):
    chain = "".join(f"state {i}: INC A -> {i + 1}\n" for i in range(5000)) + "state 5000: HALT\n"
    assert 5000 > ast.MAX_SPECIALISED
    assert run_query(parse_query(_fold_text(parse_dsl(chain), fuel)))["result"] == result


# the entries of a map that read a property, off the int path a generated
# step takes: values and errors as the entries' own closures give them
@pytest.mark.parametrize("text, outcome", [
    ("[m IN [{k: 1}, {j: 2}, null] | {a: m.k + 1, b: m.k, c: m.k * 2, d: m.k - 3}]",
     ("value", "[{'a': 2, 'b': 1, 'c': 2, 'd': -2}, {'a': None, 'b': None, 'c': None, 'd': None}, "
               "{'a': None, 'b': None, 'c': None, 'd': None}]")),
    ("[m IN [{k: 'x'}] | {a: m.k}]", ("value", "[{'a': 'x'}]")),
    ("[m IN [5] | {a: m.k}]", ("error", TypeMismatch, f"{_NON_MAP} int", 1, 25)),
    ("[m IN [5] | {a: 1, b: m.k - 1}]", ("error", TypeMismatch, f"{_NON_MAP} int", 1, 31)),
    ("[m IN [{k: 'x'}] | {a: m.k + 1}]",
     ("error", TypeMismatch, "operator + requires integers, got str and int", 1, 35)),
    ("[m IN [{k: true}] | {a: m.k * 2}]",
     ("error", TypeMismatch, "operator * requires integers, got bool and int", 1, 36)),
    ("[m IN [{k: [1]}] | {a: m.k, b: m.k + 1}]",
     ("error", TypeMismatch, "operator + requires integers, got list and int", 1, 43)),
    ("[m IN [{k: 9223372036854775807}] | {a: m.k + 1}]",
     ("error", IntegerOverflow, "integer out of 64-bit range", 1, 51)),
    ("[m IN [{k: -9223372036854775808}] | {a: m.k - 1}]",
     ("error", IntegerOverflow, "integer out of 64-bit range", 1, 52)),
    ("[m IN [{k: 4611686018427387904}] | {a: m.k * 2}]",
     ("error", IntegerOverflow, "integer out of 64-bit range", 1, 51)),
    ("[m IN [{k: -4611686018427387905}] | {a: m.k * 2}]",
     ("error", IntegerOverflow, "integer out of 64-bit range", 1, 52)),
    ("[m IN [1] | {a: x.k}]", ("error", UnknownVariable, "variable 'x' not defined", 1, 24)),
])
def test_a_map_entry_read_inline_off_its_int_path(text, outcome):
    assert _outcome_of(lambda: run_query_text(f"RETURN {text} AS r")["r"]) == outcome


def test_the_folds_of_verify_traffic_keep_their_values():
    # the results of random_program(seed, 8) folds, seeds 0-99 at fuel 5000,
    # as the evaluator gave them before the fold loop dispatch: this moves if
    # the fold and run change alike, which their differential check cannot see
    digest = hashlib.sha256()
    for seed in range(100):
        query = gen_reduce_query(random_program(seed, 8), 5000)
        digest.update(format_results(run_query(parse_query(query.text))).encode() + b"\n")
    assert digest.hexdigest() == (
        "39c6ef7c2ebd77ac0d761ea1d0dee183c11fb816ceb33158f785b7a67f2ec816")


def _var_names(node):
    """Every Var name in a tree, shadowed or not, by a recursive walk that
    names each class's children."""
    kind = type(node)
    if kind is ast.Var:
        return {node.name}
    children = {
        ast.Literal: lambda: [],
        ast.Param: lambda: [],
        ast.Prop: lambda: [node.obj],
        ast.Index: lambda: [node.obj, node.index],
        ast.Not: lambda: [node.operand],
        ast.Neg: lambda: [node.operand],
        ast.Binary: lambda: [node.left, node.right],
        ast.ListLit: lambda: node.items,
        ast.MapLit: lambda: [e for _, e in node.items],
        ast.Call: lambda: node.args,
        ast.Case: lambda: [node.subject, node.default, *(e for arm in node.whens for e in arm)],
        ast.Reduce: lambda: [node.init, node.list_expr, node.body],
        ast.Comprehension: lambda: [node.list_expr, node.where, node.mapper],
    }[kind]()
    return set().union(*(_var_names(c) for c in children if c is not None))


@given(st.integers(0, 2**32))
@settings(max_examples=500, deadline=None)
@example(0)
def test_mentions_equals_a_recursive_walk(seed):
    # the generator's binders v, acc, c and d shadow the names around them
    rng = random.Random(seed)
    tree = parse_expression(_expr_text(rng, 4))
    names = _var_names(tree)
    for name in ("c", "d", "v", "acc", "p", "zz"):
        assert ast._mentions(tree, name) == (name in names)


@pytest.mark.parametrize("text, mentioned", [
    ("head([s IN [a] | s])", {"a", "s"}),
    ("reduce(b = a, s IN [] | s)", {"a", "s"}),
    ("[s IN range(1, 2) WHERE s > $p | {k: s}]", {"s"}),
    ("CASE x WHEN 1 THEN -y ELSE NOT z[0] END", {"x", "y", "z"}),
])
def test_mentions_counts_shadowed_binders(text, mentioned):
    tree = parse_expression(text)
    assert _var_names(tree) == mentioned
    for name in ("a", "s", "x", "y", "z", "b", "k"):
        assert ast._mentions(tree, name) == (name in mentioned)


# ---------------------------------------------------------------- repeated values of a fold's step

_ZERO_LOOP = "state 0: JZDEC A ? 0 : 0\n"


def _no_value_exit():
    return unittest.mock.patch.object(ast, "_same_flat_map", lambda a, b: False)


def _step_calls(text):
    """The result of the fold bound to result, and the calls of its step
    bodies, the mapper of its head bind."""
    tree = parse_query(text)
    bind = dict(tree.bindings)["result"].body.default.args[0]
    bind.mapper = counted = Counted(bind.mapper)
    return run_query(tree)["result"], counted.calls


def _hand_fold(init, entry, fuel=100):
    """A fold's step over the table [0] whose step body builds {s: v, <entry>}."""
    return (f"LET c = [0]\nLET result = reduce(m = {init}, x IN range(1, {fuel}) |\n"
            f"  CASE WHEN m.s = -1 THEN m ELSE head([v IN [c[m.s]] | {{s: v, {entry}}}]) END)\n"
            "RETURN result")


_VALUE_INITS = [
    "{{state: 0, A: {a}, B: {b}}}",
    "{{A: {a}, state: 0, B: {b}}}",
    "{{B: {b}, A: {a}, state: 0}}",
    "{{state: 0, A: true, B: {b}}}",
    "{{state: 0, A: {a}, B: true}}",
    "{{state: 0, A: {a}, B: {b}, x: 's'}}",
    "{{state: 0, A: {a}, B: {b}, x: null}}",
    "{{state: 0, A: {a}, B: {b}, x: [0]}}",
]


@given(st.integers(0, 2**32), st.integers(1, 300) | st.just(10_000), _NEAR_INT64, _NEAR_INT64,
       st.sampled_from(_VALUE_INITS))
@settings(max_examples=300, deadline=None)
def test_the_value_exit_equals_the_fold_without_it(seed, fuel, a, b, init):
    text = _fold_text(random_program(seed, 8), fuel, init.format(a=a, b=b))
    assert _fold_step_of(text)[0] == "state"
    got = _fold_outcome(text)  # a value by repr, so with its keys in order
    with _no_value_exit():
        assert got == _fold_outcome(text)


@pytest.mark.parametrize("a, b, same", [
    ({"s": 0, "A": 1}, {"s": 0, "A": 1}, True),
    ({"s": 0, "t": "x", "u": None, "v": False}, {"s": 0, "t": "x", "u": None, "v": False}, True),
    ({}, {}, True),
    ({"s": 0, "A": True}, {"s": 0, "A": 1}, False),
    ({"s": 0, "A": 0}, {"s": 0, "A": False}, False),
    ({"A": 0, "s": 0}, {"s": 0, "A": 0}, False),
    ({"s": 0}, {"s": 0, "A": 0}, False),
    ({"s": 0, "A": 0}, {"s": 0, "B": 0}, False),
    ({"s": 0, "l": []}, {"s": 0, "l": []}, False),
    ({"s": 0, "m": {}}, {"s": 0, "m": {}}, False),
    ({"s": 0, "r": range(1, 2)}, {"s": 0, "r": range(1, 2)}, False),
    (0, 0, False),
    (None, None, False),
    ([0], [0], False),
])
def test_same_flat_map_is_strict(a, b, same):
    assert ast._same_flat_map(a, b) is same
    assert ast._same_flat_map(b, a) is same


def test_a_reordered_init_stops_once_the_order_matches():
    text = _fold_text(parse_dsl(_ZERO_LOOP), 100, "{A: 0, state: 0, B: 0}")
    result, calls = _step_calls(text)
    assert list(result.items()) == [("state", 0), ("A", 0), ("B", 0)]
    # the first chunk's compare sees the order change; the second chunk's
    # anchor, the reordered map, meets its repeat one call later
    assert calls == 2
    assert _step_calls(_fold_text(parse_dsl(_ZERO_LOOP), 100)) == (result, 1)


def test_true_is_not_the_same_as_1():
    assert _step_calls(_hand_fold("{s: 0, A: 1}", "A: 1")) == ({"s": 0, "A": 1}, 1)
    result, calls = _step_calls(_hand_fold("{s: 0, A: true}", "A: 1"))
    assert (repr(result), calls) == ("{'s': 0, 'A': 1}", 2)


def test_a_list_valued_entry_never_stops_the_fold():
    assert _step_calls(_hand_fold("{s: 0, l: []}", "l: []")) == ({"s": 0, "l": []}, 100)


def test_a_zero_branch_self_loop_of_2_to_the_63_steps_ends_at_its_fixpoint():
    text = gen_reduce_query(parse_dsl(_ZERO_LOOP), INT64_MAX).text
    start = time.perf_counter()
    assert run_query_text(text)["result"] == {"state": 0, "A": 0, "B": 0}
    assert time.perf_counter() - start < 2


def test_a_fixpoint_from_iteration_t_is_found_by_2t_plus_1():
    # the 1,001st iteration is the first to give its accumulator's value
    text = _fold_text(parse_dsl(_ZERO_LOOP), INT64_MAX, "{state: 0, A: 1000, B: 0}")
    result, calls = _step_calls(text)
    assert result == {"state": 0, "A": 0, "B": 0}
    assert calls <= 2003, calls


def _checks_of(text):
    """The fold's result and how many times its loop compared two values."""
    checks = 0
    same = ast._same_flat_map

    def counted(a, b):
        nonlocal checks
        checks += 1
        return same(a, b)

    with unittest.mock.patch.object(ast, "_same_flat_map", counted):
        result = run_query_text(text)["result"]
    return result, checks


def _compare_bound(n):
    """The most compares of a fold of n iterations: CYCLE_COMPARES in each of
    its chunks of 1, 2, 4, ..., of which there are n.bit_length()."""
    return ast.CYCLE_COMPARES * n.bit_length()


def test_a_fold_that_never_reaches_a_fixpoint_checks_log_n_times():
    text = gen_reduce_query(parse_dsl("state 0: INC A -> 0\n"), 100_000).text
    result, checks = _checks_of(text)
    assert result == {"state": 0, "A": 100_000, "B": 0}
    assert checks <= _compare_bound(100_000) == 34, checks


def _nesting(m):
    """m's s and how deep its l nests, read without recursion."""
    depth, inner = 0, m["l"]
    while inner:
        (inner,) = inner
        depth += 1
    return m["s"], depth


def test_a_nesting_step_body_runs_in_linear_time():
    # an equality that recursed into the lists would pass Python's recursion limit
    text = _hand_fold("{s: 0, l: []}", "l: [m.l]", 5000)
    start = time.perf_counter()
    result, checks = _checks_of(text)
    assert time.perf_counter() - start < 2
    assert _nesting(result) == (0, 5000) and checks <= _compare_bound(5000) == 26
    with _no_value_exit():
        assert _nesting(run_query_text(text)["result"]) == (0, 5000)


def test_a_live_self_loop_step_makes_at_most_2_calls():
    # the step is generated at its first visit; the 1000 more live steps add
    # one chunk: its CYCLE_COMPARES compares with its anchor, and no call per step
    source = "state 0: INC A -> 0\n"
    _ast_calls_per_live_step(1001, source)  # compile() of the step's shape, memoised
    calls = _ast_calls_per_live_step(2001, source) - _ast_calls_per_live_step(1001, source)
    assert calls <= 2, calls


# (item seed, tail, period) of each verify-random program of seeds 1, 3 and 7
# whose run repeats a configuration with a period of 2 or more
_CYCLE_CENSUS = [
    (100013, 0, 2), (100018, 0, 2), (100037, 1, 3), (100045, 0, 2), (100060, 0, 5),
    (100088, 3, 4), (300009, 0, 2), (300053, 0, 2), (300056, 0, 3), (300073, 0, 4),
    (300081, 0, 4), (700022, 0, 2), (700028, 0, 2), (700035, 0, 2), (700053, 0, 3),
    (700060, 1, 7),
]
_CYCLE_FUELS = [5000, 10_000, INT64_MAX]


def _tail_and_period(program):
    """The step at which run first enters a repeating configuration, and the
    repeat's period, from a trace of 64 steps."""
    first = {}
    for j, row in enumerate(run(program, 64, capture_trace=True).trace):
        i = first.setdefault(row.config_before, j)
        if i < j:
            return i, j - i
    return None


@pytest.mark.parametrize("seed, tail, period", _CYCLE_CENSUS)
def test_a_repeating_fold_stops_at_its_cycle_and_equals_run(seed, tail, period):
    program = random_program(seed, 8)
    assert _tail_and_period(program) == (tail, period)
    for fuel in _CYCLE_FUELS:
        text = _fold_text(program, fuel)
        final = run(program, fuel=fuel).final
        got = _fold_outcome(text)
        assert got == ("value", repr({"state": final.state, "A": final.a, "B": final.b}))
        if fuel < INT64_MAX:  # the fold without the exit runs every iteration
            with _no_value_exit():
                assert _fold_outcome(text) == got


@pytest.mark.parametrize("seed", [700060, 300073])
def test_a_repeating_fold_stops_within_32_step_calls(seed):
    # 700060 enters its period-7 cycle after one step; its first chunk that
    # starts at or after that and holds 7 iterations, the one of 8 from
    # iteration 7, finds it. In 300073 the anchor's state recurs twice per period (states
    # 0, 4, 3, 0), and the first recurrence is not a repeat: a chunk that
    # compared once would never find it
    program = random_program(seed, 8)
    for fuel in _CYCLE_FUELS:
        result, calls = _step_calls(_fold_text(program, fuel))
        final = run(program, fuel=fuel).final
        assert result == {"state": final.state, "A": final.a, "B": final.b}
        assert calls <= 32, (fuel, calls)


# programs of 3 states, about a tenth of which repeat a configuration (most
# with period 1), and, since only about 1% repeat with a longer period, the
# census and five 3-state programs that repeat with a period of 2 or 3, at
# each fuel's phase of their cycle
_CYCLE_PROGRAMS = st.one_of(
    st.tuples(st.integers(0, 2**32), st.just(3)),
    st.sampled_from([(seed, 8) for seed, _, _ in _CYCLE_CENSUS]
                    + [(seed, 3) for seed in (17, 130, 193, 1490, 1703)]),
)


@given(_CYCLE_PROGRAMS, st.integers(1, 300) | st.just(10_000), _NEAR_INT64, _NEAR_INT64,
       st.sampled_from(_VALUE_INITS))
@settings(max_examples=300, deadline=None)
def test_the_cycle_exit_equals_the_fold_without_it(program, fuel, a, b, init):
    text = _fold_text(random_program(*program), fuel, init.format(a=a, b=b))
    got = _fold_outcome(text)
    with _no_value_exit():
        assert got == _fold_outcome(text)


# ---------------------------------------------------------------- generated step bodies


def _step_bodies(text):
    """The accumulator's name, the closure of the step body of the fold bound
    to result, and (generated step, entry binding) for each entry of its
    table, as run_query evaluates the earlier LET values."""
    env = {}
    for name, expr in parse_query(text).bindings:
        if name == "result":
            _, _, table, var, body = ast._fold_step(expr.body, expr.acc_name)
            known = [{var: entry} for entry in env[table]]
            return expr.acc_name, body._compile(), [(ast._emit(body, expr.acc_name, k), k)
                                                   for k in known]
        env[name] = evaluate(expr, env, {})


_STEP_INTS = st.one_of(st.integers(0, 3), st.integers(INT64_MAX - 3, INT64_MAX),
                       st.integers(-(2**63), -(2**63) + 3))
_STEP_VALUES = _STEP_INTS | st.sampled_from([None, True, False, "", "0", "A", [0], [], {}])
# maps of the three keys in any order, maps with keys missing or extra, and non-maps
_STEP_ACCS = st.one_of(
    st.tuples(st.permutations(["state", "A", "B"]), st.lists(_STEP_INTS, min_size=3, max_size=3))
    .map(lambda kv: dict(zip(*kv))),
    st.lists(st.tuples(st.sampled_from(["state", "A", "B", "x"]), _STEP_VALUES), max_size=5)
    .map(dict),
    _STEP_VALUES,
)


@given(st.integers(0, 2**32), st.lists(_STEP_ACCS, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_a_generated_step_equals_its_closure(seed, accs):
    acc_name, closure, steps = _step_bodies(gen_reduce_query(random_program(seed, 8), 10).text)
    for generated, known in steps:
        assert generated is not None  # the emitter covers every step of the fold
        for acc in accs:
            value = generated(acc)
            if value is not None:  # else the closure decides
                env = {**known, acc_name: acc}
                assert _outcome_of(lambda: closure(env, {})) == ("value", repr(value))


def _no_generated_steps():
    return unittest.mock.patch.object(ast, "_emit", lambda body, acc_name, known: None)


@given(st.integers(0, 2**32), st.integers(1, 300) | st.sampled_from([1000, 10_000]),
       _NEAR_INT64, _NEAR_INT64, st.sampled_from(_VALUE_INITS))
@settings(max_examples=300, deadline=None)
def test_a_fold_with_generated_steps_equals_the_closures(seed, fuel, a, b, init):
    text = _fold_text(random_program(seed, 8), fuel, init.format(a=a, b=b))
    got = _fold_outcome(text)  # a value by repr, or the error's class, message and position
    with _no_generated_steps():
        assert got == _fold_outcome(text)


def _emitted(thunk):
    """thunk's outcome and the text of each step the loop generated meanwhile."""
    texts = []
    shape = ast._shape

    def recorded(text):
        texts.append(text)
        return shape(text)

    with unittest.mock.patch.object(ast, "_shape", recorded):
        return _outcome_of(thunk), texts


def test_true_never_runs_the_generated_step_of_state_1():
    # 600 iterations loop over states 0 and 1; state 2 then steps to true,
    # which hashes as 1 but is no index of the table
    source = "state 0: JZDEC A ? 2 : 1\nstate 1: INC B -> 0\nstate 2: INC A -> 1\n"
    text = _fold_text(parse_dsl(source), 1000, "{state: 0, A: 300, B: 0}")
    entry = "{state: 2, op: 'INC', counter: 'A', next: 1}"
    assert entry in text
    text = text.replace(entry, entry.replace("next: 1", "next: true"))
    outcome, texts = _emitted(lambda: run_query(parse_query(text))["result"])
    assert len(texts) == 3  # one step per state, each at its first visit
    assert outcome == ("error", *_NOT_AN_INDEX)
    with _no_generated_steps():
        assert _fold_outcome(text) == outcome


def test_generated_steps_add_no_value_checks():
    text = gen_reduce_query(parse_dsl("state 0: INC A -> 0\n"), 100_000).text
    result, checks = _checks_of(text)
    with _no_generated_steps():
        assert _checks_of(text) == (result, checks)


_HOSTILE = "it's \"q\" \\ \n __import__('os')"
_VOCABULARY = {"def", "step", "acc", "if", "type", "is", "not", "int", "dict", "return", "None",
               "get"}


def _only_vocabulary(text):
    names = set(re.findall(r"[A-Za-z_]\w*", text))
    assert names - _VOCABULARY <= {n for n in names if re.fullmatch(r"[krt]\d+", n)}, text
    assert set(re.findall(r"\b\d+\b", text)) <= {"9223372036854775808", "9223372036854775807"}
    assert not set("'\"\\") & set(text) and "import" not in text


def test_no_query_text_reaches_the_generated_source():
    # a table whose strings hold quotes, a backslash, a newline and code
    text = ("LET c = $table\nLET result = reduce(m = {s: 0, a: 0}, x IN range(1, 400) |\n"
            "  CASE WHEN m.s = -1 THEN m ELSE head([v IN [c[m.s]] | "
            "{s: v.next, a: m.a + 1, w: v.w}]) END)\nRETURN result")
    table = [{"next": 1, "w": _HOSTILE}, {"next": 0, "w": _HOSTILE + "'"}]
    outcome, texts = _emitted(lambda: run_query_text(text, {"table": table})["result"])
    assert outcome == ("value", repr({"s": 0, "a": 400, "w": _HOSTILE + "'"}))
    assert len(texts) == 2
    # map keys and property keys that hold the same, set on a parsed tree
    body = parse_expression("{a: m.b + 1, c: v.d}")
    (_, plus), (_, known) = body.items
    body.items = [(_HOSTILE, plus), (_HOSTILE + "'", known)]
    plus.left.key, known.key = _HOSTILE + "\\", _HOSTILE
    known = {"v": {_HOSTILE: "__import__('os')"}}
    outcome, more = _emitted(lambda: ast._emit(body, "m", known)({_HOSTILE + "\\": 1}))
    assert outcome == ("value", repr({_HOSTILE: 2, _HOSTILE + "'": "__import__('os')"}))
    assert len(more) == 1
    for generated in texts + more:
        _only_vocabulary(generated)


@pytest.mark.parametrize("text, consts", [
    ("CASE WHEN m.a = 0 THEN CASE WHEN m.b = 0 THEN {s: 1} END END", {}),  # searched in searched
    ("CASE WHEN m.a = 0 THEN {s: 1} ELSE CASE WHEN m.b = 0 THEN {s: 2} END END", {}),
    ("CASE WHEN m.a + 1 = 1 THEN {s: 1} END", {}),  # = of a sum
    ("{s: {t: m.a}}", {}),  # a map in a map
    ("{s: m.a + m.b + 1}", {}),  # a sum of a sum
    ("{s: m.n + 1}", {"m": {"n": 5}}),  # a binder shadows the accumulator
])
def test_a_step_the_emitter_does_not_cover_stays_on_its_closure(text, consts):
    assert ast._emit(parse_expression(text), "m", consts) is None


def test_a_comprehension_that_shadows_the_accumulator_folds_as_its_closure():
    # inside the mapper m is the table entry, and state 1's entry has no n:
    # the closure gives n: null there; an accumulator read would give an int
    text = ("LET c = [{next: 1, n: 5}, {next: 0}]\n"
            "LET result = reduce(m = {s: 0, n: 0}, x IN range(1, 400) | "
            "CASE WHEN m.s = -1 THEN m ELSE head([m IN [c[m.s]] | {s: m.next, n: m.n + 1}]) END)\n"
            "RETURN result")
    outcome, texts = _emitted(lambda: run_query_text(text)["result"])
    assert outcome == ("value", repr({"s": 0, "n": None})) and texts == []
    with _no_generated_steps():
        assert _fold_outcome(text) == outcome
    # the emitter refuses each state's step once; later visits run the whole body
    with unittest.mock.patch.object(ast, "_emit", wraps=ast._emit) as emit:
        assert _fold_outcome(text) == outcome
    assert emit.call_count == 2


_CHAIN = "".join(f"state {i}: INC A -> {i + 1}\n" for i in range(150)) + "state 150: INC B -> 150\n"


# the chain's 151 states are generated once each, though states 0 to 149 run
# once and state 150 then loops; the self-loop's state once for 60 iterations
@pytest.mark.parametrize("source, fuel, generated", [(_CHAIN, 1000, 151),
                                                     ("state 0: INC A -> 0\n", 60, 1)])
def test_each_visited_state_is_generated_once(source, fuel, generated):
    program = parse_dsl(source)
    tree = parse_query(gen_reduce_query(program, fuel).text)
    outcome, texts = _emitted(lambda: run_query(tree)["result"])
    final = run(program, fuel=fuel).final
    assert outcome == ("value", repr({"state": final.state, "A": final.a, "B": final.b}))
    assert len(texts) == generated


def test_the_code_memo_stays_within_its_bound():
    bound = ast._shape.cache_info().maxsize
    misses = ast._shape.cache_info().misses
    for n in range(1, bound + 9):  # a shape per number of entries
        body = parse_expression("{" + ", ".join(f"k{i}: m.x + {i}" for i in range(n)) + "}")
        assert ast._emit(body, "m", {})({"x": 1}) == {f"k{i}": 1 + i for i in range(n)}
    info = ast._shape.cache_info()
    assert info.misses - misses >= bound + 8 and info.currsize <= bound


# ---------------------------------------------------------------- fixpoint verdict of the parse


def _verdicts(tree):
    """The parse's fixpoint verdict of each reduce in tree, in source order,
    each checked against the walk's of its body."""
    verdicts = []
    for node in _nodes(tree):
        if type(node) is ast.Reduce:
            body, mentioned = node.verdict
            assert body is node.body and mentioned is not None  # the parse recorded one
            assert mentioned == ast._mentions(body, node.var_name)
            verdicts.append(mentioned)
    return verdicts


def _verdict_text(rng, depth):
    """A reduce whose body, perhaps with reduces nested in it, names the
    element or another name as a variable, a binder that shadows it, a map
    key, a property or a parameter."""
    names = ["x", "y", "acc"]

    def sub():
        if depth == 0:
            n = rng.choice(names)
            return rng.choice([n, f"{{{n}: 1}}", f"m.{n}", f"${n}", "1", f"[{n} IN [] | 0]"])
        return _verdict_text(rng, depth - 1)

    kind = rng.choice(["reduce", "reduce", "comprehension", "head", "case", "map", "prop",
                       "binary", "list"]) if depth < 3 else "reduce"
    if kind == "reduce":
        acc, var = rng.sample(names, 2)
        return f"reduce({acc} = {sub()}, {var} IN {sub()} | {sub()})"
    if kind == "comprehension":
        return f"[{rng.choice(names)} IN {sub()} WHERE {sub()} | {sub()}]"
    if kind == "head":
        return f"head([{rng.choice(names)} IN [{sub()}] | {sub()}])"
    if kind == "case":
        return f"CASE {sub()} WHEN 1 THEN {sub()} ELSE {sub()} END"
    if kind == "map":
        return f"{{{rng.choice(names)}: {sub()}}}"
    if kind == "prop":
        return f"({sub()}).{rng.choice(names)}"
    if kind == "binary":
        return f"{sub()} + {sub()}"
    return f"[{sub()}, {sub()}]"


@given(st.integers(0, 2**32))
@settings(max_examples=500, deadline=None)
def test_the_parse_s_fixpoint_verdict_is_the_walk_s(seed):
    rng = random.Random(seed)
    tree = parse_expression(_verdict_text(rng, 3))
    assert len(_verdicts(tree)) >= 1


@pytest.mark.parametrize("text, verdicts", [
    # keys, properties, parameters and binders are not Vars
    ("reduce(a = 0, x IN [1] | {x: a}.x + $x + reduce(x = 0, y IN [] | 0))", [False, False]),
    # a mention shadowed by an inner binder counts
    ("reduce(a = 0, x IN [1] | [x IN [a] | x])", [True]),
    ("reduce(a = 0, x IN [1] | reduce(x = a, y IN [] | x))", [True, False]),
    ("reduce(a = 0, x IN [1] | reduce(b = a, y IN [x] | b))", [True, False]),
    # the element of an outer reduce in an inner one's body
    ("reduce(a = 0, x IN [1] | reduce(b = a, y IN [1] | x + y))", [True, True]),
    # an element after a sign, read by the general descent
    ("reduce(a = 0, x IN [1] | a - -x)", [True]),
    ("reduce(a = 0, x IN [1] | +x.k)", [True]),
    # mentions outside the body do not count
    ("reduce(a = x, x IN [x] | a.x)", [False]),
])
def test_the_parse_records_each_reduce_s_fixpoint_verdict(text, verdicts):
    assert _verdicts(parse_expression(text)) == verdicts


def test_a_parsed_fold_compiles_without_walking_its_body(monkeypatch):
    def refused(tree, name):
        raise AssertionError("_mentions called")

    monkeypatch.setattr(ast, "_mentions", refused)
    program = random_program(3, 8)
    final = run(program, fuel=5000).final
    result = run_query_text(gen_reduce_query(program, 5000).text)["result"]
    assert result == {"state": final.state, "A": final.a, "B": final.b}
    assert ev("reduce(a = 0, s IN [1, 2, 3] | a + s)") == 6


def test_a_parsed_fold_is_freed_without_the_garbage_collector():
    # the parse's record of a verdict holds no node, so no node and its
    # Source make a cycle that only the collector frees
    text = gen_reduce_query(random_program(3, 8), 5000).text
    gc.collect()
    gc.disable()
    try:
        tree = parse_query(text)
        run_query(tree)
        del tree
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_swapped_body_is_walked(monkeypatch):
    walked = []

    def counted(tree, name, real=ast._mentions):
        walked.append((tree, name))
        return real(tree, name)

    monkeypatch.setattr(ast, "_mentions", counted)
    # the parse recorded that the body does not name s; the new body does
    expr = parse_expression("reduce(a = 0, s IN [1, 2, 3] | a)")
    assert evaluate(expr, {}, {}) == 0
    assert walked == []
    expr.body = parse_expression("a + s")
    assert evaluate(expr, {}, {}) == 6
    assert walked == [(expr.body, "s")]


# ---------------------------------------------------------------- LET values and run-time tables

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
    """A random expression over the LET values c and d, the binder names v and
    acc, and the parameter $p; binders may shadow c and d. A name is most
    often one of the two innermost binders in scope. A fold's step reads its
    table, c or d, at run time; its accumulator may be named like either."""
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
                       "comprehension", "reduce", "fold", "fold", "map", "list"])
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
    if kind == "fold":  # the element s is named nowhere: the loop may read the table
        acc, table, var, k = rng.choice(["acc", "c", "d"]), rng.choice(["c", "d"]), binder(), \
            rng.choice(["k", "k", "next"])
        init = rng.choice([lambda: "{k: 0, next: 0}", lambda: "{k: 1, next: 2}", sub])()
        step = rng.choice([
            lambda: f"{{k: {var}.next, next: {acc}.next + 1}}",
            lambda: f"CASE {var}.op WHEN 'INC' THEN {{k: {var}.k, next: {acc}.next - 1}} "
                    f"ELSE {{k: {var}.next, next: {acc}.k * 2}} END",
            lambda: body(acc, var),
        ])()
        return (f"reduce({acc} = {init}, s IN range(1, {rng.randint(1, 9)}) | "
                f"CASE WHEN {acc}.{k} = {rng.choice(_SCALARS)} THEN {acc} "
                f"ELSE head([{var} IN [{table}[{acc}.{k}]] | {step}]) END)")
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


# past its bound a fold's loop calls the whole body: at 1 for every index but
# the first it visits, at 0 for every index
@pytest.mark.parametrize("max_specialised", [4096, 1, 0])
@given(st.integers(0, 2**32))  # a seed: hypothesis draws are slow for a grammar this size
@settings(max_examples=1000, deadline=None)
def test_let_constants_change_no_value_error_or_environment(max_specialised, seed):
    _check_let_constants(seed, max_specialised)


def _check_let_constants(seed, max_specialised):
    """The query's outcome with generated steps up to max_specialised, as at 0,
    where every index runs the whole body, and as with no fold's step at all,
    where no loop reads a table; and no evaluation changes its environment."""
    rng = random.Random(seed)
    lets = [f"LET c = {_const_text(rng, 3)}",
            f"LET d = {rng.choice([_const_text(rng, 2), 'c[1]', 'c'])}"]
    returns = [_expr_text(rng, 3) for _ in range(rng.randint(1, 2))]
    text = "\n".join(lets) + "\nRETURN " + ", ".join(f"{e} AS r{i}" for i, e in enumerate(returns))
    tree = parse_query(text)
    params = {"p": rng.choice([None, 1, "INC", [0, 1]])}

    # patched here, not by monkeypatch: hypothesis does not reset a
    # function-scoped fixture between examples
    def outcome(bound, fold_step=ast._fold_step):
        with unittest.mock.patch.object(ast, "MAX_SPECIALISED", bound), \
                unittest.mock.patch.object(ast, "_fold_step", fold_step):
            return _outcome_of(lambda: run_query(tree, params))

    got = outcome(max_specialised)
    assert got == outcome(0) == outcome(0, lambda body, acc_name: None), text
    env = {}
    with unittest.mock.patch.object(ast, "MAX_SPECIALISED", max_specialised):
        for name, expr in tree.bindings:
            if _outcome_of(lambda: evaluate(expr, env, params))[0] == "error":
                return
            env[name] = evaluate(expr, env, params)
        for item in tree.returns:
            before = dict(env)
            _outcome_of(lambda: evaluate(item.expr, env, params))
            assert env == before and all(env[k] is before[k] for k in env), text


@pytest.mark.parametrize("text, value", [
    # a LET map's property and a CASE over it, with Cypher equality
    ("LET c = {op: 'INC'} RETURN CASE c.op WHEN 'INC' THEN 1 ELSE 2 END AS r", 1),
    ("LET c = [{op: 1}] RETURN head([v IN [c[0]] | CASE v.op WHEN '1' THEN 1 WHEN 1 THEN 3 END])"
     " AS r", 3),
    ("LET c = [{}] RETURN head([v IN [c[0]] | CASE v.op WHEN null THEN 1 ELSE 2 END]) AS r", 2),
    ("LET c = true RETURN CASE c WHEN 1 THEN 1 WHEN true THEN 2 END AS r", 2),
    ("LET c = 0 RETURN CASE c WHEN false THEN 1 END AS r", None),
    ("LET c = [1] RETURN CASE c WHEN 1 THEN 1 ELSE c END AS r", [1]),
    ("LET c = null RETURN c.op AS r", None),
    # inside its scope, a binder's name is not the LET value
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


def _compiles(tree, runs=1):
    """The result of each of runs evaluations of tree, and in order the
    state of each step the fold bound to result generated (_emit) and
    "whole" for each compile of the fold's whole body."""
    fold = dict(tree.bindings)["result"]
    var = fold.body.default.args[0].var_name
    compiles = []
    emit, compile_case = ast._emit, ast.Case._compile

    def emitted(body, acc_name, known):
        compiles.append(known[var]["state"])
        return emit(body, acc_name, known)

    def compiled(case):
        if case is fold.body:
            compiles.append("whole")
        return compile_case(case)

    with unittest.mock.patch.object(ast, "_emit", emitted), \
            unittest.mock.patch.object(ast.Case, "_compile", compiled):
        results = [run_query(tree)["result"] for _ in range(runs)]
    return results, compiles


def _visited(program, fuel):
    """The states a run of program visits, in the order of their first visits."""
    return list(dict.fromkeys(row.config_before.state
                              for row in run(program, fuel=fuel, capture_trace=True).trace))


def test_each_table_entry_compiles_once_per_query():
    program = random_program(4, 8)
    steps = 60
    visited = _visited(program, steps)
    tree = parse_query(gen_reduce_query(program, steps).text)
    # a second run compiles afresh: no memo outlives its query's evaluation
    (first, second), compiles = _compiles(tree, 2)
    assert second == first
    # one step per state visited, and no whole body: every index is in the table
    assert compiles == visited * 2
    assert len(visited) > 1


def test_an_index_outside_the_table_compiles_the_general_body_once_per_query():
    # outside a fold, head([v IN [c[i]] | m]) takes the general path
    text = ("LET c = [{a: 1}, {a: 2}] "
            "RETURN [i IN range(0, LAST) | head([v IN [c[i]] | [v.a, 10 / (i - 4)]])] AS r")
    result = {"r": [[1, -2], [2, -3], [None, -5], [None, -10]]}
    assert run_query_text(text.replace("LAST", "3")) == result
    with pytest.raises(DivisionByZero) as exc_info:
        run_query_text(text.replace("LAST", "4"))
    at = text.replace("LAST", "4").index("/") + 1
    assert (exc_info.value.line, exc_info.value.column) == (1, at)
    # a fold that steps to -3, the first entry from the end, generates the
    # steps of states 0 and 1 and, at -3, compiles the whole body, once each
    program = parse_dsl("state 0: INC A -> 1\nstate 1: INC B -> 0\nstate 2: HALT\n")
    entry = "{state: 1, op: 'INC', counter: 'B', next: 0}"
    text = _fold_text(program, 20).replace(entry, entry.replace("next: 0", "next: -3"))
    results, compiles = _compiles(parse_query(text), 2)
    assert results == [{"state": -3, "A": 10, "B": 10}] * 2
    assert compiles == [0, 1, "whole"] * 2


def test_a_table_read_once_per_entry_compiles_a_bounded_number_of_bodies(monkeypatch):
    monkeypatch.setattr(ast, "MAX_SPECIALISED", 3)
    # outside a fold, head([v IN [c[i]] | m]) takes the general path
    assert run_query_text("LET c = [x IN range(0, 9) | {a: x}] "
                          "RETURN [i IN range(0, 11) | head([v IN [c[i]] | v.a])] AS r") \
        == {"r": list(range(10)) + [None, None]}
    # a fold that visits each state of a chain once generates 3 steps, then
    # compiles the whole body
    chain = "".join(f"state {i}: INC A -> {i + 1}\n" for i in range(9)) + "state 9: HALT\n"
    program = parse_dsl(chain)
    (result,), compiles = _compiles(parse_query(_fold_text(program, 20)))
    final = run(program, fuel=20).final
    assert result == {"state": final.state, "A": final.a, "B": final.b}
    assert final.state == -1
    assert compiles == [0, 1, 2, "whole"]


def test_a_fold_over_many_states_generates_each_visited_state_once():
    # the reduced unary_successor program: 555 states, 112 of them visited
    # in the 1,627 steps to its halt
    tm = load_tm_file(FIXTURES / "tm" / "unary_successor.json")
    program = k_counters_to_two(two_stack_to_counters(tm))
    assert len(program.instructions) == 555
    visited = _visited(program, 2000)
    (result,), compiles = _compiles(parse_query(gen_reduce_query(program, 2000).text))
    final = run(program, fuel=2000).final
    assert result == {"state": final.state, "A": final.a, "B": final.b}
    assert compiles == visited and len(visited) == 112


# two programs whose states step alike and whose instructions differ, and
# two random ones
_TWO_TABLES = [
    (parse_dsl("state 0: INC A -> 1\nstate 1: INC A -> 2\nstate 2: HALT\n"),
     parse_dsl("state 0: INC B -> 1\nstate 1: INC B -> 2\nstate 2: HALT\n")),
    (random_program(4, 8), random_program(5, 8)),
]


@pytest.mark.parametrize("first, second", _TWO_TABLES)
def test_one_fold_over_two_tables_generates_the_steps_of_each(first, second):
    # the table is the variable of an enclosing comprehension: each call of
    # the fold reads its own, and no step generated for one serves the other
    fuel = 60
    text, other = (gen_reduce_query(p, fuel).text for p in (first, second))
    start = other.index("LET program = ") + len("LET program = ")
    table = other[start:other.index("\nLET max_steps")]
    edits = [("LET program = ", "LET t1 = "), ("LET max_steps", f"LET t2 = {table}\nLET max_steps"),
             ("LET result = reduce(", "LET result = [p IN [t1, t2] | reduce("),
             ("[instr IN [program[machine.state]]", "[instr IN [p[machine.state]]"),
             ("\nRETURN result", "]\nRETURN result")]
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    tree = parse_query(text)
    emitted, emit = [], ast._emit

    def recorded(body, acc_name, known):
        emitted.append(known["instr"])
        return emit(body, acc_name, known)

    with unittest.mock.patch.object(ast, "_emit", recorded):
        result = run_query(tree)["result"]
    finals = [run(p, fuel=fuel).final for p in (first, second)]
    assert result == [{"state": f.state, "A": f.a, "B": f.b} for f in finals]
    tables = dict(tree.bindings)
    assert emitted == [evaluate(tables[t])[s] for t, p in (("t1", first), ("t2", second))
                       for s in _visited(p, fuel)]


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
    evaluate(expr, env, {})
    assert env == {"y": 1}


def test_deep_expression_is_an_eval_error():
    expr = parse_expression("true")
    for _ in range(DEPTH):
        expr = ast.Not(expr, expr.source, expr.at)
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
        evaluate(parse_expression(text), env, params)
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
        v = evaluate(parse_expression(text), {}, params)
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
