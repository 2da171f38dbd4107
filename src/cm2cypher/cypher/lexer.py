"""Tokenizer for the Cypher expression subset.

Covers identifiers, ASCII integer literals, single-quoted strings (the
escapes \\n \\t \\r \\b \\f decode to their control characters, and a
backslash before any other character is dropped: \\\\ \\' \\"),
punctuation and operators (including <=, >=, <>), parameters ($name), and
both // line comments and /* */ block comments. One compiled pattern
splits the text; any other character raises CypherSyntaxError, as does an
unterminated string or block comment.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import CypherSyntaxError

IDENT = "ident"
INT = "int"
STRING = "string"
PUNCT = "punct"
EOF = "eof"


class Token(NamedTuple):
    kind: str
    lexeme: str
    line: int
    column: int
    offset: int  # absolute character offset, for source-span recovery


# Alternatives are tried in order: blanks and // comments (never a line
# break), the common tokens, line breaks and block comments, strings, words
# that start with a non-ASCII character (tokenize rejects those that are not
# letters), and any one character no token starts with: '/*' or a quote left
# unterminated, or an illegal character.
_MASTER = re.compile(
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
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
# any other escaped character stands for itself
_ESCAPED = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f"}
_UNTERMINATED = {"/*": "unterminated block comment", "'": "unterminated string literal"}
_new_token = tuple.__new__  # skips NamedTuple's __new__, a Python-level call


def tokenize(text: str) -> list[Token]:
    """Token list ending in one EOF token; lines and columns are 1-based.
    An unterminated string or block comment is reported at its start."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    for m in _MASTER.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        start = m.start()
        lexeme = m.group()
        if kind == "ident" or kind == "punct" or kind == "int":  # named like the kinds
            append(_new_token(Token, (kind, lexeme, line, start - line_start + 1, start)))
            continue
        if kind == "string":
            value = lexeme[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(lambda m: _ESCAPED.get(m[1], m[1]), value)
            append(_new_token(Token, (STRING, value, line, start - line_start + 1, start)))
        elif kind == "word" and lexeme[0].isalpha():
            append(_new_token(Token, (IDENT, lexeme, line, start - line_start + 1, start)))
        elif kind == "error" or kind == "word":
            message = _UNTERMINATED.get(lexeme) or f"illegal character {lexeme[0]!r}"
            raise CypherSyntaxError(message, line, start - line_start + 1)
        if "\n" in lexeme:  # lines, or a string that spans lines
            line += lexeme.count("\n")
            line_start = start + lexeme.rindex("\n") + 1
    append(Token(EOF, "", line, len(text) - line_start + 1, len(text)))
    return tokens
