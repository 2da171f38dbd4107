"""Lexer for the Cypher expression subset.

Covers identifiers, ASCII integer literals, single-quoted strings (the
escapes \\n \\t \\r \\b \\f decode to their control characters, and a
backslash before any other character is dropped: \\\\ \\' \\"),
punctuation and operators (including <=, >=, <>), parameters ($name), and
both // line comments and /* */ block comments.

One pattern cuts the text into its pieces. A string piece keeps
its quotes and escapes, so a piece's first character gives its kind: a
letter or '_' starts a name, a digit an integer, a quote a string, and
anything else is punctuation; the string ',' is never the piece ','. Only
blanks (spaces, tabs, carriage returns, line breaks) fall between two
matches, since the pattern's last alternative matches any other character.
Comments are dropped, and an unterminated string or block comment, an
illegal character, or a word whose first character is not a letter is a
CypherSyntaxError. Text that one match shows can hold none of those, nor a
comment (_PLAIN), is not looked through piece by piece for them.

The pattern has two compiled forms: the split keeps the blanks, and the
findall takes the blanks before each piece in the piece's match, so it
makes no failed match at a blank. The parser reads _pieces, the findall
pieces, which carry no offsets. Only when the text has an error does
_scan, the split, run to report it at its position. A Source is the text
of one parse: it works out the pieces' offsets through _scan, and the line
starts a line and column are found from by bisection, the first time a
position is read. tokenize is a Token view of _scan's pieces, for the token
comparison of queries and for tests.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress, count
from operator import add
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


# One capturing group, so the split puts the blanks and the pieces in turn,
# and findall returns the pieces alone. Alternatives are tried in order:
# names, punctuation, integers, strings, comments, words that start with a
# non-ASCII character (_fault rejects those that are not letters), a '/*'
# left unterminated, which takes the rest of the text, so that the scan for
# its '*/' runs once and not again from each '/*' after it, and any one
# non-blank character no piece starts with: a quote left unterminated, or an
# illegal character.
_PATTERN = re.compile(
    r"""(
      [A-Za-z_]\w*
    | <=|>=|<>|/(?![/*])|[()\[\]{},:.|+\-*%=<>$;]
    | [0-9]+
    | '[^'\\]*(?:\\.[^'\\]*)*'
    | //[^\n]*|/\*.*?\*/
    | [^\W\d]\w*
    | /\*.*|[^ \t\r\n]
    )""",
    re.VERBOSE | re.DOTALL,
)
# No piece starts at a blank, so taking the blanks before a piece gives the
# pieces that failing at each blank gives
_SPLIT = _PATTERN.split
_FINDALL = re.compile(r"[ \t\r\n]*" + _PATTERN.pattern, _PATTERN.flags).findall
# kinds by first character; any other first character is a letter's, once
# _fault has passed the piece
_KINDS = {"": EOF, "'": STRING, **dict.fromkeys("0123456789", INT),
          **dict.fromkeys("<>/()[]{},:.|+-*%=$;", PUNCT)}
# text made only of these has no piece with a fault: blanks, ASCII letters,
# digits and '_', punctuation but '/', so no comment, and quotes, with no
# backslash, so each quote opens or closes a string in turn, and one is left
# unterminated only if their number is odd. A match is one pass, with no
# backtracking; any other text is looked through by _faults
_PLAIN = re.compile(r"[ \t\r\n\w<>()\[\]{},:.|+\-*%=$;']*", re.ASCII).fullmatch
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
# any other escaped character stands for itself
_ESCAPED = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f"}


def _fault(piece: str) -> str | None:
    """None for a piece the parser reads, "" for a comment, else the message
    of the error it is."""
    if piece == "'":
        return "unterminated string literal"
    first = piece[0]
    if first == "/" and len(piece) > 1:
        # a block comment ends in a '*/' after its '/*': '/*/' does not
        if piece[1] == "/" or piece.endswith("*/", 2):
            return ""
        return "unterminated block comment"
    if _kind(piece) == IDENT and not (first.isalpha() or first == "_"):
        return f"illegal character {first!r}"
    return None


def _faults(pieces: list[str]) -> dict[str, str]:
    """The fault of each distinct piece that has one."""
    return {p: fault for p in set(pieces) if (fault := _fault(p)) is not None}


def _scan(text: str) -> tuple[list[str], list[int]]:
    """The pieces of text without its comments, ending in "", and the offset
    of each; an unterminated string or block comment is reported at its
    start."""
    parts = _SPLIT(text)
    pieces = parts[1::2]
    offsets = list(accumulate(map(len, parts)))[::2]  # the last is len(text)
    faults = _faults(pieces)
    errors = [pieces.index(p) for p, fault in faults.items() if fault]
    if errors:
        i = min(errors)
        raise CypherSyntaxError(faults[pieces[i]], *_position(_line_starts(text), offsets[i]))
    pieces.append("")
    if faults:  # comments only
        kept = [p not in faults for p in pieces]
        pieces, offsets = list(compress(pieces, kept)), list(compress(offsets, kept))
    return pieces, offsets


def _pieces(text: str) -> list[str]:
    """_scan's pieces, from findall: no blanks and no offsets. Text with an
    error is left to _scan, which reports it at its position."""
    # without its final blanks: findall would start a match at each one that
    # takes all the rest and then fails, a time quadratic in their number
    pieces = _FINDALL(text.rstrip(" \t\r\n"))
    faults = {} if _PLAIN(text) and text.count("'") % 2 == 0 else _faults(pieces)
    if any(faults.values()):
        _scan(text)  # raises
    pieces.append("")
    if faults:  # comments only
        pieces = [p for p in pieces if p not in faults]
    return pieces


class Source:
    """The text of one parse, and where its pieces are: the offset of each
    piece and the start of each line, each worked out the first time it is
    read."""

    __slots__ = ("text", "_offsets", "_line_starts")

    def __init__(self, text: str):
        self.text = text
        self._offsets: list[int] | None = None
        self._line_starts: list[int] | None = None

    def offset(self, i: int) -> int:
        """The offset of piece i."""
        if self._offsets is None:
            self._offsets = _scan(self.text)[1]
        return self._offsets[i]

    def position(self, i: int) -> tuple[int, int]:
        """The 1-based line and column of piece i."""
        offset = self.offset(i)
        if self._line_starts is None:
            self._line_starts = _line_starts(self.text)
        return _position(self._line_starts, offset)


def _line_starts(text: str) -> list[int]:
    """The offset of each line's first character, then one past the end."""
    # line k + 1 starts after the first k lines and their k line breaks
    return [0, *map(add, accumulate(map(len, text.split("\n"))), count(1))]


def _position(line_starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of an offset."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def _kind(piece: str) -> str:
    """The kind of a piece _scan returned."""
    return _KINDS.get(piece[:1], IDENT)


def _lexeme(piece: str) -> str:
    """The piece, or for a string piece its value."""
    if piece[:1] != "'":
        return piece
    value = piece[1:-1]
    if "\\" in value:
        value = _ESCAPE.sub(lambda m: _ESCAPED.get(m[1], m[1]), value)
    return value


def tokenize(text: str) -> list[Token]:
    """Token list ending in one EOF token; lines and columns are 1-based.
    An unterminated string or block comment is reported at its start. The
    tokens are a view of _scan's pieces: a string token's lexeme is its
    value, and the EOF token is the end marker."""
    pieces, offsets = _scan(text)
    line_starts = _line_starts(text)
    return [Token(_kind(piece), _lexeme(piece), *_position(line_starts, offset), offset)
            for piece, offset in zip(pieces, offsets)]
