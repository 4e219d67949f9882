"""Tokenizer for the s-expression concrete syntax of the surface language.

One compiled regular expression splits the source.  :func:`scan` yields
plain ``(kind, text, line, column)`` tuples, which is all the parser
reads; :func:`tokenize` wraps them as :class:`Token` objects.  Lines and
columns are 1-based and counted in characters, so a token's column is its
offset minus its line's start offset plus one (a tab is one column).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..core.errors import ParseError
from .ast import SourceLocation


@dataclass(frozen=True)
class Token:
    """A lexical token with its source location."""

    kind: str  # 'lparen' | 'rparen' | 'lbracket' | 'rbracket' | 'int' | 'string' | 'symbol' | 'bool'
    text: str
    location: SourceLocation


# At every offset exactly one alternative applies, so ``findall`` never
# skips input; ``\Z`` ends the scan after trailing blanks.  Groups: the
# blanks before a token, a newline, a delimiter or an atom, a closed string
# with its quotes, and an opening quote with no closing one on its line (a
# newline inside a string must be escaped).  A comment matches no group.
_TOKEN = re.compile(
    r'([ \t\r]*+)(?:(\n)|;[^\n]*|([()\[\]]|[^ \t\r\n()\[\];"]+)'
    r'|("(?:[^"\\\n]|\\[\s\S])*+")|(")|\Z)'
)

_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}

#: Token kinds that a token's text alone decides; any other atom is an
#: ``int`` or a ``symbol``.
_KINDS = {
    "(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket",
    "#t": "bool", "#f": "bool", "true": "bool", "false": "bool",
}


def _unescape(match: re.Match) -> str:
    char = match.group(1)
    return _ESCAPES.get(char, char)


def scan(source: str) -> list[tuple[str, str, int, int]]:
    """Split a program into ``(kind, text, line, column)`` tuples.

    A string's text has its escapes resolved (``\\n``, ``\\t``; any other
    escaped character stands for itself, a backslash-newline for a
    newline) and its location is that of its opening quote.
    """
    tokens: list[tuple[str, str, int, int]] = []
    append = tokens.append
    kinds = _KINDS
    line = column = 1
    for blanks, newline, text, quoted, unclosed in _TOKEN.findall(source):
        column += len(blanks)
        if text:
            kind = kinds.get(text)
            if kind is None:
                if text.isdigit() or (text[0] in "+-" and text[1:].isdigit()):
                    kind = "int"
                else:
                    kind = "symbol"
            append((kind, text, line, column))
            column += len(text)
        elif newline:
            line += 1
            column = 1
        elif quoted:
            if "\\" not in quoted:
                append(("string", quoted[1:-1], line, column))
                column += len(quoted)
                continue
            append(("string", _ESCAPE.sub(_unescape, quoted[1:-1]), line, column))
            if "\n" in quoted:  # backslash-newlines
                line += quoted.count("\n")
                column = len(quoted) - quoted.rindex("\n")
            else:
                column += len(quoted)
        elif unclosed:
            raise ParseError("unterminated string literal", line, column)
        # A comment, or the end of the source: column stops mattering there.
    return tokens


def tokenize(source: str) -> list[Token]:
    """Split a program into :class:`Token` objects (see :func:`scan`)."""
    return [Token(kind, text, SourceLocation(line, column))
            for kind, text, line, column in scan(source)]
