"""The character-by-character tokenizer and the recursive reader, kept as
the reference for the one-regex scanner in :mod:`repro.surface.lexer` and
the explicit-stack reader in :mod:`repro.surface.parser`.

They are the loops the surface front end used before: the tokenizer reads
one character at a time, counting line and column as it goes, and the
reader recurses once per nesting level.  The front-end tests compare the
scanner's ``(kind, text, line, column)`` stream, the reader's
s-expressions and their ``ParseError`` messages and locations against
these.
"""

from __future__ import annotations

from repro.core.errors import ParseError
from repro.surface.parser import MAX_NESTING

_DELIMITERS = {"(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket"}


def reference_tokens(source: str) -> list[tuple[str, str, int, int]]:
    """Split a program into ``(kind, text, line, column)`` tuples."""
    tokens: list[tuple[str, str, int, int]] = []
    line, column = 1, 1
    index = 0
    length = len(source)

    while index < length:
        char = source[index]

        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            column += 1
            index += 1
            continue
        if char == ";":
            while index < length and source[index] != "\n":
                index += 1
            continue
        if char in _DELIMITERS:
            tokens.append((_DELIMITERS[char], char, line, column))
            column += 1
            index += 1
            continue
        if char == '"':
            start_line, start_column = line, column
            index += 1
            column += 1
            chars: list[str] = []
            while index < length and source[index] != '"':
                if source[index] == "\n":
                    raise ParseError("unterminated string literal", start_line, start_column)
                if source[index] == "\\" and index + 1 < length:
                    escape = source[index + 1]
                    chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(escape, escape))
                    index += 2
                    if escape == "\n":
                        line += 1
                        column = 1
                    else:
                        column += 2
                    continue
                chars.append(source[index])
                index += 1
                column += 1
            if index >= length:
                raise ParseError("unterminated string literal", start_line, start_column)
            index += 1
            column += 1
            tokens.append(("string", "".join(chars), start_line, start_column))
            continue

        # Symbols, numbers, booleans.
        start_line, start_column = line, column
        begin = index
        while index < length and source[index] not in ' \t\r\n()[];"':
            index += 1
            column += 1
        text = source[begin:index]
        if not text:
            raise ParseError(f"unexpected character {char!r}", start_line, start_column)
        tokens.append((_classify(text), text, start_line, start_column))

    return tokens


def _classify(text: str) -> str:
    if text in ("#t", "#f", "true", "false"):
        return "bool"
    body = text[1:] if text and text[0] in "+-" else text
    if body and body.isdigit():
        return "int"
    return "symbol"


def reference_read(tokens: list[tuple[str, str, int, int]]) -> list[tuple]:
    """Group tokens into s-expressions, one recursive call per level.

    An atom is its token; a list is ``("list", items, line, column)`` at its
    opening delimiter.  A top-level ``define`` form counts as one level of
    nesting for every form after it.
    """
    position = 0

    def read(depth: int) -> tuple:
        nonlocal position
        kind, _, line, column = tokens[position]
        if kind in ("lparen", "lbracket"):
            if depth >= MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, column)
            closing = "rparen" if kind == "lparen" else "rbracket"
            position += 1
            items: list[tuple] = []
            while position < len(tokens) and tokens[position][0] != closing:
                items.append(read(depth + 1))
            if position >= len(tokens):
                raise ParseError("missing closing parenthesis", line, column)
            position += 1
            return ("list", items, line, column)
        if kind in ("rparen", "rbracket"):
            raise ParseError("unexpected closing parenthesis", line, column)
        position += 1
        return tokens[position - 1]

    forms: list[tuple] = []
    defines = 0
    while position < len(tokens):
        form = read(defines)
        forms.append(form)
        items = form[1]
        if form[0] == "list" and items and items[0][0] != "list" and items[0][1] == "define":
            defines += 1
    return forms
