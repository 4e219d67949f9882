"""Parser for the s-expression concrete syntax of the surface language.

Grammar (informally)::

    program  ::= define* expr | expr
    define   ::= (define (name param*) [: type] expr)
               | (define name [: type] expr)
    param    ::= name | [name : type]
    expr     ::= int | #t | #f | "string" | unit | name
               | (lambda (param*) expr)
               | (let ([name expr]*) expr)
               | (letrec ([name : type expr]) expr)
               | (if expr expr expr)
               | (pair expr expr) | (fst expr) | (snd expr)
               | (: expr type)                      ; ascription
               | (op expr*)                          ; primitive operator
               | (expr expr+)                        ; application (curried)
    type     ::= int | bool | str | unit | ? | dyn
               | (-> type+ type) | (* type type)

Every cast inserted by elaboration carries a blame label derived from the
source location of the expression that required it.

Parentheses and brackets nest at most :data:`MAX_NESTING` levels deep; the
reader rejects a deeper program with a :class:`ParseError` at the first
delimiter past the limit.  Each top-level ``define`` counts as one more
level for every form after it, because elaboration nests the rest of the
program inside its ``let``: 201 flat definitions are rejected at the 201st.
Elaboration, the translations, lowering and the engines all recurse over
the program's structure, so the limit keeps every accepted program within
the interpreter's recursion limit on every engine and semantics (exit 2,
not an internal error).
"""

from __future__ import annotations

from ..core.errors import ParseError
from ..core.ops import op_exists
from ..core.types import BOOL, DYN, INT, STR, UNIT, FunType, ProdType, Type
from .ast import (
    Definition,
    Program,
    SApp,
    SAscribe,
    SConst,
    SFst,
    SIf,
    SLam,
    SLet,
    SLetRec,
    SOp,
    SPair,
    SSnd,
    SourceLocation,
    SurfaceExpr,
    SVar,
)
from .lexer import scan

_KEYWORDS = {
    "lambda",
    "let",
    "letrec",
    "if",
    "pair",
    "cons",
    "fst",
    "snd",
    ":",
    "ann",
    "define",
    "unit",
}

_TYPE_NAMES = {
    "int": INT,
    "bool": BOOL,
    "str": STR,
    "string": STR,
    "unit": UNIT,
    "?": DYN,
    "dyn": DYN,
    "Dyn": DYN,
}


#: How deeply parentheses and brackets may nest.  Every later pass recurses
#: over the program, several Python frames per level: 200 leaves headroom
#: under the default recursion limit of 1000 for the most frame-hungry
#: shapes (nested function types overflowed at about 250 levels).  A
#: top-level ``define`` counts as one level for every form after it, since
#: elaboration wraps the rest of the program in its ``let``.
MAX_NESTING = 200


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------

#: The kind of a list node.  An s-expression is a 4-tuple ``(kind, value,
#: line, column)``: an atom is its token (``value`` is the token text), a
#: list is ``(_LIST, items, line, column)`` at its opening delimiter.
_LIST = "list"

_CLOSING = {"lparen": "rparen", "lbracket": "rbracket"}


def _read_all(tokens: list[tuple[str, str, int, int]]) -> list[tuple]:
    """Group the scanner's tokens into s-expressions, with an explicit stack."""
    forms: list[tuple] = []
    items = forms
    # One entry per open list: (enclosing items, closing kind, opening token).
    stack: list[tuple[list, str, tuple]] = []
    defines = 0  # top-level defines read so far: each is a level of nesting
    for token in tokens:
        kind = token[0]
        closing = _CLOSING.get(kind)
        if closing is not None:
            if len(stack) + defines >= MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", token[2], token[3])
            stack.append((items, closing, token))
            items = []
        elif kind == "rparen" or kind == "rbracket":
            if not stack or stack[-1][1] != kind:
                raise ParseError("unexpected closing parenthesis", token[2], token[3])
            outer, _, opening = stack.pop()
            node = (_LIST, items, opening[2], opening[3])
            outer.append(node)
            if not stack and _is_define(node):
                defines += 1
            items = outer
        else:
            items.append(token)
    if stack:
        opening = stack[-1][2]
        raise ParseError("missing closing parenthesis", opening[2], opening[3])
    return forms


def _is_atom(sexpr: tuple, text: str) -> bool:
    """Whether ``sexpr`` is an atom (of any kind) spelled ``text``."""
    return sexpr[0] != _LIST and sexpr[1] == text


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def parse_type_sexpr(sexpr: tuple) -> Type:
    kind, value, line, column = sexpr
    if kind != _LIST:
        if value in _TYPE_NAMES:
            return _TYPE_NAMES[value]
        raise ParseError(f"unknown type {value!r}", line, column)
    if not value:
        raise ParseError("empty type", line, column)
    head = value[0]
    if _is_atom(head, "->"):
        parts = [parse_type_sexpr(item) for item in value[1:]]
        if len(parts) < 2:
            raise ParseError("-> needs at least two types", line, column)
        result = parts[-1]
        for dom in reversed(parts[:-1]):
            result = FunType(dom, result)
        return result
    if _is_atom(head, "*"):
        parts = [parse_type_sexpr(item) for item in value[1:]]
        if len(parts) != 2:
            raise ParseError("* needs exactly two types", line, column)
        return ProdType(parts[0], parts[1])
    raise ParseError("malformed type", line, column)


def parse_type(source: str) -> Type:
    """Parse a type written in concrete syntax, e.g. ``"(-> int ?)"``."""
    forms = _read_all(scan(source))
    if len(forms) != 1:
        raise ParseError("expected exactly one type")
    return parse_type_sexpr(forms[0])


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _parse_param(sexpr: tuple) -> tuple[str, Type]:
    kind, value, line, column = sexpr
    if kind != _LIST:
        return value, DYN
    if len(value) == 3 and _is_atom(value[1], ":"):
        if value[0][0] == _LIST:
            raise ParseError("parameter name must be a symbol", line, column)
        return value[0][1], parse_type_sexpr(value[2])
    raise ParseError("malformed parameter (expected name or [name : type])", line, column)


def parse_expr_sexpr(sexpr: tuple) -> SurfaceExpr:
    kind, value, line, column = sexpr
    location = SourceLocation(line, column)

    if kind != _LIST:
        if kind == "int":
            return SConst(int(value), location)
        if kind == "bool":
            return SConst(value in ("#t", "true"), location)
        if kind == "string":
            return SConst(value, location)
        if value == "unit":
            return SConst(None, location)
        return SVar(value, location)

    if not value:
        raise ParseError("empty expression", line, column)

    head = value[0]
    rest = value[1:]
    head_name = head[1] if head[0] != _LIST else None

    if head_name == "lambda":
        if len(rest) != 2 or rest[0][0] != _LIST:
            raise ParseError("lambda expects a parameter list and a body", line, column)
        params = tuple(_parse_param(p) for p in rest[0][1])
        if not params:
            raise ParseError("lambda needs at least one parameter", line, column)
        return SLam(params, parse_expr_sexpr(rest[1]), location)

    if head_name == "let":
        if len(rest) != 2 or rest[0][0] != _LIST:
            raise ParseError("let expects a binding list and a body", line, column)
        bindings = []
        for binding in rest[0][1]:
            pair = binding[1]
            if binding[0] != _LIST or len(pair) != 2 or pair[0][0] == _LIST:
                raise ParseError("malformed let binding", line, column)
            bindings.append((pair[0][1], parse_expr_sexpr(pair[1])))
        return SLet(tuple(bindings), parse_expr_sexpr(rest[1]), location)

    if head_name == "letrec":
        if len(rest) != 2 or rest[0][0] != _LIST or len(rest[0][1]) != 1:
            raise ParseError("letrec expects exactly one binding and a body", line, column)
        binding = rest[0][1][0]
        parts = binding[1]
        if binding[0] != _LIST or len(parts) != 4 or parts[0][0] == _LIST:
            raise ParseError("letrec binding must be [name : type expr]", line, column)
        if not _is_atom(parts[1], ":"):
            raise ParseError("letrec binding must be [name : type expr]", line, column)
        annotation = parse_type_sexpr(parts[2])
        bound = parse_expr_sexpr(parts[3])
        return SLetRec(parts[0][1], annotation, bound, parse_expr_sexpr(rest[1]), location)

    if head_name == "if":
        if len(rest) != 3:
            raise ParseError("if expects three subexpressions", line, column)
        return SIf(*(parse_expr_sexpr(r) for r in rest), location)

    if head_name in ("pair", "cons"):
        if len(rest) != 2:
            raise ParseError("pair expects two subexpressions", line, column)
        return SPair(parse_expr_sexpr(rest[0]), parse_expr_sexpr(rest[1]), location)

    if head_name == "fst":
        if len(rest) != 1:
            raise ParseError("fst expects one subexpression", line, column)
        return SFst(parse_expr_sexpr(rest[0]), location)

    if head_name == "snd":
        if len(rest) != 1:
            raise ParseError("snd expects one subexpression", line, column)
        return SSnd(parse_expr_sexpr(rest[0]), location)

    if head_name in (":", "ann"):
        if len(rest) != 2:
            raise ParseError("ascription expects an expression and a type", line, column)
        return SAscribe(parse_expr_sexpr(rest[0]), parse_type_sexpr(rest[1]), location)

    if head_name is not None and op_exists(head_name) and head_name not in _KEYWORDS:
        return SOp(head_name, tuple(parse_expr_sexpr(r) for r in rest), location)

    # Application.
    if not rest:
        raise ParseError("application needs at least one argument", line, column)
    return SApp(parse_expr_sexpr(head), tuple(parse_expr_sexpr(r) for r in rest), location)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def _parse_define(sexpr: tuple) -> Definition:
    _, value, line, column = sexpr
    location = SourceLocation(line, column)
    items = value[1:]
    if not items:
        raise ParseError("empty define", line, column)

    # (define (name param*) [: type] body)  — function shorthand.
    if items[0][0] == _LIST:
        header = items[0][1]
        if not header or header[0][0] == _LIST:
            raise ParseError("malformed define header", line, column)
        name = header[0][1]
        params = tuple(_parse_param(p) for p in header[1:])
        rest = items[1:]
        return_type: Type = DYN
        if len(rest) == 3 and _is_atom(rest[0], ":"):
            return_type = parse_type_sexpr(rest[1])
            body = parse_expr_sexpr(rest[2])
        elif len(rest) == 1:
            body = parse_expr_sexpr(rest[0])
        else:
            raise ParseError("malformed define", line, column)
        if params:
            fun_type: Type = return_type
            for _, param_type in reversed(params):
                fun_type = FunType(param_type, fun_type)
            return Definition(name, fun_type, SLam(params, body, location), location)
        return Definition(name, return_type, body, location)

    # (define name [: type] body)
    name = items[0][1]
    rest = items[1:]
    if len(rest) == 3 and _is_atom(rest[0], ":"):
        return Definition(name, parse_type_sexpr(rest[1]), parse_expr_sexpr(rest[2]), location)
    if len(rest) == 1:
        return Definition(name, None, parse_expr_sexpr(rest[0]), location)
    raise ParseError("malformed define", line, column)


def _is_define(form: tuple) -> bool:
    return form[0] == _LIST and bool(form[1]) and _is_atom(form[1][0], "define")


def parse_program(source: str) -> Program:
    """Parse a whole program: zero or more ``define`` forms and a main expression."""
    forms = _read_all(scan(source))
    if not forms:
        raise ParseError("empty program")
    definitions: list[Definition] = []
    main: SurfaceExpr | None = None
    for form in forms:
        if _is_define(form):
            if main is not None:
                raise ParseError("definitions must precede the main expression")
            definitions.append(_parse_define(form))
        else:
            if main is not None:
                raise ParseError("a program may have only one main expression")
            main = parse_expr_sexpr(form)
    return Program(tuple(definitions), main)


def parse(source: str) -> SurfaceExpr:
    """Parse a single surface expression."""
    program = parse_program(source)
    if program.definitions or program.main is None:
        raise ParseError("expected a single expression (no definitions)")
    return program.main
