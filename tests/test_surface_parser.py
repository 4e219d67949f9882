"""Tests for the surface-language lexer and parser."""

from __future__ import annotations

import pytest

from repro.core.errors import ParseError
from repro.core.types import BOOL, DYN, INT, STR, UNIT, FunType, ProdType
from repro.surface.ast import (
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
    SVar,
)
from repro.surface.lexer import tokenize
from repro.surface.parser import MAX_NESTING, parse, parse_program, parse_type


class TestLexer:
    def test_tokenizes_parens_and_symbols(self):
        tokens = tokenize("(+ 1 x)")
        assert [t.kind for t in tokens] == ["lparen", "symbol", "int", "symbol", "rparen"]

    def test_tracks_line_and_column(self):
        tokens = tokenize("(f\n  42)")
        forty_two = [t for t in tokens if t.text == "42"][0]
        assert forty_two.location.line == 2
        assert forty_two.location.column == 3

    def test_string_literals(self):
        tokens = tokenize('(f "hello world")')
        assert any(t.kind == "string" and t.text == "hello world" for t in tokens)

    def test_string_escapes(self):
        tokens = tokenize('"a\\nb"')
        assert tokens[0].text == "a\nb"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"oops')

    def test_comments_are_skipped(self):
        tokens = tokenize("; a comment\n42")
        assert len(tokens) == 1 and tokens[0].kind == "int"

    def test_booleans_and_negative_numbers(self):
        kinds = {t.text: t.kind for t in tokenize("#t false -3 +4 -")}
        assert kinds["#t"] == "bool"
        assert kinds["false"] == "bool"
        assert kinds["-3"] == "int"
        assert kinds["+4"] == "int"
        assert kinds["-"] == "symbol"

    def test_brackets(self):
        kinds = [t.kind for t in tokenize("[x : int]")]
        assert kinds == ["lbracket", "symbol", "symbol", "symbol", "rbracket"]

    def test_backslash_newline_in_string_still_bumps_the_line(self):
        # Regression: the escape branch used to consume a backslash-newline
        # pair without bumping `line`, so every later token — and therefore
        # every blame label minted from its location — pointed one line high.
        tokens = tokenize('"a\\\nb" later')
        later = [t for t in tokens if t.text == "later"][0]
        assert later.location.line == 2
        assert later.location.column == 4

    def test_multiple_backslash_newlines_accumulate_lines(self):
        tokens = tokenize('"x\\\n\\\ny" tok')
        tok = [t for t in tokens if t.text == "tok"][0]
        assert tok.location.line == 3

    def test_plain_newline_in_string_is_still_rejected(self):
        with pytest.raises(ParseError):
            tokenize('"a\nb"')


class TestTypeParsing:
    def test_base_types(self):
        assert parse_type("int") == INT
        assert parse_type("bool") == BOOL
        assert parse_type("str") == STR
        assert parse_type("unit") == UNIT

    def test_dynamic_type_spellings(self):
        assert parse_type("?") == DYN
        assert parse_type("dyn") == DYN
        assert parse_type("Dyn") == DYN

    def test_function_types_are_right_associative(self):
        assert parse_type("(-> int bool)") == FunType(INT, BOOL)
        assert parse_type("(-> int int bool)") == FunType(INT, FunType(INT, BOOL))

    def test_product_types(self):
        assert parse_type("(* int ?)") == ProdType(INT, DYN)

    def test_nested_types(self):
        assert parse_type("(-> (* int int) ?)") == FunType(ProdType(INT, INT), DYN)

    def test_unknown_type_name(self):
        with pytest.raises(ParseError):
            parse_type("float")

    def test_malformed_arrow(self):
        with pytest.raises(ParseError):
            parse_type("(-> int)")


class TestExpressionParsing:
    def test_literals(self):
        assert parse("42") == SConst(42, parse("42").location)
        assert isinstance(parse("#t"), SConst) and parse("#t").value is True
        assert parse('"hi"').value == "hi"
        assert parse("unit").value is None

    def test_variables(self):
        assert isinstance(parse("x"), SVar)

    def test_lambda_with_annotations(self):
        expr = parse("(lambda ([x : int]) x)")
        assert isinstance(expr, SLam)
        assert expr.params == (("x", INT),)

    def test_lambda_without_annotations_defaults_to_dyn(self):
        expr = parse("(lambda (x) x)")
        assert expr.params == (("x", DYN),)

    def test_multi_parameter_lambda(self):
        expr = parse("(lambda ([x : int] y) (+ x 1))")
        assert expr.params == (("x", INT), ("y", DYN))

    def test_application_is_curried_at_elaboration_not_parsing(self):
        expr = parse("(f 1 2)")
        assert isinstance(expr, SApp)
        assert len(expr.args) == 2

    def test_operators_parse_as_sop(self):
        expr = parse("(+ 1 2)")
        assert isinstance(expr, SOp) and expr.op == "+"

    def test_if_let_letrec(self):
        assert isinstance(parse("(if #t 1 2)"), SIf)
        assert isinstance(parse("(let ([x 1]) x)"), SLet)
        letrec = parse("(letrec ([f : (-> int int) (lambda ([n : int]) n)]) (f 3))")
        assert isinstance(letrec, SLetRec)
        assert letrec.annotation == FunType(INT, INT)

    def test_pairs_and_projections(self):
        assert isinstance(parse("(pair 1 2)"), SPair)
        assert isinstance(parse("(cons 1 2)"), SPair)
        assert isinstance(parse("(fst p)"), SFst)
        assert isinstance(parse("(snd p)"), SSnd)

    def test_ascriptions(self):
        expr = parse("(: 42 ?)")
        assert isinstance(expr, SAscribe)
        assert expr.annotation == DYN
        assert isinstance(parse("(ann 42 int)"), SAscribe)

    def test_source_locations_flow_into_the_ast(self):
        expr = parse("(: 42\n   int)")
        assert expr.location.line == 1

    def test_malformed_forms(self):
        for source in ["(lambda)", "(if #t 1)", "(let (x) 1)", "()", "(fst)", "(: 1)"]:
            with pytest.raises(ParseError):
                parse(source)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(+ 1 2")
        with pytest.raises(ParseError):
            parse(")")


class TestProgramParsing:
    def test_defines_and_main(self):
        program = parse_program(
            """
            (define (square [x : int]) : int (* x x))
            (define limit : int 10)
            (square limit)
            """
        )
        assert len(program.definitions) == 2
        assert program.definitions[0].name == "square"
        assert program.definitions[0].annotation == FunType(INT, INT)
        assert program.definitions[1].annotation == INT
        assert isinstance(program.main, SApp)

    def test_define_without_annotation(self):
        program = parse_program("(define f (lambda (x) x)) (f 1)")
        assert program.definitions[0].annotation is None

    def test_main_must_come_last(self):
        with pytest.raises(ParseError):
            parse_program("(square 2) (define (square [x : int]) : int (* x x))")

    def test_only_one_main_expression(self):
        with pytest.raises(ParseError):
            parse_program("1 2")

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError):
            parse_program("   ;; nothing here\n")

    def test_parse_rejects_programs_with_definitions(self):
        with pytest.raises(ParseError):
            parse("(define x 1) x")


# ---------------------------------------------------------------------------
# The reader's nesting limit
# ---------------------------------------------------------------------------


def _nesting(source: str) -> int:
    depth = deepest = 0
    for char in source:
        if char in "([":
            depth += 1
            deepest = max(deepest, depth)
        elif char in ")]":
            depth -= 1
    return deepest


def _at_depth(core, depth: int) -> str:
    """The program ``core(n)`` for the largest ``n`` nesting at most
    ``depth`` levels, wrapped in ``(if #t … 0)`` up to exactly ``depth``."""
    n = 1
    while _nesting(core(n + 1)) <= depth:
        n += 1
    source = core(n)
    pad = depth - _nesting(source)
    return "(if #t " * pad + source + " 0)" * pad


#: Nested arithmetic, ``let`` bodies, λ-applications, ``if`` branches and a
#: nested function type: each drives the recursive passes (elaborate, the
#: translations, lowering, register allocation, the engines) differently.
NESTED_SHAPES = {
    "arith": lambda n: "(+ 1 " * n + "0" + ")" * n,
    "let": lambda n: "(let ([x 1]) " * n + "x" + ")" * n,
    "app": lambda n: "((lambda (x) " * n + "x" + ") 1)" * n,
    "if": lambda n: "(if #t " * n + "2" + " 0)" * n,
    "type": lambda n: "(fst (pair 1 (: (lambda (x) x) " + "(-> int " * n + "int" + ")" * n + ")))",
}

#: Every engine, with every semantics it implements.
ENGINE_MATRIX = (
    [("subst", calculus, "coercion") for calculus in "BCS"]
    + [("machine", calculus, "coercion") for calculus in "BC"]
    + [(engine, "S", semantics)
       for engine in ("machine", "vm", "rvm")
       for semantics in ("coercion", "threesome", "transient", "erasure")]
)


class TestNestingLimit:
    def test_the_limit_is_accepted_and_one_more_level_is_a_parse_error(self):
        source = "(+ 1 " * MAX_NESTING + "0" + ")" * MAX_NESTING
        assert _nesting(source) == MAX_NESTING
        parse(source)
        deeper = "(" + source + ")"
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels") as err:
            parse(deeper)
        # Reported at the first delimiter past the limit: the innermost one.
        assert (err.value.line, err.value.column) == (1, 2 + 5 * (MAX_NESTING - 1))

    def test_brackets_count_toward_the_limit(self):
        source = "(let ([x 1]) " * MAX_NESTING + "x" + ")" * MAX_NESTING
        with pytest.raises(ParseError, match="nesting deeper"):
            parse(source)

    @pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
    def test_every_engine_and_semantics_runs_a_program_at_the_limit(self, shape):
        from repro.api import run

        source = _at_depth(NESTED_SHAPES[shape], MAX_NESTING)
        assert _nesting(source) == MAX_NESTING
        outcomes = {}
        for engine, calculus, semantics in ENGINE_MATRIX:
            result = run(source, engine=engine, calculus=calculus, semantics=semantics,
                         cache=False)
            outcomes[engine, calculus, semantics] = (result.kind, result.value)
        assert set(outcomes.values()) == {outcomes["machine", "S", "coercion"]}
        assert outcomes["machine", "S", "coercion"][0] == "value"

    def test_one_level_past_the_limit_exits_2_in_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "deep.grad"
        path.write_text("(+ 1 " * (MAX_NESTING + 1) + "0" + ")" * (MAX_NESTING + 1) + "\n")
        for engine in ("machine", "rvm"):
            assert main(["run", "--engine", engine, str(path)]) == 2
            err = capsys.readouterr().err
            assert err == (f"parse error: nesting deeper than {MAX_NESTING} levels "
                           f"at line 1, column {1 + 5 * MAX_NESTING}\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_level_past_the_limit_is_one_batch_error_record(self, tmp_path, workers):
        from repro.batch import run_batch

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a_deep.grad").write_text(
            "(+ 1 " * (MAX_NESTING + 1) + "0" + ")" * (MAX_NESTING + 1) + "\n")
        (corpus / "b_square.grad").write_text("(* 6 6)\n")
        results, aggregate = run_batch([corpus], workers=workers,
                                       cache_dir=str(tmp_path / "cache"))
        by_name = {r["program"].rsplit("/", 1)[-1]: r for r in results}
        assert by_name["a_deep.grad"]["kind"] == "error"
        assert f"nesting deeper than {MAX_NESTING} levels" in by_name["a_deep.grad"]["error"]
        assert by_name["b_square.grad"]["value"] == 36
        assert aggregate["outcomes"]["error"] == 1


# ---------------------------------------------------------------------------
# Top-level definitions count toward the nesting limit
# ---------------------------------------------------------------------------


def _defines(count: int) -> str:
    """``count`` flat ``(define xN N)`` lines and a main expression naming
    the last one: elaboration nests them ``count`` lets deep."""
    return "".join(f"(define x{i} {i})\n" for i in range(count)) + f"x{count - 1}\n"


class TestDefinitionBudget:
    def test_the_limit_in_definitions_is_accepted_and_one_more_is_a_parse_error(self):
        assert len(parse_program(_defines(MAX_NESTING)).definitions) == MAX_NESTING
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels") as err:
            parse_program(_defines(MAX_NESTING + 1))
        # At the opening parenthesis of the first define past the limit.
        assert (err.value.line, err.value.column) == (MAX_NESTING + 1, 1)

    def test_definitions_and_nesting_share_one_budget(self):
        prefix = _defines(MAX_NESTING // 2).rsplit("\n", 2)[0] + "\n"
        room = MAX_NESTING - MAX_NESTING // 2
        parse_program(prefix + "(+ 1 " * room + "0" + ")" * room)
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_program(prefix + "(+ 1 " * (room + 1) + "0" + ")" * (room + 1))

    def test_every_engine_and_semantics_runs_the_limit_in_definitions(self):
        from repro.api import run

        source = _defines(MAX_NESTING)
        for engine, calculus, semantics in ENGINE_MATRIX:
            result = run(source, engine=engine, calculus=calculus, semantics=semantics,
                         cache=False)
            assert (result.kind, result.value) == ("value", MAX_NESTING - 1), \
                (engine, calculus, semantics)

    @pytest.mark.parametrize("count", [MAX_NESTING + 1, 1000])
    def test_past_the_limit_exits_2_in_the_cli(self, tmp_path, capsys, count):
        from repro.cli import main

        path = tmp_path / "defines.grad"
        path.write_text(_defines(count))
        for engine in ("machine", "rvm"):
            assert main(["run", "--engine", engine, str(path)]) == 2
            err = capsys.readouterr().err
            assert err == (f"parse error: nesting deeper than {MAX_NESTING} levels "
                           f"at line {MAX_NESTING + 1}, column 1\n")

    def test_the_limit_runs_in_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "defines.grad"
        path.write_text(_defines(MAX_NESTING))
        for engine in ("machine", "rvm"):
            assert main(["run", "--engine", engine, str(path)]) == 0
            assert capsys.readouterr().out == f"{MAX_NESTING - 1} : int\n"

    def test_the_limit_and_one_past_it_in_a_batch(self, tmp_path):
        from repro.batch import run_batch

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a_at_limit.grad").write_text(_defines(MAX_NESTING))
        (corpus / "b_past_limit.grad").write_text(_defines(MAX_NESTING + 1))
        results, aggregate = run_batch([corpus], workers=1, cache_dir=str(tmp_path / "cache"))
        by_name = {r["program"].rsplit("/", 1)[-1]: r for r in results}
        assert by_name["a_at_limit.grad"]["value"] == MAX_NESTING - 1
        assert by_name["b_past_limit.grad"]["kind"] == "error"
        assert f"nesting deeper than {MAX_NESTING} levels" in by_name["b_past_limit.grad"]["error"]
        assert aggregate["outcomes"]["error"] == 1
