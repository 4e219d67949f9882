"""The one-regex scanner and the explicit-stack reader against their
references: the character-by-character tokenizer and the recursive reader
in :mod:`tests.reference_lexer`.

Both must give the same ``(kind, text, line, column)`` tokens, the same
s-expressions and, on bad input, the same ``ParseError`` message, line and
column.  Blame labels are minted from these locations, so a drift here
would move every label.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ParseError
from repro.gen.surface_programs import generate_corpus, generate_program
from repro.surface.lexer import scan, tokenize
from repro.surface.parser import MAX_NESTING, _read_all, parse_program

from .reference_lexer import reference_read, reference_tokens

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "programs"

CORPUS = (
    [(path.name, path.read_text()) for path in sorted(EXAMPLES.glob("*.grad"))]
    + generate_corpus(6, seed=20150613)
)


def _outcome(read, source: str):
    try:
        return ("ok", read(source))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _read(source: str):
    return _read_all(scan(source))


def _reference(source: str):
    return reference_read(reference_tokens(source))


def _assert_agrees(source: str) -> None:
    assert _outcome(scan, source) == _outcome(reference_tokens, source)
    assert _outcome(_read, source) == _outcome(_reference, source)


@pytest.mark.parametrize("name, source", CORPUS, ids=[name for name, _ in CORPUS])
class TestCorpus:
    def test_tokens_and_s_expressions_match_the_reference(self, name, source):
        assert scan(source) == reference_tokens(source)
        assert _read(source) == _reference(source)

    def test_tokenize_wraps_the_scanned_tuples(self, name, source):
        assert [(t.kind, t.text, t.location.line, t.location.column)
                for t in tokenize(source)] == scan(source)


#: sha256 of ``repr(parse_program(source))`` as the recursive reader and the
#: character-by-character tokenizer produced it.
AST_SHA256 = {
    "boundary_blame.grad": "2c621d0db0072ec3bf2556a8526c201337117f1b85f692a3cc0a7bfff350da34",
    "square.grad": "6ae4a677dc669c14f83f214e917a9a902aca106160b8d454388faab5b46b6501",
    "stats_pipeline.grad": "d2ccb47fcce95a992e80c66dd968582d44ca331ab44d9d89c44507ebdac6c8ba",
    "tail_loop.grad": "88bdc58c3b327b90f5b6311c2ee2ebfdca8cf184eef347fe981685111567ad2a",
    "text_metrics.grad": "d9c1458b68edadc96643c0cca2d67612b56b6ee049a851ad5c9b208d80fc1c60",
    "vector_mesh.grad": "5db254de56796c3cf85a03d84a029e379ccf4ff54f752b8e5c32bc8450bdb5e6",
    "gen-20150613-0": "80b458989dcb1f380527d56088272b79821d33bf603053c14f5687ca61e3dee2",
    "gen-20150613-1": "fca6e4fa9865ad0c06283df90b56d3f32e49b9152be5fbdeea3ec5a3e7000508",
    "gen-20150613-2": "feb661240532312169e3fc3e6e829478784b7cb82363a0e329efaaa7b08d6711",
    "gen-20150613-3": "adaa0a81ccae1fdc943231d36c272ffc60aeda660c372eb9646a1c7c26336e44",
    "gen-20150613-4": "e533d455e825d26ae23d9f1df55d8319fcc7e0eea5ca9240605b9a3e5dbf80f9",
    "gen-20150613-5": "18f965bd3502c3fa522a5fa6d9dd4c682e39bc2b0de836ce2c87d7b125a47888",
}


@pytest.mark.parametrize("name, source", CORPUS, ids=[name for name, _ in CORPUS])
def test_corpus_asts_are_unchanged(name, source):
    digest = hashlib.sha256(repr(parse_program(source)).encode()).hexdigest()
    assert digest == AST_SHA256[name]


#: Fragments that exercise every scanner rule: escapes, backslash-newline,
#: comments, tabs, ``\r``, unclosed strings, both delimiter kinds, numbers,
#: booleans, ``define`` (which the reader counts) and non-ASCII digits.
_PIECES = [
    "(", ")", "[", "]", '"', "\\", "\\\n", "\n", "\r", "\r\n", "\t", " ", ";", "; note\n",
    "\\n", "\\t", '\\"', "\\\\", "x", "42", "-7", "+3", "+", "-", "#t", "#f", "true",
    "define", "lambda", ":", "²", "é", '"s"', '"a b"',
]


@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_random_fragments_agree_with_the_reference(source):
    _assert_agrees(source)


@given(st.text(max_size=60))
def test_arbitrary_text_agrees_with_the_reference(source):
    _assert_agrees(source)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=7))
def test_generated_programs_agree_with_the_reference(seed, bindings):
    source = generate_program(seed, bindings)
    assert scan(source) == reference_tokens(source)
    assert _read(source) == _reference(source)


def _nested(depth: int) -> str:
    return "(+ 1 " * depth + "0" + ")" * depth


@pytest.mark.parametrize("source, message", [
    ('"oops', "unterminated string literal at line 1, column 1"),
    ('(f\n  "abc', "unterminated string literal at line 2, column 3"),
    ('(f "a\nb")', "unterminated string literal at line 1, column 4"),
    ('(f "x\\")', "unterminated string literal at line 1, column 4"),
    ('"tail\\', "unterminated string literal at line 1, column 1"),
    ('"a\\\nb" "c\nd"', "unterminated string literal at line 2, column 4"),
    ("  ) (f x)", "unexpected closing parenthesis at line 1, column 3"),
    ("(f x]", "unexpected closing parenthesis at line 1, column 5"),
    ("[f\n x)", "unexpected closing parenthesis at line 2, column 3"),
    ("(f (g x)", "missing closing parenthesis at line 1, column 1"),
    ("(f [g x)", "unexpected closing parenthesis at line 1, column 8"),
    (_nested(MAX_NESTING + 1),
     f"nesting deeper than {MAX_NESTING} levels at line 1, column {1 + 5 * MAX_NESTING}"),
    ("(define x 1)\n" * MAX_NESTING + "(+ x 1)",
     f"nesting deeper than {MAX_NESTING} levels at line {MAX_NESTING + 1}, column 1"),
])
def test_errors_match_the_reference(source, message):
    outcome = _outcome(_read, source)
    assert outcome[0] == "error" and outcome[1] == message
    assert outcome == _outcome(_reference, source)
