"""Exception hierarchy shared by every calculus in the reproduction.

The paper distinguishes three observable outcomes of evaluation: convergence
to a value, allocation of blame to a label, and divergence (Definition 6).
``BlameError`` models the second outcome when an evaluator surfaces blame to
its Python caller; divergence is modelled by ``FuelExhausted`` since the
library evaluates with an explicit step budget.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class TypeCheckError(ReproError):
    """A term, cast, or coercion failed to type check."""


class CoercionTypeError(TypeCheckError):
    """A coercion was used at a type that does not match its shape."""


class ParseError(ReproError):
    """The surface-language parser rejected the input program."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class BlameError(ReproError):
    """Evaluation allocated blame to a label (the paper's ``blame p`` outcome)."""

    def __init__(self, label):
        super().__init__(f"blame {label}")
        self.label = label


class StuckError(ReproError):
    """A term is neither a value, nor blame, nor reducible.

    Type safety (Proposition 3) guarantees this never happens for well-typed
    terms; raising instead of silently looping makes violations loud in the
    test suite.
    """


class FuelExhausted(ReproError):
    """The evaluator ran out of reduction steps (stands in for divergence)."""

    def __init__(self, fuel: int, term=None):
        super().__init__(f"evaluation did not finish within {fuel} steps")
        self.fuel = fuel
        self.term = term


class EvaluationError(ReproError):
    """An internal invariant of an evaluator was violated (e.g. bad operands)."""


class CompileError(ReproError):
    """The bytecode compiler rejected a term it cannot lower."""


def read_source(path) -> str:
    """The text of the source file ``path``.

    Bytes that are not UTF-8 are a static error naming the first offending
    byte (``FILE is not valid UTF-8 (byte N)``), not a decode traceback; an
    unreadable file still raises :class:`OSError`.
    """
    from pathlib import Path

    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ReproError(f"{path} is not valid UTF-8 (byte {exc.start})") from None


class UsageError(ReproError, ValueError):
    """An invalid engine/calculus combination or similar caller mistake.

    Doubles as a :class:`ValueError` so library callers can keep catching
    that, while the CLI's single ``except ReproError`` reports it cleanly.
    """
