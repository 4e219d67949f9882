"""The composite translation ``|·|BS = |·|CS ∘ |·|BC`` (Section 5.2).

Used to prove (here: check) the Fundamental Property of Casts: if
``A & B <:n C`` then ``|A ⇒p B|BS = |A ⇒p C|BS # |C ⇒p B|BS`` (Lemma 20),
hence ``M : A ⇒p B`` is contextually equivalent to ``M : A ⇒p C ⇒p B``
(Lemma 21).

:func:`term_to_lambda_s_from_b` is the compiler's translation: one walk
over the λB term.  The two-pass form ``term_to_lambda_s(term_to_lambda_c(M))``
(:mod:`.b_to_c` then :mod:`.c_to_s`) is the paper's definition and the
oracle it is tested against.
"""

from __future__ import annotations

from ..core.errors import TypeCheckError
from ..core.labels import Label
from ..core.terms import (
    App,
    Blame,
    Cast,
    Coerce,
    Const,
    Fix,
    Fst,
    If,
    Lam,
    Let,
    Op,
    Pair,
    Snd,
    Term,
    Var,
)
from ..core.types import Type
from ..lambda_s.coercions import SpaceCoercion
from .b_to_c import cast_to_coercion
from .c_to_s import coercion_to_space


def cast_to_space(source: Type, label: Label, target: Type) -> SpaceCoercion:
    """``|A ⇒p B|BS``: the canonical coercion of a cast."""
    return coercion_to_space(cast_to_coercion(source, label, target))


def term_to_lambda_s_from_b(term: Term) -> Term:
    """``|M|BS``: translate a λB term all the way to λS in one pass.

    Every cast ``M : A ⇒p B`` becomes ``|M|BS⟨|A ⇒p B|BS⟩``, with the
    canonical coercion computed once per distinct ``(A, p, B)`` in this
    call.  A subterm containing no cast is returned as it is.  The result
    equals ``term_to_lambda_s(term_to_lambda_c(term))``, and a term that
    is not λB fails with the same error.
    """
    spaces: dict[tuple[Type, Label, Type], SpaceCoercion] = {}

    def go(t: Term) -> Term:
        cls = type(t)
        if cls is Var or cls is Const or cls is Blame:
            return t
        if cls is App:
            fun, arg = go(t.fun), go(t.arg)
            return t if fun is t.fun and arg is t.arg else App(fun, arg)
        if cls is Cast:
            subject = go(t.subject)
            key = (t.source, t.label, t.target)
            space = spaces.get(key)
            if space is None:
                space = spaces[key] = cast_to_space(t.source, t.label, t.target)
            return Coerce(subject, space)
        if cls is Lam:
            body = go(t.body)
            return t if body is t.body else Lam(t.param, t.param_type, body)
        if cls is Op:
            args = tuple([go(a) for a in t.args])
            if all(new is old for new, old in zip(args, t.args)):
                return t
            return Op(t.op, args)
        if cls is Let:
            bound, body = go(t.bound), go(t.body)
            return t if bound is t.bound and body is t.body else Let(t.name, bound, body)
        if cls is If:
            cond, then_branch, else_branch = go(t.cond), go(t.then_branch), go(t.else_branch)
            if cond is t.cond and then_branch is t.then_branch and else_branch is t.else_branch:
                return t
            return If(cond, then_branch, else_branch)
        if cls is Fix:
            fun = go(t.fun)
            return t if fun is t.fun else Fix(fun, t.fun_type)
        if cls is Pair:
            left, right = go(t.left), go(t.right)
            return t if left is t.left and right is t.right else Pair(left, right)
        if cls is Fst:
            arg = go(t.arg)
            return t if arg is t.arg else Fst(arg)
        if cls is Snd:
            arg = go(t.arg)
            return t if arg is t.arg else Snd(arg)
        if cls is Coerce:
            raise TypeCheckError("the input to |·|BC must be a λB term (no coercions)")
        raise TypeError(f"unknown term node: {t!r}")

    return go(term)


btos = term_to_lambda_s_from_b
