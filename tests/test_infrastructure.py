"""Tests for supporting infrastructure: environments, pretty printing,
outcome/report types, machine policies, and the equivalence checkers."""

from __future__ import annotations

import pytest

from repro.core.env import EMPTY_ENV, TypeEnv
from repro.core.errors import EvaluationError, TypeCheckError
from repro.core.labels import label
from repro.core.pretty import summary, term_to_str
from repro.core.terms import App, Blame, Cast, Coerce, Lam, Op, Pair, Var, const_bool, const_int
from repro.core.types import BOOL, DYN, INT, FunType
from repro.lambda_c.coercions import FunCoercion, Inject, Project, Sequence
from repro.lambda_s.coercions import FailS, FunCo, IdBase, Injection, Projection
from repro.machine import BLAME_POLICY, COERCION_POLICY, SPACE_POLICY, CastMediator
from repro.machine.policy import MachineBlame
from repro.machine.values import MClosure, MConst, MProxy, Environment
from repro.properties.calculi import LAMBDA_B, LAMBDA_C
from repro.properties.equivalence import Observation, kleene_equivalent, observations_equal

P = label("p")
Q = label("q")


class TestTypeEnv:
    def test_empty_env_has_no_bindings(self):
        assert len(EMPTY_ENV) == 0
        assert "x" not in EMPTY_ENV

    def test_extension_is_persistent(self):
        extended = EMPTY_ENV.extend("x", INT)
        assert "x" in extended and "x" not in EMPTY_ENV
        assert extended.lookup("x") == INT

    def test_shadowing(self):
        env = EMPTY_ENV.extend("x", INT).extend("x", BOOL)
        assert env.lookup("x") == BOOL

    def test_lookup_of_unbound_variable(self):
        with pytest.raises(TypeCheckError):
            EMPTY_ENV.lookup("nope")

    def test_equality_and_iteration(self):
        env = TypeEnv({"x": INT, "y": BOOL})
        assert env == TypeEnv({"y": BOOL, "x": INT})
        assert sorted(env) == ["x", "y"]


class TestPrettyPrinting:
    def test_nested_application(self):
        term = App(App(Var("f"), const_int(1)), const_bool(True))
        assert term_to_str(term) == "f 1 #t"

    def test_casts_and_coercions_render_distinctly(self):
        cast = Cast(const_int(1), INT, DYN, P)
        coerce = Coerce(const_int(1), Inject(INT))
        assert "=>" in term_to_str(cast)
        assert "<int!>" in term_to_str(coerce)

    def test_pairs_projections_and_ops(self):
        term = Op("+", (const_int(1), const_int(2)))
        assert term_to_str(term) == "+(1, 2)"
        assert term_to_str(Pair(const_int(1), const_int(2))) == "(1, 2)"

    def test_summary_truncates(self):
        term = Op("+", tuple(const_int(i) for i in range(2)))
        wide = summary(App(Lam("averyveryverylongname" * 5, INT, Var("x")), term), max_length=40)
        assert len(wide) <= 40 and wide.endswith("...")


class TestMachinePolicies:
    def test_cast_mediator_identity_application(self):
        assert BLAME_POLICY.apply(MConst(1, INT), CastMediator(INT, INT, P)) == MConst(1, INT)

    def test_cast_mediator_injection_creates_a_proxy(self):
        result = BLAME_POLICY.apply(MConst(1, INT), CastMediator(INT, DYN, P))
        assert isinstance(result, MProxy)

    def test_cast_mediator_projection_success_and_failure(self):
        injected = BLAME_POLICY.apply(MConst(1, INT), CastMediator(INT, DYN, P))
        assert BLAME_POLICY.apply(injected, CastMediator(DYN, INT, Q)) == MConst(1, INT)
        with pytest.raises(MachineBlame) as excinfo:
            BLAME_POLICY.apply(injected, CastMediator(DYN, BOOL, Q))
        assert excinfo.value.label == Q

    def test_cast_mediator_factoring_through_ground(self):
        fun_value = MClosure("x", INT, Var("x"), Environment.empty())
        injected = BLAME_POLICY.apply(fun_value, CastMediator(FunType(INT, INT), DYN, P))
        # Factored through ?→?: two proxy layers (function proxy, then injection).
        assert isinstance(injected, MProxy) and isinstance(injected.under, MProxy)

    def test_coercion_policy_sequence_and_fail(self):
        seq = Sequence(Inject(INT), Project(INT, P))
        assert COERCION_POLICY.apply(MConst(1, INT), seq) == MConst(1, INT)
        from repro.lambda_c.coercions import Fail

        with pytest.raises(MachineBlame):
            COERCION_POLICY.apply(MConst(1, INT), Fail(INT, P, BOOL))

    def test_space_policy_absorbs_into_existing_proxies(self):
        injected = SPACE_POLICY.apply(MConst(1, INT), Injection(IdBase(INT), INT))
        projected = SPACE_POLICY.apply(injected, Projection(INT, P, IdBase(INT)))
        assert projected == MConst(1, INT)
        with pytest.raises(MachineBlame):
            SPACE_POLICY.apply(injected, Projection(BOOL, Q, IdBase(BOOL)))

    def test_space_policy_failure(self):
        with pytest.raises(MachineBlame):
            SPACE_POLICY.apply(MConst(1, INT), FailS(INT, P, BOOL))

    def test_fun_parts_of_each_policy(self):
        cast = CastMediator(FunType(INT, INT), FunType(DYN, DYN), P)
        dom, cod = BLAME_POLICY.fun_parts(cast)
        assert dom.label == P.complement() and cod.label == P
        fun_c = FunCoercion(Project(INT, P), Inject(INT))
        assert COERCION_POLICY.fun_parts(fun_c) == (fun_c.dom, fun_c.cod)
        fun_s = FunCo(Projection(INT, P, IdBase(INT)), Injection(IdBase(INT), INT))
        assert SPACE_POLICY.fun_parts(fun_s) == (fun_s.dom, fun_s.cod)

    def test_only_the_space_policy_merges(self):
        assert not BLAME_POLICY.merges_pending_mediators
        assert not COERCION_POLICY.merges_pending_mediators
        assert SPACE_POLICY.merges_pending_mediators

    def test_projection_of_an_unwrapped_value_is_an_internal_error(self):
        with pytest.raises(EvaluationError):
            COERCION_POLICY.apply(MConst(1, INT), Project(INT, P))


class TestObservations:
    def test_value_observations_compare_after_erasure(self):
        left = Observation("value", const_int(1))
        right = Observation("value", const_int(1))
        assert observations_equal(left, right)
        assert not observations_equal(left, Observation("value", const_int(2)))

    def test_blame_observations_compare_labels(self):
        assert observations_equal(Observation("blame", P), Observation("blame", P))
        assert not observations_equal(Observation("blame", P), Observation("blame", Q))
        assert not observations_equal(Observation("blame", P), Observation("value", const_int(1)))

    def test_kleene_equivalence_distinguishes_different_programs(self):
        assert kleene_equivalent(LAMBDA_B, const_int(1), LAMBDA_B, const_int(1))
        assert not kleene_equivalent(LAMBDA_B, const_int(1), LAMBDA_B, const_int(2))
        assert not kleene_equivalent(LAMBDA_B, const_int(1), LAMBDA_B, Blame(P))

    def test_kleene_equivalence_across_calculi(self):
        term_b = Cast(Cast(const_int(1), INT, DYN, P), DYN, INT, Q)
        from repro.translate import b_to_c

        assert kleene_equivalent(LAMBDA_B, term_b, LAMBDA_C, b_to_c(term_b))


class TestReports:
    def test_reports_are_truthy_exactly_when_ok(self):
        from repro.properties.bisimulation import BisimulationReport
        from repro.properties.blame_safety import BlameSafetyReport
        from repro.properties.casts import FundamentalPropertyReport
        from repro.properties.type_safety import TypeSafetyReport

        assert TypeSafetyReport(True, 3)
        assert not TypeSafetyReport(False, 3, "boom")
        assert BisimulationReport(True, 1, 1)
        assert not BisimulationReport(False, 1, 1, "nope")
        assert BlameSafetyReport(True, 0)
        assert not FundamentalPropertyReport(False, "hypothesis fails")

    def test_machine_outcome_str(self):
        from repro.machine import run_on_machine

        assert "value" in str(run_on_machine(const_int(1), "B"))
