"""Tests for the measurement and audit harness."""

import random

import pytest
from conftest import FIG1

from friendlyops import (
    Compiled,
    Dfa,
    ScRow,
    distinguishability_audit,
    gst_class_audit,
    parse_expr,
    predicted_sc,
    sc_on_witness,
    sc_table,
    unary_bound_audit,
    wheel_builtin,
)
from friendlyops import experiments
from friendlyops.experiments import pred_name, random_dfa


class TestPredicted:
    def test_wheel_formulas(self):
        assert predicted_sc(wheel_builtin(1), (3,)) == 25
        assert predicted_sc(wheel_builtin(2), (2, 3)) == 4 * 27

    def test_square_root_formula(self):
        assert predicted_sc(Compiled(parse_expr("root[2](L1)")), (4,)) == 256 - 6

    def test_unknown_operations_report_measured_only(self):
        assert predicted_sc(Compiled(parse_expr("Root(L1)")), (3,)) is None
        assert predicted_sc(Compiled(parse_expr("root[3](L1)")), (3,)) is None

    @pytest.mark.parametrize("sizes", [(2, 1), (1, 2, 2), (1, 1)])
    def test_size_one_coordinate_is_no_witness(self, sizes):
        # a size-1 coordinate accepts every word: wheel k, k >= 2, holds on no tuple there
        assert predicted_sc(wheel_builtin(len(sizes)), sizes) is None


class TestScOnWitness:
    def test_unary_wheel(self):
        row = sc_on_witness(wheel_builtin(1), (3,))
        assert row == ScRow("wheel 1", (3,), 25, 25, True)

    def test_binary_wheel(self):
        row = sc_on_witness(wheel_builtin(2), (2, 2))
        assert (row.sc, row.match) == (16, True)

    def test_square_root_full_alphabet(self):
        row = sc_on_witness(Compiled(parse_expr("root[2](L1)")), (3,), "full")
        assert (row.sc, row.predicted, row.match) == (24, 24, True)

    def test_infinitary_root_measured_only(self):
        row = sc_on_witness(Compiled(parse_expr("Root(L1)")), (2,))
        assert row.predicted is None and row.match is None
        assert row.sc >= 1

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            sc_on_witness(wheel_builtin(1), (2, 2))


class TestRefusals:
    @pytest.mark.parametrize("call, message", [
        (lambda: ScRow("wheel 1", (3,), 0, None, None), "state complexity is at least 1"),
        (lambda: ScRow("wheel 1", (3,), 25, None, True), "match must accompany a predicted value"),
        (lambda: ScRow("wheel 1", (3,), 24, 25, True), "match flag inconsistent with measured/predicted"),
        (lambda: gst_class_audit(wheel_builtin(2), FIG1), "the audit is unary"),
    ], ids=["sc-zero", "match-without-predicted", "match-inconsistent", "audit-arity"])
    def test_rejected_with_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


class TestUnaryBoundAudit:
    def test_size_one_is_trivial(self):
        report = unary_bound_audit(10, 1, seed=0)
        assert report.ok and report.bound == 1 and report.max_sc == 1

    def test_size_two(self):
        report = unary_bound_audit(50, 2, seed=1)
        assert report.ok and report.max_sc <= 3
        assert report.seed == 1

    def test_size_three(self):
        report = unary_bound_audit(100, 3, seed=2)
        assert report.ok and report.max_sc <= 25

    def test_violation_is_recorded_not_raised(self, monkeypatch):
        four = Dfa(("a",), 4, 0, frozenset(), ((1, 2, 3, 0),))
        monkeypatch.setattr(experiments, "minimize", lambda d: four)
        report = unary_bound_audit(1, 2, seed=0)
        assert not report.ok and report.max_sc == 4
        (violation,) = report.violations
        assert violation.startswith("trial 0: ") and violation.endswith(" reached 4 > 3")


class TestGstClassAudit:
    def test_figure_case(self):
        assert gst_class_audit(wheel_builtin(1), FIG1) <= 3

    def test_single_state(self):
        from friendlyops import Dfa

        tiny = Dfa(("a",), 1, 0, set(), ((0,),))
        assert gst_class_audit(wheel_builtin(1), tiny) == 1

    def test_random_cases_respect_quadratic_bound(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 3)
            d = random_dfa(rng, n, ("a", "b"), initial_nonfinal=True)
            pred = wheel_builtin(1) if rng.random() < 0.5 else Compiled(parse_expr("Root(L1)"))
            assert gst_class_audit(pred, d) <= n * n - n + 1


class TestDistinguishabilityAudit:
    def test_two_states(self):
        report = distinguishability_audit(2)
        assert report.ok
        assert report.total_classes == 3
        assert report.constant_class_sizes == (2,)

    def test_three_states(self):
        report = distinguishability_audit(3)
        assert report.ok and report.total_classes == 25
        assert report.constant_class_sizes == (3,)


class TestScTable:
    ROWS = [
        ScRow("wheel 1", (2,), 3, 3, True),
        ScRow("Root(L1)", (2,), 3, None, None),
        ScRow("wheel 2", (2, 3), 108, 108, True),
    ]

    def test_csv(self):
        assert sc_table(self.ROWS, "csv") == (
            "op,sizes,sc,predicted,match\n"
            "wheel 1,2,3,3,true\n"
            "Root(L1),2,3,,\n"
            "wheel 2,2x3,108,108,true\n"
        )

    def test_markdown_same_numbers(self):
        md = sc_table(self.ROWS, "md")
        assert md.splitlines()[0] == "| op | sizes | sc | predicted | match |"
        assert "| wheel 2 | 2x3 | 108 | 108 | true |" in md

    def test_empty_is_header_only(self):
        assert sc_table([], "csv") == "op,sizes,sc,predicted,match\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            sc_table([], "yaml")


class TestPredName:
    def test_names(self):
        assert pred_name(wheel_builtin(2)) == "wheel 2"
        assert pred_name(Compiled(parse_expr("!L1"))) == "!L1"
