"""Verification reports: witness content, verdicts, sweeps, determinism."""

from fractions import Fraction

import pytest

from unicrit.verify import (
    VerificationReport,
    galois_experiment,
    report_json,
    sweep_thm_1_4,
    sweep_thm_3_1,
    sweep_verdict,
    verify_congruences,
    verify_dynamical_units,
    verify_monic_structure,
    verify_thm_1_4,
    verify_thm_3_1,
)

VERDICTS = {"pass", "fail", "incomplete", "not_applicable", "parabolic_collision"}


def coeffs(witness):
    return tuple(witness["factor"]["coeffs"])


def test_thm14_cell_2_1_3():
    rep = verify_thm_1_4(2, 1, 3)
    assert rep.verdict == "pass"
    assert rep.cell == {"n": 2, "h": 1, "m": 3}
    got = [w for w in rep.witnesses if w["coordinate"] == "b"]
    # fixed point with primitive cube-root multiplier: b^2 + b + 7
    assert any(coeffs(w) == ("7", "1", "1") for w in got)
    w = next(w for w in got if coeffs(w) == ("7", "1", "1"))
    assert (w["norm"], w["bound"], w["quotient"]) == ("7", "49", "7")


def test_thm14_cell_2_4_1():
    rep = verify_thm_1_4(2, 4, 1)
    assert rep.verdict == "pass"
    got = {coeffs(w): w for w in rep.witnesses if w["coordinate"] == "b"}
    w = got[("135", "27", "9", "1")]
    assert w["degree"] == 3
    assert abs(int(w["norm"])) == 135
    assert w["bound"] == str(15 ** 3)
    assert w["quotient"] == "25"


def test_thm14_cell_2_2_2():
    rep = verify_thm_1_4(2, 2, 2)
    assert rep.verdict == "pass"
    w = next(w for w in rep.witnesses if w["coordinate"] == "b")
    assert coeffs(w) == ("5", "1")
    assert abs(int(w["norm"])) == 5 and w["bound"] == "15"


def test_thm14_bhat_exponent():
    # bhat bound carries the extra factor n - 1 in the exponent
    rep = verify_thm_1_4(3, 1, 2)
    assert rep.verdict == "pass"
    for w in rep.witnesses:
        scale = 2 if w["coordinate"] == "bhat" else 1
        assert int(w["bound"]) == (3 ** 2 - 1) ** (scale * w["degree"])


def test_thm14_every_witness_has_quotient():
    for n, h, m in [(2, 3, 1), (2, 1, 4), (3, 2, 1), (4, 1, 2)]:
        rep = verify_thm_1_4(n, h, m)
        assert rep.verdict == "pass"
        assert rep.witnesses
        for w in rep.witnesses:
            assert int(w["bound"]) % abs(int(w["norm"])) == 0
            assert int(w["quotient"]) * abs(int(w["norm"])) == int(w["bound"])


def test_thm14_factors_each_distinct_polynomial_once(monkeypatch):
    # for n = 2 the b and bhat polynomials are the same coefficients; the
    # witnesses match factoring each coordinate's polynomial on its own
    from unicrit import verify
    from unicrit.dynmaps import parabolic_param_poly
    from unicrit.factorz import factor

    for (n, h, m), expected_calls in (((2, 3, 1), 1), ((2, 1, 3), 1), ((3, 2, 1), 2)):
        expected = []
        for coordinate, scale in (("b", 1), ("bhat", n - 1)):
            poly = parabolic_param_poly(n, h, m, coordinate).poly
            for piece, _ in factor(poly).factors:
                bound = (n ** (h * m) - 1) ** (scale * piece.degree)
                expected.append(verify._divisibility_witness(piece, coordinate, bound))
        calls = []

        def counting(poly):
            calls.append(poly)
            return factor(poly)

        with monkeypatch.context() as patch:
            patch.setattr(verify, "factor", counting)
            rep = verify_thm_1_4(n, h, m)
        assert len(calls) == expected_calls, (n, h, m)
        assert list(rep.witnesses) == expected
        assert {w["factor"]["var"] for w in expected} == {"b", "bhat"}


def test_thm31_misiurewicz_examples():
    rep = verify_thm_3_1(2, 3, 1, 2)
    assert rep.verdict == "pass"
    assert [(w["degree"], abs(int(w["norm"]))) for w in rep.witnesses] == [(7, 2)]

    rep = verify_thm_3_1(2, 1, 4, 2)
    assert rep.verdict == "pass"
    assert [(w["degree"], abs(int(w["norm"]))) for w in rep.witnesses] == [(12, 1)]


def test_thm31_gleason_example():
    rep = verify_thm_3_1(2, 0, 3)
    assert rep.verdict == "pass"
    w = rep.witnesses[0]
    assert coeffs(w) == ("1", "1", "2", "1")
    assert abs(int(w["norm"])) == 1


def test_thm31_gleason_period_one_not_applicable():
    rep = verify_thm_3_1(2, 0, 1)
    assert rep.verdict == "not_applicable"
    assert rep.witnesses


def test_thm31_argument_validation():
    with pytest.raises(ValueError):
        verify_thm_3_1(2, 1, 2)  # preperiodic branch needs tau
    with pytest.raises(ValueError):
        verify_thm_3_1(2, 0, 2, 2)  # periodic branch takes no tau


def test_monic_structure_cells():
    for n, h, dw, db in [(2, 3, 8, 4), (3, 2, 9, 3), (4, 1, 4, 1)]:
        rep = verify_monic_structure(n, h)
        assert rep.verdict == "pass"
        note, *checks = rep.witnesses
        assert "integral-closure" in note["note"]
        assert {w["polynomial"] for w in checks} == {"iterate", "periodicity"}
        for w in checks:
            assert (w["degree_w"], w["degree_b"]) == (dw, db)
            assert w["verdict"] == "pass"


def test_congruences_integral_parameter():
    rep = verify_congruences(2, -2, 2)
    assert rep.verdict == "pass"
    by_claim = {w["claim"]: w for w in rep.witnesses}
    assert by_claim["lemma31"]["applicable"] is True
    assert by_claim["lemma31"]["verdict"] == "pass"
    assert by_claim["remark22"]["verdict"] == "pass"

    assert verify_congruences(2, -1, 1).verdict == "pass"


def test_congruences_half_skips_ideal_branch():
    rep = verify_congruences(2, Fraction(1, 2), 1)
    assert rep.verdict == "pass"
    by_claim = {w["claim"]: w for w in rep.witnesses}
    assert by_claim["lemma31"]["applicable"] is False
    assert "verdict" not in by_claim["lemma31"]
    assert by_claim["remark22"]["applicable"] is True


def test_congruences_unit_branch():
    rep = verify_congruences(2, Fraction(-1, 4), 1)
    by_claim = {w["claim"]: w for w in rep.witnesses}
    assert by_claim["eq4"]["applicable"] is True
    assert by_claim["eq4"]["verdict"] == "pass"
    cert = by_claim["eq4"]["certificate"]
    assert cert["element_minpoly"]["coeffs"] == ["-1", "2", "1"]


def test_congruences_parabolic_collision():
    rep = verify_congruences(2, Fraction(-3, 4), 2)
    assert rep.verdict == "parabolic_collision"
    assert rep.witnesses


def test_dynamical_units_examples():
    for n, c, h in [(2, -2, 2), (2, -1, 3), (2, 0, 2)]:
        rep = verify_dynamical_units(n, c, h)
        assert rep.verdict == "pass"
        for w in rep.witnesses:
            assert w["product_is_one"] is True
            assert all(w["phi_units"])


def test_galois_gleason_and_misiurewicz():
    rep = galois_experiment(2, "gleason", h=3)
    assert rep.verdict == "pass"
    w = rep.witnesses[0]
    assert w["factor_count"] == 1
    assert w["factors"][0]["coeffs"] == ["1", "1", "2", "1"]
    assert w["reading"] == "consistent with single-orbit conjecture"

    w = galois_experiment(2, "misiurewicz", t=1, h=2, tau=2).witnesses[0]
    assert (w["factor_count"], w["factors"][0]["coeffs"]) == (1, ["1", "0", "1"])

    w = galois_experiment(2, "misiurewicz", t=3, h=1, tau=2).witnesses[0]
    assert (w["factor_count"], w["degrees"]) == (1, [7])


def test_galois_parabolic_stratified():
    # the raw (4,1) polynomial carries the (1,4) and (2,2) strata too;
    # the experiment reports only the multiplier-1 stratum
    w = galois_experiment(2, "parabolic", h=4, m=1).witnesses[0]
    assert w["factor_count"] == 1
    assert w["factors"][0]["coeffs"] == ["135", "108", "144", "64"]

    w = galois_experiment(2, "parabolic", h=2, m=2).witnesses[0]
    assert (w["factor_count"], w["factors"][0]["coeffs"]) == (1, ["5", "4"])

    w = galois_experiment(2, "parabolic", h=3, m=1).witnesses[0]
    assert (w["factor_count"], w["factors"][0]["coeffs"]) == (1, ["7", "4"])


def test_galois_empty_stratum_reads_empty():
    # the period-2 multiplier-1 stratum of z^2 + c has no parameter at all
    rep = galois_experiment(2, "parabolic", h=2, m=1)
    assert rep.verdict == "pass"
    w = rep.witnesses[0]
    assert (w["factor_count"], w["degrees"], w["factors"]) == (0, [], [])
    assert w["reading"].startswith("empty stratum")


def test_galois_usage():
    assert galois_experiment(2, "gleason", h=1).verdict == "not_applicable"
    with pytest.raises(ValueError):
        galois_experiment(2, "misiurewicz", h=2)
    with pytest.raises(ValueError):
        galois_experiment(2, "parabolic", h=2)
    with pytest.raises(ValueError):
        galois_experiment(2, "frobnicate", h=2)


def test_report_serialization_deterministic():
    a = report_json(verify_thm_1_4(2, 2, 2))
    b = report_json(verify_thm_1_4(2, 2, 2))
    assert a == b
    assert '"elapsed_ms": 0' in a


def test_report_timings_opt_in():
    rep = VerificationReport("thm14", {"n": 2}, (), "pass", elapsed_ms=7)
    assert rep.to_json()["elapsed_ms"] == 0
    assert rep.to_json(timings=True)["elapsed_ms"] == 7


def test_sweep_thm14_small():
    reports = sweep_thm_1_4(ns=(2,), r_max=4)
    # one cell per (h, m) with h*m <= 4
    assert len(reports) == 8
    assert all(r.verdict == "pass" for r in reports)
    assert sweep_verdict(reports) == "pass"


def test_sweep_thm31_small():
    reports = sweep_thm_3_1(ns=(2,), sum_max=3, gleason_h_max=3)
    cells = {(r.cell["t"], r.cell["h"]) for r in reports}
    assert cells == {(0, 2), (0, 3), (1, 1), (1, 2), (2, 1)}
    assert all(r.verdict == "pass" for r in reports)


def test_sweep_caps_mark_incomplete_not_fail():
    reports = sweep_thm_1_4(ns=(3,), r_max=4, degree_cap=10)
    verdicts = {r.cell["h"]: r.verdict for r in reports if r.cell["m"] == 1}
    assert verdicts[1] == "pass" and verdicts[2] == "pass"
    assert verdicts[3] == "incomplete" and verdicts[4] == "incomplete"
    skipped = [r for r in reports if r.verdict == "incomplete"]
    assert all("cap" in r.witnesses[0]["reason"] for r in skipped)
    assert sweep_verdict(reports) == "pass"


def test_verdict_vocabulary():
    reports = [
        verify_thm_1_4(2, 1, 1),
        verify_thm_3_1(2, 0, 1),
        verify_congruences(2, Fraction(-3, 4), 1),
        verify_monic_structure(2, 2),
    ]
    assert all(r.verdict in VERDICTS for r in reports)
