"""Verification reports: witness content, verdicts, sweeps, determinism."""

import sys
from fractions import Fraction

import pytest

from unicrit import cli, verify
from unicrit.dynmaps import DegreeCapError, SpecialCaseError
from unicrit.numfield import ParabolicCollisionError, is_unit, periodic_orbit_in_field
from unicrit.verify import (
    VerificationReport,
    galois_experiment,
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


def report_json(report):
    """The document the CLI prints for a report."""
    return cli._dumps(report.to_json())


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


def orbit_congruences(n, c, h):
    """Each orbit of exact period h with its lemma31, remark22 and eq4
    witnesses from verify_congruences, which come in orbit order."""
    rep = verify_congruences(n, c, h)
    orbits = periodic_orbit_in_field(n, c, h)
    assert len(rep.witnesses) == 3 * len(orbits)
    out = []
    for i, orbit in enumerate(orbits):
        triple = rep.witnesses[3 * i:3 * i + 3]
        assert [w["claim"] for w in triple] == ["lemma31", "remark22", "eq4"]
        assert all(w["orbit_modulus"] == orbit.field.modulus.to_json() for w in triple)
        out.append((orbit, *triple))
    return out


def minpoly(witness):
    return witness["certificate"]["element_minpoly"]["coeffs"]


def test_congruence_examples():
    ((orbit, lemma, power, unit),) = orbit_congruences(2, -2, 2)
    assert minpoly(lemma) == ["1", "1"]          # mu / 4 = -1
    assert lemma["certificate"]["is_integer"] and lemma["certificate"]["is_unit"]
    assert minpoly(power) == ["24", "1"]          # (mu^2 - 16) / 2 = -24
    assert power["certificate"]["is_integer"]
    assert unit["applicable"] is False

    ((orbit, lemma, _, _),) = orbit_congruences(2, -1, 1)
    assert orbit.multiplier / 2 == orbit.field.generator()
    assert minpoly(lemma) == ["-1", "-1", "1"]
    assert lemma["certificate"]["is_unit"]

    triples = orbit_congruences(2, 0, 1)
    assert len(triples) == 2
    for orbit, lemma, _, unit in triples:
        assert lemma["certificate"]["is_integer"]
        if orbit.multiplier == orbit.field.zero():
            assert minpoly(lemma) == ["0", "1"]
            assert unit["applicable"] is False


def test_congruence_unit_branch_applicable():
    # c = -1/4 gives a fixed point with unit multiplier 2z
    ((orbit, lemma, _, unit),) = orbit_congruences(2, Fraction(-1, 4), 1)
    assert lemma["applicable"] is False           # parameter not integral
    assert is_unit(orbit.multiplier)
    assert unit["applicable"] is True
    assert unit["certificate"]["is_integer"]
    assert minpoly(unit) == ["-1", "2", "1"]


def test_multiplier_divisibility_small_parameters():
    # mu lands in n^h times the algebraic integers at integer parameters
    for c in (-2, -1):
        for h in (1, 2, 3, 4):
            for _, lemma, power, _ in orbit_congruences(2, c, h):
                assert lemma["applicable"] is True
                assert lemma["certificate"]["is_integer"], (c, h)
                assert power["certificate"]["is_integer"], (c, h)


def test_unit_report_examples():
    (orbit,) = periodic_orbit_in_field(2, -2, 2)
    z0, z1 = orbit.points
    minus_one = orbit.field.from_rational(-1)
    assert verify._phi_pair(z0, z1, 2) == verify._phi_pair(z1, z0, 2) == minus_one
    (w,) = verify_dynamical_units(2, -2, 2).witnesses
    assert w["product_is_one"] is True
    assert w["phi_units"] == [True, True]

    for w in verify_dynamical_units(2, 0, 2).witnesses:
        assert w["product_is_one"] is True
        assert w["phi_units"] and all(w["phi_units"])

    with pytest.raises(ValueError):
        verify_dynamical_units(2, -1, 1)


def test_unit_product_identity_sweep():
    # the cyclic product of difference quotients is exactly 1 on every
    # orbit, and at integer c every quotient is certified a unit
    ran = 0
    for n in (2, 3):
        for h in (2, 3, 4):
            for c in (-2, -1, 0, 1):
                rep = verify_dynamical_units(n, c, h)
                if rep.verdict == "parabolic_collision":
                    continue
                assert rep.witnesses, (n, c, h)
                for w in rep.witnesses:
                    assert w["product_is_one"] is True, (n, c, h)
                    assert len(w["phi_units"]) == h, (n, c, h)
                    assert all(w["phi_units"]), (n, c, h)
                ran += 1
    assert ran == 24


@pytest.mark.parametrize("claim", [verify_congruences, verify_dynamical_units])
def test_orbit_claims_refuse_float_parameters(monkeypatch, claim):
    # a float is refused before any work; int, Fraction and string agree
    def refuse(*args):
        raise AssertionError("orbit built for a float parameter")

    with monkeypatch.context() as patch:
        patch.setattr(verify, "periodic_orbit_in_field", refuse)
        with pytest.raises(TypeError):
            claim(2, 0.1, 2)
    docs = {report_json(claim(2, c, 2)) for c in (-2, Fraction(-2), "-2")}
    assert len(docs) == 1
    rep = claim(2, -2, 2)
    assert rep.cell["parameter"] == "-2"
    assert rep.verdict == "pass"


CAP = DegreeCapError(8192, 4096)
SKIPPED = {"skipped": True, "reason": "construction needs degree 8192, which exceeds the cap 4096"}
MONIC_NOTE = {"note": verify.SCOPE_NOTE_MONIC}


@pytest.mark.parametrize("builder, call, before", [
    ("parabolic_param_poly", lambda: verify_thm_1_4(2, 1, 3), []),
    ("misiurewicz_poly", lambda: verify_thm_3_1(2, 1, 2, 2), []),
    ("gleason_poly", lambda: verify_thm_3_1(2, 0, 3), []),
    ("iterate_poly_gb", lambda: verify_monic_structure(2, 2), [MONIC_NOTE]),
    ("periodic_orbit_in_field", lambda: verify_congruences(2, -2, 2), []),
    ("periodic_orbit_in_field", lambda: verify_dynamical_units(2, -2, 2), []),
    ("gleason_poly", lambda: galois_experiment(2, "gleason", h=3), []),
])
@pytest.mark.parametrize("exc, verdict", [
    (CAP, "incomplete"),
    (SpecialCaseError("degenerate"), "not_applicable"),
    (ParabolicCollisionError("collision"), "parabolic_collision"),
])
def test_report_routes_each_exception(monkeypatch, builder, call, before, exc, verdict):
    # a cap keeps the witnesses produced so far and appends a skipped one;
    # a routing exception replaces them all with one note
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(verify, builder, raising)
    rep = call()
    assert rep.verdict == verdict
    if exc is CAP:
        assert list(rep.witnesses) == before + [SKIPPED]
    else:
        assert list(rep.witnesses) == [{"note": str(exc)}]


def test_report_keeps_the_witnesses_before_a_cap(monkeypatch):
    real = verify.parabolic_param_poly

    def capped_bhat(n, h, m, coordinate):
        if coordinate == "bhat":
            raise CAP
        return real(n, h, m, coordinate)

    monkeypatch.setattr(verify, "parabolic_param_poly", capped_bhat)
    rep = verify_thm_1_4(2, 1, 3)
    assert rep.verdict == "incomplete"
    *b_witnesses, last = rep.witnesses
    assert b_witnesses and all(w["coordinate"] == "b" for w in b_witnesses)
    assert last == SKIPPED


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


def test_thm14_sweep_skips_cells_past_the_elimination_bound(monkeypatch):
    # a cell whose elimination degree D = nu(h) h (n-1) phi(m) / n passes
    # 4 * cap is reported incomplete and never built
    built = []

    def record(n, h, m):
        built.append((n, h, m))
        return VerificationReport("thm14", {"n": n, "h": h, "m": m}, (), "pass", 0)

    monkeypatch.setattr(verify, "verify_thm_1_4", record)
    reports = sweep_thm_1_4(ns=(2,), r_max=42)
    by_cell = {(r.cell["n"], r.cell["h"], r.cell["m"]): r for r in reports}
    for cell, D in (((2, 6, 5), 648), ((2, 6, 7), 972)):
        assert cell not in built
        assert by_cell[cell].verdict == "incomplete"
        reason = f"elimination degree {D} exceeds 4 * cap = 320"
        assert by_cell[cell].witnesses == ({"skipped": True, "reason": reason},)
    assert (2, 6, 2) in built


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


def test_library_callers_lift_the_digit_limit_themselves():
    # the bound (2^199 - 1)^d of a factor of the (2, 1, 199) cell passes
    # 4,300 digits; cli.main lifts Python's int-to-str limit for its
    # process, the library leaves it to the caller (the caller's limit is
    # restored here)
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError, match="4300 digits"):
            verify_thm_1_4(2, 1, 199)
        sys.set_int_max_str_digits(0)
        assert verify_thm_1_4(2, 1, 199).verdict == "pass"
    finally:
        sys.set_int_max_str_digits(limit)
