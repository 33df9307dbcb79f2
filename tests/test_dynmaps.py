"""Tests for the polynomial families in unicrit.dynmaps."""

import random
import time
from fractions import Fraction

import mpmath
import pytest

from unicrit import dynmaps, numfield, polycore
from unicrit.dynmaps import (
    CriticalOrbitPoly,
    DegreeCapError,
    IteratePair,
    ParamPolynomial,
    SpecialCaseError,
    coord_transform,
    critical_orbit_poly,
    critical_value_poly,
    dynatomic,
    fixed_point_parabolic,
    gleason_poly,
    iterate_map,
    iterate_poly_gb,
    misiurewicz_poly,
    multiplier_poly,
    multiplier_resultant,
    parabolic_param_poly,
    periodicity_poly,
)
from unicrit.factorz import factor
from unicrit.numfield import NumberField, RatPoly
from unicrit.polycore import (
    _MEMO_SIZE,
    BiPoly,
    IntPoly,
    cyclotomic,
    product_equals,
    resultant,
    root_power_transform,
    root_scale_transform,
    squarefree_part,
)


def frac_iterate_gb(n, k, b, w):
    """Independent oracle: g_b^k(w) over exact Fractions."""
    x = Fraction(w)
    for _ in range(k):
        x = (x ** n + b) / n
    return x


def c_poly(*coeffs):
    return IntPoly(coeffs, "c")


# Reference builders: each family by its own recurrence, independent of the
# library's derivation of (b, w) from (c, z) and of c from chat.


def ref_iterate_gb(n, k):
    """(P_k, N_k) by P_1 = w^n + b, N_1 = n, P_{k+1} = P_k^n + N_k^n b and
    N_{k+1} = n N_k^n."""
    poly, denom = BiPoly(((0,) * n + (1,), (1,)), "b", "w"), n
    for _ in range(k - 1):
        poly, denom = poly ** n + BiPoly.gen("b", "b", "w") * denom ** n, n * denom ** n
    return poly, denom


def ref_dynatomic_gb(n, h):
    """prod over d | h of (P_d - N_d w)^mu(h/d), by exact division."""
    def term(d):
        poly, denom = ref_iterate_gb(n, d)
        return poly - BiPoly.gen("w", "b", "w") * denom

    divisors = [d for d in range(1, h + 1) if h % d == 0]
    num = BiPoly.const(1, "b", "w")
    for d in divisors:
        if polycore.moebius(h // d) == 1:
            num = num * term(d)
    for d in divisors:
        if polycore.moebius(h // d) == -1:
            num = num.divexact(term(d))
    return num


def ref_critical_value(n, k):
    """f^k(0) in c by a_1 = c, a_{j+1} = a_j^n + c."""
    a = IntPoly.gen("c")
    for _ in range(k - 1):
        a = a ** n + IntPoly.gen("c")
    return a


def ref_gleason_c(n, h):
    """f^h(0) with every factor shared with a lower f^h'(0), h' | h,
    divided out, made primitive."""
    D = ref_critical_value(n, h)
    for h2 in range(1, h):
        if h % h2 == 0:
            D = dynmaps._strip_factors(D, ref_critical_value(n, h2))
    return D.primitive_part()


# (n, largest index): iterates of degree 64 to 125
REFERENCE_RANGE = ((2, 6), (3, 4), (4, 3), (5, 3))


# ---------------------------------------------------------------------------
# iterates


def test_iterate_pair_base_case():
    for n in (2, 3, 5):
        pair = iterate_poly_gb(n, 1)
        assert pair.denom == n
        expect = BiPoly(((0,) * n + (1,), (1,)), "b", "w")
        assert pair.poly == expect


def test_iterate_pair_small_values():
    pair = iterate_poly_gb(2, 2)
    # (w^2+b)^2 + 4b
    w = BiPoly.gen("w", "b", "w")
    b = BiPoly.gen("b", "b", "w")
    assert pair.poly == (w * w + b) ** 2 + b * 4
    assert pair.denom == 8
    assert iterate_poly_gb(2, 3).denom == 128  # 2 * 8^2


def test_denominator_closed_form():
    for n in (2, 3, 4):
        for k in range(1, 5):
            expect = n ** sum(n ** i for i in range(k))
            assert iterate_poly_gb(n, k).denom == expect


def test_recursion_consistency_against_fraction_oracle():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for k in range(1, 5):
            pair = iterate_poly_gb(n, k)
            for _ in range(100 // 4):
                b = rng.randint(-9, 9)
                w = rng.randint(-9, 9)
                val = pair.poly.eval_point(b, w)
                assert Fraction(val, pair.denom) == frac_iterate_gb(n, k, b, w)


def test_monic_structure_both_variables():
    for n in (2, 3, 4):
        for k in range(1, 5):
            poly = iterate_poly_gb(n, k).poly
            assert poly.degree("w") == n ** k
            assert poly.degree("b") == n ** (k - 1)
            lead_w = poly.as_univariate_in("w")[-1]
            lead_b = poly.as_univariate_in("b")[-1]
            assert lead_w == IntPoly((1,), "b")
            assert lead_b.coeffs[-1] == 1


@pytest.mark.parametrize("n, kmax", REFERENCE_RANGE)
def test_gb_families_match_their_own_recurrences(n, kmax):
    # iterate_poly_gb, periodicity_poly and dynatomic(g_b) are the (c, z)
    # objects rescaled; each must equal the (b, w) recurrence it replaces
    w = BiPoly.gen("w", "b", "w")
    for k in range(1, kmax + 1):
        poly, denom = ref_iterate_gb(n, k)
        pair = iterate_poly_gb(n, k)
        assert (pair.poly, pair.denom) == (poly, denom)
        assert periodicity_poly(n, k) == poly - w * denom
        assert dynatomic(n, k, "g_b") == ref_dynatomic_gb(n, k)


@pytest.mark.parametrize("n, kmax", REFERENCE_RANGE)
def test_c_families_match_the_direct_orbit_of_zero(n, kmax):
    # critical_value_poly and gleason_poly(c) are the chat objects stretched;
    # each must equal f^h(0) built and stripped in c
    for k in range(1, kmax + 2):
        assert critical_value_poly(n, k) == ref_critical_value(n, k)
        assert gleason_poly(n, k, "c").poly == ref_gleason_c(n, k)


def test_periodicity_poly_examples():
    w = BiPoly.gen("w", "b", "w")
    b = BiPoly.gen("b", "b", "w")
    assert periodicity_poly(2, 1) == w * w + b - w * 2
    assert periodicity_poly(2, 2) == (w * w + b) ** 2 + b * 4 - w * 8
    p32 = periodicity_poly(3, 2)
    assert p32.degree("w") == 9
    assert p32.as_univariate_in("w")[-1] == IntPoly((1,), "b")
    assert p32.as_univariate_in("b")[-1].coeffs[-1] == 1


def test_iterate_map_matches_orbit_of_zero():
    # f^k(c, 0) equals the critical value polynomial in c
    for n in (2, 3):
        for k in range(1, 5):
            fk = iterate_map(n, k)
            assert fk.eval_at("z", 0) == critical_value_poly(n, k)


def test_degree_cap_enforced():
    with pytest.raises(DegreeCapError):
        iterate_map(2, 13)
    with pytest.raises(DegreeCapError):
        iterate_poly_gb(2, 20)
    with pytest.raises(DegreeCapError):
        dynatomic(3, 8)
    # the override flag both tightens and loosens the cap
    with pytest.raises(DegreeCapError):
        iterate_map(2, 6, degree_cap=32)
    assert iterate_map(2, 6, degree_cap=64).degree("z") == 64


def test_iterate_size_cap_refuses_before_any_work(monkeypatch):
    # degree 4096 is within the default cap, but f^12 of z^2 + c would hold
    # ~2^33 coefficient bits; every builder on that iterate refuses it
    # without touching the memo tables
    def refuse(*args):
        raise AssertionError("iterate built")

    for builder in ("_iterate_fc", "_dynatomic", "_multiplier", "_to_gb"):
        monkeypatch.setattr(dynmaps, builder, refuse)
    for build in (iterate_map, iterate_poly_gb, dynatomic, multiplier_poly,
                  multiplier_resultant, periodicity_poly):
        with pytest.raises(DegreeCapError, match="coefficient bits"):
            build(2, 12)
    with pytest.raises(DegreeCapError, match="coefficient bits"):
        parabolic_param_poly(2, 12, 1)
    for n, k in ((2, 11), (3, 7), (4, 6), (5, 5)):
        with pytest.raises(DegreeCapError):
            dynmaps._check_iterate_cap(n, k, dynmaps.DEFAULT_DEGREE_CAP)
    # the cap scales the size allowance: a larger cap admits f^11
    dynmaps._check_iterate_cap(2, 11, 8 * dynmaps.DEFAULT_DEGREE_CAP)
    for n, k in ((2, 10), (3, 6), (4, 5), (6, 4), (64, 2), (4096, 1)):
        dynmaps._check_iterate_cap(n, k, dynmaps.DEFAULT_DEGREE_CAP)


def test_validation_errors():
    with pytest.raises(ValueError):
        iterate_poly_gb(1, 3)
    with pytest.raises(ValueError):
        critical_orbit_poly(2, 0)
    with pytest.raises(ValueError):
        dynatomic(2, 2, form="nope")


# ---------------------------------------------------------------------------
# critical orbit


def test_critical_orbit_examples():
    assert critical_orbit_poly(2, 1).poly == IntPoly((1,), "chat")
    for n in (2, 3, 5):
        assert critical_orbit_poly(n, 2).poly == IntPoly((1, 1), "chat")
    assert critical_orbit_poly(2, 3).poly == IntPoly((1, 1, 2, 1), "chat")
    chat = IntPoly.gen("chat")
    assert critical_orbit_poly(3, 3).poly == chat * (chat + 1) ** 3 + 1


def test_critical_orbit_monic_constant_one():
    for n in (2, 3, 4):
        for k in range(2, 6):
            p = critical_orbit_poly(n, k).poly
            assert p.lc == 1
            assert p.coeff(0) == 1
            assert p.degree == (n ** (k - 1) - 1) // (n - 1)


def test_critical_value_identity():
    # f^k(0) = c * P_k(c^(n-1))
    for n in (2, 3, 4):
        for k in range(1, 5):
            lhs = critical_value_poly(n, k)
            pk = critical_orbit_poly(n, k).poly
            spread = [0] * (pk.degree * (n - 1) + 1)
            for i, a in enumerate(pk.coeffs):
                spread[i * (n - 1)] = a
            rhs = IntPoly.gen("c") * IntPoly(spread, "c")
            assert lhs == rhs


# ---------------------------------------------------------------------------
# dynatomic


def test_dynatomic_examples():
    z = BiPoly.gen("z", "c", "z")
    c = BiPoly.gen("c", "c", "z")
    assert dynatomic(2, 1) == z * z - z + c
    assert dynatomic(2, 2) == z * z + z + c + 1
    w = BiPoly.gen("w", "b", "w")
    b = BiPoly.gen("b", "b", "w")
    assert dynatomic(2, 2, "g_b") == w * w + w * 2 + b + 4


def test_dynatomic_gb_division_oracle():
    # multiply back: (P_1 - N_1 w) * Phi_2^g must equal P_2 - N_2 w
    phi = dynatomic(2, 2, "g_b")
    assert periodicity_poly(2, 1) * phi == periodicity_poly(2, 2)


def test_dynatomic_product_identity_fc():
    z = BiPoly.gen("z", "c", "z")
    for n, hmax in ((2, 6), (3, 4)):
        for h in range(1, hmax + 1):
            parts = [dynatomic(n, d) for d in range(1, h + 1) if h % d == 0]
            assert product_equals(parts, iterate_map(n, h) - z)


def test_dynatomic_product_identity_gb():
    for n, hmax in ((2, 4), (3, 3)):
        for h in range(1, hmax + 1):
            parts = [dynatomic(n, d, "g_b") for d in range(1, h + 1) if h % d == 0]
            assert product_equals(parts, periodicity_poly(n, h))


def test_dynatomic_degrees():
    # degree in z is nu(h) = sum_{d|h} mu(h/d) n^d
    table = {(2, 1): 2, (2, 2): 2, (2, 3): 6, (2, 4): 12, (3, 2): 6, (3, 3): 24}
    for (n, h), nu in table.items():
        assert dynatomic(n, h).degree("z") == nu


# ---------------------------------------------------------------------------
# multiplier


def test_multiplier_poly_is_iterate_derivative():
    for n, hmax in ((2, 4), (3, 3), (4, 2)):
        for h in range(1, hmax + 1):
            assert multiplier_poly(n, h) == iterate_map(n, h).derivative("z")


def test_multiplier_resultant_examples():
    mu = BiPoly.gen("mu", "c", "mu")
    c = BiPoly.gen("c", "c", "mu")
    assert multiplier_resultant(2, 1) == mu * mu - mu * 2 + c * 4
    assert multiplier_resultant(2, 2) == (mu - (c + 1) * 4) ** 2


def test_multiplier_resultant_at_mu_one():
    q = multiplier_resultant(2, 1)
    assert q.eval_at("mu", 1) == c_poly(-1, 4)  # 4c - 1, root c = 1/4


def test_multiplier_resultant_numeric_orbit_oracle():
    # sample c, find an exact-period-2 orbit numerically, compare multipliers
    q = multiplier_resultant(2, 2)
    mpmath.mp.prec = 100
    for cval in (Fraction(-3, 2), Fraction(-7, 4), Fraction(1, 3)):
        phi = [col(cval) for col in dynatomic(2, 2).as_univariate_in("z")]
        roots = mpmath.polyroots([mpmath.mpf(x.numerator) / x.denominator
                                  for x in reversed(phi)], maxsteps=80)
        z1 = roots[0]
        z2 = z1 ** 2 + mpmath.mpf(cval.numerator) / cval.denominator
        w_numeric = (2 * z1) * (2 * z2)
        vals = [col(cval) for col in q.as_univariate_in("mu")]
        residual = mpmath.polyval(
            [mpmath.mpf(v.numerator) / v.denominator for v in reversed(vals)],
            w_numeric,
        )
        assert abs(residual) < mpmath.mpf(2) ** -60


def test_multiplier_resultant_orbit_power_structure():
    # q is const * s^h where s collects one factor (mu - mu0) per orbit:
    # interpolate s from per-point squarefree parts, then certify exactly.
    for n, h in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        q = multiplier_resultant(n, h)
        dmu = q.degree("mu")
        dc = q.degree("c")
        assert dmu % h == 0
        cols_mu = q.as_univariate_in("mu")
        assert cols_mu[-1] == IntPoly((1,), "c")  # monic in mu
        # a run of consecutive points start, start + 1, ... where q is good
        start, per_point = 0, []
        x = 0
        while len(per_point) < dc + 1:
            qx = IntPoly(tuple(p(x) for p in cols_mu), "mu")
            sx = squarefree_part(qx)
            if sx.degree == dmu // h and sx.lc == 1:
                per_point.append(sx)
            else:
                start, per_point = x + 1, []
            x += 1
        from unicrit.polycore import _interpolate

        cols = [
            _interpolate(start, [s.coeff(j) for s in per_point], "c")
            for j in range(dmu // h + 1)
        ]
        s = BiPoly.from_univariate(cols, var="mu", outer="c", inner="mu")
        assert s ** h == q


def _multiplier_resultant_sylvester(n, h):
    """q(c, mu) interpolated at the generic Sylvester degree bound, on a run
    of points where neither leading coefficient in z vanishes."""
    from unicrit.polycore import _interpolate, _point_run

    phi = dynatomic(n, h)
    W = multiplier_poly(n, h)
    dmu = phi.degree("z")
    dbound = dmu * W.degree("c") + W.degree("z") * phi.degree("c")
    start = _point_run(
        phi.as_univariate_in("z")[-1], W.as_univariate_in("z")[-1], dbound + 1
    )
    vals = []
    for x in range(start, start + dbound + 1):
        A = BiPoly.from_inner_poly(phi.eval_at("c", x), outer="mu")
        B = BiPoly.gen("mu", "mu", "z") - BiPoly.from_inner_poly(
            W.eval_at("c", x), outer="mu"
        )
        vals.append(resultant(A, B, eliminate="z"))
    cols = [
        _interpolate(start, [v.coeff(j) for v in vals], "c")
        for j in range(dmu + 1)
    ]
    return BiPoly.from_univariate(cols, var="mu", outer="c", inner="mu")


def test_multiplier_resultant_at_the_proven_degree():
    # the degree _parabolic_bounds proves is the true c-degree of q, and q
    # agrees with the interpolation at the generic Sylvester bound
    for n, h in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)):
        dynmaps._multiplier_resultant.cache_clear()
        q = multiplier_resultant(n, h)
        dz = dynatomic(n, h).degree("z")
        assert q.degree("c") == dynmaps._parabolic_bounds(n, h, 1, dz)[0], (n, h)
        assert q == _multiplier_resultant_sylvester(n, h), (n, h)


# ---------------------------------------------------------------------------
# parabolic parameter polynomials


def test_parabolic_known_values_in_b():
    assert parabolic_param_poly(2, 1, 2, "b").poly == IntPoly((3, 1), "b")
    assert parabolic_param_poly(2, 1, 3, "b").poly == IntPoly((7, 1, 1), "b")
    assert parabolic_param_poly(2, 2, 2, "b").poly == IntPoly((5, 1), "b")


def test_parabolic_period_three_contains_known_factors():
    p31 = parabolic_param_poly(2, 3, 1, "b").poly
    assert p31 == IntPoly((7, 1), "b") * IntPoly((7, 1, 1), "b")


def test_parabolic_period_four_contains_cubic():
    p41 = parabolic_param_poly(2, 4, 1, "b").poly
    factors = {f.coeffs for f, _ in factor(p41).factors}
    assert (135, 27, 9, 1) in factors  # b^3 + 9b^2 + 27b + 135
    assert (5, 1) in factors  # merged-in period-2, multiplier -1 cell


def test_parabolic_matches_multiplier_resultant_route():
    for n, h, m in ((2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
        q = multiplier_resultant(n, h)
        psi = BiPoly.from_inner_poly(cyclotomic(m, "mu"), outer="c")
        via_q = squarefree_part(resultant(q, psi, eliminate="mu"))
        assert via_q == parabolic_param_poly(n, h, m, "c").poly


def _parabolic_inputs(n, h, m):
    phi = dynmaps._dynatomic(n, h)
    psi = cyclotomic(m)
    B = BiPoly.const(psi.coeff(psi.degree), "c", "z")
    for i in range(psi.degree - 1, -1, -1):
        B = B * dynmaps._multiplier(n, h) + psi.coeff(i)
    return phi.as_univariate_in("z"), B.as_univariate_in("z")


# cells whose exact resultant takes under 0.2 s by subresultant PRS, and
# (2, 5, 1) at 1.7 s: among them every cell the perfbench workloads reach,
# since each parabolic polynomial rests on the bounds
SMALL_PARABOLIC = [(2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 1, 3), (2, 2, 2), (3, 1, 2),
                   (3, 2, 1), (2, 4, 1), (3, 2, 2), (4, 2, 1), (2, 3, 2), (3, 3, 1),
                   (5, 2, 1), (2, 2, 3), (3, 1, 4), (2, 1, 2), (2, 1, 4), (2, 1, 5),
                   (3, 1, 1), (3, 1, 3), (3, 1, 5), (4, 1, 1), (4, 1, 2), (2, 5, 1)]


@pytest.mark.parametrize("n,h,m", SMALL_PARABOLIC)
def test_parabolic_bounds_cover_the_exact_resultant(n, h, m):
    # the dynamics' degree is the true degree (the growth rate of
    # |R(c)| is exactly D); the bit bound sits above the true height
    a_cols, b_cols = _parabolic_inputs(n, h, m)
    exact = polycore._resultant_points_bigint(a_cols, b_cols, "c")
    degree, bits = dynmaps._parabolic_bounds(n, h, m, len(a_cols) - 1)
    assert degree >= exact.degree
    assert degree == exact.degree
    assert bits >= exact.max_coeff_bits()


def test_parabolic_modular_route_takes_the_dynamics_bounds(monkeypatch):
    # every cell, the tiniest included, runs the modular loop once on the
    # dynamics' (D, H), and its polynomial is the exact route's
    calls = []
    modular = polycore._resultant_points_modular
    monkeypatch.setattr(polycore, "_resultant_points_modular",
                        lambda *args: calls.append(args[3:]) or modular(*args))
    for n, h, m in ((2, 1, 1), (2, 4, 1), (3, 3, 1), (2, 2, 3)):
        a_cols, b_cols = _parabolic_inputs(n, h, m)
        got = dynmaps._parabolic.__wrapped__(n, h, m)
        exact = polycore._resultant_points_bigint(a_cols, b_cols, "c")
        assert got == squarefree_part(exact)
        assert calls == [dynmaps._parabolic_bounds(n, h, m, len(a_cols) - 1)]
        calls.clear()


def test_parabolic_b_coordinate_for_cubic_map():
    # n = 3: polynomial satisfied by b, via bhat = b^2
    pb = parabolic_param_poly(3, 1, 1, "b")
    assert pb.poly == IntPoly((-4, 0, 1), "b")  # b^2 - 4, since bhat = 4
    bhat = parabolic_param_poly(3, 1, 1, "bhat")
    assert bhat.poly == IntPoly((-4, 1), "bhat")


def test_parabolic_provenance_and_coordinate_tags():
    pp = parabolic_param_poly(2, 2, 2, "b")
    assert pp.coordinate == "b"
    assert pp.poly.var == "b"
    assert pp.provenance == {"kind": "parabolic", "h": 2, "m": 2}


# ---------------------------------------------------------------------------
# gleason


def test_gleason_examples():
    assert gleason_poly(2, 1).poly == IntPoly((0, 1), "c")
    assert gleason_poly(2, 2).poly == c_poly(1, 1)
    assert gleason_poly(2, 3).poly == c_poly(1, 1, 2, 1)


def test_gleason_chat_route_consistent_with_c_route():
    for n in (2, 3):
        for h in (2, 3, 4):
            g_chat = gleason_poly(n, h, "chat").poly
            spread = [0] * (g_chat.degree * (n - 1) + 1)
            for i, a in enumerate(g_chat.coeffs):
                spread[i * (n - 1)] = a
            assert gleason_poly(n, h, "c").poly == IntPoly(spread, "c")


def test_gleason_chat_constant_term_unit():
    for n in (2, 3):
        for h in range(2, 6):
            p = gleason_poly(n, h, "chat").poly
            assert abs(p.coeff(0)) == 1
            assert p.lc == 1


def test_gleason_degree_counts_period_orbits():
    # degree of the c-coordinate output is sum_{d|h} mu(h/d) n^(d-1)
    assert gleason_poly(2, 4).degree == 6
    assert gleason_poly(2, 5).degree == 15
    assert gleason_poly(3, 4).degree == 24


def test_gleason_h1_special_case_in_power_coordinates():
    with pytest.raises(SpecialCaseError):
        gleason_poly(2, 1, "chat")
    with pytest.raises(SpecialCaseError):
        gleason_poly(3, 1, "bhat")


def test_gleason_product_reassembles_critical_value():
    # f^h(0) = prod over d | h of the exact-period-d pieces, up to content
    for n, h in ((2, 4), (2, 6), (3, 4)):
        parts = IntPoly((1,), "c")
        for d in range(1, h + 1):
            if h % d == 0:
                parts = parts * gleason_poly(n, d).poly
        assert parts == critical_value_poly(n, h)


# ---------------------------------------------------------------------------
# misiurewicz


def test_misiurewicz_known_equations():
    assert misiurewicz_poly(2, 1, 1, 2, "c").poly == c_poly(2, 1)
    assert misiurewicz_poly(2, 1, 2, 2, "c").poly == c_poly(1, 0, 1)
    assert misiurewicz_poly(2, 2, 1, 2, "c").poly == c_poly(2, 2, 2, 1)
    assert misiurewicz_poly(2, 3, 1, 2, "c").poly == c_poly(2, 2, 4, 6, 6, 6, 4, 1)
    assert misiurewicz_poly(2, 1, 4, 2, "c").poly == c_poly(
        1, 0, 0, 2, 6, 8, 11, 18, 23, 22, 15, 6, 1
    )


def test_misiurewicz_removal_strips_lower_cell():
    # raw (1,2) polynomial is (chat+2)(chat^2+1); the (1,1) factor must go
    raw = critical_orbit_poly(2, 3).poly + critical_orbit_poly(2, 1).poly
    assert raw == IntPoly((2, 1), "chat") * IntPoly((1, 0, 1), "chat")
    assert misiurewicz_poly(2, 1, 2, 2).poly == IntPoly((1, 0, 1), "chat")


def test_misiurewicz_raw_monic_with_constant_n_for_prime_n():
    for n, t, h in ((2, 1, 1), (2, 2, 2), (3, 1, 1), (3, 2, 1), (5, 1, 2)):
        psi = cyclotomic(n)
        A = critical_orbit_poly(n, t + h).poly
        B = critical_orbit_poly(n, t).poly
        S = IntPoly.zero("chat")
        for i in range(psi.degree + 1):
            S = S + A ** i * B ** (psi.degree - i) * psi.coeff(i)
        assert S.lc == 1
        assert S.coeff(0) == n


def test_misiurewicz_factor_norms_divide_n():
    cells = [(2, 1, 1, 2), (2, 1, 2, 2), (2, 2, 1, 2), (2, 3, 1, 2),
             (3, 1, 1, 3), (3, 1, 2, 3), (4, 1, 1, 2), (4, 1, 1, 4)]
    for n, t, h, tau in cells:
        out = misiurewicz_poly(n, t, h, tau).poly
        for f, _ in factor(out).factors:
            assert n % abs(f.coeff(0)) == 0  # |Norm(chat)| = |constant|, monic


def test_misiurewicz_composite_degree_tau_component():
    assert misiurewicz_poly(4, 1, 1, 4).poly == IntPoly((2, 2, 1), "chat")


def test_misiurewicz_rejects_bad_tau():
    for n, tau in ((2, 3), (3, 2), (4, 3), (2, 1)):
        with pytest.raises(ValueError):
            misiurewicz_poly(n, 1, 1, tau)


# ---------------------------------------------------------------------------
# coordinate transforms


def test_coord_transform_scale_examples():
    pp = ParamPolynomial(IntPoly((3, 4), "c"), "c", 2, {"kind": "other"})
    assert coord_transform(pp, "b").poly == IntPoly((3, 1), "b")
    pp = ParamPolynomial(IntPoly((1, 1), "chat"), "chat", 2, {"kind": "other"})
    assert coord_transform(pp, "bhat").poly == IntPoly((4, 1), "bhat")
    pp = ParamPolynomial(IntPoly((-4, 27), "chat"), "chat", 3, {"kind": "other"})
    assert coord_transform(pp, "bhat").poly == IntPoly((-4, 1), "bhat")


def test_coord_transform_power_collapses_symmetric_orbit():
    # roots {2, -2} fold onto chat = 4
    pp = ParamPolynomial(IntPoly((-4, 0, 1), "c"), "c", 3, {"kind": "other"})
    assert coord_transform(pp, "chat").poly == IntPoly((-4, 1), "chat")


def test_coord_transform_quadratic_roundtrip():
    pp = ParamPolynomial(IntPoly((3, 4), "c"), "c", 2, {"kind": "other"})
    back = coord_transform(coord_transform(pp, "b"), "c")
    assert back.poly == pp.poly


def test_coord_transform_moves_down_into_c_and_b():
    # chat = -1 comes down to c^2 = -1, and across to bhat = -27, b^2 = -27
    pp = ParamPolynomial(IntPoly((1, 1), "chat"), "chat", 3, {"kind": "other"})
    assert coord_transform(pp, "c").poly == IntPoly((1, 0, 1), "c")
    assert coord_transform(pp, "b").poly == IntPoly((27, 0, 1), "b")
    # c = -1 goes up to chat = 1, across to bhat = 27 and down to b^2 = 27
    pc = ParamPolynomial(IntPoly((1, 1), "c"), "c", 3, {"kind": "other"})
    assert coord_transform(pc, "b").poly == IntPoly((-27, 0, 1), "b")
    # the rotations of c = -1 come back with it
    assert coord_transform(coord_transform(pc, "b"), "c").poly == IntPoly((-1, 0, 1), "c")


def test_coord_transform_composed_path_consistent():
    pc = ParamPolynomial(IntPoly((-1, 0, 0, 27), "c"), "c", 4, {"kind": "other"})
    one_shot = coord_transform(pc, "bhat")
    via_chat = coord_transform(coord_transform(pc, "chat"), "bhat")
    assert one_shot.poly == via_chat.poly


# the directed step table coord_transform walked for n >= 3 before one rule
# (up, across, down) replaced it, and its n = 2 scaling branch: the reference
# every (src, dst) pair is checked against; c and b are reached from chat
# and bhat by _down
_REFERENCE_STEPS = {
    ("c", "chat"): ("power",),
    ("c", "bhat"): ("power", "scale_up"),
    ("b", "bhat"): ("power",),
    ("b", "chat"): ("power", "scale_down"),
    ("chat", "bhat"): ("scale_up",),
    ("bhat", "chat"): ("scale_down",),
}


def _down(p, n, var):
    # p at x = var^(n-1)
    return IntPoly([p.coeff(i // (n - 1)) if i % (n - 1) == 0 else 0
                    for i in range(p.degree * (n - 1) + 1)], var)


def _reference_transform(poly, n, src, dst):
    if n > 2 and dst in ("c", "b"):
        hat = dst + "hat"
        if src != hat:
            poly = _reference_transform(poly, n, src, hat)
        return _down(poly, n, dst).primitive_part()
    if n == 2:
        grp_src = 0 if src in ("c", "chat") else 1
        grp_dst = 0 if dst in ("c", "chat") else 1
        if grp_src < grp_dst:
            poly = root_scale_transform(poly, Fraction(4))
        elif grp_src > grp_dst:
            poly = root_scale_transform(poly, Fraction(1, 4))
    else:
        for step in _REFERENCE_STEPS[src, dst]:
            if step == "power":
                poly = squarefree_part(root_power_transform(poly, n - 1))
            elif step == "scale_up":
                poly = root_scale_transform(poly, Fraction(n ** n))
            else:
                poly = root_scale_transform(poly, Fraction(1, n ** n))
    return poly.rename(dst).primitive_part()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coord_transform_matches_the_step_table(n):
    for coeffs in ((3, -1, 2), (-5, 0, 1, 1), (-4, 0, 1)):
        for src in dynmaps.COORDINATES:
            p = ParamPolynomial(IntPoly(coeffs, src), src, n, {"kind": "other"})
            for dst in dynmaps.COORDINATES:
                if dst == src:
                    assert coord_transform(p, dst) is p
                else:
                    want = _reference_transform(p.poly, n, src, dst)
                    assert coord_transform(p, dst).poly == want, (src, dst)


def test_parabolic_b_and_gleason_c_go_down_by_x_to_the_n_minus_1():
    # b: the bhat polynomial at bhat = b^(n-1); c: the chat one at c^(n-1)
    for n in (2, 3, 4):
        assert parabolic_param_poly(n, 1, 2, "b").poly == _down(
            parabolic_param_poly(n, 1, 2, "bhat").poly, n, "b")
        assert gleason_poly(n, 3, "c").poly == _down(gleason_poly(n, 3, "chat").poly, n, "c")
        assert gleason_poly(n, 3, "b").poly == _down(gleason_poly(n, 3, "bhat").poly, n, "b")
        assert misiurewicz_poly(n, 1, 1, n, "c").poly == _down(
            misiurewicz_poly(n, 1, 1, n).poly, n, "c")


def _family_cells():
    for n in (3, 4, 5):
        for h in (2, 3):
            yield pytest.param(gleason_poly, (n, h, "chat"), id=f"gleason-{n},{h}")
        for tau in (tau for tau in range(2, n + 1) if n % tau == 0):
            for t in (1, 2):
                for h in (1, 2):
                    yield pytest.param(misiurewicz_poly, (n, t, h, tau),
                                       id=f"misiurewicz-{n},{t},{h},{tau}")
        for h, m in ((1, 1), (1, 2), (1, 3), (2, 1)):
            yield pytest.param(parabolic_param_poly, (n, h, m), id=f"parabolic-{n},{h},{m}")


@pytest.mark.parametrize("build, args", _family_cells())
def test_family_polynomials_round_trip_through_every_coordinate(build, args):
    # each family's locus is closed under c -> w c, w^(n-1) = 1, so its
    # polynomial comes back unchanged from every coordinate
    p = build(*args)
    for coordinate in dynmaps.COORDINATES:
        there = coord_transform(p, coordinate)
        assert there.coordinate == coordinate
        assert coord_transform(there, p.coordinate).poly == p.poly, coordinate


# ---------------------------------------------------------------------------
# fixed-point parabolic parameters


def test_fixed_point_parabolic_closed_forms():
    for n in (2, 3, 4, 5, 6):
        assert fixed_point_parabolic(n, 1).poly == IntPoly(
            (-((n - 1) ** (n - 1)), 1), "bhat"
        )
        assert fixed_point_parabolic(n, 2).poly == IntPoly(
            ((n + 1) ** (n - 1), 1), "bhat"
        )
    assert fixed_point_parabolic(2, 3).poly == IntPoly((7, 1, 1), "bhat")


def test_fixed_point_parabolic_refuses_past_the_cap(monkeypatch):
    # phi(4099) = 4098 is the output degree, past the default cap of 4096: the
    # call refuses before building Psi_m or eliminating anything
    def refuse(*args, **kwargs):
        raise AssertionError("work done past the cap")

    monkeypatch.setattr(dynmaps, "cyclotomic", refuse)
    monkeypatch.setattr(dynmaps, "resultant", refuse)
    start = time.perf_counter()
    with pytest.raises(DegreeCapError):
        fixed_point_parabolic(2, 4099)
    assert time.perf_counter() - start < 1


def test_huge_root_of_unity_order_is_refused_without_factoring(monkeypatch):
    # phi(m) >= sqrt(m/2) passes the cap once m > 2 cap^2, so no builder
    # needs phi(m), Psi_m or an elimination to refuse it
    def refuse(*args, **kwargs):
        raise AssertionError("work done past the cap")

    for name in ("cyclotomic", "resultant", "euler_phi"):
        monkeypatch.setattr(dynmaps, name, refuse)
    m = 2 * dynmaps.DEFAULT_DEGREE_CAP ** 2 + 1
    for build in (lambda: fixed_point_parabolic(2, m),
                  lambda: parabolic_param_poly(2, 1, m),
                  lambda: misiurewicz_poly(m, 1, 1, m)):
        with pytest.raises(DegreeCapError, match=r"sqrt\(m/2\)"):
            build()


def test_degree_cap_decides_from_exponents_as_from_the_degree():
    # the exponent shortcut refuses exactly what the exact degree does, and
    # a degree below 2^64 is still printed in decimal
    for cap in (0, 1, 4096, 2 ** 64, 2 ** 100):
        for base in (2, 3, 5, 2 ** 20):
            for k in range(1, 90):
                for geometric in (False, True):
                    for scale in (1, 6):
                        needed = scale * ((base ** k - 1) // (base - 1) if geometric
                                          else base ** k)
                        try:
                            dynmaps._check_cap(cap, base, k, geometric, scale)
                        except DegreeCapError as exc:
                            assert needed > cap
                            if needed < 2 ** 64:
                                assert exc.needed == needed
                        else:
                            assert needed <= cap
    with pytest.raises(DegreeCapError, match="needs degree 8192, which exceeds the cap 4096"):
        iterate_map(2, 13)
    # past 2^64 the degree is printed exactly, as a power
    for needed, args in (("3^3000000", (3, 3000000)),
                         ("2*(3^3000000 - 1)/2", (3, 3000000, True, 2))):
        with pytest.raises(DegreeCapError) as info:
            dynmaps._check_cap(4096, *args)
        assert info.value.needed == needed


def test_fixed_point_agrees_with_parabolic_elimination():
    for n in (2, 3, 4):
        for m in range(1, 7):
            assert (
                fixed_point_parabolic(n, m).poly
                == parabolic_param_poly(n, 1, m, "bhat").poly
            )


# ---------------------------------------------------------------------------
# ParamPolynomial plumbing


def test_param_polynomial_validation():
    with pytest.raises(ValueError):
        ParamPolynomial(IntPoly((2, 4), "c"), "c", 2, {})  # not primitive
    with pytest.raises(ValueError):
        ParamPolynomial(IntPoly((1, -1), "c"), "c", 2, {})  # negative lc
    with pytest.raises(ValueError):
        ParamPolynomial(IntPoly((1, 1), "x"), "c", 2, {})  # var mismatch
    with pytest.raises(ValueError):
        ParamPolynomial(IntPoly((1, 1), "c"), "q", 2, {})  # unknown coordinate


def test_param_polynomial_json_roundtrip():
    pp = misiurewicz_poly(2, 1, 2, 2, "c")
    obj = pp.to_json()
    assert obj["coordinate"] == "c"
    assert obj["n"] == 2
    assert obj["provenance"]["kind"] == "misiurewicz"
    assert obj["coeffs"] == ["1", "0", "1"]
    back = ParamPolynomial.from_json(obj)
    assert back == pp


def test_types_carry_their_indices():
    pair = iterate_poly_gb(3, 2)
    assert isinstance(pair, IteratePair) and pair.k == 2
    orb = critical_orbit_poly(3, 4)
    assert isinstance(orb, CriticalOrbitPoly) and (orb.k, orb.n) == (4, 3)


# ---------------------------------------------------------------------------
# memo tables

MEMO_BUILDERS = [
    dynmaps._iterate_fc, dynmaps._orbit, dynmaps._dynatomic, dynmaps._multiplier,
    dynmaps._multiplier_resultant, dynmaps._gleason, dynmaps._misiurewicz_raw,
    dynmaps._misiurewicz, dynmaps._parabolic, numfield._char_poly,
    polycore._cyclotomic_coeffs,
]
GAUSS = NumberField(RatPoly((1, 0, 1)))  # x^2 + 1
CHAT = IntPoly.gen("chat")
PRIMES = [q for q in range(2, 8000) if all(q % d for d in range(2, int(q ** 0.5) + 1))]


def test_every_memo_table_has_the_one_bound():
    assert {b.cache_info().maxsize for b in MEMO_BUILDERS} == {_MEMO_SIZE}
    # and MEMO_BUILDERS names every memo table of the exact layers
    tables = {f for module in (dynmaps, numfield, polycore)
              for f in vars(module).values() if hasattr(f, "cache_info")}
    assert tables == set(MEMO_BUILDERS)


@pytest.mark.parametrize("builder, key, expect", [
    # P_3 = chat (chat + 1)^n + 1; each key also fills (n, 2)
    (dynmaps._orbit, lambda i: (i + 2, 3), lambda i: CHAT * (CHAT + 1) ** (i + 2) + 1),
    # the characteristic polynomial of i + sqrt(-1) is y^2 - 2i y + i^2 + 1
    (numfield._char_poly, lambda i: (GAUSS.element((i, 1)),),
     lambda i: RatPoly((i * i + 1, -2 * i, 1), "y")),
    # a prime is no other key's divisor, so its entry ages out; Phi_q is
    # 1 + x + ... + x^(q-1)
    (polycore._cyclotomic_coeffs, lambda i: (PRIMES[i],), lambda i: (1,) * PRIMES[i]),
])
def test_memo_table_stays_bounded(builder, key, expect):
    count = _MEMO_SIZE + 40
    got = [builder(*key(i)) for i in range(count)]
    assert builder.cache_info().currsize <= _MEMO_SIZE
    misses = builder.cache_info().misses
    again = [builder(*key(i)) for i in range(40)]  # the oldest keys, evicted
    assert builder.cache_info().misses > misses
    assert builder.cache_info().currsize <= _MEMO_SIZE
    assert again == got[:40]
    assert got == [expect(i) for i in range(count)]
