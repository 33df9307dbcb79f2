"""Acceptance gate: one test per release criterion, one pass/fail line each
under pytest -v.

Each criterion is exercised end to end at the stated scale and tolerance;
wall-clock budgets are asserted where the criterion states one.
"""

import random
import time
from fractions import Fraction

import mpmath as mp

from unicrit.cli import DEFAULT_ANGLES, _build_candidate
from unicrit.dynmaps import (
    dynatomic,
    fixed_point_parabolic,
    iterate_map,
    misiurewicz_poly,
    parabolic_param_poly,
)
from unicrit.factorz import _norm_unchecked, factor
from unicrit.numfield import NumberField, RatPoly, norm_and_trace
from unicrit.polycore import BiPoly, IntPoly, product_equals, resultant_univariate
from unicrit.raytrace import Angle, land_and_match
from unicrit.verify import (
    sweep_thm_1_4,
    sweep_thm_3_1,
    sweep_verdict,
    verify_congruences,
    verify_dynamical_units,
)

# the five smallest strictly-preperiodic cells and their exact equations
# (coefficients ascending; degrees 1, 2, 3, 7, 12; |Norm| 2, 1, 2, 2, 1)
SMALL_MISIUREWICZ_CELLS = (
    ((1, 1), (2, 1)),
    ((1, 2), (1, 0, 1)),
    ((2, 1), (2, 2, 2, 1)),
    ((3, 1), (2, 2, 4, 6, 6, 6, 4, 1)),
    ((1, 4), (1, 0, 0, 2, 6, 8, 11, 18, 23, 22, 15, 6, 1)),
)


def test_criterion_1_misiurewicz_small_cells_exact():
    t0 = time.perf_counter()
    for (t, h), coeffs in SMALL_MISIUREWICZ_CELLS:
        assert misiurewicz_poly(2, t, h, 2).poly.coeffs == coeffs
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_misiurewicz_degrees_and_norms():
    degrees = []
    norms = []
    for (t, h), _ in SMALL_MISIUREWICZ_CELLS:
        p = misiurewicz_poly(2, t, h, 2).poly
        degrees.append(p.degree)
        assert p.is_monic
        norms.append(abs(p.constant))
    assert degrees == [1, 2, 3, 7, 12]
    assert norms == [2, 1, 2, 2, 1]


def test_criterion_3_parabolic_factor_norms():
    t0 = time.perf_counter()
    lin_12 = parabolic_param_poly(2, 1, 2, "b").poly
    lin_22 = parabolic_param_poly(2, 2, 2, "b").poly
    assert lin_12 == IntPoly((3, 1), "b")
    assert lin_22 == IntPoly((5, 1), "b")

    factors_31 = [p for p, _ in factor(parabolic_param_poly(2, 3, 1, "b").poly).factors]
    assert IntPoly((7, 1), "b") in factors_31
    assert IntPoly((7, 1, 1), "b") in factors_31

    cubic = IntPoly((135, 27, 9, 1), "b")
    factors_41 = [p for p, _ in factor(parabolic_param_poly(2, 4, 1, "b").poly).factors]
    assert cubic in factors_41

    assert _norm_unchecked(lin_12) == -3
    assert _norm_unchecked(lin_22) == -5
    assert _norm_unchecked(IntPoly((7, 1), "b")) == -7
    assert _norm_unchecked(IntPoly((7, 1, 1), "b")) == 7
    assert _norm_unchecked(cubic) in (135, -135)
    assert time.perf_counter() - t0 < 30.0


# factor each acceptance angle must select, ascending coefficients in c
EXPECTED_LANDING_FACTOR = {
    "1/3": (3, 4),
    "2/5": (5, 4),
    "3/7": (7, 4),
    "1/7": (7, 4, 16),
    "1/5": (135, 108, 144, 64),
    "1/2": (2, 1),
    "1/4": (2, 2, 2, 1),
    "1/6": (1, 0, 1),
}


def test_criterion_4_ray_landing_concordance():
    for text, specs in DEFAULT_ANGLES:
        cands = [_build_candidate(2, s) for s in specs]
        t0 = time.perf_counter()
        rep = land_and_match(2, Angle.parse(text), cands)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"ray {text} took {elapsed:.1f}s"
        assert rep.status == "matched", f"ray {text}: {rep.status}"
        assert rep.precision_bits == 256
        assert rep.match_distance < 1e-6
        assert rep.margin is None or rep.margin >= 10.0
        assert rep.matched_factor.coeffs == EXPECTED_LANDING_FACTOR[text]
    # orientation checks for the two landings off the real axis
    rep = land_and_match(2, Angle(1, 7), [_build_candidate(2, "parabolic:1,3")])
    assert mp.mpc(rep.landing).imag > 0
    rep = land_and_match(2, Angle(1, 6), [_build_candidate(2, "misiurewicz:1,2,2")])
    assert abs(mp.mpc(rep.landing) - 1j) < 1e-6


def test_criterion_5_norm_divisibility_sweep():
    reports = sweep_thm_1_4()  # n in {2,3,4}, all h*m <= 6
    assert sweep_verdict(reports) == "pass"
    assert len(reports) == 42
    incomplete = {
        (r.cell["n"], r.cell["h"], r.cell["m"])
        for r in reports
        if r.verdict == "incomplete"
    }
    # dynatomic degree cap (80) excludes exactly these cells; every
    # computed cell passes, zero divisibility violations
    assert incomplete == {(3, 5, 1), (3, 6, 1), (4, 4, 1), (4, 5, 1), (4, 6, 1)}
    assert all(r.verdict == "pass" for r in reports if r.verdict != "incomplete")


def test_criterion_6_norm_constraint_sweep():
    reports = sweep_thm_3_1()  # n in {2,3,4}, t+h <= 6, tau | n, gleason h <= 5
    assert sweep_verdict(reports) == "pass"
    assert all(r.verdict == "pass" for r in reports)  # complete, no caps
    gleason = [r for r in reports if r.cell["t"] == 0]
    mis = [r for r in reports if r.cell["t"] >= 1]
    assert len(gleason) == 12  # h in 2..5 per degree
    assert len(mis) == 60  # 15 (t,h) cells per (n, tau) pair


def test_criterion_7_fixed_point_parabolic_identities():
    for n in range(2, 7):
        assert fixed_point_parabolic(n, 1).poly == IntPoly(
            (-((n - 1) ** (n - 1)), 1), "bhat"
        )
        assert fixed_point_parabolic(n, 2).poly == IntPoly(
            ((n + 1) ** (n - 1), 1), "bhat"
        )
        # the m = 2 root -(n+1)^(n-1) divides the m = 1 norm bound base
        assert (n * n - 1) ** (n - 1) % ((n + 1) ** (n - 1)) == 0


def test_criterion_8_dynamical_units_and_congruences():
    for c in (-1, -2):
        for h in (2, 3, 4):
            rep = verify_dynamical_units(2, c, h)
            assert rep.verdict == "pass", (c, h)
            for w in rep.witnesses:
                assert w["product_is_one"] is True
                assert all(w["phi_units"])
        for h in (1, 2, 3, 4):
            rep = verify_congruences(2, c, h)
            assert rep.verdict == "pass", (c, h)
            assert all(
                w["verdict"] == "pass" for w in rep.witnesses if "verdict" in w
            )


def _divisors(h):
    return [d for d in range(1, h + 1) if h % d == 0]


def test_criterion_9_exact_property_suites():
    # dynatomic product identity: prod over d | h recovers the iterate
    for n in (2, 3):
        for h in range(1, 7):
            pieces = [dynatomic(n, d, "f_c") for d in _divisors(h)]
            target = iterate_map(n, h) - BiPoly.gen("z", "c", "z")
            assert product_equals(pieces, target), (n, h)

    rng = random.Random(90125)

    def rand_poly(max_deg, bound, var="x"):
        deg = rng.randint(1, max_deg)
        coeffs = [rng.randint(-bound, bound) for _ in range(deg)]
        coeffs.append(rng.choice([i for i in range(-bound, bound + 1) if i]))
        return IntPoly(tuple(coeffs), var)

    # resultant multiplicativity in the first argument, 100 random triples
    for _ in range(100):
        A, B, C = rand_poly(5, 9), rand_poly(5, 9), rand_poly(5, 9)
        assert resultant_univariate(A * B, C) == resultant_univariate(
            A, C
        ) * resultant_univariate(B, C)

    # factorization reassembly, 200 random polynomials of degree <= 20
    for _ in range(200):
        p = rand_poly(20, 50)
        assert factor(p).expand() == p

    # norm multiplicativity in fields of degree up to 8
    for d in range(2, 9):
        modulus = RatPoly(
            tuple(Fraction(v) for v in [-2] + [0] * (d - 1) + [1]), "x"
        )
        K = NumberField(modulus)
        for _ in range(5):
            x = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(d)])
            y = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(d)])
            nx, _ = norm_and_trace(x)
            ny, _ = norm_and_trace(y)
            nxy, _ = norm_and_trace(x * y)
            assert nxy == nx * ny
