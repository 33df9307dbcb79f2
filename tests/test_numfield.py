"""Tests for number field arithmetic and integrality certificates."""

import random
from fractions import Fraction

import pytest

from unicrit import numfield, polycore
from unicrit.numfield import (
    FieldElement,
    NumberField,
    ParabolicCollisionError,
    RatPoly,
    _char_poly,
    is_algebraic_integer,
    is_unit,
    minimal_polynomial,
    norm_and_trace,
    periodic_orbit_in_field,
    prime_to_n_test,
)
from unicrit.polycore import IntPoly


def rat(*coeffs, var="x"):
    return RatPoly(tuple(Fraction(c) for c in coeffs), var)


def fracs(*values):
    return tuple(Fraction(v) for v in values)


GAUSS = NumberField(rat(1, 0, 1))            # x^2 + 1
QUARTIC = NumberField(rat(1, 1, 0, 0, 1))    # x^4 + x + 1
GOLDEN = NumberField(rat(-1, -1, 1, var="z"))
RATIONALS = NumberField(rat(0, 1))           # Q[x]/(x)


def test_ratpoly_basics():
    p = rat(1, 0, Fraction(1, 2))
    assert p.degree == 2
    assert not p.is_monic
    assert not p.is_integral
    assert p.cleared() == IntPoly((2, 0, 1), "x")
    assert rat(3, 1).to_intpoly() == IntPoly((3, 1), "x")
    assert list(p.to_json().items()) == [("var", "x"), ("coeffs", ["1", "0", "1/2"])]
    assert RatPoly.from_json(p.to_json()) == p
    with pytest.raises(ValueError):
        p.to_intpoly()
    # trailing zero coefficients are stripped
    assert rat(1, 1, 0).degree == 1


def test_field_validation():
    with pytest.raises(ValueError):
        NumberField(rat(1, 0, 2))        # not monic
    with pytest.raises(ValueError):
        NumberField(rat(-1, 0, 1))       # x^2 - 1 reducible
    with pytest.raises(ValueError):
        NumberField(rat(5))              # degree 0


def test_element_validation():
    with pytest.raises(ValueError):
        FieldElement(GAUSS, fracs(1))    # wrong length
    with pytest.raises(ValueError):
        GAUSS.element((1, 2, 3))         # too many coordinates
    assert GAUSS.element((7,)).coords == fracs(7, 0)
    with pytest.raises(ValueError):
        GAUSS.generator() + GOLDEN.generator()
    with pytest.raises(TypeError):
        GAUSS.from_rational(0.5)


def test_element_arithmetic():
    x = GAUSS.generator()
    assert (x * x).coords == fracs(-1, 0)
    assert (x ** 3).coords == fracs(0, -1)
    assert ((x + 1) * (x - 1)).coords == fracs(-2, 0)
    assert (2 - x).coords == fracs(2, -1)
    assert ((x + 1) / 2).coords == (Fraction(1, 2), Fraction(1, 2))
    assert GAUSS.from_rational(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert x ** 0 == GAUSS.one()
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(TypeError):
        x / x
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_product_matches_the_reference_reduction():
    # monic moduli whose cleared forms 6x^3 + 3x + 2 and 10x^4 - 5x^2 + 2x + 5
    # have lc > 1; products of full-degree elements reach degree 2d - 2 >= d + 1,
    # so their pseudo-remainders carry lc^k with k up to d - 1
    rng = random.Random(99)
    fields = (
        NumberField(rat(Fraction(1, 3), Fraction(1, 2), 0, 1)),
        NumberField(rat(Fraction(1, 2), Fraction(1, 5), Fraction(-1, 2), 0, 1)),
        GOLDEN,
        RATIONALS,
    )
    for field in fields:
        d = field.degree
        for _ in range(15):
            a, b = (
                field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d - 1)]
                              + [Fraction(rng.randint(1, 9), rng.randint(1, 6))])
                for _ in range(2)
            )
            conv = [Fraction(0)] * (2 * d - 1)
            for i, u in enumerate(a.coords):
                for j, v in enumerate(b.coords):
                    conv[i + j] += u * v
            assert (a * b).coords == _reduce_coords(conv, field.modulus)
            assert (a * 3).coords == tuple(3 * c for c in a.coords)


def test_minimal_polynomial_examples():
    x = GAUSS.generator()
    assert minimal_polynomial(x).coeffs == fracs(1, 0, 1)
    assert minimal_polynomial(x + 1).coeffs == fracs(2, -2, 1)
    # a rational element has a linear minimal polynomial in any field
    assert minimal_polynomial(GAUSS.from_rational(5)).coeffs == fracs(-5, 1)
    assert minimal_polynomial(RATIONALS.from_rational(5)).coeffs == fracs(-5, 1)


def test_minimal_polynomial_annihilates():
    rng = random.Random(7)
    for _ in range(20):
        e = QUARTIC.element(
            [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2))) for _ in range(4)]
        )
        mp = minimal_polynomial(e)
        assert 4 % mp.degree == 0
        assert mp.is_monic
        val = QUARTIC.zero()
        for c in reversed(mp.coeffs):
            val = val * e + c
        assert val == QUARTIC.zero()


def _reduce_coords(conv, modulus):
    """Reference reduction of a raw convolution modulo the monic modulus,
    coefficient by coefficient over Q."""
    d = modulus.degree
    rem = list(conv)
    for i in range(len(rem) - 1, d - 1, -1):
        q = rem[i]
        if q:
            for j in range(d):
                rem[i - d + j] -= q * modulus.coeffs[j]
        rem[i] = Fraction(0)
    rem = rem[:d]
    rem += [Fraction(0)] * (d - len(rem))
    return tuple(rem)


def faddeev_leverrier(e):
    """Reference characteristic polynomial: Faddeev-LeVerrier on the
    rational matrix of multiplication by e in the power basis."""
    d = e.field.degree
    cols, v = [], list(e.coords)
    for _ in range(d):
        cols.append(tuple(v))
        v = list(_reduce_coords([Fraction(0)] + v, e.field.modulus))
    m = [[cols[j][i] for j in range(d)] for i in range(d)]
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = Fraction(1)
    a = [row[:] for row in m]
    coeffs[d - 1] = -sum(a[i][i] for i in range(d))
    for k in range(2, d + 1):
        for i in range(d):
            a[i][i] += coeffs[d - k + 1]
        a = [
            [sum(m[i][t] * a[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)
        ]
        coeffs[d - k] = -sum(a[i][i] for i in range(d)) / k
    return RatPoly(tuple(coeffs), "y")


def test_char_poly_matches_faddeev_leverrier():
    rng = random.Random(2024)
    pure = [NumberField(rat(-2, *[0] * (d - 1), 1)) for d in range(1, 9)]  # x^d - 2
    # monic with non-integral coefficients: 6x^2 - 3x + 2 has no rational root
    skew = NumberField(rat(Fraction(1, 3), Fraction(-1, 2), 1))
    for field in (GAUSS, QUARTIC, GOLDEN, RATIONALS, *pure, skew):
        d = field.degree
        elements = [field.zero(), field.one(), field.from_rational(Fraction(-7, 3))]
        for top in range(d):
            for _ in range(4):
                # coordinates past `top` are zero; top = 0 is a rational element
                elements.append(field.element(
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(top + 1)]
                ))
        for e in elements:
            assert _char_poly(e) == faddeev_leverrier(e), (field.modulus, e.coords)


def test_char_poly_stays_exact_past_degree_64(monkeypatch):
    # degree 67: the characteristic polynomial passes no bounds to
    # resultant(), so it takes the exact subresultant route at every degree
    def refuse(*args, **kwargs):
        raise AssertionError("characteristic polynomial took the modular route")

    monkeypatch.setattr(polycore, "_resultant_points_modular", refuse)
    field = NumberField(rat(-2, *[0] * 66, 1))  # Q(2^(1/67))
    assert norm_and_trace(field.generator() + 1) == (3, 67)


def test_integrality_examples():
    half = (GAUSS.generator() + 1) / 2
    cert = is_algebraic_integer(half)
    assert not cert.is_integer
    assert not cert.is_unit
    assert cert.min_poly.coeffs == (Fraction(1, 2), Fraction(-1), Fraction(1))

    k7 = NumberField(rat(7, 1, 1))
    cert = is_algebraic_integer(k7.generator())
    assert cert.is_integer
    assert cert.norm == 7
    assert not cert.is_unit

    cert = is_algebraic_integer(RATIONALS.from_rational(3))
    assert cert.is_integer and cert.norm == 3


def test_norm_and_trace_examples():
    k7 = NumberField(rat(7, 1, 1))
    assert norm_and_trace(k7.generator()) == (7, -1)
    for field in (GAUSS, QUARTIC):
        assert norm_and_trace(field.one()) == (1, field.degree)


def test_norm_multiplicative_trace_additive():
    octic = NumberField(rat(1, 1, 0, 1, 1, 0, 0, 0, 1))  # irreducible mod 2
    rng = random.Random(11)
    for field in (GAUSS, QUARTIC, octic):
        d = field.degree
        for _ in range(100):
            e1 = field.element([rng.randint(-3, 3) for _ in range(d)])
            e2 = field.element([rng.randint(-3, 3) for _ in range(d)])
            n1, t1 = norm_and_trace(e1)
            n2, t2 = norm_and_trace(e2)
            np_, _ = norm_and_trace(e1 * e2)
            _, ts = norm_and_trace(e1 + e2)
            assert np_ == n1 * n2
            assert ts == t1 + t2


def test_integers_closed_under_ring_ops():
    rng = random.Random(3)
    for _ in range(15):
        e1 = QUARTIC.element([rng.randint(-3, 3) for _ in range(4)])
        e2 = QUARTIC.element([rng.randint(-3, 3) for _ in range(4)])
        assert is_algebraic_integer(e1).is_integer
        assert is_algebraic_integer(e1 + e2).is_integer
        assert is_algebraic_integer(e1 * e2).is_integer


def test_unit_examples():
    assert is_unit(GOLDEN.generator())
    assert not is_unit(GAUSS.from_rational(2))
    chat = NumberField(rat(1, 0, 1, var="chat"))
    assert is_unit(chat.generator())


def test_orbit_examples():
    orbits = periodic_orbit_in_field(2, -2, 2)
    assert len(orbits) == 1
    ob = orbits[0]
    assert ob.field.modulus.coeffs == fracs(-1, 1, 1)
    z = ob.field.generator()
    assert ob.points == (z, -z - 1)
    assert ob.multiplier == ob.field.from_rational(-4)

    orbits = periodic_orbit_in_field(2, 0, 1)
    data = sorted((ob.points[0].coords[0], ob.multiplier.coords[0]) for ob in orbits)
    assert data == [(0, 0), (1, 2)]

    orbits = periodic_orbit_in_field(2, -1, 1)
    assert orbits[0].field.modulus.coeffs == fracs(-1, -1, 1)
    assert orbits[0].multiplier.coords == fracs(0, 2)


def test_orbit_closure_check_survives_without_assert(monkeypatch):
    # an orbit of Phi_3 does not close after 2 steps; the check must raise,
    # also under python -O
    real = numfield.dynatomic
    monkeypatch.setattr(numfield, "dynatomic", lambda n, h: real(n, h + 1))
    with pytest.raises(ArithmeticError, match="close"):
        periodic_orbit_in_field(2, -1, 2)


def test_parabolic_collisions_detected():
    with pytest.raises(ParabolicCollisionError):
        periodic_orbit_in_field(2, Fraction(-3, 4), 2)
    with pytest.raises(ParabolicCollisionError):
        periodic_orbit_in_field(2, Fraction(1, 4), 1)


def test_orbits_close_exactly():
    for n in (2, 3):
        for c in (-2, -1, 0, 1):
            for h in (1, 2, 3):
                for ob in periodic_orbit_in_field(n, c, h):
                    pts = ob.points
                    assert len(pts) == h
                    for j in range(h):
                        assert pts[j] ** n + c == pts[(j + 1) % h]
                    expected = ob.field.one() * Fraction(n) ** h
                    for z in pts:
                        expected = expected * z ** (n - 1)
                    assert ob.multiplier == expected


def test_prime_to_n_examples():
    assert prime_to_n_test(IntPoly((7, 1, 1), "b"), 2)
    assert not prime_to_n_test(IntPoly((-2, 1), "y"), 2)
    assert not prime_to_n_test(IntPoly((0, 1), "y"), 2)   # the zero element
    assert prime_to_n_test(rat(7, 1, 1), 3)
    with pytest.raises(ValueError):
        prime_to_n_test(IntPoly((1, 2), "y"), 2)           # not monic
    with pytest.raises(ValueError):
        prime_to_n_test(IntPoly((5,), "y"), 2)             # degree 0


def test_prime_to_n_orbit_consistency():
    # for one orbit the scaled point 2z, the multiplier, and the conjugate
    # parameters are all coprime to n together or not at all
    def verdicts(c):
        out = []
        for ob in periodic_orbit_in_field(2, c, 2 if c == -2 else 1):
            w = ob.points[0] * 2
            for value in (w, ob.multiplier):
                out.append(prime_to_n_test(minimal_polynomial(value), 2))
            b = 4 * Fraction(c)
            out.append(prime_to_n_test(IntPoly((int(-b), 1), "b"), 2))
        return out

    assert verdicts(-2) == [False, False, False]
    assert verdicts(Fraction(-1, 4)) == [True, True, True]


def test_certificate_json_shape():
    cert = is_algebraic_integer(GOLDEN.generator())
    obj = cert.to_json(context={"role": "demo"})
    assert sorted(obj) == ["context", "element_minpoly", "is_integer", "is_unit", "norm"]
    assert obj["is_integer"] is True
    assert obj["is_unit"] is True
    assert obj["norm"] == "-1"
    assert obj["element_minpoly"] == {"var": "y", "coeffs": ["-1", "-1", "1"]}
    assert obj["context"] == {"role": "demo"}
    assert RatPoly.from_json(obj["element_minpoly"]) == cert.min_poly


def test_float_inputs_rejected():
    with pytest.raises(TypeError):
        periodic_orbit_in_field(2, 0.5, 1)
    with pytest.raises(TypeError):
        RatPoly((0.5,))
