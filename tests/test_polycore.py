"""Core polynomial algebra tests.

The resultant routines are checked against an independent oracle: the
Sylvester matrix determinant computed by exact Gaussian elimination over
Fraction.  Nothing in the oracle shares code with the implementation.
"""

import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from unicrit.factorz import _pgcd
from unicrit.polycore import (
    BiPoly,
    IntPoly,
    NotDivisibleError,
    bipoly_from_json,
    bipoly_to_json,
    cyclotomic,
    euler_phi,
    gcd_fast,
    gcd_subresultant,
    moebius,
    poly_from_json,
    poly_to_json,
    product_equals,
    resultant,
    resultant_univariate,
    root_power_transform,
    root_scale_transform,
    squarefree_part,
    _bipoly_mul_modular,
    _gcd_mod_p,
)


# ---------------------------------------------------------------------------
# oracle: Sylvester determinant by exact Gaussian elimination


def sylvester_det(a, b):
    """Resultant of ascending coefficient lists via the Sylvester matrix."""
    a = list(a)
    b = list(b)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    if not a or not b:
        return 0
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    n = da + db
    rows = []
    ra = list(reversed(a))
    rb = list(reversed(b))
    for i in range(db):
        rows.append([0] * i + ra + [0] * (n - da - 1 - i))
    for i in range(da):
        rows.append([0] * i + rb + [0] * (n - db - 1 - i))
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    assert det.denominator == 1
    return int(det)


def rand_poly(rng, deg, bound=9, var="x"):
    coeffs = [rng.randint(-bound, bound) for _ in range(deg)]
    coeffs.append(rng.choice([i for i in range(-bound, bound + 1) if i]))
    return IntPoly(coeffs, var)


def rand_bipoly(rng, do, di, bound=9, outer="c", inner="z"):
    rows = [
        [rng.randint(-bound, bound) for _ in range(di + 1)] for _ in range(do + 1)
    ]
    rows[do][di] = rng.choice([i for i in range(-bound, bound + 1) if i])
    return BiPoly(rows, outer, inner)


# ---------------------------------------------------------------------------
# IntPoly basics


def test_intpoly_normalization_and_degree():
    p = IntPoly((1, 2, 0, 0), "x")
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPoly.zero().degree == -1
    assert IntPoly.zero().is_zero


def test_intpoly_ring_identities():
    rng = random.Random(101)
    for _ in range(30):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 6))
        c = rand_poly(rng, rng.randint(0, 6))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero
        x0 = rng.randint(-5, 5)
        assert (a * b)(x0) == a(x0) * b(x0)
        assert (a + b)(x0) == a(x0) + b(x0)


def test_intpoly_pow_and_derivative():
    x = IntPoly.gen()
    p = (x + 1) ** 5
    assert p.coeffs == (1, 5, 10, 10, 5, 1)
    assert p.derivative() == 5 * (x + 1) ** 4


def test_intpoly_eval_fraction_and_complex():
    p = IntPoly((1, 0, 1))  # x^2 + 1
    assert p(Fraction(1, 2)) == Fraction(5, 4)
    assert p(1j) == 0


def test_primitive_part_sign_convention():
    p = IntPoly((-4, -8), "x")
    assert p.primitive_part().coeffs == (1, 2)
    assert p.content == 4
    assert IntPoly((3, -6)).primitive_part().coeffs == (-1, 2)


def test_divmod_exact_roundtrip():
    rng = random.Random(202)
    for _ in range(40):
        b = rand_poly(rng, rng.randint(1, 4))
        q = rand_poly(rng, rng.randint(0, 4))
        r = rand_poly(rng, rng.randint(0, b.degree - 1)) if b.degree > 0 else IntPoly.zero()
        if r.degree >= b.degree:
            r = IntPoly(r.coeffs[: b.degree])
        a = b * q + r
        # quotient integral by construction only when stepwise division works;
        # multiply through by lc(b) powers to force it
        scale = b.lc ** (a.degree - b.degree + 1) if a.degree >= b.degree else 1
        qq, rr = (a * scale).divmod_exact(b)
        assert b * qq + rr == a * scale


def test_divexact_raises_on_remainder():
    x = IntPoly.gen()
    with pytest.raises(NotDivisibleError):
        (x ** 2 + 1).divexact(x + 1)
    with pytest.raises(NotDivisibleError):
        (x ** 2 + 1).divexact(IntPoly((1, 2)))  # non-integral quotient
    assert ((x + 1) * (x + 2)).divexact(x + 1) == x + 2


def test_divides_huge_remainder_is_false():
    # the remainder has over 4,300 digits, past Python's default int-to-str
    # limit (restored here: the CLI lifts it for the whole process); the
    # NotDivisibleError message must not stringify it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        assert not IntPoly((1, 1)).divides(IntPoly((10 ** 5000, 0, 1)))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _frac_divmod(a, b):
    """Textbook long division over Q, independent of the implementation."""
    r = [Fraction(c) for c in a.coeffs]
    q = [Fraction(0)] * max(a.degree - b.degree + 1, 0)
    while len(r) - 1 >= b.degree and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < b.degree:
            break
        k = len(r) - 1 - b.degree
        t = r[-1] / b.lc
        q[k] = t
        for j in range(b.degree + 1):
            r[k + j] -= t * b.coeffs[j]
        r.pop()
    return q, r


def test_pseudo_rem_identity():
    rng = random.Random(303)
    for _ in range(25):
        a = rand_poly(rng, rng.randint(2, 7))
        b = rand_poly(rng, rng.randint(1, a.degree))
        r = a.pseudo_rem(b)
        assert r.degree < b.degree
        # b must divide lc(b)^(delta+1)*a - prem exactly over Q
        scaled = a * (b.lc ** (a.degree - b.degree + 1))
        diff = scaled - r
        _, rem = _frac_divmod(diff, b)
        assert all(v == 0 for v in rem)


# ---------------------------------------------------------------------------
# univariate resultants against the Sylvester oracle


def test_resultant_univariate_examples():
    z = IntPoly.gen("z")
    c = 7
    # table cases with hand-checked values
    assert resultant_univariate(z ** 2 - z + c, 2 * z + 1) == 4 * c + 3
    assert resultant_univariate(z - 3, z - 5) == -2
    assert resultant_univariate(z ** 2 + 1, z - 1) == 2
    assert resultant_univariate(z ** 2 - 1, z - 1) == 0


def test_resultant_univariate_vs_sylvester():
    rng = random.Random(404)
    for _ in range(60):
        a = rand_poly(rng, rng.randint(1, 6))
        b = rand_poly(rng, rng.randint(1, 6))
        assert resultant_univariate(a, b) == sylvester_det(a.coeffs, b.coeffs)


def test_resultant_univariate_constants_and_zero():
    x = IntPoly.gen()
    p = x ** 3 + 2
    assert resultant_univariate(p, IntPoly.const(5)) == 125
    assert resultant_univariate(IntPoly.const(5), p) == 125
    assert resultant_univariate(p, IntPoly.zero()) == 0


def test_resultant_univariate_shared_factor_is_zero():
    rng = random.Random(505)
    for _ in range(10):
        g = rand_poly(rng, rng.randint(1, 3))
        a = g * rand_poly(rng, rng.randint(1, 3))
        b = g * rand_poly(rng, rng.randint(1, 3))
        assert resultant_univariate(a, b) == 0


def test_resultant_univariate_multiplicative():
    rng = random.Random(606)
    for _ in range(100):
        a = rand_poly(rng, rng.randint(1, 4), bound=5)
        b = rand_poly(rng, rng.randint(1, 4), bound=5)
        c = rand_poly(rng, rng.randint(1, 4), bound=5)
        assert resultant_univariate(a * b, c) == resultant_univariate(
            a, c
        ) * resultant_univariate(b, c)


def test_resultant_swap_sign_rule():
    rng = random.Random(707)
    for _ in range(30):
        a = rand_poly(rng, rng.randint(1, 5))
        b = rand_poly(rng, rng.randint(1, 5))
        sign = -1 if (a.degree * b.degree) % 2 else 1
        assert resultant_univariate(a, b) == sign * resultant_univariate(b, a)


# ---------------------------------------------------------------------------
# gcd and squarefree


def test_gcd_zero_conventions():
    x = IntPoly.gen()
    assert gcd_subresultant(IntPoly.zero(), IntPoly.zero()).is_zero
    assert gcd_subresultant(IntPoly.zero(), 2 * x + 2) == 2 * x + 2
    assert gcd_subresultant(x - 1, IntPoly.zero()) == x - 1
    assert gcd_subresultant(-(x - 1), IntPoly.zero()) == x - 1  # positive lc


def test_gcd_known_common_factor():
    rng = random.Random(808)
    x = IntPoly.gen()
    coprime_pairs = [(x ** 2 + 1, x ** 3 + x + 1), (x - 2, x + 2), (2 * x + 1, x)]
    for a0, b0 in coprime_pairs:
        for _ in range(8):
            g = rand_poly(rng, rng.randint(1, 4)).primitive_part()
            got = gcd_subresultant(a0 * g, b0 * g)
            assert got == g or got == -g  # primitive positive lc
            assert got.lc > 0
            assert got == g.primitive_part()


def test_gcd_divides_both():
    rng = random.Random(909)
    for _ in range(30):
        a = rand_poly(rng, rng.randint(1, 6))
        b = rand_poly(rng, rng.randint(1, 6))
        g = gcd_subresultant(a, b)
        assert g.divides(a) and g.divides(b)


def test_gcd_content_handling():
    x = IntPoly.gen()
    assert gcd_subresultant(6 * (x + 1), 4 * (x + 1)) == 2 * (x + 1)
    assert gcd_subresultant(IntPoly.const(6), IntPoly.const(4)).coeffs == (2,)
    assert gcd_subresultant(6 * x + 6, IntPoly.const(4)).coeffs == (2,)


def test_gcd_fast_agrees_with_subresultant():
    rng = random.Random(111)
    for trial in range(40):
        g = rand_poly(rng, rng.randint(0, 5))
        a = rand_poly(rng, rng.randint(1, 6)) * g
        b = rand_poly(rng, rng.randint(1, 6)) * g
        if trial % 3 == 0:
            a = a * rng.randint(2, 12)
            b = b * rng.randint(2, 30)
        assert gcd_fast(a, b) == gcd_subresultant(a, b)


def test_gcd_fast_large_coefficients():
    rng = random.Random(222)
    big = 10 ** 40
    g = IntPoly([rng.randint(-big, big) for _ in range(5)] + [1])
    a = g * IntPoly([rng.randint(-big, big) for _ in range(7)] + [1])
    b = g * IntPoly([rng.randint(-big, big) for _ in range(6)] + [1])
    got = gcd_fast(a, b)
    assert got.divides(a) and got.divides(b)
    assert g.primitive_part().divides(got)


def test_gcd_mod_p_matches_factorz_pgcd():
    rng = random.Random(333)
    for p in (5, 97, 10007):
        for _ in range(40):
            g = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [1]
            a, b = ([rng.randrange(p) for _ in range(rng.randint(0, 20))] for _ in "ab")
            a = [v % p for v in np.convolve(g, a + [1]).tolist()] if rng.random() < 0.8 else a
            b = [v % p for v in np.convolve(g, b + [1]).tolist()] if rng.random() < 0.8 else b
            b = b + [0] * rng.randint(0, 3)  # untrimmed high zeros
            got = _gcd_mod_p(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
            assert got.tolist() == _pgcd(a, b, p), (p, a, b)
    empty = np.zeros(0, dtype=np.int64)
    assert _gcd_mod_p(empty, np.zeros(3, dtype=np.int64), 7).tolist() == _pgcd([], [0, 0, 0], 7) == []


def test_squarefree_part_table():
    x = IntPoly.gen()
    assert squarefree_part((x - 1) ** 2 * (x + 2)) == (x - 1) * (x + 2)
    assert squarefree_part((x + 1) ** 3) == x + 1
    assert squarefree_part(x ** 2 + 1) == x ** 2 + 1
    assert squarefree_part(IntPoly((0, 0, 1))) == x


def test_squarefree_part_properties():
    rng = random.Random(333)
    for _ in range(20):
        a = rand_poly(rng, rng.randint(1, 3))
        b = rand_poly(rng, rng.randint(1, 3))
        sf = squarefree_part(a * a * b)
        assert sf == squarefree_part(a * b)
        assert sf.divides((a * a * b).primitive_part() * (a * a * b).content)
        g = gcd_subresultant(sf, sf.derivative())
        assert g.degree == 0


# ---------------------------------------------------------------------------
# moebius, euler phi, cyclotomic


def test_moebius_table_and_sum():
    assert [moebius(k) for k in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    for m in range(1, 60):
        total = sum(moebius(d) for d in range(1, m + 1) if m % d == 0)
        assert total == (1 if m == 1 else 0)


def test_cyclotomic_product_identity():
    for m in range(1, 31):
        prod = IntPoly.const(1)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic(d)
        target = [0] * (m + 1)
        target[0] = -1
        target[m] = 1
        assert prod == IntPoly(target)
        assert cyclotomic(m).degree == euler_phi(m)
        assert cyclotomic(m).is_monic


def test_cyclotomic_known_values():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(2, var="mu").var == "mu"


# ---------------------------------------------------------------------------
# BiPoly


def test_bipoly_normalization():
    p = BiPoly(((0, 0), (0, 0)), "c", "z")
    assert p.is_zero
    q = BiPoly(((1, 0, 0), (0, 0, 0)), "c", "z")
    assert q.rows == ((1,),)
    assert q.degree("c") == 0 and q.degree("z") == 0


def test_bipoly_ring_identities():
    rng = random.Random(444)
    for _ in range(20):
        a = rand_bipoly(rng, rng.randint(0, 3), rng.randint(0, 3))
        b = rand_bipoly(rng, rng.randint(0, 3), rng.randint(0, 3))
        c0, z0 = rng.randint(-4, 4), rng.randint(-4, 4)
        assert (a * b).eval_point(c0, z0) == a.eval_point(c0, z0) * b.eval_point(c0, z0)
        assert (a + b).eval_point(c0, z0) == a.eval_point(c0, z0) + b.eval_point(c0, z0)
        assert ((a + b) - b).rows == a.rows


def test_bipoly_binomial_square():
    c = BiPoly.gen("c", "c", "z")
    z = BiPoly.gen("z", "c", "z")
    p = (c + z) ** 2
    assert p == c * c + 2 * c * z + z * z


def test_bipoly_eval_at():
    c = BiPoly.gen("c", "c", "z")
    z = BiPoly.gen("z", "c", "z")
    p = z ** 3 + c  # map in two variables
    at2 = p.eval_at("c", 2)
    assert at2.var == "z" and at2.coeffs == (2, 0, 0, 1)
    atz = p.eval_at("z", -1)
    assert atz.var == "c" and atz.coeffs == (-1, 1)
    assert p.eval_at_rational("c", Fraction(1, 2)) == [Fraction(1, 2), 0, 0, 1]


def test_bipoly_divexact_roundtrip_both_directions():
    rng = random.Random(555)
    for _ in range(20):
        a = rand_bipoly(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = rand_bipoly(rng, rng.randint(1, 3), rng.randint(1, 3))
        prod = a * b
        for var in ("c", "z", None):
            q = prod.divexact(b, var=var) if var else prod.divexact(b)
            assert q == a


def test_bipoly_divexact_remainder_raises():
    c = BiPoly.gen("c", "c", "z")
    z = BiPoly.gen("z", "c", "z")
    with pytest.raises(NotDivisibleError):
        (z ** 2 + c).divexact(z + 1, var="z")


def test_bipoly_derivative():
    c = BiPoly.gen("c", "c", "z")
    z = BiPoly.gen("z", "c", "z")
    p = z ** 3 + c * z + c
    assert p.derivative("z") == 3 * z ** 2 + c
    assert p.derivative("c") == z + 1


def test_bipoly_swap_vars():
    rng = random.Random(666)
    a = rand_bipoly(rng, 3, 2)
    s = a.swap_vars()
    assert s.outer == "z" and s.inner == "c"
    assert s.eval_point(5, -3) == a.eval_point(-3, 5)
    assert s.swap_vars() == a


def test_bipoly_modular_mul_matches_naive():
    rng = random.Random(777)
    for _ in range(6):
        a = rand_bipoly(rng, 5, 6, bound=10 ** 6)
        b = rand_bipoly(rng, 6, 5, bound=10 ** 6)
        assert _bipoly_mul_modular(a, b) == a * b


def test_product_equals_certified():
    rng = random.Random(888)
    a = rand_bipoly(rng, 3, 4, bound=50)
    b = rand_bipoly(rng, 4, 3, bound=50)
    c = rand_bipoly(rng, 2, 2, bound=50)
    target = a * b * c
    assert product_equals([a, b, c], target)
    rows = [list(r) for r in target.rows]
    rows[1][1] += 1
    assert not product_equals([a, b, c], BiPoly(rows, "c", "z"))


# ---------------------------------------------------------------------------
# bivariate resultants


def _kept_specialization_points(A, B, eliminate, count, rng):
    kept = A.inner if eliminate == A.outer else A.outer
    lc_a = A.as_univariate_in(eliminate)[-1]
    lc_b = B.as_univariate_in(eliminate)[-1]
    pts = []
    t = 0
    while len(pts) < count:
        for v in ((t, -t) if t else (0,)):
            if lc_a(v) != 0 and lc_b(v) != 0:
                pts.append(v)
        t += 1
    return kept, pts[:count]


def test_resultant_bivariate_example():
    # res_x(x - 2, x^2 - y) = 4 - y
    A = BiPoly(((-2,), (1,)), "x", "y")
    B = BiPoly(((0, -1), (0, 0), (1, 0)), "x", "y")
    out = resultant(A, B, eliminate="x")
    assert out.var == "y"
    assert out.coeffs == (4, -1)


def test_resultant_bivariate_vs_pointwise_oracle():
    rng = random.Random(999)
    for _ in range(12):
        A = rand_bipoly(rng, rng.randint(1, 3), rng.randint(1, 3))
        B = rand_bipoly(rng, rng.randint(1, 3), rng.randint(1, 3))
        for eliminate in ("c", "z"):
            if A.degree(eliminate) < 1 or B.degree(eliminate) < 1:
                continue
            out = resultant(A, B, eliminate=eliminate)
            kept, pts = _kept_specialization_points(A, B, eliminate, 5, rng)
            for v in pts:
                av = A.eval_at(kept, v)
                bv = B.eval_at(kept, v)
                assert out(v) == sylvester_det(av.coeffs, bv.coeffs)


def test_resultant_methods_agree():
    rng = random.Random(1212)
    for _ in range(4):
        A = rand_bipoly(rng, 3, 3, bound=99)
        B = rand_bipoly(rng, 3, 3, bound=99)
        r1 = resultant(A, B, eliminate="z", method="prs")
        r2 = resultant(A, B, eliminate="z", method="modular")
        assert r1 == r2


def test_resultant_bivariate_multiplicative():
    rng = random.Random(1313)
    for _ in range(6):
        A = rand_bipoly(rng, 1, 2, bound=4)
        B = rand_bipoly(rng, 1, 2, bound=4)
        C = rand_bipoly(rng, 1, 2, bound=4)
        lhs = resultant(A * B, C, eliminate="z")
        rhs = resultant(A, C, eliminate="z") * resultant(B, C, eliminate="z")
        assert lhs == rhs


def test_resultant_rejects_constant_in_eliminated_variable():
    A = BiPoly(((0, 1), (1, 0)), "c", "z")  # z + c
    B = BiPoly(((0,), (1,)), "c", "z")  # c alone: constant in z
    with pytest.raises(ValueError):
        resultant(A, B, eliminate="z")
    with pytest.raises(ValueError):
        resultant(A, B, eliminate="w")


def test_resultant_var_mismatch_rejected():
    A = BiPoly(((0, 1),), "c", "z")
    B = BiPoly(((0, 1),), "b", "w")
    with pytest.raises(ValueError):
        resultant(A, B, eliminate="z")


# ---------------------------------------------------------------------------
# root transforms


def test_root_power_transform_known_roots():
    x = IntPoly.gen()
    p = (x - 2) * (x - 3)
    q = root_power_transform(p, 2)
    assert q == (x - 4) * (x - 9)
    assert root_power_transform(p, 1) == p
    cubes = root_power_transform(p, 3)
    assert cubes == (x - 8) * (x - 27)


def test_root_power_transform_negative_roots_merge():
    x = IntPoly.gen()
    # roots 2 and -2 both square to 4; primitive part collapses multiplicity
    q = root_power_transform((x - 2) * (x + 2), 2)
    assert q == (x - 4) ** 2 or q == x ** 2 - 8 * x + 16


def test_root_scale_transform():
    c = IntPoly((3, 4), "c")  # root -3/4
    b = root_scale_transform(c, Fraction(4))
    assert b.coeffs == (3, 1)  # root -3
    back = root_scale_transform(b, Fraction(1, 4))
    assert back == c.primitive_part()
    p = IntPoly((-6, 0, 1))  # roots +-sqrt(6); scaled roots satisfy 3x^2 - 8
    assert root_scale_transform(p, Fraction(2, 3)).coeffs == (-8, 0, 3)


def test_root_scale_rejects_zero():
    with pytest.raises(ValueError):
        root_scale_transform(IntPoly((1, 1)), Fraction(0))


# ---------------------------------------------------------------------------
# serialization


def test_poly_json_roundtrip():
    p = IntPoly((10 ** 50, -3, 0, 7), "b")
    obj = poly_to_json(p)
    assert obj["var"] == "b"
    assert obj["coeffs"][0] == str(10 ** 50)
    assert poly_from_json(obj) == p


def test_bipoly_json_roundtrip():
    p = BiPoly(((1, -(10 ** 30)), (0, 2)), "c", "z")
    obj = bipoly_to_json(p)
    assert obj["vars"] == ["c", "z"]
    assert bipoly_from_json(obj) == p
