"""Core polynomial algebra tests.

The resultant routines are checked against an independent oracle: the
Sylvester matrix determinant computed by exact Gaussian elimination over
Fraction.  Nothing in the oracle shares code with the implementation.
"""

import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from unicrit import polycore
from unicrit.dynmaps import dynatomic, iterate_map, multiplier_poly
from unicrit.numfield import NumberField, RatPoly
from unicrit.polycore import (
    BiPoly,
    IntPoly,
    NotDivisibleError,
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
    _GCD_NP_MIN_DEGREE,
    _bdivmod_monic,
    _gf_divmod,
    _gf_gcd,
    _gf_root,
    _interpolate,
    _newton_interpolate_mod_p,
    _point_run,
    _power,
    _prime_at,
    _resultant_images_mod_p,
    _zmul,
    _resultant_points_bigint,
    _resultant_points_modular,
    _vector_resultants_mod_p,
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
    rows[do][di] = rng.randint(1, bound) * rng.choice((-1, 1))
    return BiPoly(rows, outer, inner)


# ---------------------------------------------------------------------------
# IntPoly basics


def test_intpoly_normalization_and_degree():
    p = IntPoly((1, 2, 0, 0), "x")
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPoly.zero().degree == -1
    assert IntPoly.zero().is_zero


def test_power_matches_repeated_product():
    rng = random.Random(10)
    gauss = NumberField(RatPoly((Fraction(1), Fraction(0), Fraction(1)), "x"), check=False)
    vec = np.array([0, 1, 2, 10006, 5003, 1234], dtype=np.int64)
    cases = [
        (7, 1, lambda a, b: a * b % 1009),
        (rand_poly(rng, 3), IntPoly.const(1), operator.mul),
        (rand_bipoly(rng, 2, 2), BiPoly.const(1, "c", "z"), operator.mul),
        (gauss.element((Fraction(1, 2), Fraction(-2, 3))), gauss.one(), operator.mul),
        (vec, np.ones_like(vec), lambda a, b: a * b % 10007),
    ]
    for x, one, mul in cases:
        expected = one
        for e in range(41):
            got = _power(x, e, one, mul)
            if isinstance(x, np.ndarray):
                assert got.tolist() == expected.tolist(), e
            else:
                assert got == expected, (x, e)
                if mul is operator.mul:
                    assert x ** e == expected, (x, e)
            expected = mul(expected, x)
        if mul is operator.mul:
            with pytest.raises(ValueError, match="negative power"):
                x ** -1


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


def test_gcd_fast_certifies_past_forty_primes(monkeypatch):
    # a 1,200-bit gcd needs about 50 primes of 25 bits: the loop runs on
    # until its own certificate holds, with no exact fallback
    rng = random.Random(333)
    big = 1 << 1200
    g = IntPoly([1] + [rng.randint(-big, big) for _ in range(19)] + [big])
    a = g * IntPoly([2, 0, 0, 4, 1])  # Eisenstein at 2
    b = g * IntPoly([3, 6, 0, 1])  # Eisenstein at 3

    def refuse(*args):
        raise AssertionError("gcd_fast fell back to gcd_subresultant")

    monkeypatch.setattr(polycore, "gcd_subresultant", refuse)
    assert gcd_fast(a, b) == g
    assert gcd_fast(a * 6, b * 4) == g * 2


# ---------------------------------------------------------------------------
# modular kernel against plain list references kept here


def _list_mul(a, b, m):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return [v % m for v in out]


def _list_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _list_gcd(a, b, p):
    """Euclid over GF(p), one leading term at a time; monic result."""
    a, b = _list_trim([v % p for v in a]), _list_trim([v % p for v in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            t, shift = a[-1] * inv % p, len(a) - len(b)
            for j, v in enumerate(b):
                a[shift + j] = (a[shift + j] - t * v) % p
            _list_trim(a)
        a, b = b, a
    return [v * pow(a[-1], -1, p) % p for v in a] if a else []


def test_gf_gcd_matches_list_reference():
    rng = random.Random(333)
    top = 2 * _GCD_NP_MIN_DEGREE
    for p in (5, 97, 10007, _prime_at(0)):
        for _ in range(16):
            # common factors from degree 0 to past the vector switch
            g = [rng.randrange(p) for _ in range(rng.choice((0, 3, 20, top)))] + [1]
            a, b = ([rng.randrange(p) for _ in range(rng.randint(0, top))] for _ in "ab")
            a = _list_mul(g, a + [1], p) if rng.random() < 0.8 else a
            b = _list_mul(g, b + [1], p) if rng.random() < 0.8 else b
            b = b + [0] * rng.randint(0, 3)  # untrimmed high zeros
            a = [v + p * rng.randint(-2, 2) for v in a]  # unreduced
            assert _gf_gcd(a, b, p) == _list_gcd(a, b, p), (p, a, b)
    assert _gf_gcd([], [0, 0, 0], 7) == _list_gcd([], [0, 0, 0], 7) == []
    assert _gf_gcd([14, 7], [0], 7) == []
    assert _gf_gcd([3, 6], [], 7) == [4, 1]
    big = [rng.randrange(97) for _ in range(top)] + [5]
    assert _gf_gcd([], big, 97) == _gf_gcd(big, [0] * 3, 97) == _list_gcd(big, [], 97)


def test_gf_root_recovers_s_from_its_power():
    # seeded non-monic S mod p: the h-th root of S^h with S's leading
    # coefficient is S, and for even h the one with -lc(S) is -S; a lead
    # whose h-th power is not lc(S^h) is refused
    rng = random.Random(335)
    for h in range(2, 6):
        for p in (101, 10007, _prime_at(0)):
            for _ in range(8):
                d = rng.randint(0, min(40, (p - 1) // h))
                S = [rng.randrange(p) for _ in range(d)] + [rng.randrange(2, p)]
                R = _power(S, h, [1], lambda u, v: _list_mul(u, v, p))
                assert len(R) == h * d + 1
                assert _gf_root(R, h, S[-1], p) == S, (h, p, S)
                if h % 2 == 0:
                    assert _gf_root(R, h, p - S[-1], p) == [-v % p for v in S]
                wrong = next(x for x in range(2, p) if pow(x, h, p) != R[-1])
                with pytest.raises(ArithmeticError, match=f"not {wrong}\\^{h}"):
                    _gf_root(R, h, wrong, p)


def test_division_identity_prime_and_prime_power():
    rng = random.Random(334)
    cases = [(_gf_divmod, 10007, False), (_gf_divmod, 5, False),
             (_bdivmod_monic, 7 ** 20, True), (_bdivmod_monic, 3 ** 200, True)]
    for divmod_fn, m, monic in cases:
        for la, lb in ((3, 5), (1, 1), (40, 1), (40, 17), (90, 30)):
            a = [rng.randrange(m) for _ in range(la)]
            b = [rng.randrange(m) for _ in range(lb - 1)]
            b.append(1 if monic else rng.randrange(1, m))
            q, r = divmod_fn(a, b, m)
            assert len(r) < len(b) and all(0 <= v < m for v in q + r)
            qb = _list_mul(q, b, m)
            total = [(x + y) % m for x, y in itertools.zip_longest(qb, r, fillvalue=0)]
            assert _list_trim(total) == _list_trim([v % m for v in a]), (m, la, lb)


def _vector_resultant_rows(rows_a, rows_b, p):
    """The kernel on ascending coefficient lists of equal lengths per side."""
    A = np.array([a[::-1] for a in rows_a], dtype=np.int64)
    B = np.array([b[::-1] for b in rows_b], dtype=np.int64)
    primes = np.full(len(rows_a), p, dtype=np.int64) if isinstance(p, int) else np.array(p)
    return [int(v) for v in _vector_resultants_mod_p(A, B, primes)]


def test_vector_resultant_mod_p_one_row_matches_exact_resultant():
    rng = random.Random(335)
    x = IntPoly.gen()
    for p in (5, 97, _prime_at(3)):
        for _ in range(25):
            A, B = (
                IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 7))]
                        + [rng.choice((1, -3, 7, 11))])
                for _ in "AB"
            )
            if rng.random() < 0.3:
                A = A * (x - rng.randint(-3, 3))  # often a shared root
                B = B * (x - rng.randint(-3, 3))
            if A.lc % p == 0 or B.lc % p == 0:
                continue  # reduction mod p would drop a degree
            got = _vector_resultant_rows([list(A.coeffs)], [list(B.coeffs)], p)
            assert got == [resultant_univariate(A, B) % p], (p, A, B)


def test_vector_resultant_mod_p_many_rows_with_degree_drops():
    # one call holds rows whose remainder sequences drop degree in different
    # places: dense, sparse (every other coefficient zero), sharing a root
    # (resultant 0), constant, in both argument orders with odd degrees
    rng = random.Random(336)

    def row(p, d, sparse):
        c = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        return [0 if sparse and (d - i) % 2 else v for i, v in enumerate(c)]

    def with_root(c, r, p):  # c * (x - r)
        out = [0] + c
        for i, v in enumerate(c):
            out[i] -= r * v
        return [v % p for v in out]

    for p in (3, 5, 7, _prime_at(0)):
        for da, db in ((0, 0), (0, 5), (4, 0), (5, 3), (3, 5), (7, 7), (6, 9), (9, 2)):
            rows_a, rows_b = [], []
            for i in range(24):
                if i % 4 == 3 and da and db:
                    r = rng.randrange(p)
                    rows_a.append(with_root(row(p, da - 1, False), r, p))
                    rows_b.append(with_root(row(p, db - 1, True), r, p))
                else:
                    rows_a.append(row(p, da, i % 4 > 0))
                    rows_b.append(row(p, db, i % 4 == 1))
            got = _vector_resultant_rows(rows_a, rows_b, p)
            want = [
                resultant_univariate(IntPoly(a), IntPoly(b)) % p
                for a, b in zip(rows_a, rows_b)
            ]
            assert got == want, (p, da, db)


def test_vector_resultant_mod_p_mixed_primes_per_row():
    # one call, one prime per row: the same rows under several primes,
    # interleaved, give each prime's own resultants
    rng = random.Random(339)
    primes = [5, 97, _prime_at(0), _prime_at(7)]
    pairs = [([rng.randint(-9, 9) for _ in range(6)] + [1],
              [rng.randint(-9, 9) for _ in range(4)] + [3]) for _ in range(6)]
    rows_a, rows_b, row_p = [], [], []
    for a, b in pairs:
        for p in primes:
            rows_a.append([v % p for v in a])
            rows_b.append([v % p for v in b])
            row_p.append(p)
    got = _vector_resultant_rows(rows_a, rows_b, row_p)
    want = [resultant_univariate(IntPoly(a), IntPoly(b)) % p
            for a, b in pairs for p in primes]
    assert got == want


def hadamard_bits(a_cols, b_cols, dk):
    """Bits bounding every coefficient of a resultant of degree <= dk in the
    kept variable: log2 of n! * (2^h)^n * (dk + 2)^(n - 1) for the n x n
    Sylvester matrix with h-bit entries, plus slack.  A generic over-bound,
    far above the truth at high degree, that no library caller proves."""
    n = (len(a_cols) - 1) + (len(b_cols) - 1)
    h = max(p.max_coeff_bits() for p in a_cols + b_cols)
    log_fact = sum(math.log2(i) for i in range(2, n + 1))
    return int(log_fact + n * h + max(n - 1, 0) * math.log2(dk + 2)) + 4


def modular(a_cols, b_cols, monkeypatch, bounds=None):
    """_resultant_points_modular with `bounds`, by default the generic pair
    (dk and hadamard_bits), after checking that the primes whose images it
    combined multiply past 2^(bits + 1)."""
    if bounds is None:
        dk = polycore._degree_bound_kept(a_cols, b_cols)
        bounds = (dk, hadamard_bits(a_cols, b_cols, dk))
    used = []
    crt = polycore._crt
    monkeypatch.setattr(polycore, "_crt", lambda acc, m, img, p: used.append(p) or crt(acc, m, img, p))
    out = _resultant_points_modular(a_cols, b_cols, "c", *bounds)
    monkeypatch.setattr(polycore, "_crt", crt)
    assert math.prod(used).bit_length() > bounds[1] + 1
    return out, used


def test_resultant_modular_route_sparse_in_z(monkeypatch):
    # Phi_2 against Psi_1(W) for n = 2: W - 1 = 4z^3 + 4cz - 1 has no z^2 term
    phi = dynatomic(2, 2)
    B = multiplier_poly(2, 2) - 1
    a_cols, b_cols = phi.as_univariate_in("z"), B.as_univariate_in("z")
    want = _resultant_points_bigint(a_cols, b_cols, "c")
    assert modular(a_cols, b_cols, monkeypatch)[0] == want
    exact = (want.degree, want.max_coeff_bits())
    assert modular(a_cols, b_cols, monkeypatch, exact)[0] == want


def test_resultant_image_skips_prime_dividing_leading_coefficient(monkeypatch):
    # the z-leading coefficient c + p0 vanishes mod p0 at the point c = 0
    p0, p1 = _prime_at(0), _prime_at(1)
    c, z = BiPoly.gen("c", "c", "z"), BiPoly.gen("z", "c", "z")
    A = (c + p0) * z ** 2 + c * z - 3
    B = z ** 3 - c * z + 2 * c + 5
    a_cols, b_cols = A.as_univariate_in("z"), B.as_univariate_in("z")
    width = polycore._degree_bound_kept(a_cols, b_cols) + 1
    assert _point_run(a_cols[-1], b_cols[-1], width) == 0
    want = _resultant_points_bigint(a_cols, b_cols, "c")
    none, img = _resultant_images_mod_p(a_cols, b_cols, 0, [p0, p1], width)
    assert none is None
    assert img == [want.coeff(i) % p1 for i in range(width)]
    got, used = modular(a_cols, b_cols, monkeypatch)
    assert got == want
    assert p0 not in used and p1 in used


def test_point_run_starts_after_integer_roots_of_leading_coefficients(monkeypatch):
    lc_a = IntPoly((3, -4, 1), "c")  # (c - 1)(c - 3)
    one = IntPoly((1,), "c")
    assert _point_run(lc_a, one, 1) == 0
    assert _point_run(lc_a, one, 2) == 4
    assert _point_run(one, lc_a, 5) == 4
    assert _point_run(lc_a, IntPoly((-5, 1), "c"), 2) == 6
    c, z = BiPoly.gen("c", "c", "z"), BiPoly.gen("z", "c", "z")
    A = (c - 1) * (c - 3) * z ** 2 + c * z - 3
    B = (c - 5) * z ** 3 - c * z + 2 * c + 5
    a_cols, b_cols = A.as_univariate_in("z"), B.as_univariate_in("z")
    want = _resultant_points_bigint(a_cols, b_cols, "c")
    assert modular(a_cols, b_cols, monkeypatch)[0] == want
    for v in (-2, 4, 7):
        assert want(v) == sylvester_det(A.eval_at("c", v).coeffs, B.eval_at("c", v).coeffs)


def test_interpolate_consecutive_points():
    rng = random.Random(337)
    for start in (0, 7):
        for n in (1, 2, 9, 30):
            f = IntPoly([rng.randint(-10 ** 20, 10 ** 20) for _ in range(n)], "x")
            assert _interpolate(start, [f(start + i) for i in range(n)], "x") == f
    with pytest.raises(ArithmeticError):
        _interpolate(0, [0, 0, 1], "x")  # x(x - 1)/2


def test_newton_interpolate_mod_p_round_trip():
    # one row per prime, all primes in one call
    rng = random.Random(338)
    primes = [10007, (1 << 25) - 39, _prime_at(3)]
    for start in (0, 7):
        for m in (1, 2, 40):
            fs = [IntPoly([rng.randrange(p) for _ in range(m)], "x") for p in primes]
            ys = np.array([[f(start + i) % p for i in range(m)] for f, p in zip(fs, primes)],
                          dtype=np.int64)
            got = _newton_interpolate_mod_p(start, ys, np.array(primes)).tolist()
            assert got == [[f.coeff(i) for i in range(m)] for f in fs], (start, m)


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


def test_moebius_and_euler_phi_match_their_definitions():
    # mu(k) = 0 when a square p^2 divides k, else (-1)^(number of primes);
    # phi(k) counts the j in 1..k coprime to k
    top = 5000
    mu = [1] * (top + 1)
    for p in range(2, top + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            mu[p::p] = [-v for v in mu[p::p]]
            mu[p * p :: p * p] = [0] * len(mu[p * p :: p * p])
    for k in range(1, top + 1):
        assert moebius(k) == mu[k], k
        assert euler_phi(k) == np.count_nonzero(np.gcd(np.arange(1, k + 1), k) == 1), k


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


def test_bipoly_sum_cancels_the_top_row_and_takes_the_wider_width():
    c = BiPoly.gen("c", "c", "z")
    z = BiPoly.gen("z", "c", "z")
    # the top row cancels, and so do the top terms of the flat sum
    assert (c * z ** 2 + z) + (c + -(c * z ** 2)) == c + z
    assert ((c ** 2 * z + c) + (-(c ** 2 * z) + 1)).rows == ((1,), (1,))
    assert (c * z + c) + (-(c * z) - c) == BiPoly.zero("c", "z")
    # a wider operand on either side: the sum is laid out at its width
    narrow, wide = c ** 2 + z, 3 * z ** 4 + c * z ** 3 - 1
    expected = BiPoly(((-1, 1, 0, 0, 3), (0, 0, 0, 1, 0), (1, 0, 0, 0, 0)), "c", "z")
    assert narrow + wide == expected
    assert wide + narrow == expected
    assert BiPoly.zero("c", "z") + wide == wide
    assert narrow + 5 == c ** 2 + z + BiPoly.const(5, "c", "z")


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


def test_bipoly_divexact_roundtrip_both_directions():
    rng = random.Random(555)
    for _ in range(20):
        a = rand_bipoly(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = rand_bipoly(rng, rng.randint(1, 3), rng.randint(1, 3))
        prod = a * b
        q = prod.divexact(b)
        assert q == a
    for a, b in (
        (rand_bipoly(rng, 2, 3), rand_bipoly(rng, 0, 2)),  # one-row divisor
        (rand_bipoly(rng, 2, 3), rand_bipoly(rng, 2, 0)),  # one-column divisor
        (rand_bipoly(rng, 2, 0), rand_bipoly(rng, 1, 3)),  # as wide as the dividend
    ):
        assert (a * b).divexact(b) == a


def test_bipoly_divexact_remainder_raises():
    c = BiPoly.gen("c", "c", "z")
    z = BiPoly.gen("z", "c", "z")
    with pytest.raises(NotDivisibleError):
        (z ** 2 + c).divexact(z + 1)


def test_bipoly_divexact_wrap_is_not_a_quotient():
    c = BiPoly.gen("c", "c", "z")
    z = BiPoly.gen("z", "c", "z")
    # at stride 3 the flat x^3 + x^2 is (x + 1) * x^2, and the row z^2 does
    # not fit the room of 2 that a divisor of inner degree 1 leaves
    with pytest.raises(NotDivisibleError):
        (c + z ** 2).divexact(z + 1)
    assert (c * z + z ** 3).divexact(z) == c + z ** 2


def test_bipoly_derivative():
    c = BiPoly.gen("c", "c", "z")
    z = BiPoly.gen("z", "c", "z")
    p = z ** 3 + c * z + c
    assert p.derivative("z") == 3 * z ** 2 + c
    assert p.derivative("c") == z + 1


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


@pytest.mark.parametrize("kronecker", [True, False])
def test_zmul_matches_schoolbook(monkeypatch, kronecker):
    if not kronecker:
        monkeypatch.setattr(polycore, "_KRONECKER_MIN_TERMS", 10 ** 9)
    rng = random.Random(17)
    coefficient_sets = {
        "non-negative": lambda: rng.randrange(10 ** 12),
        "mixed-sign": lambda: rng.randint(-(10 ** 12), 10 ** 12),
        "all negative": lambda: -rng.randrange(1, 10 ** 12),
        "interior zeros": lambda: rng.choice((0, 0, 0, rng.randint(-99, 99))),
    }
    for la, lb in ((1, 30), (17, 17), (40, 33)):
        for name, draw in coefficient_sets.items():
            a = [draw() for _ in range(la - 1)] + [rng.randint(1, 9)]
            b = [draw() for _ in range(lb)]
            # a sign in either factor alone, then in both
            for x, y in ((a, b), (b, a), ([abs(v) for v in a], b), (b, [abs(v) for v in a])):
                assert _zmul(x, y) == schoolbook(x, y), (la, lb, name)
        # one 2,000-bit term among small ones of both signs
        a = [rng.randint(-9, 9) for _ in range(la)]
        b = [rng.randint(-9, 9) for _ in range(lb)]
        a[la // 2] = -(rng.getrandbits(2000) | 1 << 1999)
        assert _zmul(a, b) == schoolbook(a, b), (la, lb, "2,000-bit term")
        assert _zmul([-v for v in a], b) == schoolbook([-v for v in a], b)


def bipoly_schoolbook(a, b):
    out = [[0] * (len(a.rows[0]) + len(b.rows[0]) - 1) for _ in range(len(a.rows) + len(b.rows) - 1)]
    for i, ra in enumerate(a.rows):
        for j, u in enumerate(ra):
            for k, rb in enumerate(b.rows):
                for l, v in enumerate(rb):
                    out[i + k][j + l] += u * v
    return BiPoly(out, a.outer, a.inner)


def test_bipoly_mul_matches_schoolbook():
    rng = random.Random(777)
    # shapes (outer degree, inner degree): one row and one column included
    shapes = [((0, 4), (3, 2)), ((5, 0), (2, 6)), ((0, 0), (4, 4)), ((0, 7), (0, 9)),
              ((6, 0), (3, 0)), ((5, 6), (6, 5)), ((2, 1), (1, 3))]
    for bound, scale in ((9, 1), (999, 1), (9, 3 ** 90), (10 ** 40, 1)):
        for (da, ia), (db, ib) in shapes:
            a = rand_bipoly(rng, da, ia, bound=bound) * scale
            b = rand_bipoly(rng, db, ib, bound=bound)
            assert a * b == bipoly_schoolbook(a, b), (bound, da, ia, db, ib)
            assert -a * b == bipoly_schoolbook(-a, b)


def test_bipoly_product_past_the_old_size_switch():
    # f7 = f6^2 + c, where f6 has 33 x 65 cells: the squaring is past
    # the 4,000,000 cell-product size that once chose a multimodular route
    f6, f7 = iterate_map(2, 6), iterate_map(2, 7)
    assert f6.degree("c") == 32 and f6.degree("z") == 64
    for c0, z0 in ((1, 1), (-2, 3), (5, -7)):
        assert f7.eval_point(c0, z0) == f6.eval_point(c0, z0) ** 2 + c0


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


def test_unbounded_resultant_takes_the_exact_route_past_the_old_switch(monkeypatch):
    # one inner elimination of multiplier_resultant(2, 6):
    # Res_z(Phi_6(7, z), mu - W(7, z)) has degree 54 in mu and a generic
    # bound of 13,017 bits, far above its true height; with no bounds
    # passed it takes the exact PRS, which needs none
    def refuse(*args):
        raise AssertionError("an unbounded elimination took the modular route")

    monkeypatch.setattr(polycore, "_resultant_points_modular", refuse)
    phi_7 = dynatomic(2, 6).eval_at("c", 7)
    w_7 = multiplier_poly(2, 6).eval_at("c", 7)
    A = BiPoly.from_inner_poly(phi_7, outer="mu")
    B = BiPoly.gen("mu", "mu", "z") - BiPoly.from_inner_poly(w_7, outer="mu")
    a_cols, b_cols = A.as_univariate_in("z"), B.as_univariate_in("z")
    dk = polycore._degree_bound_kept(a_cols, b_cols)
    assert (dk, hadamard_bits(a_cols, b_cols, dk)) == (54, 13017)
    out = resultant(A, B, eliminate="z")
    assert out.degree == 54
    for mu in (-3, 0, 5):
        assert out(mu) == resultant_univariate(phi_7, mu - w_7)


def test_resultant_methods_agree(monkeypatch):
    rng = random.Random(1212)
    for _ in range(4):
        A = rand_bipoly(rng, 3, 3, bound=99)
        B = rand_bipoly(rng, 3, 3, bound=99)
        a_cols, b_cols = A.as_univariate_in("z"), B.as_univariate_in("z")
        r1 = _resultant_points_bigint(a_cols, b_cols, "c")
        r2 = modular(a_cols, b_cols, monkeypatch)[0]
        assert r1 == r2


def test_resultant_root_route_returns_the_root_of_a_power():
    # Res_z(A, B^h) = S^h with S = Res_z(A, B): given S's degree, height and
    # leading coefficient, of either sign, the modular route returns S
    rng = random.Random(1214)
    for h in (2, 3):
        for _ in range(3):
            A, B = rand_bipoly(rng, 2, 2, bound=9), rand_bipoly(rng, 2, 2, bound=9)
            S = resultant(A, B, "z")
            if S.is_zero:
                continue
            bounds, root = (S.degree, S.max_coeff_bits()), (h, S.lc)
            assert resultant(A, B ** h, "z", bounds=bounds, root=root) == S
    with pytest.raises(TypeError, match="only with the bounds"):
        resultant(A, B ** 2, "z", root=(2, 1))


def test_resultant_modular_route_runs_past_the_height_bound(monkeypatch):
    # under the generic bounds and under the exact degree and height alike,
    # the one loop matches the exact route once its primes pass the bound
    rng = random.Random(1213)
    # small coefficients at high degree: the generic bound is far above the truth
    for do, di, bound in ((3, 3, 99), (2, 10, 2), (1, 12, 1)):
        A = rand_bipoly(rng, do, di, bound=bound)
        B = rand_bipoly(rng, di, do, bound=bound)
        a_cols, b_cols = A.as_univariate_in("z"), B.as_univariate_in("z")
        want = _resultant_points_bigint(a_cols, b_cols, "c")
        assert modular(a_cols, b_cols, monkeypatch)[0] == want
        exact = (want.degree, want.max_coeff_bits())
        assert modular(a_cols, b_cols, monkeypatch, exact)[0] == want


def test_resultant_modular_route_is_only_as_good_as_its_bounds(monkeypatch):
    # one degree or half the bits short, the lift is wrong: the bounds, not
    # a stable lift, decide when the loop stops
    rng = random.Random(1214)
    A = rand_bipoly(rng, 3, 6, bound=10 ** 12)
    B = rand_bipoly(rng, 4, 5, bound=10 ** 12)
    a_cols, b_cols = A.as_univariate_in("z"), B.as_univariate_in("z")
    want = _resultant_points_bigint(a_cols, b_cols, "c")
    assert want.max_coeff_bits() > 200
    degree, bits = want.degree, want.max_coeff_bits()
    assert modular(a_cols, b_cols, monkeypatch, (degree, bits))[0] == want
    assert modular(a_cols, b_cols, monkeypatch, (degree - 1, bits))[0] != want
    assert modular(a_cols, b_cols, monkeypatch, (degree, bits // 2))[0] != want


def test_resultant_modular_batches_hold_whole_primes(monkeypatch):
    # a batch budget below one prime's rows still runs one prime per batch
    rng = random.Random(1215)
    A = rand_bipoly(rng, 2, 5, bound=99)
    B = rand_bipoly(rng, 3, 4, bound=99)
    a_cols, b_cols = A.as_univariate_in("z"), B.as_univariate_in("z")
    want = _resultant_points_bigint(a_cols, b_cols, "c")
    batches = []
    images = polycore._resultant_images_mod_p
    monkeypatch.setattr(polycore, "_resultant_images_mod_p",
                        lambda *args: batches.append(len(args[3])) or images(*args))
    for entries in (1, 200, 1 << 20):
        monkeypatch.setattr(polycore, "_BATCH_ENTRIES", entries)
        batches.clear()
        assert modular(a_cols, b_cols, monkeypatch)[0] == want
        if entries == 1:
            assert set(batches) == {1} and len(batches) > 1
        if entries == 1 << 20:
            assert len(batches) == 1


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


def test_root_power_transform_is_the_resultant_definition():
    # Res_y(p(y), x - y^k), primitive, for every k up to 5, including p
    # whose parts p_r are zero (p = y * q(y^k)) and p with a root at 0
    rng = random.Random(2027)
    x = IntPoly.gen()
    polys = [rand_poly(rng, d) for d in (1, 2, 3, 5, 8, 13)]
    polys += [x * IntPoly((3, 0, 0, 1)), x ** 3 * (x + 2), IntPoly((5, 0, 0, 0, 0, 0, 7))]
    for p in polys:
        A = BiPoly.from_inner_poly(p.rename("y"), outer="x")
        for k in range(1, 6):
            B = BiPoly([(0,) * k + (-1,), (1,)], "x", "y")  # x - y^k
            want = resultant(A, B, eliminate="y").primitive_part()
            assert root_power_transform(p, k) == want, (p, k)


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

