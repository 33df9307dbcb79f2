"""Factorization tests.

Oracles are theorems, not reimplementations: cyclotomic polynomials are
irreducible over Q, Eisenstein polynomials at p=2 are irreducible, and
x^4 + 1 / x^4 - 10x^2 + 1 are irreducible over Z yet reducible modulo every
prime (forcing the Hensel lift + recombination path to do real work).
"""

import math
import random

import pytest

from unicrit import factorz, polycore
from unicrit.dynmaps import misiurewicz_poly
from unicrit.factorz import (
    Factorization,
    factor,
    is_irreducible,
    norm_of_root,
    _berlekamp_echelon,
    _berlekamp_split,
    _frobenius,
    _newton_polygon_irreducible,
    _norm_unchecked,
)
from unicrit.polycore import (
    IntPoly,
    _badd,
    _bdivmod_monic,
    _bmul,
    _bsub,
    _gf_divmod,
    _gf_gcd,
    _residues,
    _strip,
    _symmetric,
    cyclotomic,
)

x = IntPoly.gen()


def eisenstein(rng, deg):
    """Random Eisenstein-at-2 polynomial: irreducible by the criterion."""
    coeffs = [2 * rng.randint(1, 9) if rng.random() < 0.7 else 0 for _ in range(deg)]
    coeffs[0] = 2 * rng.choice([1, 3, 5, 7, 9])  # 2 || constant term
    return IntPoly(coeffs + [1])


def as_set(fac):
    return sorted((p.coeffs, m) for p, m in fac.factors)


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(IntPoly.zero())


def test_factor_constants_and_sign():
    fac = factor(IntPoly.const(12))
    assert fac.content == 12 and fac.factors == ()
    fac = factor(IntPoly.const(-5))
    assert fac.content == -5
    fac = factor(IntPoly((0, 0, -6, -6)))  # -6x^2(x+1)
    assert fac.content == -6
    assert as_set(fac) == [((0, 1), 2), ((1, 1), 1)]


def test_factor_reconstructs_input():
    rng = random.Random(42)
    for _ in range(15):
        parts = [eisenstein(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        f = IntPoly.const(rng.choice([-4, -1, 1, 6]))
        for p in parts:
            f = f * p ** rng.randint(1, 2)
        fac = factor(f)
        assert fac.expand() == f


def test_factor_cyclotomic_products():
    # x^m - 1 factors exactly into the cyclotomics of the divisors of m
    for m in (1, 2, 3, 4, 6, 8, 10, 12, 15, 16, 18, 20, 24):
        target = [0] * (m + 1)
        target[0], target[m] = -1, 1
        fac = factor(IntPoly(target))
        assert fac.content == 1
        expected = sorted(
            (cyclotomic(d).coeffs, 1) for d in range(1, m + 1) if m % d == 0
        )
        assert as_set(fac) == expected


def test_factor_eisenstein_products():
    rng = random.Random(7)
    for _ in range(10):
        a = eisenstein(rng, rng.randint(2, 6))
        b = eisenstein(rng, rng.randint(2, 6))
        if a == b:
            continue
        fac = factor(a * b)
        assert as_set(fac) == sorted([(a.coeffs, 1), (b.coeffs, 1)])


def test_factor_multiplicities():
    p = x ** 2 + x + 7
    q = x - 3
    f = p ** 3 * q ** 2 * 5
    fac = factor(f)
    assert fac.content == 5
    assert as_set(fac) == [((-3, 1), 2), ((7, 1, 1), 3)]


def test_factor_multiplicities_with_powers_of_x():
    # x divides the squarefree part once and so is split off before the
    # squarefree factoring; every multiplicity is 1 plus the number of times
    # the factor divides P / squarefree_part(P)
    f = -12 * x ** 3 * (x + 1) ** 5 * (2 * x - 3) ** 2 * (x ** 2 + x + 7)
    fac = factor(f)
    assert fac.content == -12
    assert [(p.coeffs, m) for p, m in fac.factors] == [
        ((-3, 2), 2), ((0, 1), 3), ((1, 1), 5), ((7, 1, 1), 1),
    ]
    fac = factor((x ** 2 - 2) ** 7)
    assert fac.content == 1
    assert [(p.coeffs, m) for p, m in fac.factors] == [((-2, 0, 1), 7)]
    assert [(p.coeffs, m) for p, m in factor(x ** 4).factors] == [((0, 1), 4)]
    # x^4 + 1 splits mod every prime, and the constant-term filter cannot
    # find x, whose constant is 0: left with x, recombination calls x^5 + x
    # irreducible
    assert [(p.coeffs, m) for p, m in factor(x ** 2 * (x ** 4 + 1)).factors] == [
        ((0, 1), 2), ((1, 0, 0, 0, 1), 1),
    ]
    assert [(p.coeffs, m) for p, m in factor(x * (x - 5)).factors] == [((-5, 1), 1), ((0, 1), 1)]


def test_factor_nonmonic():
    a = IntPoly((3, 2))  # 2x + 3
    b = IntPoly((5, 0, 3))  # 3x^2 + 5, Eisenstein at 5
    fac = factor(a * b)
    assert fac.content == 1
    assert as_set(fac) == sorted([(a.coeffs, 1), (b.coeffs, 1)])
    fac = factor(a ** 2 * -2)
    assert fac.content == -2
    assert as_set(fac) == [((3, 2), 2)]


def test_factor_swinnerton_dyer_style():
    # irreducible over Z but reducible mod every prime: the recombination
    # step has to reject every proper subset
    for f in (x ** 4 + 1, x ** 4 - 10 * x ** 2 + 1):
        fac = factor(f)
        assert len(fac.factors) == 1
        assert fac.factors[0] == (f, 1)
        assert is_irreducible(f)


def test_factor_big_coefficients():
    big = 10 ** 30
    f = (x - big) * (x + big + 1)
    fac = factor(f)
    assert as_set(fac) == sorted([((-big, 1), 1), ((big + 1, 1), 1)])


def test_factor_deterministic_order():
    f = (x ** 2 + 1) * (x ** 2 - 2) * (x + 5) * (x - 5)
    fac1 = factor(f)
    fac2 = factor(f)
    assert fac1 == fac2
    degs = [p.degree for p, _ in fac1.factors]
    assert degs == sorted(degs)


def test_is_irreducible_tables():
    assert is_irreducible(x ** 2 + x + 7)
    assert is_irreducible(2 * x + 4) is True  # primitive part x + 2
    assert not is_irreducible(x ** 2 - 1)
    assert not is_irreducible((x + 1) ** 2)
    for m in (5, 7, 9, 12):
        assert is_irreducible(cyclotomic(m))
    with pytest.raises(ValueError):
        is_irreducible(IntPoly.const(3))


def test_norm_of_root_tables():
    assert norm_of_root(x - 3) == 3
    assert norm_of_root(x + 3) == -3
    assert norm_of_root(x ** 2 + x + 7) == 7
    assert norm_of_root(x ** 2 + 1) == 1
    assert norm_of_root(x ** 2 - 2) == -2
    assert norm_of_root(x ** 3 - 2) == 2


def test_norm_of_root_validation():
    with pytest.raises(ValueError):
        norm_of_root(2 * x + 1)  # not monic
    with pytest.raises(ValueError):
        norm_of_root(x ** 2 - 1)  # not irreducible
    assert _norm_unchecked(x ** 2 - 1) == -1  # unchecked variant skips both


def test_norm_is_product_of_roots():
    # for a monic irreducible with integer root structure checked elsewhere,
    # norm = (-1)^d p(0); spot check against explicit root products
    p = (x - 2) * (x - 5)  # reducible, so use _norm_unchecked semantics
    assert _norm_unchecked(p) == 10  # 2 * 5


def test_factorization_json_roundtrip():
    fac = factor(6 * (x + 1) ** 2 * (x ** 2 + x + 7))
    obj = fac.to_json()
    assert obj["content"] == "6"
    assert Factorization.from_json(obj) == fac


def test_factor_medium_degree_irreducible_fast_path():
    # cyclotomic of a prime power: phi(25) = 20; irreducible over Q
    f = cyclotomic(25)
    fac = factor(f)
    assert fac.factors == ((f, 1),)


def test_factor_equal_degree_split():
    # two quadratics that stay quadratic mod many primes: the Berlekamp
    # split must separate factors of equal degree
    f = (x ** 2 + 3) * (x ** 2 + 7)
    fac = factor(f)
    assert as_set(fac) == sorted([((3, 0, 1), 1), ((7, 0, 1), 1)])


def _no_prime(G):
    raise AssertionError("a prime was chosen for an input the Newton polygon proves")


def test_newton_polygon_proves_before_any_prime(monkeypatch):
    # x^3 - 4: v_2(a_0) = 2 at degree 3, which classical Eisenstein misses;
    # x^2 + 6x + 12: gcd(v_2(a_0), 2) = 2 fails, v_3(a_0) = 1 proves it;
    # the degree-80 h = 1 Misiurewicz polynomial of (n, t, tau) = (3, 4, 3)
    # at p = 3.  The factor self-check cannot catch a false irreducibility
    # claim, so Zassenhaus alone confirms each one first
    P = misiurewicz_poly(3, 4, 1, 3, "chat").poly
    assert P.degree == 80
    inputs = (x ** 3 - 4, x ** 2 + 6 * x + 12, P)
    with monkeypatch.context() as m:
        m.setattr(factorz, "_newton_polygon_irreducible", lambda a: False)
        assert [factor(f).factors for f in inputs] == [((f, 1),) for f in inputs]
    monkeypatch.setattr(factorz, "_candidate_primes", _no_prime)
    assert [factor(f).factors for f in inputs] == [((f, 1),) for f in inputs]


def test_newton_polygon_leaves_reducible_inputs_to_zassenhaus():
    # one segment, but gcd(v_2(a_0), d) = gcd(2, 2) = 2
    assert as_set(factor(x ** 2 - 4)) == [((-2, 1), 1), ((2, 1), 1)]
    # two Eisenstein polynomials at 2: x^3 + 4x^2 + 6x + 4 has v_2(a_0) = 2
    # coprime to d = 3, but (1, v_2(6)) = (1, 1) lies below the segment from
    # (0, 2) to (3, 0), so the polygon has two segments
    a, b = x ** 2 + 2 * x + 2, x + 2
    assert not _newton_polygon_irreducible((a * b).coeffs)
    assert as_set(factor(a * b)) == sorted([(a.coeffs, 1), (b.coeffs, 1)])
    # 2x^2 - 2 = 2(x - 1)(x + 1): 2 divides every coefficient, the leading
    # one too, so its polygon does not end at (2, 0)
    assert not _newton_polygon_irreducible((-2, 0, 2))
    assert _newton_polygon_irreducible((-2, 0, 1))


def test_factor_self_check_raises_without_assert(monkeypatch):
    # the re-multiplication check must survive python -O
    real = factorz._factor_squarefree_primitive
    monkeypatch.setattr(factorz, "_factor_squarefree_primitive", lambda G: real(G)[1:])
    with pytest.raises(ArithmeticError, match="self-check"):
        factor((x ** 2 + 1) * (x - 3))


# ---------------------------------------------------------------------------
# GF(p) kernel against the list path: the schoolbook list products are the
# reference for the numpy Frobenius matrix, and a distinct-degree
# factorization on lists for the degrees of the Berlekamp split


def _list_mulmod(a, b, f, p):
    return _bdivmod_monic(_bmul(a, b, p), f, p)[1]


def _list_powmod(a, e, f, p):
    result, b = [1], _bdivmod_monic(a, f, p)[1]
    while e:
        if e & 1:
            result = _list_mulmod(result, b, f, p)
        e >>= 1
        b = _list_mulmod(b, b, f, p)
    return result


def _list_frobenius(f, p):
    d = len(f) - 1
    xp, cur, rows = _list_powmod([0, 1], p, f, p), [1], []
    for _ in range(d):
        rows.append(cur + [0] * (d - len(cur)))
        cur = _list_mulmod(cur, xp, f, p)
    return rows


def _list_exactdiv(a, b, p):
    q, r = _gf_divmod(a, b, p)
    assert not r
    return q


def _list_ddf(f, p):
    """Distinct-degree factorization recomputing x^(p^j) mod the cofactor."""
    out, h, rest, j = [], [0, 1], list(f), 0
    while len(rest) - 1 >= 2 * (j + 1):
        j += 1
        h = _list_powmod(h, p, rest, p)
        hx = h + [0] * (2 - len(h))
        hx[1] = (hx[1] - 1) % p
        g = _gf_gcd(_strip(hx), rest, p)
        if len(g) > 1:
            out.append((g, j))
            rest = _list_exactdiv(rest, g, p)
            h = _bdivmod_monic(h, rest, p)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _random_squarefree_monic(rng, d, p):
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        df = _strip([i * f[i] % p for i in range(1, d + 1)])
        if _gf_gcd(f, df, p) == [1]:
            return f


def _nullity(f, p):
    return len(f) - 1 - len(_berlekamp_echelon(_frobenius(f, p), p)[1])


@pytest.mark.parametrize("p", [5, 7, 11, 13, 97])
def test_frobenius_kernel_matches_list_path(p):
    rng = random.Random(p)
    for d in (2, 3, 4, 7, 12, 16, 17, 20, 31, 48):
        f = _random_squarefree_monic(rng, d, p)
        q = _frobenius(f, p)
        rows = _list_frobenius(f, p)
        assert q.tolist() == rows, (p, d)
        echelon, pivots = _berlekamp_echelon(q, p)
        count = d - len(pivots)
        assert count == _nullity(f, p)
        factors = _berlekamp_split(f, echelon, pivots, p, count)
        assert len(factors) == count, (p, d)
        assert all(g[-1] == 1 for g in factors), (p, d)
        product = [1]
        for g in factors:
            product = _bmul(product, g, p)
        assert product == f, (p, d)
        degrees = sorted(j for part, j in _list_ddf(f, p) for _ in range((len(part) - 1) // j))
        assert sorted(len(g) - 1 for g in factors) == degrees, (p, d)
        assert all(_nullity(g, p) == 1 for g in factors), (p, d)


def _spy_split(monkeypatch):
    calls = []
    real = factorz._berlekamp_split

    def spy(f, rows, pivots, p, r):
        out = real(f, rows, pivots, p, r)
        calls.append((p, len(out)))
        return out

    monkeypatch.setattr(factorz, "_berlekamp_split", spy)
    return calls


def test_berlekamp_split_many_linear_factors(monkeypatch):
    # 150 distinct roots mod 151, the first prime of good reduction, where
    # the last factor x - 150 is the kernel vector x at s = p - 1
    calls = _spy_split(monkeypatch)
    f = IntPoly.const(1)
    for i in range(1, 151):
        f = f * (x - i)
    assert as_set(factor(f)) == [((-i, 1), 1) for i in range(150, 0, -1)]
    assert calls == [(151, 150)]


def test_berlekamp_split_at_a_large_prime(monkeypatch):
    # N * i is 0 mod every odd prime below 3,000, so x^2 - N i is a square
    # there and the first prime of good reduction lies above 3,000
    calls = _spy_split(monkeypatch)
    N = 1
    for q in range(3, 3000, 2):
        if polycore._is_prime(q):
            N *= q
    quadratics = [x ** 2 - N * i for i in range(1, 9)]
    f = IntPoly.const(1)
    for g in quadratics:
        f = f * g
    assert as_set(factor(f)) == sorted((g.coeffs, 1) for g in quadratics)
    assert len(calls) == 1 and calls[0][0] > 3000


def test_ring_refuses_inexact_int64():
    p = (1 << 32) + 15  # p^2 alone exceeds 2^63
    with pytest.raises(OverflowError):
        _frobenius([1, 1], p)
    p = 2_097_169  # p^2 * d < 2^63, but a Frobenius fold sums p terms below p^2
    with pytest.raises(OverflowError):
        _frobenius([1, 0, 1], p)
    _frobenius([1] * 17 + [1], 10007)  # the largest prime of factoring stays exact


def test_kronecker_product_matches_schoolbook(monkeypatch):
    rng = random.Random(5)
    cases = []
    for bits in (3, 61, 64, 400):
        m = rng.getrandbits(bits) | 1
        for la, lb in ((1, 30), (9, 9), (12, 40), (50, 33)):
            a = [rng.randrange(m) for _ in range(la - 1)] + [m - 1]
            b = [rng.choice((0, m - 1, rng.randrange(m))) for _ in range(lb - 1)] + [1]
            cases.append((a, b, m))
    fast = [_bmul(a, b, m) for a, b, m in cases]
    monkeypatch.setattr(polycore, "_KRONECKER_MIN_TERMS", 10 ** 9)
    assert fast == [_bmul(a, b, m) for a, b, m in cases]


def test_monic_division_mod_m_identity():
    rng = random.Random(6)
    for bits in (5, 64, 700):
        m = rng.getrandbits(bits) | 1
        for la, lb in ((3, 5), (40, 1), (40, 17), (90, 30)):
            a = [rng.randrange(m) for _ in range(la)]
            b = [rng.randrange(m) for _ in range(lb - 1)] + [1]
            q, r = _bdivmod_monic(a, b, m)
            assert len(r) < len(b) and all(0 <= v < m for v in q + r)
            assert _badd(_bmul(q, b, m), r, m) == _strip([v % m for v in a])


# ---------------------------------------------------------------------------
# Hensel lifting: known integer factors are recovered from their images mod p


def _irreducible_quadratic_mod_p(a, b, p):
    # x^2 + a x + b has no root mod p iff its discriminant is a non-residue
    disc = (a * a - 4 * b) % p
    return disc != 0 and pow(disc, (p - 1) // 2, p) == p - 1


@pytest.mark.parametrize("p", [5, 10007])
def test_hensel_lift_recovers_known_factors(p):
    # r = 2 ... 9 covers every shape of the split up to 9 factors
    rng = random.Random(p)
    big = 10 ** 12
    for r in range(2, 10):
        images, factors = set(), []
        while len(factors) < r:
            if len(factors) % 2:
                a, b = rng.randrange(p), rng.randrange(p)
                if not _irreducible_quadratic_mod_p(a, b, p):
                    continue
                image = (b, a, 1)
            else:
                image = (rng.randrange(p), 1)
            if image in images:
                continue  # the images must be coprime mod p
            images.add(image)
            low = [c + p * rng.randrange(-big, big) for c in image[:-1]]
            factors.append(IntPoly(low + [1]))
        G = IntPoly.const(1)
        for f in factors:
            G = G * f
        bound = max(factorz._factor_bound(G, f.degree) for f in factors)
        mods = [_residues(f.coeffs, p) for f in factors]
        lifted, modulus = factorz._hensel_lift(G, mods, p)(bound)
        assert 2 * bound < modulus <= (2 * bound) ** 2
        assert [_symmetric(f, modulus) for f in lifted] == [list(f.coeffs) for f in factors]


def _full_width_hensel_step(f, g, h, s, t, m):
    """The quadratic step with every product over Z/m^2 (von zur
    Gathen-Gerhard 15.4): the reference for the half-width step."""
    m2 = m * m
    e = _bsub(f, _bmul(g, h, m2), m2)
    q, r = _bdivmod_monic(_bmul(s, e, m2), h, m2)
    g1 = _badd(_badd(g, _bmul(t, e, m2), m2), _bmul(q, g, m2), m2)
    h1 = _badd(h, r, m2)
    b = _bsub(_badd(_bmul(s, g1, m2), _bmul(t, h1, m2), m2), [1], m2)
    c, d = _bdivmod_monic(_bmul(s, b, m2), h1, m2)
    s1 = _bsub(s, d, m2)
    t1 = _bsub(_bsub(t, _bmul(t, b, m2), m2), _bmul(c, g1, m2), m2)
    return g1, h1, s1, t1


def _coprime_split(rng, p, dg, dh):
    """Random coprime monic g, h over GF(p) and their Bezout pair."""
    while True:
        g = [rng.randrange(p) for _ in range(dg)] + [1]
        h = [rng.randrange(p) for _ in range(dh)] + [1]
        if _gf_gcd(g, h, p) == [1]:
            return (g, h) + factorz._bezout(g, h, p)


@pytest.mark.parametrize("p", [5, 7, 101, 10007])
def test_half_width_hensel_step_matches_full_width(p):
    rng = random.Random(p)
    for dg, dh in ((1, 1), (1, 4), (3, 2), (6, 9), (20, 17)):
        g, h, s, t = _coprime_split(rng, p, dg, dh)
        F = _badd(_bmul(g, h, p), [p * rng.randrange(-p ** 20, p ** 20) for _ in range(dg + dh)], p ** 40)
        m = p
        for _ in range(4):  # valid mod p^16
            g, h, s, t = _full_width_hensel_step(_residues(F, m * m), g, h, s, t, m)
            m *= m
        for k in (1, 2, 3, 5, 8):
            m = p ** k
            args = [_residues(v, m) for v in (g, h, s, t)]
            f = _residues(F, m * m)
            assert factorz._hensel_step(f, *args, m) == _full_width_hensel_step(f, *args, m), (p, k)


def test_hensel_step_refuses_inputs_not_valid_mod_m():
    g, h, s, t = [1, 1], [2, 1], [4], [1]  # s g + t h = 1 mod 5
    f = _bmul(g, h, 25)
    factorz._hensel_step(f, g, h, s, t, 5)
    with pytest.raises(ArithmeticError, match="not valid mod 5"):
        factorz._hensel_step(_badd(f, [1], 25), g, h, s, t, 5)  # f != g h mod 5
    with pytest.raises(ArithmeticError, match="not valid mod 5"):
        factorz._hensel_step(f, g, h, [2], t, 5)  # s g + t h != 1 mod 5


def test_hensel_lift_rejects_factors_not_coprime_mod_p():
    G = (x - 1) * (x - 6)  # equal mod 5
    with pytest.raises(ArithmeticError, match="not coprime"):
        factorz._hensel_lift(G, [[4, 1], [4, 1]], 5)


def test_factor_nonmonic_lifts_through_the_root_scaling(monkeypatch):
    # lc 12 and three factors: the monic scaling splits mod every prime, so
    # the Hensel lift and the map back to the non-monic factors both run
    a, b, c = 2 * x + 3, 3 * x - 1, 2 * x ** 2 + 5
    calls = []
    real = factorz._hensel_lift

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(factorz, "_hensel_lift", spy)
    fac = factor(a * b * c)
    assert calls and fac.content == 1
    assert as_set(fac) == sorted([(a.coeffs, 1), (b.coeffs, 1), (c.coeffs, 1)])
    fac = factor(-6 * a * b * c ** 2)
    assert fac.content == -6
    assert as_set(fac) == sorted([(a.coeffs, 1), (b.coeffs, 1), (c.coeffs, 2)])


# ---------------------------------------------------------------------------
# Recombination: the constant-term filter at a 64-bit lift and the
# per-degree lift target


def _spy_lifts(monkeypatch):
    """Record (bound, modulus) of every call of every lift _hensel_lift makes."""
    calls = []
    real = factorz._hensel_lift

    def spy(G, mods, p):
        lift = real(G, mods, p)

        def resume(bound):
            out = lift(bound)
            calls.append((bound, out[1]))
            return out

        return resume

    monkeypatch.setattr(factorz, "_hensel_lift", spy)
    return calls


def _full_mignotte_bound(G):
    # Mignotte's one bound for a factor of any degree: sqrt(d + 1) 2^d |G|_inf
    return (math.isqrt(G.degree + 1) + 1) * (1 << G.degree) * max(abs(c) for c in G.coeffs)


def test_irreducible_input_stops_at_the_64_bit_lift(monkeypatch):
    # Selmer's x^n - x - 1 is irreducible over Q, but splits mod every
    # candidate prime at n = 200: no subset passes the constant-term test
    # at the first lift, which proves it irreducible below 128 bits, where
    # the full coefficient bound is above 200 bits
    calls = _spy_lifts(monkeypatch)
    G = x ** 200 - x - 1
    assert factor(G).factors == ((G, 1),)
    assert calls == [(1 << 63, calls[0][1])]
    assert 2 ** 64 < calls[0][1] < 2 ** 128 < _full_mignotte_bound(G)


def test_reducible_input_factors_at_the_per_degree_target(monkeypatch):
    # G(0) = 1, so the first lift stops near 64 bits; there only the
    # quadratic and the cubic pass, and the quadratic's coefficient 2^200
    # needs a second lift, to B_2 = min(B_2, B_3), far below the full bound
    calls = _spy_lifts(monkeypatch)
    a, b = x ** 2 + 2 ** 200 * x - 1, x ** 3 - x - 1
    G = a * b
    assert as_set(factor(G)) == sorted([(a.coeffs, 1), (b.coeffs, 1)])
    bound = factorz._factor_bound(G, 2)
    assert [c[0] for c in calls] == [1 << 63, bound]
    assert 2 * bound < calls[1][1] and bound < factorz._factor_bound(G, 3)
    assert bound.bit_length() < _full_mignotte_bound(G).bit_length() - 4


def test_second_lift_resumes_the_first(monkeypatch):
    # the input above needs a second lift; it resumes the first, so the r
    # modular factors cost r - 1 Bezout pairs, and no split takes a step
    # at one modulus twice
    calls, sizes, bezouts, steps = _spy_lifts(monkeypatch), [], [], []
    real_lift, real_bezout, real_step = factorz._hensel_lift, factorz._bezout, factorz._hensel_step

    def lift(G, mods, p):
        sizes.append(len(mods))
        return real_lift(G, mods, p)

    def bezout(g, h, p):
        bezouts.append(p)
        return real_bezout(g, h, p)

    def step(f, g, h, s, t, m):
        steps.append((m, tuple(g), tuple(h)))
        return real_step(f, g, h, s, t, m)

    monkeypatch.setattr(factorz, "_hensel_lift", lift)
    monkeypatch.setattr(factorz, "_bezout", bezout)
    monkeypatch.setattr(factorz, "_hensel_step", step)
    a, b = x ** 2 + 2 ** 200 * x - 1, x ** 3 - x - 1
    assert as_set(factor(a * b)) == sorted([(a.coeffs, 1), (b.coeffs, 1)])
    assert len(calls) == 2 and len(sizes) == 1 and sizes[0] >= 2
    assert len(bezouts) == sizes[0] - 1
    assert steps and len(set(steps)) == len(steps)


def test_hensel_lift_refuses_a_drifted_lift(monkeypatch):
    # the last step's g is moved by m, so it stays valid mod m and no step
    # sees it; only the product check against G can catch it
    G = (x - 1) * (x + 1) * (x ** 2 + 2)  # x^2 + 2 is irreducible mod 5
    mods, bound = [[4, 1], [1, 1], [2, 0, 1]], 10 ** 30
    real, steps = factorz._hensel_step, []

    def count(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(factorz, "_hensel_step", count)
    factorz._hensel_lift(G, mods, 5)(bound)
    last, seen = len(steps), []

    def corrupt(f, g, h, s, t, m):
        g1, h1, s1, t1 = real(f, g, h, s, t, m)
        seen.append(m)
        if len(seen) == last:
            g1 = [(g1[0] + m) % (m * m)] + g1[1:]
        return g1, h1, s1, t1

    monkeypatch.setattr(factorz, "_hensel_step", corrupt)
    lift = factorz._hensel_lift(G, mods, 5)
    with pytest.raises(ArithmeticError, match="drifted"):
        lift(bound)
    assert len(seen) == last


def test_constant_test_needs_a_modulus_past_twice_g0(monkeypatch):
    # N = 5^64 - 3 > 2^148, and p = 5 is the first prime seeing the fewest
    # factors: x - N and x^4 + 1 as two quadratics.  Only the linear
    # factor's subset is tested (the quartic's holds 2 of 3), and its
    # constant -N needs a modulus past 2N: mod 5^64, just past N, its
    # symmetric lift is 3, which does not divide N; without the symmetric
    # lift it is 5^128 - N
    calls = _spy_lifts(monkeypatch)
    N = 5 ** 64 - 3
    G = (x - N) * (x ** 4 + 1)
    assert as_set(factor(G)) == sorted([((-N, 1), 1), ((1, 0, 0, 0, 1), 1)])
    assert calls == [(N, 5 ** 128)]


def test_recombination_tries_subsets_of_half_the_factors():
    # Phi_8 and Phi_12 split in two mod every prime, so r = 4 at best and
    # each factor over Z is a subset of exactly r / 2 modular factors
    a, b = x ** 4 + 1, x ** 4 - x ** 2 + 1
    assert as_set(factor(a * b)) == sorted([(a.coeffs, 1), (b.coeffs, 1)])


def _swinnerton_dyer(primes):
    """prod (x - sum of +-sqrt(p)), p in primes: F <- A^2 - p B^2 from
    F(x + sqrt(p)) = A + sqrt(p) B."""
    F = x
    for p in primes:
        A, B = IntPoly.zero(), IntPoly.zero()
        for c in reversed(F.coeffs):  # Horner in x + sqrt(p)
            A, B = x * A + p * B + c, A + x * B
        F = A * A - p * B * B
    return F


def test_swinnerton_dyer_passes_the_filter_and_stays_irreducible(monkeypatch):
    # SD(2,3,5,7) splits into factors of degree <= 2 mod every prime.  Its
    # G(0) = 46,225 = 215^2, and SD(2,3,5)(-sqrt 7) = -215: a subset of
    # its modular factors passes the constant-term test without being a
    # factor, so trial division has to reject it
    assert _swinnerton_dyer((2, 3)) == x ** 4 - 10 * x ** 2 + 1
    G = _swinnerton_dyer((2, 3, 5, 7))
    assert G.degree == 16 and G.constant == 46_225
    trials = []
    real = IntPoly.divmod_exact

    def spy(self, other):
        if self == G:
            trials.append(other.degree)
        return real(self, other)

    monkeypatch.setattr(IntPoly, "divmod_exact", spy)
    assert factor(G).factors == ((G, 1),)
    assert 8 in trials
