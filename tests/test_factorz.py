"""Factorization tests.

Oracles are theorems, not reimplementations: cyclotomic polynomials are
irreducible over Q, Eisenstein polynomials at p=2 are irreducible, and
x^4 + 1 / x^4 - 10x^2 + 1 are irreducible over Z yet reducible modulo every
prime (forcing the Hensel lift + recombination path to do real work).
"""

import random

import numpy as np
import pytest

from unicrit import factorz
from unicrit.factorz import (
    Factorization,
    factor,
    is_irreducible,
    norm_of_root,
    _Ring,
    _badd,
    _bdivmod_monic,
    _bmul,
    _berlekamp_factor_count,
    _ddf,
    _edf,
    _norm_unchecked,
    _pgcd,
    _pmod,
    _pmul,
    _ptrim,
)
from unicrit.polycore import IntPoly, cyclotomic

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
    # two quadratics that stay quadratic mod many primes: EDF must split them
    f = (x ** 2 + 3) * (x ** 2 + 7)
    fac = factor(f)
    assert as_set(fac) == sorted([((3, 0, 1), 1), ((7, 0, 1), 1)])


def test_factor_self_check_raises_without_assert(monkeypatch):
    # the re-multiplication check must survive python -O
    real = factorz._factor_squarefree_primitive
    monkeypatch.setattr(factorz, "_factor_squarefree_primitive", lambda G: real(G)[1:])
    with pytest.raises(ArithmeticError, match="self-check"):
        factor((x ** 2 + 1) * (x - 3))


# ---------------------------------------------------------------------------
# GF(p) kernel against the list path: the schoolbook list products are the
# reference, and the degrees cover both sides of the ring's numpy switch


def _list_mulmod(a, b, f, p):
    return _pmod(_pmul(a, b, p), f, p)


def _list_powmod(a, e, f, p):
    result, b = [1], _pmod(a, f, p)
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


def _list_ddf(f, p):
    """Distinct-degree factorization recomputing x^(p^j) mod the cofactor."""
    out, h, rest, j = [], [0, 1], list(f), 0
    while len(rest) - 1 >= 2 * (j + 1):
        j += 1
        h = _list_powmod(h, p, rest, p)
        hx = h + [0] * (2 - len(h))
        hx[1] = (hx[1] - 1) % p
        g = _pgcd(_ptrim(hx), rest, p)
        if len(g) > 1:
            out.append((g, j))
            rest = factorz._pexactdiv(rest, g, p)
            h = _pmod(h, rest, p)
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _random_squarefree_monic(rng, d, p):
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        df = _ptrim([i * f[i] % p for i in range(1, d + 1)])
        if _pgcd(f, df, p) == [1]:
            return f


@pytest.mark.parametrize("p", [5, 7, 11, 13, 97])
def test_frobenius_kernel_matches_list_path(p, monkeypatch):
    rng = random.Random(p)
    for d in (2, 3, 4, 7, 12, 16, 17, 20, 31, 48):
        f = _random_squarefree_monic(rng, d, p)
        ring = _Ring(f, p)
        assert (ring.red is not None) == (d > factorz._NP_MIN_DEGREE)
        q = ring.frobenius()
        rows = _list_frobenius(f, p)
        assert q.tolist() == rows, (p, d)
        parts = _ddf(f, q, p)
        assert parts == _list_ddf(f, p), (p, d)
        with monkeypatch.context() as m:  # many blocks, split inside blocks
            m.setattr(factorz, "_DDF_BLOCK", 3)
            assert _ddf(f, q, p) == parts, (p, d)
        rng_edf = random.Random(d)
        irreducibles = [g for part, j in parts for g in _edf(part, j, p, rng_edf)]
        count = _berlekamp_factor_count(q, p)
        assert count == _berlekamp_factor_count(np.array(rows, dtype=np.int64), p)
        assert count == len(irreducibles)
        for _ in range(3):
            t = [rng.randrange(p) for _ in range(rng.randint(1, 2 * d))] + [1]
            e = rng.randrange(p ** 3)
            assert ring.pow(t, e) == _list_powmod(t, e, f, p), (p, d, e)


def test_ring_refuses_inexact_int64():
    p = (1 << 32) + 15  # p^2 alone exceeds 2^63
    with pytest.raises(OverflowError):
        _Ring([1, 1], p)
    _Ring([1] * 17 + [1], 10007)  # the largest prime of factoring stays exact


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
    monkeypatch.setattr(factorz, "_KRONECKER_MIN_TERMS", 10 ** 9)
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
            assert _badd(_bmul(q, b, m), r, m) == _ptrim([v % m for v in a])
