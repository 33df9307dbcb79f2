"""Exact factorization of integer polynomials.

Zassenhaus with the usual refinements: Yun squarefree decomposition, prime
selection over several candidates, a Berlekamp factor-count fast path that
proves irreducibility outright when some prime sees a single factor,
distinct/equal-degree factorization over GF(p), quadratic Hensel lifting
along a factor tree, and subset recombination against a rigorous factor
coefficient bound.  Output order is deterministic: (degree, coefficients).

Everything is exact; the final factorization is re-multiplied and compared
against the input before it is returned.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .polycore import IntPoly, _is_prime, gcd_fast, poly_from_json, poly_to_json

_NP_THRESHOLD = 200  # below this, plain python lists beat numpy overhead


@dataclass(frozen=True)
class Factorization:
    """content * prod(poly^mult); factors primitive with positive lc."""

    content: int
    factors: tuple[tuple[IntPoly, int], ...]

    def expand(self) -> IntPoly:
        var = self.factors[0][0].var if self.factors else "x"
        out = IntPoly.const(self.content, var)
        for poly, mult in self.factors:
            out = out * poly ** mult
        return out

    def to_json(self) -> dict:
        return {
            "content": str(self.content),
            "factors": [
                {"poly": poly_to_json(p), "mult": m} for p, m in self.factors
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Factorization":
        return cls(
            int(obj["content"]),
            tuple(
                (poly_from_json(f["poly"]), int(f["mult"]))
                for f in obj["factors"]
            ),
        )


# ---------------------------------------------------------------------------
# GF(p) polynomial helpers; coefficient lists ascending, normalized (no top 0)


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    if min(len(a), len(b)) >= _NP_THRESHOLD:
        out = np.convolve(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        ) % p
        return _ptrim([int(v) for v in out])
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return _ptrim([v % p for v in out])


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f with f monic."""
    if len(a) < len(f):
        return list(a)
    if len(a) >= _NP_THRESHOLD:
        r = np.array(a, dtype=np.int64)
        fv = np.array(f, dtype=np.int64)
        df = len(f) - 1
        for k in range(len(a) - len(f), -1, -1):
            t = int(r[k + df])
            if t:
                r[k : k + df] = (r[k : k + df] - t * fv[:df]) % p
                r[k + df] = 0
        return _ptrim([int(v) for v in r[:df]])
    r = list(a)
    df = len(f) - 1
    for k in range(len(a) - len(f), -1, -1):
        t = r[k + df]
        if t:
            for j in range(df):
                r[k + j] = (r[k + j] - t * f[j]) % p
            r[k + df] = 0
    return _ptrim(r[:df])


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    b = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, b, f, p)
        e >>= 1
        if e:
            b = _pmulmod(b, b, f, p)
    return result


def _pmonic(a: list[int], p: int) -> list[int]:
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [v * inv % p for v in a]


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        inv = pow(b[-1], p - 2, p)
        df = len(b) - 1
        for k in range(len(a) - len(b), -1, -1):
            t = a[k + df] * inv % p
            if t:
                for j in range(df + 1):
                    a[k + j] = (a[k + j] - t * b[j]) % p
        a, b = b, _ptrim(a[:df])
    return _pmonic(a, p)


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if len(a) < len(b):
        return [], list(a)
    inv = pow(b[-1], p - 2, p)
    r = list(a)
    df = len(b) - 1
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        t = r[k + df] * inv % p
        q[k] = t
        if t:
            for j in range(df + 1):
                r[k + j] = (r[k + j] - t * b[j]) % p
    return _ptrim(q), _ptrim(r[:df])


def _reduce(poly: IntPoly, p: int) -> list[int]:
    return _ptrim([c % p for c in poly.coeffs])


# ---------------------------------------------------------------------------
# Berlekamp factor count


def _berlekamp_factor_count(f: list[int], p: int) -> int:
    """Number of irreducible factors of squarefree monic f over GF(p)."""
    d = len(f) - 1
    if d <= 1:
        return d
    xp = _ppowmod([0, 1], p, f, p)
    rows = np.zeros((d, d), dtype=np.int64)
    rows[0, 0] = 1
    cur = [1]
    for i in range(1, d):
        cur = _pmulmod(cur, xp, f, p)
        rows[i, : len(cur)] = cur
    m = (rows - np.eye(d, dtype=np.int64)) % p
    # rank over GF(p) by vectorized elimination
    rank = 0
    col = 0
    r = 0
    while r < d and col < d:
        pivots = np.nonzero(m[r:, col])[0]
        if pivots.size == 0:
            col += 1
            continue
        pr = r + int(pivots[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, col]), p - 2, p)
        m[r] = m[r] * inv % p
        mask = np.nonzero(m[r + 1 :, col])[0]
        if mask.size:
            m[r + 1 + mask] = (m[r + 1 + mask] - np.outer(m[r + 1 + mask, col], m[r])) % p
        rank += 1
        r += 1
        col += 1
    return d - rank


# ---------------------------------------------------------------------------
# distinct-degree / equal-degree factorization over GF(p)


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """[(product of irreducible factors of degree j, j)] for monic squarefree f."""
    out = []
    h = [0, 1]
    rest = list(f)
    j = 0
    while len(rest) - 1 >= 2 * (j + 1):
        j += 1
        h = _ppowmod(h, p, rest, p)
        hx = list(h)
        # h - x
        while len(hx) < 2:
            hx.append(0)
        hx[1] = (hx[1] - 1) % p
        g = _pgcd(_ptrim(hx), rest, p)
        if len(g) > 1:
            out.append((g, j))
            rest, r = _pdivmod(rest, g, p)
            assert not r
            h = _pmod(h, rest, p)
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _edf(f: list[int], j: int, p: int, rng: random.Random) -> list[list[int]]:
    """Split monic squarefree f (all factors degree j) into irreducibles."""
    d = len(f) - 1
    if d == j:
        return [f]
    exponent = (p ** j - 1) // 2
    while True:
        t = [rng.randrange(p) for _ in range(2 * j)] + [1]
        w = _ppowmod(t, exponent, f, p)
        w0 = list(w)
        if not w0:
            continue
        w0[0] = (w0[0] - 1) % p
        g = _pgcd(_ptrim(w0), f, p)
        if 0 < len(g) - 1 < d:
            q, r = _pdivmod(f, g, p)
            assert not r
            return _edf(g, j, p, rng) + _edf(q, j, p, rng)


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, factor tree)


def _bmul(a: list[int], b: list[int], m: int) -> list[int]:
    """Product of coefficient lists, reduced into [0, m)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return _ptrim([v % m for v in out])


def _badd(a: list[int], b: list[int], m: int) -> list[int]:
    out = list(a) if len(a) >= len(b) else list(b)
    small = b if len(a) >= len(b) else a
    for i, v in enumerate(small):
        out[i] = (out[i] + v) % m
    return _ptrim([v % m for v in out])


def _bsub(a: list[int], b: list[int], m: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % m
    return _ptrim(out)


def _bdivmod_monic(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Division by monic b with coefficients mod m."""
    if len(a) < len(b):
        return [], list(a)
    r = list(a)
    df = len(b) - 1
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        t = r[k + df] % m
        q[k] = t
        if t:
            for j in range(df + 1):
                r[k + j] = (r[k + j] - t * b[j]) % m
    return _ptrim(q), _ptrim(r[:df])


class _HenselNode:
    __slots__ = ("poly", "left", "right", "s", "t")

    def __init__(self, poly, left=None, right=None):
        self.poly = poly
        self.left = left
        self.right = right
        self.s = None
        self.t = None


def _build_tree(factors: list[list[int]], p: int) -> _HenselNode:
    nodes = [_HenselNode(f) for f in factors]
    while len(nodes) > 1:
        nxt = []
        for i in range(0, len(nodes) - 1, 2):
            l, r = nodes[i], nodes[i + 1]
            nxt.append(_HenselNode(_pmul(l.poly, r.poly, p), l, r))
        if len(nodes) % 2:
            nxt.append(nodes[-1])
        nodes = nxt
    return nodes[0]


def _init_bezout(node: _HenselNode, p: int) -> None:
    if node.left is None:
        return
    g, h = node.left.poly, node.right.poly
    # extended euclid over GF(p): s*g + t*h = 1
    r0, r1 = list(g), list(h)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _bsub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _bsub(t0, _pmul(q, t1, p), p)
    assert len(r0) == 1, "hensel factors not coprime mod p"
    inv = pow(r0[0], p - 2, p)
    node.s = [v * inv % p for v in s0]
    node.t = [v * inv % p for v in t0]
    _init_bezout(node.left, p)
    _init_bezout(node.right, p)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic step: inputs valid mod m, outputs valid mod m^2."""
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


def _lift_tree(node: _HenselNode, f: list[int], m: int) -> None:
    """Lift node's children from mod m to mod m^2, given f == node product."""
    node.poly = f
    if node.left is None:
        return
    g, h = node.left.poly, node.right.poly  # children still hold mod-m values
    # orientation: right child kept monic (true for products of monic factors)
    g1, h1, s1, t1 = _hensel_step(f, g, h, node.s, node.t, m)
    node.s, node.t = s1, t1
    _lift_tree(node.left, g1, m)
    _lift_tree(node.right, h1, m)


def _hensel_lift(G: IntPoly, factors_p: list[list[int]], p: int, bound: int) -> tuple[list[list[int]], int]:
    """Lift monic factorization mod p until modulus > 2*bound."""
    modulus = p
    root = _build_tree(factors_p, p)
    _init_bezout(root, p)
    f_mod = [c % modulus for c in G.coeffs]
    while modulus <= 2 * bound:
        m2 = modulus * modulus
        f_mod = [c % m2 for c in G.coeffs]
        _lift_tree(root, _ptrim(list(f_mod)), modulus)
        modulus = m2
    out = []

    def collect(node):
        if node.left is None:
            out.append(node.poly)
        else:
            collect(node.left)
            collect(node.right)

    collect(root)
    check = [1]
    for f in out:
        check = _bmul(check, f, modulus)
    assert check == _ptrim([c % modulus for c in G.coeffs]), "hensel lift drifted"
    return out, modulus


# ---------------------------------------------------------------------------
# Zassenhaus driver


def _mignotte_bound(G: IntPoly) -> int:
    # any monic divisor h of monic G satisfies |h|_inf <= sqrt(n+1) 2^n |G|_inf
    n = G.degree
    norm = max(abs(c) for c in G.coeffs)
    return (math.isqrt(n + 1) + 1) * (1 << n) * norm + 1


def _symmetric_list(a: list[int], m: int) -> list[int]:
    half = m >> 1
    return [v - m if v > half else v for v in a]


def _candidate_primes(G: IntPoly, how_many: int = 8) -> list[int]:
    """Odd primes >= 5 of good reduction: lc survives, image squarefree."""
    out = []
    p = 3
    gp = G.derivative()
    while len(out) < how_many and p < 10_000:
        p += 2
        if not _is_prime(p):
            continue
        if G.lc % p == 0:
            continue
        fp = _reduce(G, p)
        dfp = _reduce(gp, p)
        if len(fp) - 1 != G.degree:
            continue
        g = _pgcd(fp, dfp, p)
        if len(g) == 1:
            out.append(p)
    if not out:
        raise ArithmeticError("no prime of good reduction found below 10000")
    return out


def _factor_squarefree_monic(G: IntPoly) -> list[IntPoly]:
    d = G.degree
    if d == 1:
        return [G]
    primes = _candidate_primes(G)
    counted = []
    for p in primes:
        r_p = _berlekamp_factor_count(_reduce(G, p), p)
        if r_p == 1:
            return [G]  # proven irreducible by a single prime
        counted.append((r_p, p))
    counted.sort()
    r_best, p = counted[0]
    fp = _pmonic(_reduce(G, p), p)
    rng = random.Random(0xDEC0DE ^ (p * 1009) ^ d)
    mods: list[list[int]] = []
    for part, j in _ddf(fp, p):
        mods.extend(_edf(part, j, p, rng))
    assert len(mods) == r_best
    mods.sort(key=lambda f: (len(f), f))
    bound = _mignotte_bound(G)
    lifted, modulus = _hensel_lift(G, mods, p, bound)
    # subset recombination
    remaining = list(range(len(lifted)))
    g_rem = G
    found: list[IntPoly] = []
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for combo in itertools.combinations(remaining, size):
            prod = [1]
            for i in combo:
                prod = _bmul(prod, lifted[i], modulus)
            cand = IntPoly(_symmetric_list(prod, modulus), G.var)
            if cand.constant == 0 or g_rem.constant % cand.constant:
                continue  # cheap filter: cand(0) must divide g_rem(0)
            if cand.divides(g_rem):
                found.append(cand)
                g_rem = g_rem.divexact(cand)
                remaining = [i for i in remaining if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    if g_rem.degree > 0:
        found.append(g_rem)
    return found


def _yun_squarefree(P: IntPoly) -> list[tuple[IntPoly, int]]:
    """Squarefree decomposition of a primitive positive-lc polynomial."""
    out: list[tuple[IntPoly, int]] = []
    g = gcd_fast(P, P.derivative())
    if g.degree == 0:
        return [(P, 1)]
    w = P.divexact(g)
    y = P.derivative().divexact(g)
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        if z.is_zero:
            out.append((w.primitive_part(), i))
            break
        f_i = gcd_fast(w, z).primitive_part()
        if f_i.degree > 0:
            out.append((f_i, i))
        w = w.divexact(f_i)
        y = z.divexact(f_i)
        i += 1
    return out


def factor(F: IntPoly) -> Factorization:
    """Full factorization over Z, deterministic factor order.

    >>> x = IntPoly.gen()
    >>> fac = factor(6 * (x + 1) ** 2 * (2 * x - 3))
    >>> fac.content
    6
    >>> [(p.coeffs, m) for p, m in fac.factors]
    [((-3, 2), 1), ((1, 1), 2)]
    """
    if F.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    content = F.content if F.lc > 0 else -F.content
    P = F.primitive_part()
    if P.degree == 0:
        return Factorization(content, ())
    pairs: list[tuple[IntPoly, int]] = []
    # strip powers of the variable
    k = 0
    while P.coeff(k) == 0:
        k += 1
    if k:
        pairs.append((IntPoly.gen(P.var), k))
        P = IntPoly(P.coeffs[k:], P.var)
    for sq, mult in _yun_squarefree(P) if P.degree > 0 else []:
        for irr in _factor_squarefree_primitive(sq):
            pairs.append((irr, mult))
    pairs.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    result = Factorization(content, tuple(pairs))
    assert result.expand() == F, "factorization failed self-check"
    return result


def _factor_squarefree_primitive(G: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree positive-lc polynomial."""
    if G.degree == 0:
        return []
    if G.is_monic:
        return _factor_squarefree_monic(G)
    # monicize: H(x) = L^(d-1) G(x/L) is monic with integer coefficients
    L = G.lc
    d = G.degree
    H = IntPoly(
        tuple(G.coeff(i) * L ** (d - 1 - i) for i in range(d)) + (1,), G.var
    )
    out = []
    for h in _factor_squarefree_monic(H):
        # map back: primitive part of h(L x)
        mapped = IntPoly(
            tuple(h.coeff(i) * L ** i for i in range(h.degree + 1)), G.var
        ).primitive_part()
        out.append(mapped)
    prod = IntPoly.const(1, G.var)
    for f in out:
        prod = prod * f
    assert prod == G, "monicize mapping lost a content factor"
    return out


def is_irreducible(F: IntPoly) -> bool:
    """Irreducibility over Q of the primitive part (degree >= 1 required)."""
    if F.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    fac = factor(F)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1


def norm_of_root(p: IntPoly) -> int:
    """Field norm of a root of a monic irreducible integer polynomial.

    Equals (-1)^deg * p(0): the product of all conjugate roots.
    """
    if not p.is_monic:
        raise ValueError("norm_of_root requires a monic polynomial")
    if not is_irreducible(p):
        raise ValueError("norm_of_root requires an irreducible polynomial")
    return _norm_unchecked(p)


def _norm_unchecked(p: IntPoly) -> int:
    return (-1) ** p.degree * p.constant
