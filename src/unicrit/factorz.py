"""Exact factorization of integer polynomials.

Zassenhaus with the usual refinements: Yun squarefree decomposition, prime
selection over several candidates, a Berlekamp factor-count fast path that
proves irreducibility outright when some prime sees a single factor,
distinct/equal-degree factorization over GF(p), quadratic Hensel lifting
along a factor tree, and subset recombination against a rigorous factor
coefficient bound.  Output order is deterministic: (degree, coefficients).

Arithmetic in GF(p)[x]/(f) goes through one kernel, _Ring, built once per
(f, p): numpy int64 convolution plus a precomputed reduction matrix above a
small degree, plain lists below it.  Each candidate prime's Frobenius matrix
Q (rows x^(ip) mod f) is built once; its nullity is Berlekamp's factor
count, and the best prime's Q then drives distinct-degree factorization as
the linear map h -> h^p.  Hensel products use Kronecker substitution.

Everything is exact; the final factorization is re-multiplied and compared
against the input before it is returned, and a failed check raises
ArithmeticError (never an assert, so it survives python -O).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .polycore import IntPoly, _is_prime, gcd_fast, poly_from_json, poly_to_json

# Above this degree a product in GF(p)[x]/(f) is one numpy convolution plus
# one matrix-vector reduction; at or below it numpy's per-call overhead costs
# more than the list loops.  Factoring the thm31 sweep's inputs with this
# switch at 4 ... 32 was fastest at 12 and 16.
_NP_MIN_DEGREE = 16
# Above this many terms (of the shorter factor) a product over Z/m is one
# big-integer multiplication (Kronecker substitution) instead of schoolbook.
# Measured crossover: ~10 terms at 60-bit moduli, ~24 at 600-bit ones.
_KRONECKER_MIN_TERMS = 16
# Degrees that share one gcd in distinct-degree factorization: a gcd costs
# O(d^2) list steps, the product that merges one more degree into it one
# ring product.  Blocks of 4 ... 32 timed alike on the thm31 sweep's inputs.
_DDF_BLOCK = 16


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
    r = list(a)
    df = len(f) - 1
    for k in range(len(a) - len(f), -1, -1):
        t = r[k + df]
        if t:
            for j in range(df):
                r[k + j] = (r[k + j] - t * f[j]) % p
            r[k + df] = 0
    return _ptrim(r[:df])


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


def _pexactdiv(a: list[int], b: list[int], p: int) -> list[int]:
    q, r = _pdivmod(a, b, p)
    if r:
        raise ArithmeticError(f"GF({p}) division left a remainder of degree {len(r) - 1}")
    return q


def _reduce(poly: IntPoly, p: int) -> list[int]:
    return _ptrim([c % p for c in poly.coeffs])


class _Ring:
    """GF(p)[x]/(f) for monic f of degree d >= 1.

    Built once per (f, p).  Above _NP_MIN_DEGREE an element is an int64
    vector of length d, and a product is a convolution whose top d - 1
    coefficients are folded back by the precomputed rows x^d .. x^(2d-2)
    mod f.  At or below it, elements are coefficient lists and products use
    the list helpers above.  Every int64 sum has at most d terms below p^2,
    so p^2 * d < 2^63 keeps it exact.
    """

    def __init__(self, f: list[int], p: int):
        d = len(f) - 1
        if p * p * d >= 1 << 63:
            raise OverflowError(f"GF({p}) products of degree {d} overflow int64")
        self.f, self.p, self.d = f, p, d
        self.red = None
        if d > _NP_MIN_DEGREE:
            red = np.empty((d - 1, d), dtype=np.int64)
            red[0] = [-c % p for c in f[:d]]
            for k in range(1, d - 1):
                red[k, 0] = 0
                red[k, 1:] = red[k - 1, :-1]
                red[k] = (red[k] + red[k - 1, -1] * red[0]) % p
            self.red = red

    def _vec(self, a: list[int]):
        a = _pmod(a, self.f, self.p)
        if self.red is None:
            return a
        v = np.zeros(self.d, dtype=np.int64)
        v[: len(a)] = a
        return v

    def _mul(self, u, v):
        if self.red is None:
            return _pmod(_pmul(u, v, self.p), self.f, self.p)
        c = np.convolve(u, v) % self.p
        return (c[: self.d] + c[self.d :] @ self.red) % self.p

    def _pow(self, a: list[int], e: int):
        result, b = self._vec([1]), self._vec(a)
        while e:
            if e & 1:
                result = self._mul(result, b)
            e >>= 1
            if e:
                b = self._mul(b, b)
        return result

    def _list(self, v) -> list[int]:
        return v if self.red is None else _ptrim(v.tolist())

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        """a * b mod f."""
        return self._list(self._mul(self._vec(a), self._vec(b)))

    def pow(self, a: list[int], e: int) -> list[int]:
        """a^e mod f."""
        return self._list(self._pow(a, e))

    def frobenius(self) -> np.ndarray:
        """Berlekamp's Q: row i is x^(ip) mod f, so h^p = h @ Q for any h."""
        q = np.zeros((self.d, self.d), dtype=np.int64)
        q[0, 0] = 1
        xp = cur = self._pow([0, 1], self.p)
        for i in range(1, self.d):
            q[i, : len(cur)] = cur
            cur = self._mul(cur, xp)
        return q


# ---------------------------------------------------------------------------
# Berlekamp factor count


def _berlekamp_factor_count(q: np.ndarray, p: int) -> int:
    """Number of irreducible factors over GF(p) of a squarefree monic f,
    from its Frobenius matrix q: the nullity of q - I."""
    d = q.shape[0]
    m = q - np.eye(d, dtype=np.int64)
    # rank over GF(p) by vectorized elimination.  Only the pivot column and
    # row are reduced mod p: any other entry takes at most d updates, each
    # below p^2, and p^2 * d < 2^63 (checked by _Ring) keeps it exact
    rank = 0
    col = 0
    r = 0
    while r < d and col < d:
        m[r:, col] %= p
        pivots = np.nonzero(m[r:, col])[0]
        if pivots.size == 0:
            col += 1
            continue
        pr = r + int(pivots[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r, col:] %= p
        inv = pow(int(m[r, col]), p - 2, p)
        # rows r.. are zero left of col, so only columns col.. change
        m[r, col:] = m[r, col:] * inv % p
        rows = r + 1 + np.nonzero(m[r + 1 :, col])[0]
        if rows.size:
            m[rows, col:] -= np.outer(m[rows, col], m[r, col:])
        rank += 1
        r += 1
        col += 1
    return d - rank


# ---------------------------------------------------------------------------
# distinct-degree / equal-degree factorization over GF(p)


def _ddf(f: list[int], q: np.ndarray, p: int) -> list[tuple[list[int], int]]:
    """[(product of irreducible factors of degree j, j)] for monic squarefree f
    of degree >= 2, given its Frobenius matrix q."""
    ring = _Ring(f, p)
    out = []
    h = np.zeros(len(f) - 1, dtype=np.int64)
    h[1] = 1
    rest = list(f)
    j = 0
    while len(rest) - 1 >= 2 * (j + 1):
        # h_j = x^(p^j) mod f, one linear step per degree.  A block of degrees
        # shares one gcd of prod (h_j - x) with rest, which is 1 unless rest
        # has a factor of a degree in the block; only then is each h_j - x
        # taken apart.  Everything stays mod f, not mod rest: rest | f.
        block, acc = [], [1]
        while len(block) < _DDF_BLOCK and len(rest) - 1 >= 2 * (j + 1):
            j += 1
            h = h @ q % p
            hx = h.tolist()
            hx[1] = (hx[1] - 1) % p
            block.append((_ptrim(hx), j))
            acc = ring.mul(acc, block[-1][0])
        found = _pgcd(acc, rest, p)
        if len(found) == 1:
            continue
        rest = _pexactdiv(rest, found, p)
        for hx, j_hx in block:
            g = _pgcd(hx, found, p)
            if len(g) > 1:
                out.append((g, j_hx))
                found = _pexactdiv(found, g, p)
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _edf(f: list[int], j: int, p: int, rng: random.Random) -> list[list[int]]:
    """Split monic squarefree f (all factors degree j) into irreducibles."""
    d = len(f) - 1
    if d == j:
        return [f]
    ring = _Ring(f, p)
    exponent = (p ** j - 1) // 2
    while True:
        t = [rng.randrange(p) for _ in range(2 * j)] + [1]
        w0 = ring.pow(t, exponent)
        if not w0:
            continue
        w0[0] = (w0[0] - 1) % p
        g = _pgcd(_ptrim(w0), f, p)
        if 0 < len(g) - 1 < d:
            q = _pexactdiv(f, g, p)
            return _edf(g, j, p, rng) + _edf(q, j, p, rng)


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, factor tree)


def _bmul(a: list[int], b: list[int], m: int) -> list[int]:
    """Product of coefficient lists with entries in [0, m), reduced into [0, m)."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if min(len(a), len(b)) > _KRONECKER_MIN_TERMS:
        # evaluate both at 2^(8w), multiply once, read the coefficients back
        # off the bytes: w bytes hold every coefficient of the product
        bits = max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()
        w = bits // 8 + 1
        A, B = (
            int.from_bytes(b"".join(c.to_bytes(w, "little") for c in v), "little")
            for v in (a, b)
        )
        raw = (A * B).to_bytes(n * w, "little")
        return _ptrim([int.from_bytes(raw[i : i + w], "little") % m for i in range(0, n * w, w)])
    out = [0] * n
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
            # reduced once at the end: only the leading term is read mod m
            r[k : k + df + 1] = [u - t * v for u, v in zip(r[k : k + df + 1], b)]
    return _ptrim(q), _ptrim([v % m for v in r[:df]])


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
    if len(r0) != 1:
        raise ArithmeticError(f"hensel factors not coprime mod {p}")
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
    if check != _ptrim([c % modulus for c in G.coeffs]):
        raise ArithmeticError("hensel lift drifted")
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
    best = None  # (r_p, p, G mod p, its Frobenius matrix) of the fewest factors
    for p in _candidate_primes(G):
        fp = _reduce(G, p)  # monic, since G is
        q = _Ring(fp, p).frobenius()
        r_p = _berlekamp_factor_count(q, p)
        if r_p == 1:
            return [G]  # proven irreducible by a single prime
        if best is None or r_p < best[0]:
            best = (r_p, p, fp, q)
        del q  # only the best prime's matrix stays alive
    r_best, p, fp, q = best
    rng = random.Random(0xDEC0DE ^ (p * 1009) ^ d)
    mods: list[list[int]] = []
    for part, j in _ddf(fp, q, p):
        mods.extend(_edf(part, j, p, rng))
    if len(mods) != r_best:
        raise ArithmeticError(f"GF({p}) split into {len(mods)} factors, Berlekamp counted {r_best}")
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
    if result.expand() != F:
        raise ArithmeticError("factorization failed self-check")
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
    if prod != G:
        raise ArithmeticError("monicize mapping lost a content factor")
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
