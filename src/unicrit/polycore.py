"""Exact integer polynomial algebra: the substrate for everything else.

Univariate (IntPoly) and bivariate (BiPoly) dense polynomials over the
integers, with the elimination toolkit the rest of the package is built on:

* resultants by evaluation-interpolation over integer points: the
  subresultant PRS per point, or mod-p images at the caller's proven
  bounds (the two routes cross-check each other in the test suite);
* primitive gcd via the subresultant PRS, whose one loop also serves the
  resultant, and a certified modular gcd, which squarefree_part uses;
* cyclotomic polynomials, the Moebius and Euler phi functions;
* root transforms (alpha -> alpha^k as a norm determinant, and
  alpha -> s*alpha).

Everything here is a pure function of immutable values.  Coefficients are
arbitrary-precision; nothing ever rounds.  A bivariate elimination whose
caller proves a degree bound and a coefficient height bound from the
structure of its inputs (dynmaps._parabolic proves one from the dynamics)
is computed through mod-p images recombined by CRT; the images run until
the modulus passes twice the height bound, so the lift is the resultant.
A caller that also proves the resultant to be S^h, with S's leading
coefficient, gets S: each image is rooted by _gf_root, and the bounds and
the primes are S's.
Every other elimination takes the exact subresultant PRS, which needs no
bound.  gcd_fast certifies what it returns, and product_equals compares an
exact product.

Every polynomial product, over Z, Z/m or a number field Q[x]/(m),
univariate or bivariate, is one call of _zmul: schoolbook for short
factors, one big-integer product by Kronecker substitution for longer
ones; a number-field product is then one IntPoly.pseudo_rem.  A BiPoly
product lays its rows end to end at a stride no row product can overrun,
and a BiPoly sum or quotient is one IntPoly sum or division in the same
flat layout.  Every power, of an IntPoly, a BiPoly, a number-field
element or a vector of GF(p) scalars, is one call of _power, the
package's one square-and-multiply loop.

The modular kernel section is the package's one copy of coefficient-list
arithmetic over Z/m and GF(p): trim, reduction, products, sums, division,
gcd, h-th root, symmetric lift and CRT step.  factorz builds on it.  GF(p)
resultants have one routine too, _vector_resultants_mod_p, which takes a
batch of (prime, evaluation point) pairs as numpy rows, so one call
covers every prime of a batch.

Both resultant routes evaluate at one run of consecutive integers s, s+1,
..., the first at which no leading coefficient in the eliminated variable
vanishes (s = 0 for every caller in the package).  Level j of the divided
differences then divides by j: exactly in Z on the bigint route, by the
inverse of j mod each prime on the modular one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division left a remainder."""


# Entries kept by each memo table of the package (one functools.lru_cache
# per builder).  The default thm31 sweep puts 60 keys in each Misiurewicz
# table and the default thm14 sweep 37 in the parabolic one; no other table
# of either sweep holds more.
_MEMO_SIZE = 128


# ---------------------------------------------------------------------------
# number-theory helpers


def _prime_powers(k: int) -> list[tuple[int, int]]:
    """The pairs (p, e), p ascending, with k = prod p^e, by trial division."""
    out = []
    p = 2
    while p * p <= k:
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if k > 1:
        out.append((k, 1))
    return out


def moebius(k: int) -> int:
    """Moebius function.

    >>> [moebius(k) for k in (1, 2, 3, 4, 6)]
    [1, -1, -1, 0, 1]
    """
    if k < 1:
        raise ValueError("moebius is defined for k >= 1")
    pes = _prime_powers(k)
    return 0 if any(e > 1 for _, e in pes) else (-1) ** len(pes)


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("euler_phi is defined for m >= 1")
    return math.prod(p ** (e - 1) * (p - 1) for p, e in _prime_powers(m))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIME_CACHE: list[int] = []


def _prime_at(index: int) -> int:
    """The index-th prime descending from 2^25 (fits int64 convolution)."""
    candidate = _PRIME_CACHE[-1] - 2 if _PRIME_CACHE else (1 << 25) - 1
    while len(_PRIME_CACHE) <= index:
        if _is_prime(candidate):
            _PRIME_CACHE.append(candidate)
        candidate -= 2
    return _PRIME_CACHE[index]


def _power(x, e: int, one, mul=operator.mul):
    """x^e under `mul`, by repeated squaring from `one`: the package's one
    exponentiation loop.

    >>> _power(3, 5, 1, lambda a, b: a * b % 7)
    5
    """
    if e < 0:
        raise ValueError("negative power")
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


# ---------------------------------------------------------------------------
# modular kernel: coefficient lists, ascending, over Z/m or GF(p).  Results
# are reduced into [0, m) and normalized (no high zero; the zero polynomial
# is []), and so must inputs be, except that the GF(p) gcd reduces its own.

# Above this many terms (of the shorter factor) a product over Z or Z/m is
# one big-integer multiplication (Kronecker substitution) instead of
# schoolbook.  Measured crossover over Z/m: ~10 terms at 60-bit moduli, ~24
# at 600-bit ones.
_KRONECKER_MIN_TERMS = 16
# Euclid steps whose divisor has this degree or more run on int64 vectors,
# smaller ones on lists: a vector step costs a few numpy calls, a list step
# Python work in proportion to the degree.  Timed for p from 5 to 2^25 on
# random coprime pairs and on the gcds of the thm31 and thm14 sweeps: 32 to
# 80 timed alike, 96 and 128 were slower.
_GCD_NP_MIN_DEGREE = 64


def _strip(a):
    """a without its high zero coefficients: a list, tuple or numpy vector,
    returned as it is when it has none."""
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a if n == len(a) else a[:n]


def _residues(a: Iterable[int], m: int) -> list[int]:
    return _strip([c % m for c in a])


def _symmetric(a: list[int], m: int) -> list[int]:
    """Symmetric lift of residues mod m into (-m/2, m/2]."""
    half = m >> 1
    return [v - m if v > half else v for v in a]


def _crt(acc: list[int], m: int, img: list[int], p: int) -> tuple[list[int], int]:
    """Residues mod m*p congruent to acc mod m and to img mod p, and m*p.

    From acc = [0, ...] and m = 1 this returns img itself.
    """
    inv = pow(m % p, -1, p)
    return [r + m * ((s - r) * inv % p) for r, s in zip(acc, img)], m * p


def _zmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product over Z of two ascending coefficient sequences of any sign.

    The package's one convolution: IntPoly, BiPoly, Z/m and number-field
    products all call it.
    """
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if min(len(a), len(b)) > _KRONECKER_MIN_TERMS:
        # evaluate both at X = 2^(8w), multiply once, read the coefficients
        # back off the bytes: w bytes hold every coefficient of the product.
        # With a negative input each slot is biased by h = 2^(8w-1), which
        # keeps it in [0, X), so no slot borrows from the next.
        signed = min(a) < 0 or min(b) < 0
        top = (lambda v: max(map(abs, v))) if signed else max
        w = (top(a).bit_length() + top(b).bit_length() + min(len(a), len(b)).bit_length()) // 8 + 1
        h = 1 << (8 * w - 1) if signed else 0
        bias = b"\0" * (w - 1) + b"\x80" if signed else b""

        def pack(v: Sequence[int]) -> int:
            packed = b"".join((c + h if h else c).to_bytes(w, "little") for c in v)
            return int.from_bytes(packed, "little") - int.from_bytes(bias * len(v), "little")

        raw = (pack(a) * pack(b) + int.from_bytes(bias * n, "little")).to_bytes(n * w, "little")
        return [int.from_bytes(raw[i : i + w], "little") - h for i in range(0, n * w, w)]
    out = [0] * n
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def _bmul(a: list[int], b: list[int], m: int) -> list[int]:
    """Product over Z/m."""
    return _residues(_zmul(a, b), m)


def _badd(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _residues(out, m)


def _bsub(a: list[int], b: list[int], m: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % m
    return _strip(out)


def _bdivmod_monic(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic b over Z/m."""
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
    return _strip(q), _residues(r[:df], m)


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over GF(p); b is not zero."""
    if len(a) < len(b):
        return [], list(a)
    inv = pow(b[-1], -1, p)
    r = list(a)
    df = len(b) - 1
    q = [0] * (len(a) - df)
    for k in range(len(a) - len(b), -1, -1):
        t = r[k + df] * inv % p
        if t:
            q[k] = t
            # r[k + df] becomes 0 and is never read again
            for j in range(df):
                r[k + j] = (r[k + j] - t * b[j]) % p
    return _strip(q), _strip(r[:df])


def _gf_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over GF(p); [] when both are zero mod p.

    Euclid's steps run on int64 vectors while the divisor has degree
    _GCD_NP_MIN_DEGREE or more (p < 2^31 keeps them exact), then on lists.
    """
    a, b = _residues(a, p), _residues(b, p)
    if len(a) < len(b):
        a, b = b, a
    if len(b) > _GCD_NP_MIN_DEGREE:
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        while b.size > _GCD_NP_MIN_DEGREE:
            # a mod b, in place: every array here is owned by this loop
            inv = pow(int(b[-1]), -1, p)
            for k in range(a.size - b.size, -1, -1):
                t = int(a[k + b.size - 1]) * inv % p
                if t:
                    a[k : k + b.size] = (a[k : k + b.size] - t * b) % p
            a, b = b, _strip(a[: b.size - 1])
        a, b = a.tolist(), b.tolist()
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def _gf_root(a: list[int], order: int, lead: int, p: int) -> list[int]:
    """The S over GF(p) with S^order = a and leading coefficient lead, for
    a of degree D = order * d given with all D + 1 coefficients, lead a
    unit and p > D.

    Such an S exists only if lc(a) = lead^order; otherwise this raises
    ArithmeticError.  S is read off the top d + 1 coefficients of a:
    F(x) = x^D a(1/x) / lc(a) has F(0) = 1, and the power series
    G = F^(1/order) with G(0) = 1 satisfies order F G' = F' G, so
    order k g_k = sum_{j=1..k} ((order + 1) j - order k) f_j g_(k-j).
    x^d S(1/x) / lead is such a series, so G up to x^d, reversed and
    times lead, is S.
    """
    D = len(a) - 1
    if a[-1] != pow(lead, order, p):
        raise ArithmeticError(
            f"leading coefficient {a[-1]} of a degree-{D} image mod {p} is not "
            f"{lead}^{order}, so it is not the {order}-th power the caller proved"
        )
    if order == 1:
        return a
    d = D // order
    inv = pow(a[-1], -1, p)
    f = [v * inv % p for v in a[D - d :][::-1]][1:]  # f_1, ..., f_d
    jf = [j * v % p for j, v in enumerate(f, 1)]
    g = [1]
    for k in range(1, d + 1):
        rev = g[::-1]  # g_(k-1), ..., g_0: map pairs them with f_1, ..., f_k
        s = (order + 1) * sum(map(operator.mul, jf, rev)) - order * k * sum(
            map(operator.mul, f, rev)
        )
        g.append(s * pow(order * k, -1, p) % p)
    return [v * lead % p for v in reversed(g)]


# ---------------------------------------------------------------------------
# univariate polynomials


@dataclass(frozen=True)
class IntPoly:
    """Dense univariate polynomial over Z, coefficients in ascending degree.

    >>> p = IntPoly((1, 0, 1), "x")     # x^2 + 1
    >>> p.degree
    2
    >>> (p * p).coeffs
    (1, 0, 2, 0, 1)
    >>> p(2)
    5
    """

    coeffs: tuple[int, ...]
    var: str = "x"

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _strip(tuple(self.coeffs)))

    # -- basic structure

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @classmethod
    def zero(cls, var: str = "x") -> "IntPoly":
        return cls((), var)

    @classmethod
    def const(cls, a: int, var: str = "x") -> "IntPoly":
        return cls((a,), var)

    @classmethod
    def gen(cls, var: str = "x") -> "IntPoly":
        return cls((0, 1), var)

    def rename(self, var: str) -> "IntPoly":
        return IntPoly(self.coeffs, var)

    # -- arithmetic

    def __add__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly.const(other, self.var)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPoly(out, self.var)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-v for v in self.coeffs), self.var)

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        return self + (-other)

    def __rsub__(self, other: int) -> "IntPoly":
        return IntPoly.const(other, self.var) - self

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return IntPoly.zero(self.var)
            return IntPoly(tuple(other * v for v in self.coeffs), self.var)
        return IntPoly(_zmul(self.coeffs, other.coeffs), self.var)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPoly":
        return _power(self, e, IntPoly.const(1, self.var))

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction, complex, mpmath."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i), self.var)

    # -- content and normalization

    @property
    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def primitive_part(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content
        if self.lc < 0:
            g = -g
        return IntPoly(tuple(c // g for c in self.coeffs), self.var)

    # -- division

    def pseudo_rem(self, other: "IntPoly") -> "IntPoly":
        """prem(self, other): remainder of lc(other)^(da-db+1) * self by other."""
        if other.is_zero:
            raise ZeroDivisionError("pseudo-division by zero polynomial")
        da, db = self.degree, other.degree
        if da < db:
            return self
        r = list(self.coeffs)
        d = other.coeffs
        lb = other.lc
        for k in range(da - db, -1, -1):
            top = r[k + db]
            for i in range(k + db):
                r[i] *= lb
            for j in range(db):
                r[k + j] -= top * d[j]
            r[k + db] = 0
        return IntPoly(r[:db], self.var) if db else IntPoly((), self.var)

    def divmod_exact(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Quotient/remainder over Q, raising unless both are integral.

        Long division computes the unique quotient over Q stepwise; it is
        integral iff every step divides exactly, so the loop stays in Z.
        """
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        da, db = self.degree, other.degree
        if da < db:
            return IntPoly.zero(self.var), self
        lb = other.lc
        # a flat BiPoly divisor is mostly padding: step over its nonzero terms
        terms = [(j, v) for j, v in enumerate(other.coeffs) if v]
        r = list(self.coeffs)
        q = [0] * (da - db + 1)
        for k in range(da - db, -1, -1):
            t, leftover = divmod(r[k + db], lb)
            if leftover:
                # degrees only: str() of a huge coefficient would raise
                # ValueError past Python's int-to-str digit limit
                raise NotDivisibleError(
                    f"non-integral quotient dividing degree {da} by degree {db}"
                )
            if t:
                q[k] = t
                for j, v in terms:
                    r[k + j] -= t * v
        return IntPoly(q, self.var), IntPoly(r[:db], self.var)

    def divexact(self, other: "IntPoly") -> "IntPoly":
        q, r = self.divmod_exact(other)
        if not r.is_zero:
            raise NotDivisibleError(
                f"remainder of degree {r.degree} dividing by degree {other.degree}"
            )
        return q

    def divides(self, other: "IntPoly") -> bool:
        """True iff self divides other exactly over Z."""
        if self.is_zero:
            return other.is_zero
        try:
            other.divexact(self)
        except NotDivisibleError:
            return False
        return True

    # -- misc

    def max_coeff_bits(self) -> int:
        return max((abs(c).bit_length() for c in self.coeffs), default=0)


# ---------------------------------------------------------------------------
# subresultant PRS: resultant and gcd


def _subresultant_prs(a: IntPoly, b: IntPoly) -> Iterator[tuple[IntPoly, IntPoly, int]]:
    """Subresultant PRS from deg a >= deg b: yields each pair (a, b) with
    its running h; the last pair has b zero or constant."""
    g = h = 1
    while True:
        yield a, b, h
        if b.degree <= 0:
            return
        delta = a.degree - b.degree
        divisor = g * h ** delta
        r = a.pseudo_rem(b)
        a, b = b, IntPoly(tuple(c // divisor for c in r.coeffs), a.var)
        g = a.lc
        if delta:
            h = g ** delta // h ** (delta - 1)  # exact by subresultant theory


def resultant_univariate(A: IntPoly, B: IntPoly) -> int:
    """Exact signed resultant of two univariate integer polynomials.

    Subresultant PRS with sign bookkeeping; agrees with the Sylvester
    determinant including sign.
    """
    if A.is_zero or B.is_zero:
        return 0
    if A.degree == 0:
        return A.lc ** B.degree
    if B.degree == 0:
        return B.lc ** A.degree
    ca, cb = A.content, B.content
    a = IntPoly(tuple(c // ca for c in A.coeffs), A.var)
    b = IntPoly(tuple(c // cb for c in B.coeffs), A.var)
    sign = 1
    scale = ca ** B.degree * cb ** A.degree
    if a.degree < b.degree:
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -sign
        a, b = b, a
    for a, b, h in _subresultant_prs(a, b):
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -sign
    if b.is_zero:
        return 0  # common factor of positive degree
    da = a.degree
    num = b.lc ** da
    if da <= 1:
        return sign * scale * num
    q, rem = divmod(num, h ** (da - 1))
    if rem:
        raise ArithmeticError("subresultant bookkeeping lost exactness")
    return sign * scale * q


def gcd_subresultant(A: IntPoly, B: IntPoly) -> IntPoly:
    """Primitive gcd over Z with positive leading coefficient.

    >>> x = IntPoly.gen()
    >>> gcd_subresultant(x**2 - 1, x - 1).coeffs
    (-1, 1)
    """
    if A.is_zero and B.is_zero:
        return IntPoly.zero(A.var)
    if A.is_zero:
        return B if B.lc > 0 else -B
    if B.is_zero:
        return A if A.lc > 0 else -A
    cont = math.gcd(A.content, B.content)
    a = A.primitive_part()
    b = B.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    for a, b, _ in _subresultant_prs(a, b):
        pass
    # the last nonzero remainder; a constant one has primitive part 1
    return (a if b.is_zero else b).primitive_part() * cont


def gcd_fast(A: IntPoly, B: IntPoly) -> IntPoly:
    """Primitive gcd, modular fast path with exact verification.

    Used at every size: a prime with gcd of degree zero certifies
    coprimality outright; otherwise a CRT candidate is accepted only after
    exact division into both inputs plus a single-prime degree certificate,
    which together pin the gcd exactly.  Reconstruction is incremental and
    division is only attempted once the candidate stabilizes across a
    prime.  The loop runs until that certificate holds, which it does: only
    finitely many primes are unlucky, and once the modulus passes twice the
    height of the scaled gcd the candidate is the gcd.  Constant or zero
    inputs go to gcd_subresultant.
    """
    if A.is_zero or B.is_zero or A.degree == 0 or B.degree == 0:
        return gcd_subresultant(A, B)
    cont = math.gcd(A.content, B.content)
    a = A.primitive_part()
    b = B.primitive_part()
    gamma = math.gcd(a.lc, b.lc)
    best_deg: int | None = None
    acc: list[int] = []
    modulus = 1
    prev_cand: IntPoly | None = None
    idx = 0
    while True:
        p = _prime_at(idx)
        idx += 1
        if a.lc % p == 0 or b.lc % p == 0:
            continue
        g = _gf_gcd(a.coeffs, b.coeffs, p)
        deg = len(g) - 1
        if deg == 0:
            return IntPoly.const(cont, A.var)
        if best_deg is not None and deg > best_deg:
            continue  # unlucky prime saw too large a gcd
        scaled = [v * gamma % p for v in g]
        if best_deg is None or deg < best_deg:
            best_deg = deg
            acc = scaled
            modulus = p
            prev_cand = None
            continue
        acc, modulus = _crt(acc, modulus, scaled, p)
        cand = IntPoly(_symmetric(acc, modulus), A.var).primitive_part()
        if cand == prev_cand:
            # stabilized: one exact division each way certifies it
            if cand.degree == best_deg and cand.divides(a) and cand.divides(b):
                return cand * cont
            prev_cand = None  # stable but wrong: need more primes
        else:
            prev_cand = cand


def squarefree_part(A: IntPoly) -> IntPoly:
    """Product of the distinct irreducible factors, primitive, positive lc.

    >>> x = IntPoly.gen()
    >>> squarefree_part((x - 1) ** 2 * (x + 2)).coeffs
    (-2, 1, 1)
    """
    if A.is_zero:
        raise ValueError("squarefree_part of the zero polynomial")
    p = A.primitive_part()
    if p.degree <= 1:
        return p
    g = gcd_fast(p, p.derivative())
    if g.degree == 0:
        return p
    return p.divexact(g).primitive_part()


# ---------------------------------------------------------------------------
# cyclotomic polynomials


@lru_cache(maxsize=_MEMO_SIZE)
def _cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    poly = IntPoly(num, "x")
    for d in range(1, m):
        if m % d == 0:
            poly = poly.divexact(IntPoly(_cyclotomic_coeffs(d), "x"))
    return poly.coeffs


def cyclotomic(m: int, var: str = "x") -> IntPoly:
    """m-th cyclotomic polynomial, monic of degree euler_phi(m).

    >>> cyclotomic(6).coeffs
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return IntPoly(_cyclotomic_coeffs(m), var)


# ---------------------------------------------------------------------------
# bivariate polynomials


def _strip_rows(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    out = [tuple(r) for r in rows]
    while out and all(v == 0 for v in out[-1]):
        out.pop()
    width = 0
    for r in out:
        width = max(width, len(_strip(r)))
    return tuple(tuple(r[:width]) + (0,) * (width - len(r[:width])) for r in out)


@dataclass(frozen=True)
class BiPoly:
    """Dense bivariate polynomial over Z.

    rows[i][j] is the coefficient of outer^i * inner^j; degree bounds are
    tight (no all-zero top row or column).
    """

    rows: tuple[tuple[int, ...], ...]
    outer: str
    inner: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _strip_rows(self.rows))

    # -- constructors

    @classmethod
    def zero(cls, outer: str, inner: str) -> "BiPoly":
        return cls((), outer, inner)

    @classmethod
    def const(cls, a: int, outer: str, inner: str) -> "BiPoly":
        return cls(((a,),) if a else (), outer, inner)

    @classmethod
    def from_inner_poly(cls, p: IntPoly, outer: str) -> "BiPoly":
        return cls((tuple(p.coeffs),) if not p.is_zero else (), outer, p.var)

    @classmethod
    def gen(cls, which: str, outer: str, inner: str) -> "BiPoly":
        if which == outer:
            return cls(((0,), (1,)), outer, inner)
        if which == inner:
            return cls(((0, 1),), outer, inner)
        raise ValueError(f"unknown variable {which!r}")

    # -- structure

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def vars(self) -> tuple[str, str]:
        return (self.outer, self.inner)

    def degree(self, var: str) -> int:
        if var == self.outer:
            return len(self.rows) - 1
        if var == self.inner:
            return max((len(r) for r in self.rows), default=0) - 1
        raise ValueError(f"unknown variable {var!r}")

    def _check_same(self, other: "BiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch {self.vars} vs {other.vars}")

    def as_univariate_in(self, var: str) -> list[IntPoly]:
        """Coefficient list (ascending in `var`) of IntPolys in the other var."""
        if var == self.outer:
            other = self.inner
            return [IntPoly(r, other) for r in self.rows]
        if var == self.inner:
            other = self.outer
            width = self.degree(self.inner) + 1
            return [
                IntPoly(tuple(r[j] if j < len(r) else 0 for r in self.rows), other)
                for j in range(width)
            ]
        raise ValueError(f"unknown variable {var!r}")

    @classmethod
    def from_univariate(
        cls, coeffs: Sequence[IntPoly], var: str, outer: str, inner: str
    ) -> "BiPoly":
        if var == outer:
            return cls(tuple(p.coeffs for p in coeffs), outer, inner)
        rows_needed = max((p.degree for p in coeffs), default=-1) + 1
        rows = [
            tuple(coeffs[j].coeff(i) for j in range(len(coeffs)))
            for i in range(rows_needed)
        ]
        return cls(rows, outer, inner)

    def _flat(self, width: int) -> list[int]:
        """Coefficients with outer^i * inner^j at i*width + j (width covers
        every row): the layout of every BiPoly product and quotient."""
        return [v for r in self.rows for v in r + (0,) * (width - len(r))]

    # -- arithmetic

    def __add__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            other = BiPoly.const(other, self.outer, self.inner)
        self._check_same(other)
        # one IntPoly sum in the flat layout at the wider operand's width,
        # which is 1 when both are zero
        width = max(self.degree(self.inner), other.degree(other.inner), 0) + 1
        flat = (IntPoly(self._flat(width)) + IntPoly(other._flat(width))).coeffs
        return BiPoly(
            [flat[i : i + width] for i in range(0, len(flat), width)], self.outer, self.inner
        )

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly(
            tuple(tuple(-v for v in r) for r in self.rows), self.outer, self.inner
        )

    def __sub__(self, other: "BiPoly | int") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            if other == 0:
                return BiPoly.zero(self.outer, self.inner)
            return BiPoly(
                tuple(tuple(other * v for v in r) for r in self.rows),
                self.outer,
                self.inner,
            )
        self._check_same(other)
        if self.is_zero or other.is_zero:
            return BiPoly.zero(self.outer, self.inner)
        # outer^i * inner^j -> inner^(i*width + j): no row product reaches
        # the next row, so one product over Z holds every coefficient
        width = len(self.rows[0]) + len(other.rows[0]) - 1
        flat = _zmul(self._flat(width), other._flat(width))
        return BiPoly(
            [flat[i : i + width] for i in range(0, len(flat), width)], self.outer, self.inner
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "BiPoly":
        return _power(self, e, BiPoly.const(1, self.outer, self.inner))

    def eval_at(self, var: str, value: int) -> IntPoly:
        """Specialize one variable at an integer, exactly."""
        polys = self.as_univariate_in(var)
        other = self.inner if var == self.outer else self.outer
        acc = IntPoly.zero(other)
        for p in reversed(polys):
            acc = acc * value + p.rename(other)
        return acc

    def eval_point(self, outer_value, inner_value):
        acc = 0
        for row in reversed(self.rows):
            racc = 0
            for v in reversed(row):
                racc = racc * inner_value + v
            acc = acc * outer_value + racc
        return acc

    def derivative(self, var: str) -> "BiPoly":
        if var == self.outer:
            rows = [
                tuple(i * v for v in r) for i, r in enumerate(self.rows) if i >= 1
            ]
            return BiPoly(rows, self.outer, self.inner)
        rows = [tuple(j * r[j] for j in range(1, len(r))) for r in self.rows]
        return BiPoly(rows, self.outer, self.inner)

    def divexact(self, other: "BiPoly") -> "BiPoly":
        """Exact quotient, as one IntPoly division of the rows laid end to
        end at the dividend's width w, the stride of __mul__.

        An exact quotient's rows are at most w - deg_inner(other) long, so
        each row product stays in its slot; a flat quotient whose rows all
        fit therefore multiplies back exactly, and any other one (a row
        product that wrapped into the next slot) is no quotient.
        """
        self._check_same(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return self
        width = len(self.rows[0])
        room = width - other.degree(other.inner)
        if room < 1:
            raise NotDivisibleError("divisor degree exceeds dividend degree")
        flat = IntPoly(self._flat(width)).divexact(IntPoly(other._flat(width))).coeffs
        rows = [flat[i : i + width] for i in range(0, len(flat), width)]
        if any(len(_strip(r)) > room for r in rows):
            raise NotDivisibleError("bivariate division left a remainder")
        return BiPoly(rows, self.outer, self.inner)


def product_equals(factors: Sequence[BiPoly], target: BiPoly) -> bool:
    """Whether the product of `factors` equals `target`.

    The product is computed exactly over Z, so either answer is a proof.
    """
    if not factors:
        return target.rows == ((1,),)
    return math.prod(factors[1:], start=factors[0]).rows == target.rows


# ---------------------------------------------------------------------------
# bivariate resultant: evaluation-interpolation (bigint and modular routes)


def _degree_bound_kept(a_cols: list[IntPoly], b_cols: list[IntPoly]) -> int:
    da, db = len(a_cols) - 1, len(b_cols) - 1
    ka = max(p.degree for p in a_cols)
    kb = max(p.degree for p in b_cols)
    return da * kb + db * ka


def _point_run(lc_a: IntPoly, lc_b: IntPoly, count: int) -> int:
    """First s >= 0 with neither leading coefficient zero on s, ..., s+count-1."""
    s = x = 0
    while x < s + count:
        if lc_a(x) == 0 or lc_b(x) == 0:
            s = x + 1
        x += 1
    return s


def _interpolate(start: int, vals: list[int], var: str) -> IntPoly:
    """The integer polynomial of degree < len(vals) taking vals[i] at start + i.

    On consecutive nodes level j of the divided differences divides by j,
    and the divided differences of an integer polynomial at integer nodes
    are integers, so a remainder means there is no such polynomial.
    """
    n = len(vals)
    dd = list(vals)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i], rem = divmod(dd[i] - dd[i - 1], j)
            if rem:
                raise ArithmeticError("interpolation produced non-integer coefficients")
    coeffs = [0] * n
    for k in range(n - 1, -1, -1):
        # coeffs <- coeffs*(t - x) + dd[k] at the node x = start + k
        x = start + k
        coeffs = [u - x * v for u, v in zip([dd[k]] + coeffs[:-1], coeffs)]
    return IntPoly(coeffs, var)


def _resultant_points_bigint(
    a_cols: list[IntPoly], b_cols: list[IntPoly], kept: str
) -> IntPoly:
    dk = _degree_bound_kept(a_cols, b_cols)
    start = _point_run(a_cols[-1], b_cols[-1], dk + 1)
    evar = "_t"
    vals = []
    for x in range(start, start + dk + 1):
        ax = IntPoly(tuple(p(x) for p in a_cols), evar)
        bx = IntPoly(tuple(p(x) for p in b_cols), evar)
        vals.append(resultant_univariate(ax, bx))
    return _interpolate(start, vals, kept)


def _vector_resultants_mod_p(
    A: np.ndarray, B: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Resultants of the row pairs of A and B, row i over GF(p[i]).

    Rows are coefficients in descending order, each with a leading column
    that is nonzero mod its prime.  Euclid runs fraction-free on groups of
    rows that share a degree pair.  A row's pseudo-remainder
    r = lc(b)^(da - db + 1) * a mod b with s extra leading zeros has degree
    dr = db - 1 - s, and
    Res(a, b) = (-1)^(da*db) * lc(b)^(da - dr - (da - db + 1)*db) * Res(b, r);
    a zero remainder gives 0.  A row keeps the negative powers of lc(b) as
    a denominator and divides once at the end, so no Euclid step inverts.
    Groups that reach the same pair merge again, so sparse inputs, whose
    degrees drop alike at every point, stay in one group.
    """
    out = np.zeros(A.shape[0], dtype=np.int64)
    dens = np.ones(A.shape[0], dtype=np.int64)
    num = np.ones(A.shape[0], dtype=np.int64)

    def power(v: np.ndarray, e: int, q: np.ndarray) -> np.ndarray:
        return _power(v, e, np.ones_like(v), lambda u, w: u * w % q)

    if A.shape[1] < B.shape[1]:
        A, B = B, A
        if (A.shape[1] - 1) * (B.shape[1] - 1) % 2:
            num = p - 1
    # (deg a, deg b) -> parts (rows of out, a, b, numerator, denominator,
    # primes) to merge
    groups = {
        (A.shape[1] - 1, B.shape[1] - 1): [
            (np.arange(A.shape[0]), A % p[:, None], B % p[:, None], num, dens, p)
        ]
    }
    while groups:
        da, db = key = max(groups)
        parts = groups.pop(key)
        rows, a, b, num, den, q = (
            parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        )
        lead = b[:, 0]
        if db == 0:
            out[rows] = num * power(lead, da, q) % q
            dens[rows] = den
            continue
        qc, lc = q[:, None], lead[:, None]
        r = a  # each part's a is its own array: A % p, a merge, or a step's b
        for k in range(da - db + 1):
            # r <- lc(b) * r - r_k * x^(da - db - k) * b: column k cancels
            tail = r[:, k + 1 :]
            tail *= lc
            tail[:, :db] -= r[:, k : k + 1] * b[:, 1:]
            np.remainder(tail, qc, out=tail)
        r = r[:, da - db + 1 :]
        # leading zeros of each remainder (db when it is zero)
        shifts = {0}
        low = np.flatnonzero(r[:, 0] == 0)
        if low.size:
            nz = r[low] != 0
            shift = np.zeros(rows.size, dtype=np.int64)
            shift[low] = np.where(nz.any(axis=1), nz.argmax(axis=1), db)
            shifts = set(shift.tolist())
        for s in shifts:
            sel = slice(None) if len(shifts) == 1 else shift == s
            if s == db:
                continue  # Res(a, b) = 0; out is zero there already
            dr = db - 1 - s
            e = da - dr - (da - db + 1) * db
            n_s, d_s, q_s = num[sel], den[sel], q[sel]
            if e >= 0:
                n_s = n_s * power(lead[sel], e, q_s) % q_s
            else:
                d_s = d_s * power(lead[sel], -e, q_s) % q_s
            if da * db % 2:
                n_s = (q_s - n_s) % q_s
            groups.setdefault((db, dr), []).append(
                (rows[sel], b[sel], r[sel, s:], n_s, d_s, q_s)
            )
    inv = [pow(d, -1, q) for d, q in zip(dens.tolist(), p.tolist())]
    return out * np.array(inv, dtype=np.int64) % p


def _newton_interpolate_mod_p(start: int, ys: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Monomial coefficients (ascending) of the interpolants taking ys[i, j]
    at start + j over GF(p[i]), one row per prime; level j of the divided
    differences divides by j."""
    m = ys.shape[1]
    q = p[:, None]
    inv = np.array(
        [[pow(j, -1, pi) for j in range(1, m)] for pi in p.tolist()], dtype=np.int64
    ).reshape(p.size, m - 1)
    dd = ys % q
    for j in range(1, m):
        dd[:, j:] = (dd[:, j:] - dd[:, j - 1 : m - 1]) * inv[:, j - 1 : j] % q
    coeffs = np.zeros_like(dd)
    for k in range(m - 1, -1, -1):
        shifted = np.concatenate((dd[:, k : k + 1], coeffs[:, :-1]), axis=1)
        coeffs = (shifted - coeffs * ((start + k) % q)) % q
    return coeffs


def _resultant_images_mod_p(
    a_cols: list[IntPoly], b_cols: list[IntPoly], start: int, primes: list[int], width: int
) -> list[list[int] | None]:
    """Ascending coefficients of the kept-variable resultant mod each prime,
    from the points start, ..., start + width - 1.

    One batch: every (prime, point) pair is a row of the evaluation
    matrices, of the vector PRS and, per prime, of the interpolation.  An
    image is None when its prime divides a leading coefficient at one of
    the points.
    """
    p = np.array(primes, dtype=np.int64)
    q = p[:, None]
    pts = np.arange(start, start + width, dtype=np.int64) % q

    def col_matrix(cols: list[IntPoly]) -> np.ndarray:
        out = np.empty((p.size, width, len(cols)), dtype=np.int64)
        for j, poly in enumerate(cols):
            residues = np.array(
                [[c % pi for pi in primes] for c in poly.coeffs], dtype=np.int64
            )
            acc = np.zeros_like(pts)
            for res in residues[::-1]:
                acc = (acc * pts + res[:, None]) % q
            out[:, :, len(cols) - 1 - j] = acc  # descending degree
        return out.reshape(p.size * width, len(cols))

    a, b = col_matrix(a_cols), col_matrix(b_cols)
    good = ((a[:, 0] != 0) & (b[:, 0] != 0)).reshape(p.size, width).all(axis=1)
    if not good.all():
        rows = np.repeat(good, width)
        a, b = a[rows], b[rows]
    vals = _vector_resultants_mod_p(a, b, np.repeat(p[good], width))
    images = iter(_newton_interpolate_mod_p(start, vals.reshape(-1, width), p[good]).tolist())
    return [next(images) if ok else None for ok in good.tolist()]


# A batch of the modular resultant holds whole primes and at most this many
# int64 entries (rows times columns) in either evaluation matrix, 8 MiB.
_BATCH_ENTRIES = 1 << 20


def _resultant_points_modular(
    a_cols: list[IntPoly], b_cols: list[IntPoly], kept: str, degree: int, height_bits: int,
    root: tuple[int, int] | None = None,
) -> IntPoly:
    """Multimodular resultant of degree at most `degree` with coefficients
    of at most `height_bits` bits; both bounds are the caller's to prove.

    Each prime's image interpolates the resultant's values at degree + 1
    consecutive points (_point_run), so it is the resultant mod p.  The
    images accumulate by CRT until the modulus passes 2^(height_bits + 1),
    and the symmetric lift is then the resultant itself.  The primes that
    reach the bound are known before the first image, so they run in
    batches of _BATCH_ENTRIES; a prime that divides a leading coefficient
    at one of the points is skipped, and the next one takes its place.

    With root = (h, lead), a pair the caller also proves, the resultant is
    R = S^h for an integer polynomial S with leading coefficient lead, and
    S is returned: degree and height_bits then bound S.  Each image of R
    is interpolated at h * degree + 1 points as above, and _gf_root takes
    S mod p from its top degree + 1 coefficients, after checking that its
    leading coefficient is lead^h (ArithmeticError otherwise).  S mod p is
    then the only h-th root of R mod p with leading coefficient lead, so
    only S's images are combined, and the CRT stops at S's height.
    """
    width = (root[0] if root else 1) * degree + 1
    start = _point_run(a_cols[-1], b_cols[-1], width)
    per_batch = max(1, _BATCH_ENTRIES // (width * max(len(a_cols), len(b_cols))))
    acc, modulus, idx = [0] * (degree + 1), 1, 0
    while modulus.bit_length() <= height_bits + 1:
        primes, reach = [], modulus
        while reach.bit_length() <= height_bits + 1 and len(primes) < per_batch:
            primes.append(_prime_at(idx))
            reach *= primes[-1]
            idx += 1
        for p, img in zip(primes, _resultant_images_mod_p(a_cols, b_cols, start, primes, width)):
            if img is not None:
                if root:
                    img = _gf_root(img, *root, p)
                acc, modulus = _crt(acc, modulus, img, p)
    return IntPoly(_symmetric(acc, modulus), kept)


def resultant(
    A: BiPoly, B: BiPoly, eliminate: str, bounds: tuple[int, int] | None = None,
    root: tuple[int, int] | None = None,
) -> IntPoly:
    """Sylvester resultant of A and B with respect to `eliminate`.

    Returns the signed resultant as a polynomial in the other variable.
    Satisfies Res(A*B, C) = Res(A, C) * Res(B, C).  With `bounds` =
    (degree, coefficient bits), a pair the caller proves from the
    structure of its inputs (dynmaps._parabolic does, from the dynamics),
    it takes the modular route at that pair; without, the exact
    subresultant PRS per point, which needs no bound.  Either route's
    result is proven.  With `root` = (h, lead) as well, also proven by the
    caller, the resultant is the h-th power of an integer polynomial S with
    leading coefficient lead, `bounds` bound S, and S is returned: order h
    returns S, from the primes that S's height needs (see
    _resultant_points_modular).
    """
    if A.vars != B.vars:
        raise ValueError(f"variable mismatch {A.vars} vs {B.vars}")
    if eliminate not in A.vars:
        raise ValueError(f"unknown variable {eliminate!r}")
    if root and bounds is None:
        raise TypeError("a root order is read only with the bounds of the root")
    kept = A.inner if eliminate == A.outer else A.outer
    if A.is_zero or B.is_zero:
        return IntPoly.zero(kept)
    if A.degree(eliminate) < 1 or B.degree(eliminate) < 1:
        raise ValueError(
            "resultant input constant in the eliminated variable "
            "(degenerate Sylvester matrix)"
        )
    a_cols = A.as_univariate_in(eliminate)
    b_cols = B.as_univariate_in(eliminate)
    if bounds is None:
        return _resultant_points_bigint(a_cols, b_cols, kept)
    return _resultant_points_modular(a_cols, b_cols, kept, *bounds, root)


# ---------------------------------------------------------------------------
# root transforms


def _bareiss_det(rows: list[list[IntPoly]]) -> IntPoly:
    """Determinant of a square matrix over Z[x] by fraction-free (Bareiss)
    elimination: every division is exact, so the entries stay in Z[x]."""
    m = [list(row) for row in rows]
    sign, prev = 1, IntPoly.const(1, m[0][0].var)
    for i in range(len(m) - 1):
        pivot = next((r for r in range(i, len(m)) if not m[r][i].is_zero), None)
        if pivot is None:
            return IntPoly.zero(prev.var)
        if pivot != i:
            m[i], m[pivot], sign = m[pivot], m[i], -sign
        for r in range(i + 1, len(m)):
            for c in range(i + 1, len(m)):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]).divexact(prev)
        prev = m[i][i]
    return m[-1][-1] * sign


def root_power_transform(p: IntPoly, k: int) -> IntPoly:
    """Primitive polynomial whose roots are the k-th powers of p's roots.

    Write p(y) = sum_{r < k} y^r p_r(y^k).  Over the k-th roots of unity
    zeta^j, prod_j p(zeta^j y) = +-lc(p)^k prod (Y - alpha^k) with Y = y^k;
    it is the norm of sum_r theta^r p_r(Y) from Z[Y][theta]/(theta^k - Y),
    the determinant of its k x k multiplication matrix, computed exactly
    over Z[Y].

    >>> root_power_transform(IntPoly((-3, 1)), 2).coeffs
    (-9, 1)
    """
    if p.is_zero:
        raise ValueError("root_power_transform of the zero polynomial")
    if k < 1:
        raise ValueError("power must be >= 1")
    if p.degree == 0:
        return p.primitive_part()
    parts = [IntPoly(p.coeffs[r::k], p.var) for r in range(k)]
    Y = IntPoly.gen(p.var)
    # column s is theta^s times the element: entry i holds its theta^i part
    matrix = [
        [parts[i - s] if i >= s else Y * parts[i - s + k] for s in range(k)]
        for i in range(k)
    ]
    return _bareiss_det(matrix).primitive_part()


def root_scale_transform(p: IntPoly, s: Fraction) -> IntPoly:
    """Primitive polynomial whose roots are s * (roots of p).

    >>> root_scale_transform(IntPoly((3, 4), "c"), Fraction(4)).coeffs
    (3, 1)
    """
    s = Fraction(s)
    if s == 0:
        raise ValueError("scale factor must be nonzero")
    if p.is_zero:
        raise ValueError("root_scale_transform of the zero polynomial")
    u, v = s.numerator, s.denominator
    d = p.degree
    coeffs = [p.coeff(i) * u ** (d - i) * v ** i for i in range(d + 1)]
    return IntPoly(coeffs, p.var).primitive_part()


# ---------------------------------------------------------------------------
# serialization


def poly_to_json(p: IntPoly) -> dict:
    return {"var": p.var, "coeffs": [str(c) for c in p.coeffs]}


def poly_from_json(obj: dict) -> IntPoly:
    return IntPoly(tuple(int(s) for s in obj["coeffs"]), obj["var"])
