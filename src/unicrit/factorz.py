"""Exact factorization of integer polynomials.

Zassenhaus on polycore.squarefree_part(P), each factor's multiplicity read
off by exact division of P / squarefree_part(P), with the usual
refinements: a Newton-polygon irreducibility proof before any prime is
chosen, prime selection over several candidates by Berlekamp's factor
count, which proves irreducibility outright when some prime sees a single
factor, a Berlekamp split over GF(p), one quadratic Hensel lift over a
tree of splits, and subset recombination.  Recombination keeps a subset
only when its constant term, read at a lift past 2 max(2^63, |G(0)|),
divides G(0), a proven filter that settles most inputs as irreducible at
that first lift; the same lift then resumes only as far as Mignotte's
bound for a surviving subset's degree, or its complement's, needs.
A non-monic input is factored through its monic root scaling.  Output
order is deterministic: (degree, coefficients).  Nothing is random.

Coefficient-list arithmetic over GF(p) and Z/m (products, division, gcd,
symmetric lift) comes from polycore's modular kernel.  Each candidate
prime's Frobenius matrix Q (rows x^(ip) mod f) is built once, each row the
last one times x^p, as numpy int64 vectors folded by a table of p rows.
One elimination of (Q - I)^T per prime gives the factor count, its
nullity; the best prime's echelon rows then give the kernel vectors
v with v^p = v mod f, and gcds with v - s split f into its irreducible
factors.  A Hensel step takes its corrections over Z/m, not Z/m^2; its
products use Kronecker substitution.

Everything is exact; the final factorization is re-multiplied and compared
against the input before it is returned, and a failed check raises
ArithmeticError (never an assert, so it survives python -O).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polycore import (
    IntPoly,
    NotDivisibleError,
    _badd,
    _bdivmod_monic,
    _bmul,
    _bsub,
    _gf_divmod,
    _gf_gcd,
    _is_prime,
    _residues,
    _strip,
    _symmetric,
    poly_from_json,
    poly_to_json,
    root_scale_transform,
    squarefree_part,
)


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


def _frobenius(f: list[int], p: int) -> np.ndarray:
    """Berlekamp's Q for monic f of degree d >= 1 over GF(p): row i is
    x^(ip) mod f, so h^p = h @ Q for any h of degree < d.

    Row i is row i - 1 times x^p: shifted by p places, its top p
    coefficients folded back by the fold table, the rows x^d .. x^(d+p-1)
    mod f.  A fold sums p terms below p^2 and a step of the rank
    elimination d of them, so p^2 * max(d, p) < 2^63 keeps both exact.
    """
    d = len(f) - 1
    if p * p * max(d, p) >= 1 << 63:
        raise OverflowError(f"GF({p}) products of degree {d} overflow int64")
    # row k is x^(d+k) mod f: x times row k-1, its x^d term folded back
    red = np.empty((p, d), dtype=np.int64)
    red[0] = [-c % p for c in f[:d]]
    for k in range(1, p):
        red[k, 0] = 0
        red[k, 1:] = red[k - 1, :-1]
        red[k] = (red[k] + red[k - 1, -1] * red[0]) % p
    q = np.zeros((d, d), dtype=np.int64)
    q[0, 0] = 1
    shifted = np.zeros(d + p, dtype=np.int64)
    for i in range(1, d):
        shifted[p:] = q[i - 1]
        q[i] = (shifted[:d] + shifted[d:] @ red) % p
    return q


# ---------------------------------------------------------------------------
# Berlekamp: the kernel of (Q - I)^T counts the factors and splits them


def _berlekamp_echelon(q: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of (Q - I)^T over GF(p), from the Frobenius matrix
    q of a squarefree monic f: its nonzero rows, each 1 at its pivot
    column and 0 left of it, and those pivot columns.  The kernel
    {h : h^p = h mod f} has dimension d - rank, the number of irreducible
    factors of f over GF(p) (Berlekamp)."""
    d = q.shape[0]
    m = q.T.copy()
    m[np.diag_indices(d)] -= 1
    # rank over GF(p) by vectorized elimination.  Only the pivot column and
    # row are reduced mod p: any other entry takes at most d updates, each
    # below p^2, and p^2 * d < 2^63 (checked by _frobenius) keeps it exact
    pivots: list[int] = []
    r = 0  # the rank so far
    for col in range(d):
        m[r:, col] %= p
        nonzero = np.nonzero(m[r:, col])[0]
        if nonzero.size == 0:
            continue
        pr = r + int(nonzero[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r, col:] %= p
        inv = pow(int(m[r, col]), p - 2, p)
        # rows r.. are zero left of col, so only columns col.. change
        m[r, col:] = m[r, col:] * inv % p
        rows = r + 1 + np.nonzero(m[r + 1 :, col])[0]
        if rows.size:
            m[rows, col:] -= np.outer(m[rows, col], m[r, col:])
        pivots.append(col)
        r += 1
    return m[:r], pivots


def _berlekamp_split(f: list[int], rows: np.ndarray, pivots: list[int], p: int, r: int) -> list[list[int]]:
    """The r monic irreducible factors over GF(p) of squarefree monic f,
    from the echelon form of (Q - I)^T (_berlekamp_echelon).

    Each free column gives one kernel vector v, by back-substitution; v^p
    = v mod f, so v is constant mod every irreducible factor and f is the
    product of gcd(f, v - s) over s in GF(p).  Splitting every factor so
    far by every kernel vector leaves r factors (Berlekamp 1967; von zur
    Gathen-Gerhard, Modern Computer Algebra, 14.8).
    """
    d = len(f) - 1
    free = sorted(set(range(d)) - set(pivots))
    kernel = np.zeros((len(free), d), dtype=np.int64)
    kernel[range(len(free)), free] = 1
    for row, col in zip(rows[::-1], pivots[::-1]):
        kernel[:, col] = -(kernel @ row) % p
    factors = [f]
    for v in map(_strip, kernel.tolist()):
        if len(factors) == r:
            break
        split = []
        for u in factors:
            vu = _bdivmod_monic(v, u, p)[1]
            if len(vu) < 2:  # constant mod u: splits nothing
                split.append(u)
                continue
            left = len(u) - 1  # the degree of u not yet found
            for s in range(p):
                g = _gf_gcd(u, _bsub(vu, [s], p), p)
                if len(g) > 1:
                    split.append(g)
                    left -= len(g) - 1
                    if not left:
                        break
        factors = split
    return factors


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, by splits)


def _product(fs: list[list[int]], m: int) -> list[int]:
    """Product over Z/m of the polynomials fs."""
    out = [1]
    for f in fs:
        out = _bmul(out, f, m)
    return out


def _bezout(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*g + t*h = 1 over GF(p), by extended Euclid."""
    r0, r1 = list(g), list(h)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _bsub(s0, _bmul(q, s1, p), p)
        t0, t1 = t1, _bsub(t0, _bmul(q, t1, p), p)
    if len(r0) != 1:
        raise ArithmeticError(f"hensel factors not coprime mod {p}")
    inv = pow(r0[0], p - 2, p)
    return [v * inv % p for v in s0], [v * inv % p for v in t0]


def _hensel_step(f, g, h, s, t, m):
    """One quadratic step: inputs valid mod m, outputs valid mod m^2.

    The errors e = f - g h and b = s g1 + t h1 - 1 are 0 mod m, so each is
    divided by m, the divisions and products they drive run over Z/m, and
    the corrections are scaled back by m (von zur Gathen-Gerhard, Modern
    Computer Algebra, 15.4).  Only g h, s g1 and t h1 run over Z/m^2.
    """
    m2 = m * m

    def over_m(a):  # a == 0 mod m, as a / m over Z/m
        if any(v % m for v in a):
            raise ArithmeticError(f"hensel step inputs are not valid mod {m}")
        return [v // m for v in a]

    def times_m(a):  # a over Z/m, as m * a over Z/m^2
        return [v * m for v in a]

    e = over_m(_bsub(f, _bmul(g, h, m2), m2))
    q, r = _bdivmod_monic(_bmul(s, e, m), h, m)
    g1 = _badd(g, times_m(_badd(_bmul(t, e, m), _bmul(q, g, m), m)), m2)
    h1 = _badd(h, times_m(r), m2)
    b = over_m(_bsub(_badd(_bmul(s, g1, m2), _bmul(t, h1, m2), m2), [1], m2))
    # h1 == h and g1 == g mod m
    c, d = _bdivmod_monic(_bmul(s, b, m), h, m)
    s1 = _bsub(s, times_m(d), m2)
    t1 = _bsub(t, times_m(_badd(_bmul(t, b, m), _bmul(c, g, m), m)), m2)
    return g1, h1, s1, t1


def _hensel_lift(G: IntPoly, factors_p: list[list[int]], p: int):
    """The lift of the monic factorization G == prod(factors_p) mod p: a
    function that lifts until the modulus passes 2*bound, resuming where
    its last call stopped, and returns the lifted factors, in order, and
    the modulus.

    Factors i .. j-1, j - i >= 2, split at k, i + 2^l, 2^l the largest
    power of two below j - i; the splits and their Bezout pairs mod p are
    built once, here, so factors not coprime mod p raise at once.  A step
    m -> m^2 lifts every split, root first, each against its parent's part
    just lifted (von zur Gathen-Gerhard, Modern Computer Algebra, 15.5).
    A coprime monic factorization mod p has one monic lift, so the split
    order does not change the output.
    """
    r = len(factors_p)
    parts = {(0, r): _residues(G.coeffs, p)}  # (i, j): factors i .. j-1 lifted
    bezout, todo = {}, [(0, r)]  # bezout: (i, k, j) splits, parents first
    for i, j in todo:
        if j - i > 1:
            k = i + (1 << ((j - i - 1).bit_length() - 1))
            g, h = _product(factors_p[i:k], p), _product(factors_p[k:j], p)
            parts[i, k], parts[k, j], bezout[i, k, j] = g, h, _bezout(g, h, p)
            todo += [(i, k), (k, j)]
    modulus = p

    def lift(bound: int) -> tuple[list[list[int]], int]:
        nonlocal modulus
        while modulus <= 2 * bound:
            m, modulus = modulus, modulus * modulus
            parts[0, r] = _residues(G.coeffs, modulus)
            for (i, k, j), (s, t) in bezout.items():
                parts[i, k], parts[k, j], s, t = _hensel_step(parts[i, j], parts[i, k], parts[k, j], s, t, m)
                bezout[i, k, j] = s, t
        out = [parts[i, i + 1] for i in range(r)]
        if _product(out, modulus) != parts[0, r]:
            raise ArithmeticError("hensel lift drifted")
        return out, modulus

    return lift


# ---------------------------------------------------------------------------
# Recombination: a constant-term filter at a 64-bit lift, resumed only as far
# as the surviving subsets need


def _factor_bound(G: IntPoly, k: int) -> int:
    """C(k, floor(k/2)) * ceil(|G|_2), a bound on every coefficient of a
    degree-k factor h of G in Z[x] (Mignotte 1974): |h_j| <= C(k, j) M(h)
    <= C(k, j) M(G) <= C(k, j) |G|_2, M the Mahler measure."""
    norm2 = sum(c * c for c in G.coeffs)
    return math.comb(k, k // 2) * (math.isqrt(norm2 - 1) + 1)


def _recombine(G: IntPoly, mods: list[list[int]], p: int) -> list[IntPoly]:
    """The irreducible factors of squarefree monic G with G(0) != 0, from
    its r coprime monic irreducible factors mods over GF(p).

    One lift of the factors (_hensel_lift) serves every test: it first
    runs until its modulus m passes 2 max(2^63, |G(0)|), and later sizes
    resume it, so m only grows.  A subset S of the factors left, of at
    most half of them, passes when the symmetric lift of the product of
    their constant terms mod m is nonzero and divides g(0), g the part of
    G not yet split off.  A factor h of g always has a subset that passes:
    - a monic factor h of g has h(0) | g(0) | G(0), and |h(0)| <= |G(0)|
      as G(0) != 0;
    - Hensel lifts are unique, so h is the product of its subset mod m,
      and |h(0)| < m / 2 makes the symmetric lift h(0) itself;
    - of any split of g, one side holds at most half of g's factors.
    So when no subset passes, g is irreducible, whatever the coefficient
    bound (the trailing-coefficient test of Abbott-Shoup-Zimmermann,
    "Factorization in Z[x]: the searching phase", ISSAC 2000).

    Subsets are tried by size, smallest first, so each factor found is
    irreducible; a factor of g met later in a size's pass divides g at its
    start, so one pass over each size's survivors finds them all.  At each
    size the lift resumes at most once, as far as the largest of the
    survivors' targets min(B_k, B_(e-k)) needs, with B_k =
    _factor_bound(G, k), k the degree of S and e that of g.  A factor of g
    of degree k, and its cofactor of degree e - k, both divide G, so the
    side with the smaller bound, S or the rest, is its exact symmetric
    lift once the modulus passes twice that bound; it is trial-divided
    into g.  Since B is nondecreasing in k, no target passes B_(e // 2).
    """
    lift = _hensel_lift(G, mods, p)
    lifted, modulus = lift(max(1 << 63, abs(G.constant)))
    remaining, g_rem, found = list(range(len(mods))), G, []

    def side(S):  # the subset to rebuild, S or the rest, and its bound
        k = sum(len(mods[i]) - 1 for i in S)
        b, b_rest = _factor_bound(G, k), _factor_bound(G, g_rem.degree - k)
        if b <= b_rest:
            return S, b
        return [i for i in remaining if i not in S], b_rest

    size = 1
    while 2 * size <= len(remaining):
        survivors = []
        for S in itertools.combinations(remaining, size):
            (c,) = _symmetric([math.prod(lifted[i][0] for i in S) % modulus], modulus)
            if c and g_rem.constant % c == 0:
                survivors.append(S)
        if survivors:
            target = max(side(S)[1] for S in survivors)
            if modulus <= 2 * target:
                lifted, modulus = lift(target)
        for S in survivors:
            if 2 * size > len(remaining):
                break  # g is irreducible: any split has a side below this size
            if not set(S) <= set(remaining):
                continue  # shares a factor with one split off at this size
            T = side(S)[0]
            cand = IntPoly(_symmetric(_product([lifted[i] for i in T], modulus), modulus), G.var)
            q, rem = g_rem.divmod_exact(cand)
            if not rem.is_zero:
                continue
            found.append(cand if T is S else q)
            g_rem = q if T is S else cand
            remaining = [i for i in remaining if i not in S]
        size += 1
    if g_rem.degree > 0:
        found.append(g_rem)
    return found


# ---------------------------------------------------------------------------
# Zassenhaus driver


# Zassenhaus counts the factors mod this many primes of good reduction and
# lifts from the prime with the fewest.  With recombination's constant-term
# filter, more primes cost more Berlekamp work than the factors they save,
# and fewer leave more factors to recombine (2^r subsets): on the thm31
# sweep, 3 primes left at most 7, 2 primes 12
_CANDIDATE_PRIMES = 3


def _candidate_primes(G: IntPoly) -> list[int]:
    """Odd primes >= 5 at which monic G stays squarefree."""
    out = []
    p = 3
    gp = G.derivative()
    while len(out) < _CANDIDATE_PRIMES and p < 10_000:
        p += 2
        if not _is_prime(p):
            continue
        if len(_gf_gcd(_residues(G.coeffs, p), gp.coeffs, p)) == 1:
            out.append(p)
    if not out:
        raise ArithmeticError("no prime of good reduction found below 10000")
    return out


def _newton_polygon_irreducible(a: tuple[int, ...]) -> bool:
    """Whether, at a prime p < 10,000 that divides every coefficient but
    the leading one, a's Newton polygon is the single segment from (0, v),
    v = v_p(a_0), to (d, 0) with gcd(v, d) = 1 (Dumas): then every root has
    valuation v/d, a factor of degree k over Q_p has a constant term of
    valuation k v/d, and so d | k."""
    d, g, p = len(a) - 1, math.gcd(*a[:-1]), 1
    while a[0] and g > 1 and p < 10_000:
        p += 1
        if g % p:
            continue
        while g % p == 0:  # so only primes divide what is left of g
            g //= p
        v = next(k for k in itertools.count() if a[0] % p ** (k + 1))
        # on or above the segment: v_p(a_i) * d >= v * (d - i)
        if a[-1] % p and math.gcd(v, d) == 1 and all(
            a[i] % p ** -(-v * (d - i) // d) == 0 for i in range(1, d)
        ):
            return True
    return False


def _factor_squarefree_monic(G: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a squarefree monic G with G(0) != 0."""
    d = G.degree
    if d == 1 or _newton_polygon_irreducible(G.coeffs):
        return [G]
    best = None  # (r_p, p, G mod p, echelon rows, pivots) of the fewest factors
    for p in _candidate_primes(G):
        fp = _residues(G.coeffs, p)  # monic, since G is
        rows, pivots = _berlekamp_echelon(_frobenius(fp, p), p)
        r_p = d - len(pivots)
        if r_p == 1:
            return [G]  # proven irreducible by a single prime
        if best is None or r_p < best[0]:
            best = (r_p, p, fp, rows, pivots)
        del rows  # only the best prime's echelon rows stay alive
    r_best, p, fp, rows, pivots = best
    mods = _berlekamp_split(fp, rows, pivots, p, r_best)
    if len(mods) != r_best:
        raise ArithmeticError(f"GF({p}) split into {len(mods)} factors, Berlekamp counted {r_best}")
    mods.sort(key=lambda f: (len(f), f))
    return _recombine(G, mods, p)


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
    sq = squarefree_part(P)
    rest = P.divexact(sq)
    # _factor_squarefree_primitive needs G(0) != 0, so x is split off first
    if sq.constant:
        irreducibles = _factor_squarefree_primitive(sq)
    else:
        x = IntPoly.gen(P.var)
        irreducibles = [x] + _factor_squarefree_primitive(sq.divexact(x))
    pairs: list[tuple[IntPoly, int]] = []
    for irr in irreducibles:
        # irr divides sq once and rest = P / sq the other mult - 1 times
        mult = 1
        while rest.degree >= irr.degree:
            try:
                rest = rest.divexact(irr)
            except NotDivisibleError:
                break
            mult += 1
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
    # H = L^(d-1) G(x/L) is monic with integer coefficients, and each
    # factor h of H maps back to the primitive part of h(L x)
    L = G.lc
    H = root_scale_transform(G, Fraction(L))
    out = [root_scale_transform(h, Fraction(1, L)) for h in _factor_squarefree_monic(H)]
    if math.prod(out, start=IntPoly.const(1, G.var)) != G:
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
