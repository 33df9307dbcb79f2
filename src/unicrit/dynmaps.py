"""Polynomial families attached to the unicritical maps z^n + c.

Everything here is exact integer arithmetic.  Four parameter coordinates
run through the module: c for the form z^n + c, b for the conjugate form
(w^n + b)/n, and the power coordinates chat = c^(n-1) and
bhat = b^(n-1) = n^n * chat, complete invariants of each form's
conjugacy class; coord_transform moves every family to every coordinate.
Each iteration runs once: the (b, w) polynomials are the (c, z) ones
rescaled under the conjugacy of the two forms (_to_gb), and the critical
values in c come from the chat ones at chat = c^(n-1).

Construction functions are pure and deterministic.  Each private builder
is memoized by functools.lru_cache, bounded at polycore._MEMO_SIZE entries
and evicting the least recently used; the caches are thread-safe, and a
racing double construction computes identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .polycore import (
    _MEMO_SIZE,
    BiPoly,
    IntPoly,
    cyclotomic,
    euler_phi,
    gcd_fast,
    moebius,
    poly_from_json,
    poly_to_json,
    resultant,
    root_power_transform,
    root_scale_transform,
    squarefree_part,
)
from .polycore import _interpolate

__all__ = [
    "COORDINATES",
    "DEFAULT_DEGREE_CAP",
    "CriticalOrbitPoly",
    "DegreeCapError",
    "IteratePair",
    "ParamPolynomial",
    "SpecialCaseError",
    "coord_transform",
    "critical_orbit_poly",
    "critical_value_poly",
    "dynatomic",
    "fixed_point_parabolic",
    "gleason_poly",
    "iterate_map",
    "iterate_poly_gb",
    "misiurewicz_poly",
    "multiplier_poly",
    "multiplier_resultant",
    "parabolic_param_poly",
    "periodicity_poly",
]

DEFAULT_DEGREE_CAP = 4096

COORDINATES = ("c", "chat", "b", "bhat")


class DegreeCapError(Exception):
    """A construction would exceed the configured degree cap, or the size
    that the cap allows an iterate (see _check_iterate_cap)."""

    def __init__(self, needed, cap, what: str = "degree"):
        super().__init__(f"construction needs {what} {needed}, which exceeds the cap {cap}")
        self.needed = needed
        self.cap = cap


class SpecialCaseError(ValueError):
    """The requested object degenerates to a point with no polynomial."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _check_cap(cap: int, base: int, k: int = 1, geometric: bool = False,
               scale: int = 1) -> None:
    """Refuse a construction of degree scale * base^k, or of degree
    scale * (base^k - 1)/(base - 1) when geometric, above the cap.  The
    exponent decides first: a degree past 2^64 and the cap is refused
    without forming base^k and printed as a power."""
    if k > 1 and (k - geometric) * (base.bit_length() - 1) > max(64, cap.bit_length()):
        power = f"{base}^{k}"
        needed = f"({power} - 1)/{base - 1}" if geometric else power
        raise DegreeCapError(f"{scale}*{needed}" if scale > 1 else needed, cap)
    needed = scale * ((base ** k - 1) // (base - 1) if geometric else base ** k)
    if needed > cap:
        raise DegreeCapError(needed, cap)


def _capped_phi(m: int, cap: int) -> int:
    """phi(m), the degree of Psi_m, for a construction whose degree is at
    least phi(m).  As phi(m) >= sqrt(m/2), an m above 2 cap^2 is refused
    without factoring it."""
    if m > 2 * cap * cap:
        raise DegreeCapError(f"at least phi(m) >= sqrt(m/2) for m = {m}", cap)
    return euler_phi(m)


# size allowed an iterate per unit of degree cap, in coefficient bits: the
# default cap admits 2^28 bits (32 MiB), f^10 of z^2 + c (2^27.2 bits, built
# in ~4 minutes) but not f^11 (2^30.2 bits, ~20x the time)
_CAP_BITS_PER_DEGREE = 1 << 16


def _check_iterate_cap(n: int, k: int, cap: int) -> None:
    """Refuse an iterate of z^n + c of degree n^k above the cap, or one
    whose estimated size exceeds cap * _CAP_BITS_PER_DEGREE bits, before
    any work.  The size is the cells c^i z^j with n i + j <= n^k times the
    bits of f^k(1) at c = 1, which bounds every coefficient of f^k; the
    form (w^n + b)/n and the products over its iterates are of the same
    size up to a small factor."""
    _check_cap(cap, n, k)
    bits = 1.0  # log2 f^j(1) at c = 1: f^(j+1)(1) = f^j(1)^n + 1
    for _ in range(k - 1):
        bits = n * bits + math.log2(1 + 2.0 ** (-n * bits))
    # in log2, as bits overflows a float past degree 2^1024
    size = math.log2((n ** (k - 1) + 1) * (n ** k + 2) // 2) + math.log2(bits)
    allowed = math.log2(cap * _CAP_BITS_PER_DEGREE)
    if size > allowed:
        raise DegreeCapError(
            f"2^{size:.1f}", f"2^{allowed:.1f}", "an estimated size in coefficient bits of"
        )


def _validate_n(n: int) -> None:
    _require(isinstance(n, int) and n >= 2, "map degree n must be an integer >= 2")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class IteratePair:
    """k-th iterate of (w^n + b)/n written as poly / denom.

    poly is monic of degree n^k in w and degree n^(k-1) in b;
    denom = n^(1 + n + ... + n^(k-1)).
    """

    poly: BiPoly
    denom: int
    k: int


@dataclass(frozen=True)
class CriticalOrbitPoly:
    """k-th critical orbit polynomial in chat: monic, constant term +1."""

    poly: IntPoly
    k: int
    n: int


@dataclass(frozen=True)
class ParamPolynomial:
    """Primitive positive-lc polynomial cutting out a parameter locus."""

    poly: IntPoly
    coordinate: str
    n: int
    provenance: Mapping[str, object]

    def __post_init__(self):
        _validate_n(self.n)
        _require(self.coordinate in COORDINATES, f"unknown coordinate {self.coordinate!r}")
        p = self.poly
        _require(not p.is_zero, "parameter polynomial must be nonzero")
        _require(p.var == self.coordinate, "polynomial variable must match the coordinate tag")
        _require(
            p.content == 1 and p.lc > 0,
            "parameter polynomial must be primitive with positive leading coefficient",
        )
        object.__setattr__(self, "provenance", dict(self.provenance))

    @property
    def degree(self) -> int:
        return self.poly.degree

    def to_json(self) -> dict:
        out = poly_to_json(self.poly)
        out["coordinate"] = self.coordinate
        out["n"] = self.n
        out["provenance"] = dict(self.provenance)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ParamPolynomial":
        return cls(poly_from_json(obj), obj["coordinate"], obj["n"], obj["provenance"])


def _divisors(h: int) -> list[int]:
    return [d for d in range(1, h + 1) if h % d == 0]


# ---------------------------------------------------------------------------
# iterates


@lru_cache(maxsize=_MEMO_SIZE)
def _iterate_fc(n: int, k: int) -> BiPoly:
    if k == 1:
        return BiPoly(((0,) * n + (1,), (1,)), "c", "z")  # z^n + c
    return _iterate_fc(n, k - 1) ** n + BiPoly.gen("c", "c", "z")


def iterate_map(n: int, k: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> BiPoly:
    """k-th iterate of z^n + c as an exact polynomial in (c, z)."""
    _validate_n(n)
    _require(k >= 1, "iterate index k must be >= 1")
    _check_iterate_cap(n, k, degree_cap)
    return _iterate_fc(n, k)


def _to_gb(P: BiPoly, n: int, e: int, s: int) -> BiPoly:
    """n^e t^-s P(t b / n, t w), t^(n-1) = 1/n: z = t w and c = t b / n carry
    z^n + c to (w^n + b)/n, so c^i z^j becomes n^(e-i-(i+j-s)/(n-1)) b^i w^j.
    f^k and f^k - z carry (e, s) = ((n^k - 1)/(n - 1), 1); products add them."""
    return BiPoly(tuple(
        tuple(a and a * n ** (e - i - (i + j - s) // (n - 1)) for j, a in enumerate(row))
        for i, row in enumerate(P.rows)
    ), "b", "w")


def iterate_poly_gb(n: int, k: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> IteratePair:
    """Numerator P_k and denominator N_k of the k-th iterate of (w^n + b)/n.

    N_k = n^e with e = (n^k - 1)/(n - 1), and P_k = N_k g_b^k(w) is the
    iterate f^k of z^n + c carried to (b, w) by _to_gb, an exact integer
    polynomial with P_1 = w^n + b and P_{k+1} = P_k^n + N_k^n b.
    """
    _validate_n(n)
    _require(k >= 1, "iterate index k must be >= 1")
    _check_iterate_cap(n, k, degree_cap)
    e = (n ** k - 1) // (n - 1)
    return IteratePair(_to_gb(_iterate_fc(n, k), n, e, 1), n ** e, k)


def periodicity_poly(n: int, h: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> BiPoly:
    """P_h(b, w) - N_h w, whose w-roots are the period-h points of (w^n + b)/n."""
    pair = iterate_poly_gb(n, h, degree_cap)
    return pair.poly - BiPoly.gen("w", "b", "w") * pair.denom


@lru_cache(maxsize=_MEMO_SIZE)
def _orbit(n: int, k: int) -> IntPoly:
    if k == 1:
        return IntPoly((1,), "chat")
    return IntPoly.gen("chat") * _orbit(n, k - 1) ** n + 1


def critical_orbit_poly(
    n: int, k: int, degree_cap: int = DEFAULT_DEGREE_CAP
) -> CriticalOrbitPoly:
    """k-th critical orbit polynomial: P_1 = 1, P_{k+1} = chat P_k^n + 1.

    Satisfies f_c^k(0) = c * P_k(c^(n-1)); monic with constant term +1.
    """
    _validate_n(n)
    _require(k >= 1, "orbit index k must be >= 1")
    _check_cap(degree_cap, n, k - 1, geometric=True)
    return CriticalOrbitPoly(_orbit(n, k), k, n)


def critical_value_poly(n: int, k: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> IntPoly:
    """f_c^k(0) = c P_k(c^(n-1)) as an exact polynomial in c."""
    _validate_n(n)
    _require(k >= 1, "iterate index k must be >= 1")
    _check_cap(degree_cap, n, k - 1)
    return IntPoly((0,) + _stretch(_orbit(n, k), n - 1).coeffs, "c")


# ---------------------------------------------------------------------------
# dynatomic polynomials


def _dynatomic_degree(n: int, h: int) -> int:
    """nu(h), the degree in z of Phi_h: the sum of mu(h/d) n^d over d | h."""
    return sum(moebius(h // d) * n ** d for d in _divisors(h))


@lru_cache(maxsize=_MEMO_SIZE)
def _dynatomic(n: int, h: int) -> BiPoly:
    def term(d: int) -> BiPoly:
        return _iterate_fc(n, d) - BiPoly.gen("z", "c", "z")

    plus = [d for d in _divisors(h) if moebius(h // d) == 1]
    minus = [d for d in _divisors(h) if moebius(h // d) == -1]
    num = term(plus[0])
    for d in plus[1:]:
        num = num * term(d)
    for d in sorted(minus, reverse=True):
        num = num.divexact(term(d))  # exact by construction; raises otherwise
    return num


def dynatomic(
    n: int, h: int, form: str = "f_c", degree_cap: int = DEFAULT_DEGREE_CAP
) -> BiPoly:
    """Exact-period-h polynomial via the Moebius product over divisors of h.

    For form "f_c" this is prod_{d|h} (f^d(z) - z)^{mu(h/d)} in (c, z); for
    form "g_b" the cleared version prod (P_d - N_d w)^{mu(h/d)} in (b, w),
    which is the f_c one carried over by _to_gb.
    The divisions are exact; prod_{d|h} Phi_d recovers iterate_h - var.
    """
    _validate_n(n)
    _require(h >= 1, "period h must be >= 1")
    _require(form in ("f_c", "g_b"), f"unknown dynatomic form {form!r}")
    _check_iterate_cap(n, h, degree_cap)
    # (e, s) is the sum over d | h of mu(h/d) ((n^d - 1)/(n - 1), 1)
    s = int(h == 1)
    e = (_dynatomic_degree(n, h) - s) // (n - 1)
    return _dynatomic(n, h) if form == "f_c" else _to_gb(_dynatomic(n, h), n, e, s)


# ---------------------------------------------------------------------------
# multipliers


@lru_cache(maxsize=_MEMO_SIZE)
def _multiplier(n: int, h: int) -> BiPoly:
    prod = BiPoly.gen("z", "c", "z")
    for i in range(1, h):
        prod = prod * _iterate_fc(n, i)
    return prod ** (n - 1) * n ** h


def multiplier_poly(n: int, h: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> BiPoly:
    """Derivative of the h-th iterate of z^n + c with respect to z.

    Chain rule product form n^h (z f(z) ... f^{h-1}(z))^(n-1); identical to
    differentiating iterate_map(n, h) directly.
    """
    _validate_n(n)
    _require(h >= 1, "period h must be >= 1")
    _check_iterate_cap(n, h, degree_cap)
    return _multiplier(n, h)


def multiplier_resultant(
    n: int, h: int, degree_cap: int = DEFAULT_DEGREE_CAP
) -> BiPoly:
    """q(c, mu) = Res_z(Phi_h(c, z), mu - (f^h)'(z)).

    Each exact-period-h orbit with multiplier mu0 contributes (mu - mu0)^h,
    so q is monic of degree nu(h) in mu.  Computed by evaluating c at the
    integer points 0, ..., D, taking bivariate resultants in (mu, z) by the
    exact subresultant PRS, and interpolating back; both steps are exact.
    D = _elimination_degree(n, h, 1, dz), h times the degree that
    _parabolic_bounds proves for the root of the m = 1 resultant: each
    mu-coefficient of q is a symmetric function of at most dz = deg_z Phi_h
    multipliers, and each grows like |c|^(h(n-1)/n) on the periodic-point
    disc.  Phi_h and (f^h)' have leading coefficients 1
    and n^h in z, so no point drops a degree.
    """
    _validate_n(n)
    _require(h >= 1, "period h must be >= 1")
    _check_iterate_cap(n, h, degree_cap)
    return _multiplier_resultant(n, h)


@lru_cache(maxsize=_MEMO_SIZE)
def _multiplier_resultant(n: int, h: int) -> BiPoly:
    phi = _dynatomic(n, h)
    W = _multiplier(n, h)
    dmu = phi.degree("z")
    vals = []
    for x in range(_elimination_degree(n, h, 1, dmu) + 1):
        A = BiPoly.from_inner_poly(phi.eval_at("c", x), outer="mu")
        B = BiPoly.gen("mu", "mu", "z") - BiPoly.from_inner_poly(
            W.eval_at("c", x), outer="mu"
        )
        vals.append(resultant(A, B, eliminate="z"))
    cols = [
        _interpolate(0, [v.coeff(j) for v in vals], "c")
        for j in range(dmu + 1)
    ]
    return BiPoly.from_univariate(cols, var="mu", outer="c", inner="mu")


# ---------------------------------------------------------------------------
# coordinate transforms


def coord_transform(p: ParamPolynomial, coordinate: str) -> ParamPolynomial:
    """Rewrite a parameter polynomial in another coordinate.

    chat = c^(n-1) and bhat = b^(n-1) are complete conjugacy invariants, so
    every move is up from c or b by (n-1)-st powers of the roots (n > 2; for
    n = 2 the power coordinates are the plain ones), across between the c
    and b families by the root scale n^n or n^-n, and down into c or b by
    x -> x^(n-1).  A family's c-locus is the set of (n-1)-st roots of its
    chat-locus, so its polynomial comes back unchanged from every coordinate.
    """
    _require(coordinate in COORDINATES, f"unknown coordinate {coordinate!r}")
    n, src, poly = p.n, p.coordinate, p.poly
    if coordinate == src:
        return p
    if src in ("c", "b") and n > 2:
        poly = squarefree_part(root_power_transform(poly, n - 1))
    across = (coordinate in ("b", "bhat")) - (src in ("b", "bhat"))
    if across:
        poly = root_scale_transform(poly, Fraction(n ** n) ** across)
    if coordinate in ("c", "b"):
        poly = _stretch(poly, n - 1)
    return ParamPolynomial(poly.rename(coordinate).primitive_part(), coordinate, n, p.provenance)


def _stretch(p: IntPoly, k: int) -> IntPoly:
    # substitute x^k for x: satisfied by any k-th root of a root of p
    if k == 1:
        return p
    coeffs = [0] * (p.degree * k + 1)
    for i, a in enumerate(p.coeffs):
        coeffs[i * k] = a
    return IntPoly(coeffs, p.var)


# ---------------------------------------------------------------------------
# parameter polynomials


def _strip_factors(D: IntPoly, lower: IntPoly) -> IntPoly:
    """Divide out of D, repeatedly, every factor shared with `lower`."""
    if lower.degree < 1:
        return D
    g = gcd_fast(D, lower)
    while g.degree > 0:
        D = D.divexact(g)
        g = gcd_fast(D, lower)
    return D


@lru_cache(maxsize=_MEMO_SIZE)
def _gleason(n: int, h: int) -> IntPoly:
    D = _orbit(n, h)
    for h2 in _divisors(h)[:-1]:
        D = _strip_factors(D, _orbit(n, h2))
    return D.primitive_part()


def gleason_poly(
    n: int, h: int, coordinate: str = "c", degree_cap: int = DEFAULT_DEGREE_CAP
) -> ParamPolynomial:
    """Parameters where the critical point itself has exact period h.

    In coordinate chat: the critical orbit polynomial P_h with every factor
    shared with a lower P_{h'}, h' | h, removed by exact division; h >= 2,
    as for h = 1 the locus is the point c = 0, a polynomial in c only.
    Every other coordinate is the chat polynomial moved by coord_transform;
    in c it is f^h(0) stripped the same way, as x -> x^(n-1) commutes with
    gcds and exact divisions.
    """
    _validate_n(n)
    _require(h >= 1, "period h must be >= 1")
    _require(coordinate in COORDINATES, f"unknown coordinate {coordinate!r}")
    prov = {"kind": "gleason", "h": h}
    if h == 1 and coordinate != "c":
        raise SpecialCaseError(
            "period 1 for the critical point means c = 0, a single point with "
            "no polynomial in the power coordinates; use coordinate 'c'"
        )
    # f^h(0) has degree n^(h-1) in c; b comes down from bhat by x -> x^(n-1)
    _check_cap(degree_cap, n, h - 1, geometric=coordinate != "c",
               scale=n - 1 if coordinate == "b" else 1)
    if h == 1:
        return ParamPolynomial(IntPoly.gen("c"), "c", n, prov)
    return coord_transform(ParamPolynomial(_gleason(n, h), "chat", n, prov), coordinate)


@lru_cache(maxsize=_MEMO_SIZE)
def _misiurewicz_raw(n: int, t: int, h: int, tau: int) -> IntPoly:
    psi = cyclotomic(tau)
    d = psi.degree
    A = _orbit(n, t + h)
    B = _orbit(n, t)
    S = IntPoly.zero("chat")
    for i in range(d + 1):
        if psi.coeff(i):
            S = S + A ** i * B ** (d - i) * psi.coeff(i)
    return S


@lru_cache(maxsize=_MEMO_SIZE)
def _misiurewicz(n: int, t: int, h: int, tau: int) -> IntPoly:
    D = _misiurewicz_raw(n, t, h, tau)
    for t2 in range(1, t + 1):
        for h2 in _divisors(h):
            if (t2, h2) != (t, h):
                D = _strip_factors(D, _misiurewicz_raw(n, t2, h2, tau))
    return squarefree_part(D)


def misiurewicz_poly(
    n: int,
    t: int,
    h: int,
    tau: int,
    coordinate: str = "chat",
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> ParamPolynomial:
    """Parameters whose critical orbit becomes periodic after t >= 1 steps.

    The defining condition is that the two orbit points P_{t+h} and P_t
    differ by a primitive tau-th root of unity factor in the linearizing
    coordinate, encoded by the homogenized cyclotomic
    S = P_t^phi(tau) Psi_tau(P_{t+h} / P_t), an exact integer polynomial in
    chat.  For n prime and tau = n this is the sum P_{t+h}^(n-1) + ... +
    P_t^(n-1), monic with constant term n.  Factors shared with any lower
    cell (t' <= t, h' | h) are removed by iterated exact gcd division and
    the result is made squarefree.  Every other coordinate is this chat
    polynomial moved by coord_transform.
    """
    _validate_n(n)
    _require(t >= 1, "transient time t must be >= 1")
    _require(h >= 1, "eventual period h must be >= 1")
    _require(tau > 1 and n % tau == 0, "tau must be a divisor of n with tau > 1")
    _require(coordinate in COORDINATES, f"unknown coordinate {coordinate!r}")
    # c and b come down from chat and bhat by x -> x^(n-1)
    scale = _capped_phi(tau, degree_cap) * (n - 1 if coordinate in ("c", "b") else 1)
    _check_cap(degree_cap, n, t + h - 1, geometric=True, scale=scale)
    pp = ParamPolynomial(
        _misiurewicz(n, t, h, tau),
        "chat",
        n,
        {"kind": "misiurewicz", "t": t, "h": h, "tau": tau},
    )
    return coord_transform(pp, coordinate)


# fractional bits of the fixed-point upper bound on rho(2^e) in
# _parabolic_bounds
_RHO_BITS = 32


def _elimination_degree(n: int, h: int, phi: int, dz: int) -> int:
    # D = dz h (n-1) phi(m) / n, the degree _parabolic_bounds proves
    return dz * h * (n - 1) * phi // n


def _parabolic_bounds(n: int, h: int, m: int, dz: int) -> tuple[int, int]:
    """Degree and coefficient bits bounding S(c), the integer polynomial
    whose h-th power is R(c) = Res_z(Phi_h, Psi_m(W)), W = (f^h)', where
    Phi_h has degree dz in z.  S has leading coefficient n^(phi(m) dz).

    R = S^h.  Phi_h is monic in z, so R(c) = prod Psi_m(W(c, z_i)) over its
    roots z_i.  Over the field Q(c), c transcendental, these are the
    points of the dz/h orbits of exact period h of f = z^n + c, and
    W(z) = n^h (z f(z) ... f^(h-1)(z))^(n-1) is constant on each orbit,
    equal to its multiplier lambda.  So R = S^h with S = prod Psi_m(lambda)
    over the orbits (Morton-Vivaldi, Nonlinearity 1995).  Each automorphism
    of the splitting field of Phi_h over Q(c) commutes with f and so
    permutes the orbits; S is fixed by all of them and lies in Q(c).  It is
    integral over Z[c], as the z_i are (Phi_h is monic), and Z[c] is
    integrally closed, so S is in Z[c].

    The bounds.  Each periodic point of z^n + c, and so each point of its
    orbit, lies in |z| <= rho(|c|), the root of rho^n - rho = |c|: past it
    |f(z)| >= |z|^n - |c| > |z|, and the orbit never returns.  So
    |lambda| <= n^h rho^(h(n-1)) and |S(c)| <= M(|c|) =
    (n^h rho(|c|)^(h(n-1)) + 1)^(phi(m) dz/h).  By Cauchy's estimate
    coefficient k has |s_k| <= M(r) / r^k for every r > 0.  The bit bound
    is the largest over k of the least log2 M(2^e) - k e over e = 0, ...,
    E, in integers: rho(2^e) is rounded up to a multiple of 2^-_RHO_BITS
    and M's numerator taken to its power exactly, so each step rounds up.

    The degree and leading coefficient.  For large |c| a point with
    |z|^n < |c|/2 has |f(z)| > |c|/2 > rho(|c|) and escapes, so every
    |lambda| grows without bound and S(c) = prod lambda^phi(m) (1 + o(1)).
    The product of the multipliers is n^dz (z_1 ... z_dz)^(n-1), and
    z_1 ... z_dz = (-1)^dz Phi_h(c, 0), where Phi_h(c, 0) is the quotient
    of the f^d(0) = c P_d(c^(n-1)), d | h, monic of degree n^(d-1), so
    monic of degree dz/n.  The sign (-1)^(dz (n-1) phi(m)) is +1: n - 1 is
    even for odd n, and dz, a sum of multiples of n^d, is even for even n.
    So S has degree D/h = (n-1) phi(m) dz / n, with D the degree of R
    (_elimination_degree), and leading coefficient n^(phi(m) dz).
    """
    phi = euler_phi(m)
    b, exp = h * (n - 1), phi * dz // h
    degree = _elimination_degree(n, h, phi, dz) // h
    F = _RHO_BITS
    logs = []
    for e in range(2 * (degree * b).bit_length() + 9):
        # least P with (P/2^F)^n - P/2^F >= 2^e, by bisection
        lo, hi = 1 << F, 1 << (F + e // n + 2)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid ** n - (mid << (F * (n - 1))) >= 1 << (e + n * F):
                hi = mid
            else:
                lo = mid + 1
        # M(2^e) <= ((n^h P^b + 2^(F b)) / 2^(F b))^exp
        logs.append(((n ** h * lo ** b + (1 << (F * b))) ** exp).bit_length() - F * b * exp)
    height = max(min(L - k * e for e, L in enumerate(logs)) for k in range(degree + 1))
    return degree, height


@lru_cache(maxsize=_MEMO_SIZE)
def _parabolic(n: int, h: int, m: int) -> IntPoly:
    """Radical of R(c) = Res_z(Phi_h, Psi_m((f^h)')), taken as the radical
    of S = R^(1/h): the modular route recovers S, of degree D/h, from the
    primes its height needs, given the root order h and lc(S) that
    _parabolic_bounds proves, and squarefree_part(S) = squarefree_part(R)."""
    phi = _dynatomic(n, h)
    W = _multiplier(n, h)
    psi = cyclotomic(m)
    B = BiPoly.const(psi.coeff(psi.degree), "c", "z")
    for i in range(psi.degree - 1, -1, -1):
        B = B * W + psi.coeff(i)
    dz = phi.degree("z")
    S = resultant(phi, B, eliminate="z", bounds=_parabolic_bounds(n, h, m, dz),
                  root=(h, n ** (psi.degree * dz)))
    return squarefree_part(S)


def parabolic_param_poly(
    n: int,
    h: int,
    m: int,
    coordinate: str = "c",
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> ParamPolynomial:
    """Parameters where some exact-period-h orbit has multiplier a
    primitive m-th root of unity.

    Radical of the elimination of z from Phi_h and Psi_m((f^h)'), which
    equals the radical of Res_mu(q(c, mu), Psi_m(mu)) for the multiplier
    resultant q.  The elimination is exact and runs per orbit: the
    resultant R is S^h, S the product over the period-h orbits of Psi_m
    of their multipliers, an integer polynomial whose degree D/h, height
    and leading coefficient _parabolic_bounds proves from the dynamics, and
    every cell takes the modular route to S on those bounds, from about
    1/h of the primes R would need.  The degree cap reads D.
    Squarefree and primitive, but not irreducible in general: the
    (mu - mu0)^h orbit structure and orbit merges at bifurcation parameters
    can contribute extra factors (for m = 1, the cells (h', m') with
    h' m' = h merge in).  Callers pick factors.  Every other coordinate is
    this c polynomial moved by coord_transform.

    The associated ray period is r = h * m.
    """
    _validate_n(n)
    _require(h >= 1, "period h must be >= 1")
    _require(m >= 1, "root-of-unity order m must be >= 1")
    _require(coordinate in COORDINATES, f"unknown coordinate {coordinate!r}")
    _check_iterate_cap(n, h, degree_cap)
    _check_cap(degree_cap, _elimination_degree(
        n, h, _capped_phi(m, degree_cap), _dynatomic_degree(n, h)))
    native = ParamPolynomial(
        _parabolic(n, h, m), "c", n, {"kind": "parabolic", "h": h, "m": m}
    )
    return coord_transform(native, coordinate)


def fixed_point_parabolic(n: int, m: int) -> ParamPolynomial:
    """Fixed-point parabolic parameters in bhat, by direct elimination.

    A fixed point of (w^n + b)/n with multiplier mu satisfies
    w^(n-1) = mu and b = (n - mu) w, hence bhat = mu (n - mu)^(n-1).
    Eliminating mu against Psi_m gives the polynomial for multiplier a
    primitive m-th root of unity; must agree with
    parabolic_param_poly(n, 1, m, "bhat").  Its degree phi(m) is held to
    DEFAULT_DEGREE_CAP before any work.
    """
    _validate_n(n)
    _require(m >= 1, "root-of-unity order m must be >= 1")
    _check_cap(DEFAULT_DEGREE_CAP, _capped_phi(m, DEFAULT_DEGREE_CAP))
    base = IntPoly((n, -1), "mu") ** (n - 1) * IntPoly.gen("mu")
    A = BiPoly.gen("bhat", "bhat", "mu") - BiPoly.from_inner_poly(base, outer="bhat")
    B = BiPoly.from_inner_poly(cyclotomic(m, "mu"), outer="bhat")
    E = resultant(A, B, eliminate="mu")
    return ParamPolynomial(
        squarefree_part(E).rename("bhat"),
        "bhat",
        n,
        {"kind": "other", "source": "fixed_point_parabolic", "m": m},
    )
