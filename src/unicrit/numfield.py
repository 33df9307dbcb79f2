"""Exact arithmetic in Q[x]/(m(x)) and integrality certificates.

A NumberField is Q[x] modulo a monic irreducible rational polynomial;
elements are rational coordinate vectors in the power basis.  A product
clears both operands' denominators, multiplies once over Z (polycore's
_zmul) and reduces by one pseudo-remainder against the cleared modulus.
On top of that sit the certificates this package actually cares about
(minimal polynomials, norms and traces, algebraic-integer and unit
verdicts) and the periodic orbits of z^n + c at rational parameters as
field elements, from which verify builds the multiplier congruences and
dynamical units.

No integral bases, no ideal arithmetic: integrality is always certified
through the minimal polynomial, which keeps everything elementary and
exact.  Characteristic polynomials, and so minimal polynomials, norms and
traces, are polycore resultants with no bound passed, so they take the
exact subresultant PRS at every degree: one univariate resultant per
point, with no height bound to prove.  All values are immutable and all
functions pure.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .dynmaps import dynatomic
from .factorz import factor
from .polycore import _MEMO_SIZE, BiPoly, IntPoly, _power, _strip, poly_to_json, resultant, squarefree_part

__all__ = [
    "FieldElement",
    "IntegralityCertificate",
    "NumberField",
    "OrbitInField",
    "ParabolicCollisionError",
    "RatPoly",
    "is_algebraic_integer",
    "is_unit",
    "minimal_polynomial",
    "norm_and_trace",
    "periodic_orbit_in_field",
    "prime_to_n_test",
]


class ParabolicCollisionError(ValueError):
    """The dynatomic specialization has a repeated or premature root.

    Raised when a requested orbit computation lands exactly on a
    parabolic parameter.  Callers treat this as a routing signal (the
    parameter belongs to the parabolic pipeline), not as a failure.
    """


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("rational input required, not float")
    return Fraction(x)


def _clear(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, D * coeffs), D > 0 the lcm of the denominators (1 for none)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


@dataclass(frozen=True)
class RatPoly:
    """Dense univariate polynomial over Q, coefficients ascending."""

    coeffs: tuple[Fraction, ...]
    var: str = "y"

    def __post_init__(self) -> None:
        cs = _strip([_frac(c) for c in self.coeffs])
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __call__(self, x):
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def cleared(self) -> IntPoly:
        """Smallest positive integer multiple with integer coefficients."""
        return IntPoly(_clear(self.coeffs)[1], self.var)

    def to_intpoly(self) -> IntPoly:
        if not self.is_integral:
            raise ValueError("polynomial has non-integer coefficients")
        return IntPoly(tuple(int(c) for c in self.coeffs), self.var)

    def to_json(self) -> dict:
        return poly_to_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "RatPoly":
        return cls(tuple(Fraction(c) for c in obj["coeffs"]), obj["var"])


@dataclass(frozen=True)
class NumberField:
    """Q[x]/(modulus) for a monic irreducible rational modulus.

    >>> K = NumberField(RatPoly((Fraction(1), Fraction(0), Fraction(1)), "x"))
    >>> K.degree
    2
    >>> (K.generator() ** 2).coords
    (Fraction(-1, 1), Fraction(0, 1))
    """

    modulus: RatPoly
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        if self.modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if not self.modulus.is_monic:
            raise ValueError("modulus must be monic")
        if check and self.modulus.degree > 1:
            from .factorz import is_irreducible

            if not is_irreducible(self.modulus.cleared()):
                raise ValueError("modulus must be irreducible over Q")

    @property
    def degree(self) -> int:
        return self.modulus.degree

    @property
    def var(self) -> str:
        return self.modulus.var

    def element(self, coords: Sequence) -> "FieldElement":
        cs = [_frac(c) for c in coords]
        if len(cs) > self.degree:
            raise ValueError("coordinate vector longer than field degree")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def zero(self) -> "FieldElement":
        return self.element(())

    def one(self) -> "FieldElement":
        return self.element((1,))

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            # x = r in Q[x]/(x - r)
            return self.element((-self.modulus.coeffs[0],))
        return self.element((0, 1))

    def from_rational(self, r) -> "FieldElement":
        return self.element((_frac(r),))


@dataclass(frozen=True)
class FieldElement:
    """Element of a NumberField in power-basis coordinates, length d."""

    field: NumberField
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.field.degree:
            raise ValueError("coordinate vector must have length exactly d")
        object.__setattr__(self, "coords", tuple(_frac(c) for c in self.coords))

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational")
        return self.coords[0]

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements live in different fields")
            return other
        return self.field.from_rational(other)

    def __add__(self, other) -> "FieldElement":
        o = self._coerce(other)
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other) -> "FieldElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FieldElement":
        return (-self) + other

    def __mul__(self, other) -> "FieldElement":
        # (a / da) (b / db) with integer a, b: a b is one _zmul product, and
        # its pseudo-remainder by the cleared modulus M is lc(M)^k a b mod M
        da, a = _clear(self.coords)
        db, b = _clear(self._coerce(other).coords)
        M = self.field.modulus.cleared()
        ab = IntPoly(a) * IntPoly(b)
        k = max(ab.degree - M.degree + 1, 0)
        den = da * db * M.lc ** k
        return self.field.element([Fraction(c, den) for c in ab.pseudo_rem(M).coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElement":
        # scalar division only; field inversion is out of scope
        if isinstance(other, FieldElement):
            if not other.is_rational:
                raise TypeError("division by a non-rational element")
            other = other.as_fraction()
        s = _frac(other)
        if s == 0:
            raise ZeroDivisionError("division by zero")
        return FieldElement(self.field, tuple(a / s for a in self.coords))

    def __pow__(self, e: int) -> "FieldElement":
        return _power(self, e, self.field.one())


# ---------------------------------------------------------------------------
# minimal polynomials, norms, traces


@lru_cache(maxsize=_MEMO_SIZE)
def _char_poly(e: FieldElement) -> RatPoly:
    """Characteristic polynomial of multiplication by e, prod (y - e(alpha)).

    With D the lcm of e's coordinate denominators, E = D*e and M the
    cleared modulus, Res_x(M, D*y - E) = lc(M)^deg E * D^d * prod (y - e(alpha))
    (Cohen, GTM 138, 4.3).  No bound is passed, so polycore.resultant
    takes the exact subresultant PRS at every degree; integrality
    certificates rest on this exact polynomial.
    """
    d = e.field.degree
    if e.is_rational:
        r = e.coords[0]
        char = IntPoly((-r.numerator, r.denominator), "y") ** d
    else:
        den, E = _clear(e.coords)
        M = BiPoly(tuple((a,) for a in e.field.modulus.cleared().coeffs), "x", "y")
        N = BiPoly(((-E[0], den),) + tuple((-a,) for a in E[1:]), "x", "y")
        char = resultant(M, N, eliminate="x")
    return RatPoly(tuple(Fraction(c, char.lc) for c in char.coeffs), "y")


def minimal_polynomial(e: FieldElement) -> RatPoly:
    """Monic minimal polynomial of e over Q, in the variable y.

    The characteristic polynomial of the multiplication-by-e map is a
    perfect power of the (irreducible) minimal polynomial, so the
    squarefree part is exactly what we want.  Degree divides d.
    """
    char = _char_poly(e)
    sq = squarefree_part(char.cleared())
    lead = sq.lc
    return RatPoly(tuple(Fraction(c, lead) for c in sq.coeffs), "y")


def norm_and_trace(e: FieldElement) -> tuple[Fraction, Fraction]:
    """Determinant and trace of multiplication by e on the whole field."""
    char = _char_poly(e)
    d = e.field.degree
    norm = char.coeffs[0] if d % 2 == 0 else -char.coeffs[0]
    trace = -char.coeffs[d - 1]
    return norm, trace


@dataclass(frozen=True)
class IntegralityCertificate:
    """Verdict on whether an element is an algebraic integer.

    The verdict is exactly "minimal polynomial has integer coefficients";
    the unit flag additionally requires |norm| = 1.
    """

    element: FieldElement
    min_poly: RatPoly
    is_integer: bool
    norm: Fraction
    is_unit: bool

    def to_json(self, context=None) -> dict:
        return {
            "element_minpoly": self.min_poly.to_json(),
            "is_integer": self.is_integer,
            "norm": str(self.norm),
            "is_unit": self.is_unit,
            "context": context,
        }


def is_algebraic_integer(e: FieldElement) -> IntegralityCertificate:
    mp = minimal_polynomial(e)
    integer = mp.is_integral
    norm, _ = norm_and_trace(e)
    return IntegralityCertificate(
        element=e,
        min_poly=mp,
        is_integer=integer,
        norm=norm,
        is_unit=integer and abs(norm) == 1,
    )


def is_unit(e: FieldElement) -> bool:
    """True iff e is an algebraic integer of norm +1 or -1."""
    return is_algebraic_integer(e).is_unit


# ---------------------------------------------------------------------------
# periodic orbits at rational parameters


@dataclass(frozen=True)
class OrbitInField:
    """One Galois orbit of exact period h for z^n + c, held in Q(z)."""

    n: int
    c: Fraction
    field: NumberField
    points: tuple[FieldElement, ...]
    multiplier: FieldElement


def periodic_orbit_in_field(n: int, c, h: int) -> list[OrbitInField]:
    """Orbits of exact period h of z^n + c at a rational parameter c.

    One OrbitInField per irreducible factor of the specialized dynatomic
    polynomial: the field it generates, the h orbit points computed
    in-field, and the cycle multiplier prod n * z_j^(n-1).

    Raises ParabolicCollisionError when the specialization has a repeated
    root, or when a factor's root turns out to have period below h (both
    happen exactly at parabolic parameters).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if h < 1:
        raise ValueError("h must be at least 1")
    c = _frac(c)
    phi = dynatomic(n, h)
    cols = phi.as_univariate_in("z")
    spec = RatPoly(tuple(Fraction(p(c)) for p in cols), "z")
    cleared = spec.cleared()
    fac = factor(cleared)
    if any(mult >= 2 for _, mult in fac.factors):
        raise ParabolicCollisionError(
            f"dynatomic polynomial has a repeated root at c = {c}"
        )
    orbits = []
    for p, _ in fac.factors:
        lead = p.lc
        modulus = RatPoly(tuple(Fraction(a, lead) for a in p.coeffs), "z")
        fld = NumberField(modulus, check=False)
        z1 = fld.generator()
        points = [z1]
        cur = z1
        for j in range(1, h):
            cur = cur ** n + c
            if cur == z1:
                raise ParabolicCollisionError(
                    f"root of period {j} < {h} inside the dynatomic factor "
                    f"at c = {c}"
                )
            points.append(cur)
        if points[-1] ** n + c != z1:
            raise ArithmeticError("orbit failed to close after h steps")
        prod = fld.one()
        for z in points:
            prod = prod * z
        multiplier = (prod ** (n - 1)) * Fraction(n) ** h
        orbits.append(OrbitInField(n, c, fld, tuple(points), multiplier))
    return orbits


def prime_to_n_test(min_poly, n: int) -> bool:
    """Whether an algebraic integer, given by its minimal polynomial, is
    coprime to n.

    Since algebraic integers are stable under conjugation, the element
    shares a prime factor with n exactly when gcd(|Norm|, n) > 1, and the
    norm is read off the monic integer minimal polynomial as +-p(0).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if isinstance(min_poly, RatPoly):
        min_poly = min_poly.to_intpoly()
    if min_poly.degree < 1:
        raise ValueError("minimal polynomial must have degree >= 1")
    if not min_poly.is_monic:
        raise ValueError("an algebraic integer has a monic minimal polynomial")
    return math.gcd(abs(min_poly.constant), n) == 1
