"""Verification sweeps over the polynomial families, with full witnesses.

Each operation checks one arithmetic claim about the families built in
dynmaps at a single parameter cell and returns a VerificationReport: the
claim id, the cell, a witness list carrying every factor, norm, bound,
and quotient involved, and an overall verdict.  A report says "pass"
only when every exact check in it succeeded; anything partial or
inapplicable is labeled as such rather than swallowed.

Besides the norm theorems, the orbit claims certify the orbit-level
congruences satisfied by multipliers of periodic cycles of z^n + c at
rational parameters, on the orbits numfield holds as field elements.

Reports serialize deterministically: identical inputs give byte-identical
JSON (timing is zeroed unless explicitly requested).

Norms, bounds and quotients are written as decimal strings of any length.
Python 3.11 and later refuse to turn an int of more than 4,300 digits into
a string unless `sys.set_int_max_str_digits` lifts that limit.
`unicrit.cli.main` lifts it for its own process; this module does not, as
lifting it at import would switch off the guard for every importer.  A
caller outside `cli.main` whose cells reach such numbers, such as
`verify_thm_1_4(2, 1, 199)`, lifts the limit first, or gets a ValueError.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .dynmaps import (
    DegreeCapError,
    SpecialCaseError,
    gleason_poly,
    iterate_poly_gb,
    misiurewicz_poly,
    parabolic_param_poly,
    periodicity_poly,
)
from .dynmaps import _divisors, _dynatomic_degree, _elimination_degree, _strip_factors
from .factorz import _norm_unchecked, factor
from .numfield import (
    FieldElement,
    ParabolicCollisionError,
    is_algebraic_integer,
    is_unit,
    periodic_orbit_in_field,
)
from .numfield import _frac
from .polycore import IntPoly, euler_phi, poly_to_json

__all__ = [
    "SWEEP_DEGREE_CAP",
    "VerificationReport",
    "galois_experiment",
    "sweep_thm_1_4",
    "sweep_thm_3_1",
    "sweep_verdict",
    "verify_congruences",
    "verify_dynamical_units",
    "verify_monic_structure",
    "verify_thm_1_4",
    "verify_thm_3_1",
]

SCOPE_NOTE_MONIC = (
    "monic structure plus per-element integrality certificates stand in "
    "for the integral-closure statement; no closure computation is done"
)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification cell, with complete witnesses."""

    claim: str
    cell: dict
    witnesses: tuple
    verdict: str
    elapsed_ms: int

    def to_json(self, timings: bool = False) -> dict:
        return {
            "claim": self.claim,
            "cell": self.cell,
            "witnesses": list(self.witnesses),
            "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms if timings else 0,
        }


def _report(claim: str, cell: dict, witnesses) -> VerificationReport:
    """Time and consume a claim's witnesses (a generator, usually) into its
    report.  This is the one place the routing exceptions are handled.

    A DegreeCapError keeps the witnesses produced so far and appends a
    skipped one.  A SpecialCaseError or ParabolicCollisionError means the
    cell belongs to another pipeline: the witnesses become one note, with
    verdict not_applicable or parabolic_collision.  Otherwise the verdict
    is read off the witnesses: incomplete if one was skipped, else fail if
    one failed, else pass.
    """
    t0 = time.perf_counter()
    done, verdict = [], None
    try:
        for w in witnesses:
            done.append(w)
    except DegreeCapError as exc:
        done.append({"skipped": True, "reason": str(exc)})
    except SpecialCaseError as exc:
        done, verdict = [{"note": str(exc)}], "not_applicable"
    except ParabolicCollisionError as exc:
        done, verdict = [{"note": str(exc)}], "parabolic_collision"
    if verdict is None:
        verdict = (
            "incomplete" if any(w.get("skipped") for w in done)
            else "fail" if any(w.get("verdict") == "fail" for w in done)
            else "pass"
        )
    elapsed = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(claim, cell, tuple(done), verdict, elapsed)


def _divisibility_witness(piece: IntPoly, coordinate: str, bound: int):
    """Witness dict for |Norm(root of piece)| dividing bound."""
    w = {
        "coordinate": coordinate,
        "factor": poly_to_json(piece),
        "degree": piece.degree,
    }
    if not piece.is_monic:
        w["verdict"] = "fail"
        w["note"] = "factor is not monic; its root is not an algebraic integer"
        return w
    norm = _norm_unchecked(piece)
    w["norm"] = str(norm)
    w["bound"] = str(bound)
    if norm != 0 and bound % abs(norm) == 0:
        w["quotient"] = str(bound // abs(norm))
        w["verdict"] = "pass"
        return w
    w["verdict"] = "fail"
    return w


def verify_thm_1_4(n: int, h: int, m: int) -> VerificationReport:
    """Norm divisibility for parabolic parameters with orbit period h and
    multiplier a primitive m-th root of unity.

    For every irreducible degree-d factor of the b-coordinate polynomial,
    |Norm(b)| must divide (n^r - 1)^d with r = h*m; for the bhat
    coordinate the exponent is (n-1)*dhat.  Each distinct coefficient list
    is factored once: for n = 2 the b and bhat polynomials coincide.

    Numbers past 4,300 digits need the digit limit lifted (module docstring).
    """
    def witnesses():
        factored = {}
        for coordinate, scale in (("b", 1), ("bhat", n - 1)):
            param = parabolic_param_poly(n, h, m, coordinate)
            base = n ** (h * m) - 1  # after the cap check: r = h m may be huge
            coeffs = param.poly.coeffs
            if coeffs not in factored:
                factored[coeffs] = factor(param.poly).factors
            for piece, _ in factored[coeffs]:
                bound = base ** (scale * piece.degree)
                yield _divisibility_witness(piece.rename(coordinate), coordinate, bound)

    return _report("thm14", {"n": n, "h": h, "m": m}, witnesses())


def verify_thm_3_1(
    n: int, t: int, h: int, tau: int | None = None
) -> VerificationReport:
    """Norm constraints on critical-orbit parameter polynomials.

    t >= 1: every irreducible factor of the preperiodic-parameter
    polynomial (transient t, period h, ramification tau) has |Norm(chat)|
    dividing n.  t = 0 selects the critically periodic branch instead,
    where every factor must have |Norm(chat)| = 1.

    Numbers past 4,300 digits need the digit limit lifted (module docstring).
    """
    def witnesses():
        if t == 0:
            if tau is not None:
                raise ValueError("tau does not apply to the periodic branch")
            for piece, _ in factor(gleason_poly(n, h, "chat").poly).factors:
                norm = _norm_unchecked(piece) if piece.is_monic else None
                yield {
                    "coordinate": "chat",
                    "factor": poly_to_json(piece),
                    "degree": piece.degree,
                    "norm": str(norm),
                    "verdict": "pass" if norm in (1, -1) else "fail",
                }
            return
        if tau is None:
            raise ValueError("the preperiodic branch requires tau")
        for piece, _ in factor(misiurewicz_poly(n, t, h, tau, "chat").poly).factors:
            w = {"coordinate": "chat", "factor": poly_to_json(piece), "degree": piece.degree}
            if not piece.is_monic:
                yield {**w, "verdict": "fail", "note": "factor is not monic"}
                continue
            norm = _norm_unchecked(piece)
            ok = norm != 0 and n % abs(norm) == 0
            verdict = "pass" if ok else "fail"
            yield {**w, "norm": str(norm), "divides_n": ok, "verdict": verdict}

    return _report("thm31", {"n": n, "t": t, "h": h, "tau": tau}, witnesses())


def verify_monic_structure(n: int, h: int) -> VerificationReport:
    """Monicity and degrees of the cleared iterate and its periodicity form.

    P_h must be monic of degree n^h in w and monic of degree n^(h-1) in b,
    and the same must hold for P_h - N_h*w.

    Numbers past 4,300 digits need the digit limit lifted (module docstring).
    """
    def witnesses():
        yield {"note": SCOPE_NOTE_MONIC}
        pair = iterate_poly_gb(n, h)
        period = periodicity_poly(n, h)
        for name, poly in (("iterate", pair.poly), ("periodicity", period)):
            lead_w = poly.as_univariate_in("w")[-1]
            lead_b = poly.as_univariate_in("b")[-1]
            ok = (
                poly.degree("w") == n ** h
                and poly.degree("b") == n ** (h - 1)
                and lead_w == IntPoly.const(1, "b")
                and lead_b == IntPoly.const(1, "w")
            )
            yield {
                "polynomial": name,
                "degree_w": poly.degree("w"),
                "degree_b": poly.degree("b"),
                "lead_coeff_w": poly_to_json(lead_w),
                "lead_coeff_b": poly_to_json(lead_b),
                "verdict": "pass" if ok else "fail",
            }

    return _report("monic11", {"n": n, "h": h}, witnesses())


def verify_congruences(n: int, parameter, h: int) -> VerificationReport:
    """Multiplier congruences at a rational parameter, per orbit.

    Certifies three divisibilities for each orbit of exact period h, with
    multiplier mu: mu/n^h (witness claim "lemma31", needs an integral
    parameter), (mu^n - (-b)^((n-1)h))/n (claim "remark22", always
    computed), and (n^h - mu)/b (claim "eq4", needs mu to be a unit).
    The conjugate parameter b satisfies b^(n-1) = bhat = n^n c^(n-1),
    which is rational even when b is not, so both congruences are phrased
    through bhat and every value stays inside Q(z): (n^h - mu)/b is an
    algebraic integer iff its (n-1)-st power (n^h - mu)^(n-1)/bhat is.
    A claim that does not apply is marked so, not failed.  Verdict is
    "pass" iff every applicable certificate is an algebraic integer.
    A float parameter is refused with TypeError.
    Numbers past 4,300 digits need the digit limit lifted (module docstring).
    """
    c = _frac(parameter)

    def witnesses():
        orbits = periodic_orbit_in_field(n, c, h)
        bhat = Fraction(n) ** n * c ** (n - 1)
        sign = -1 if ((n - 1) * h) % 2 else 1
        for orbit in orbits:
            mu = orbit.multiplier
            unit = bhat != 0 and is_unit(mu)
            for claim, value in (
                ("lemma31", mu / Fraction(n) ** h if c.denominator == 1 else None),
                ("remark22", (mu ** n - sign * bhat ** h) / n),
                ("eq4", (Fraction(n) ** h - mu) ** (n - 1) / bhat if unit else None),
            ):
                w = {"claim": claim, "orbit_modulus": orbit.field.modulus.to_json()}
                if value is None:
                    w["applicable"] = False
                else:
                    cert = is_algebraic_integer(value)
                    w["applicable"] = True
                    w["certificate"] = cert.to_json(context={"claim": claim})
                    w["verdict"] = "pass" if cert.is_integer else "fail"
                yield w

    return _report("remark22", {"n": n, "parameter": str(c), "h": h}, witnesses())


def _phi_pair(x: FieldElement, y: FieldElement, n: int) -> FieldElement:
    """(x^n - y^n)/(x - y) written as the telescoping sum, so no division."""
    total = x.field.zero()
    for a in range(n):
        total = total + x ** a * y ** (n - 1 - a)
    return total


def verify_dynamical_units(n: int, c, h: int) -> VerificationReport:
    """Check prod_j (z_j^n - z_{j+1}^n)/(z_j - z_{j+1}) = 1 on each orbit
    of exact period h >= 2.

    The product is verified exactly in-field.  When c is an algebraic
    integer (here: an integer) each difference quotient also gets a unit
    certificate.  A float parameter is refused with TypeError.
    Numbers past 4,300 digits need the digit limit lifted (module docstring).
    """
    c = _frac(c)
    if h < 2:
        raise ValueError("the unit identity concerns orbits of period >= 2")

    def witnesses():
        for orbit in periodic_orbit_in_field(n, c, h):
            pts = orbit.points
            phis = [_phi_pair(pts[j], pts[(j + 1) % h], n) for j in range(h)]
            one = orbit.field.one()
            w = {
                "orbit_modulus": orbit.field.modulus.to_json(),
                "product_is_one": math.prod(phis, start=one) == one,
            }
            ok = w["product_is_one"]
            if c.denominator == 1:
                w["phi_units"] = [is_unit(v) for v in phis]
                ok = ok and all(w["phi_units"])
            w["verdict"] = "pass" if ok else "fail"
            yield w

    return _report("remark23", {"n": n, "parameter": str(c), "h": h}, witnesses())


def _stratified_parabolic(n: int, h: int, m: int) -> IntPoly:
    """Parabolic chat polynomial restricted to the (h, m) stratum.

    Only the m = 1 cell mixes strata: its dynatomic picks up every lower
    orbit (h', m') with h' m' = h, because the collapsed period-h cycle
    through such an orbit has formal multiplier exactly 1.  Cells with
    m >= 2 are already pure, so stripping them out of the m = 1 cell
    leaves the genuine multiplier-1 stratum.
    """
    poly = parabolic_param_poly(n, h, m, "chat").poly
    if m > 1 or h == 1:
        return poly
    for h2 in _divisors(h)[:-1]:
        lower = parabolic_param_poly(n, h2, h // h2, "chat").poly
        poly = _strip_factors(poly, lower)
    return poly


def galois_experiment(
    n: int,
    kind: str,
    *,
    h: int,
    t: int | None = None,
    tau: int | None = None,
    m: int | None = None,
) -> VerificationReport:
    """Count irreducible factors of one stratified parameter polynomial.

    A single irreducible factor is consistent with the conjecture that the
    stratum forms one Galois orbit; more factors are reported as evidence,
    never as a refutation verdict.
    """
    def witnesses():
        if kind == "gleason":
            poly = gleason_poly(n, h, "chat").poly
        elif kind == "misiurewicz":
            if t is None or tau is None:
                raise ValueError("misiurewicz kind requires t and tau")
            poly = misiurewicz_poly(n, t, h, tau, "chat").poly
        elif kind == "parabolic":
            if m is None:
                raise ValueError("parabolic kind requires m")
            poly = _stratified_parabolic(n, h, m)
        else:
            raise ValueError(f"unknown experiment kind {kind!r}")
        pieces = factor(poly).factors
        if not pieces:
            reading = "empty stratum: no parameter lies in this cell"
        elif len(pieces) == 1:
            reading = "consistent with single-orbit conjecture"
        else:
            reading = "inconsistent with single-orbit conjecture"
        yield {
            "factor_count": len(pieces),
            "degrees": [p.degree for p, _ in pieces],
            "factors": [poly_to_json(p) for p, _ in pieces],
            "reading": reading,
        }

    cell = {"n": n, "kind": kind, "h": h, "t": t, "tau": tau, "m": m}
    return _report("galois33", cell, witnesses())


# ---------------------------------------------------------------------------
# sweeps


# sweep_thm_1_4 reports cells whose dynatomic degree exceeds this, or whose
# elimination degree exceeds 4 times this, as incomplete
SWEEP_DEGREE_CAP = 80


def sweep_thm_1_4(
    ns: tuple[int, ...] = (2, 3, 4),
    r_max: int = 6,
    degree_cap: int = SWEEP_DEGREE_CAP,
) -> list[VerificationReport]:
    """All norm-divisibility cells with ray period r = h*m <= r_max.

    A cell is skipped as incomplete, without being built, when its
    dynatomic degree nu(h) exceeds degree_cap, or when the degree
    D = nu(h) h (n-1) phi(m) / n of its elimination (_elimination_degree,
    as parabolic_param_poly checks it) exceeds 4 * degree_cap.

    Numbers past 4,300 digits need the digit limit lifted (module docstring).
    """
    reports = []
    for n in ns:
        for r in range(1, r_max + 1):
            for h in _divisors(r):
                m = r // h
                degree = _dynatomic_degree(n, h)
                D = _elimination_degree(n, h, euler_phi(m), degree)
                if degree > degree_cap:
                    reason = f"dynatomic degree {degree} exceeds cap {degree_cap}"
                elif D > 4 * degree_cap:
                    reason = f"elimination degree {D} exceeds 4 * cap = {4 * degree_cap}"
                else:
                    reports.append(verify_thm_1_4(n, h, m))
                    continue
                skipped = [{"skipped": True, "reason": reason}]
                reports.append(_report("thm14", {"n": n, "h": h, "m": m}, skipped))
    return reports


def sweep_thm_3_1(
    ns: tuple[int, ...] = (2, 3, 4),
    sum_max: int = 6,
    gleason_h_max: int = 5,
) -> list[VerificationReport]:
    """All preperiodic cells with t + h <= sum_max plus the periodic branch.

    Numbers past 4,300 digits need the digit limit lifted (module docstring).
    """
    reports = []
    for n in ns:
        for h in range(2, gleason_h_max + 1):
            reports.append(verify_thm_3_1(n, 0, h))
        taus = [tau for tau in range(2, n + 1) if n % tau == 0]
        for t in range(1, sum_max):
            for h in range(1, sum_max - t + 1):
                for tau in taus:
                    reports.append(verify_thm_3_1(n, t, h, tau))
    return reports


def sweep_verdict(reports: list[VerificationReport]) -> str:
    """Aggregate: fail if any cell failed, else pass (incompletes allowed)."""
    return "fail" if any(r.verdict == "fail" for r in reports) else "pass"
