"""Numeric external-ray tracing in the parameter plane of z^n + c.

The exact machinery elsewhere in the package predicts where rational
rays land (roots of parabolic and preperiodic parameter polynomials);
this module supplies the independent numeric side.  A ray of angle
theta is continued inward along decreasing potential t by solving

    f_c^K(c) = exp(n^K (t + 2 pi i theta))

for c with Newton's method, where the depth K is chosen so the K-th
iterate of the critical value sits in a fixed escape annulus.  Solving
this equation places c on the true ray up to a potential/angle
perturbation of relative size exp(-(n-1) tau) / n^K, which decays to
nothing as t -> 0, so landing extrapolation is unaffected by the
truncation.

One continuation (_continue) sequences the solves: it extends a path
point by point along decreasing potential, with one step-halving rule and
one continuity guard.  The trace runs it over a geometric schedule, and
the landing extrapolation over a finer descent below the traced end.

Everything here is approximate at one configurable precision.  Each
Newton solve runs in fixed-point Python integers (the orbit f_c^K(c) with
its c-derivative in _orbit, the residual, step and update): its first
steps at the bits they need (_ledger), its residual test with _GUARD_BITS
bits below that precision (_solve_ray_point).  Targets, the continuation
and the landing extrapolation run in mpmath floating point.  The symbolic
candidates the landings are matched against are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .dynmaps import ParamPolynomial, coord_transform
from .factorz import factor
from .polycore import IntPoly, poly_to_json

__all__ = [
    "Angle",
    "ContinuityError",
    "LandingReport",
    "NewtonDivergenceError",
    "NonConvergenceError",
    "PrecisionExhaustedError",
    "RayPath",
    "RayTraceError",
    "angle_orbit",
    "complex_roots",
    "land_and_match",
    "trace_param_ray",
]

# escape annulus: depth K is chosen so n^K t lands in [TAU_ESCAPE, n*TAU_ESCAPE)
TAU_ESCAPE = 6.0

_NEWTON_MAX_ITERS = 60
_MAX_STEP_HALVINGS = 10
_CONTINUITY_FACTOR = 10.0
# bits carried below the working precision by the fixed-point orbit kernel
_GUARD_BITS = 32
# below double precision the Newton tolerances and step floor lose meaning
_MIN_PRECISION_BITS = 53


class RayTraceError(Exception):
    """Base for ray-continuation failures."""


class NewtonDivergenceError(RayTraceError):
    pass


class PrecisionExhaustedError(RayTraceError):
    pass


class ContinuityError(RayTraceError):
    pass


class NonConvergenceError(Exception):
    """Root isolation did not converge in the allotted iterations."""


@dataclass(frozen=True)
class Angle:
    """Rational angle p/q of a turn, reduced, with 0 <= p < q."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("angle numerator and denominator must be int")
        if self.q < 1 or not 0 <= self.p < self.q:
            raise ValueError("angle must satisfy 0 <= p < q")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"angle {self.p}/{self.q} is not reduced")

    @classmethod
    def parse(cls, text: str) -> "Angle":
        body = text.strip()
        if "/" in body:
            num, _, den = body.partition("/")
            frac = Fraction(int(num), int(den))
        else:
            frac = Fraction(int(body), 1)
        return cls(frac.numerator, frac.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def angle_orbit(angle: Angle, n: int) -> tuple[int, int]:
    """(preperiod, period) of p/q under t -> n*t mod 1, exactly.

    >>> angle_orbit(Angle(1, 7), 2)
    (0, 3)
    >>> angle_orbit(Angle(9, 56), 2)
    (3, 3)
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    seen: dict[Fraction, int] = {}
    t = angle.value
    k = 0
    while t not in seen:
        seen[t] = k
        t = (n * t) % 1
        k += 1
    return seen[t], k - seen[t]


@dataclass(frozen=True)
class RayPath:
    """Sampled external ray: (potential, c) pairs at decreasing potential.
    Each c is certified to its solve's residual tolerance |target|
    2^-(bits/2) only: printed digits past it are not claims."""

    angle: Angle
    n: int
    points: tuple
    precision_bits: int

    def __post_init__(self):
        pots = [t for t, _ in self.points]
        if any(b >= a for a, b in zip(pots, pots[1:])):
            raise ValueError("ray potentials must be strictly decreasing")

    @property
    def endpoint(self):
        return self.points[-1][1]

    def to_json(self) -> dict:
        return {
            "angle": str(self.angle),
            "n": self.n,
            "precision_bits": self.precision_bits,
            "points": [
                {"potential": _real_str(t, self.precision_bits),
                 "c": _complex_json(c, self.precision_bits)}
                for t, c in self.points
            ],
        }


def _digits(bits: int) -> int:
    return max(int(bits * 0.3013) + 2, 8)


def _real_str(x, bits: int) -> str:
    with mp.workprec(bits):
        return mp.nstr(mp.mpf(x), _digits(bits))


def _complex_json(z, bits: int) -> dict:
    with mp.workprec(bits):
        z = mp.mpc(z)
    return {
        "re": _real_str(z.real, bits),
        "im": _real_str(z.imag, bits),
        "bits": bits,
    }


def _landing_json(z, bits: int) -> dict:
    """_complex_json with both parts printed down to one decimal place: the
    last of _digits(bits) significant digits of max(1, |z|).  A part far
    below that scale keeps fewer digits (none prints 0.0), since its lower
    ones would be rounding noise of the solves."""
    with mp.workprec(bits):
        z = mp.mpc(z)
        top = int(mp.floor(mp.log10(max(mp.mpf(1), abs(z)))))

        def part(x) -> str:
            keep = _digits(bits) - top + int(mp.floor(mp.log10(abs(x)))) if x else 0
            return mp.nstr(x, keep) if keep >= 1 else "0.0"

        return {"re": part(z.real), "im": part(z.imag), "bits": bits}


def _depth(n: int, t, tau: float = TAU_ESCAPE) -> int:
    if t >= tau:
        return 0
    # log(tau / t) from t = m 2^e: tau / float(t) overflows below ~1e-308,
    # and an mpmath log at working precision costs ~10x more per Newton solve
    m, e = mp.frexp(t)
    return max(0, math.ceil((math.log(tau / float(m)) - e * math.log(2)) / math.log(n)))


def _ray_target(n: int, angle: Angle, t, K: int):
    # reduce the angle mod 1 in exact integer arithmetic before going float,
    # since n^K p / q loses all angular precision once n^K is large
    phase_num = (pow(n, K, angle.q) * angle.p) % angle.q
    re = (n ** K) * mp.mpf(t)
    im = 2 * mp.pi * mp.mpf(phase_num) / angle.q
    return mp.exp(mp.mpc(re, im))


def _orbit(n: int, cr: int, ci: int, K: int, F: int):
    """Fixed-point orbit of the critical value under z -> z^n + c.

    Every value is a Python integer pair scaled by 2^F: c = (cr + ci i) 2^-F
    in, and (zr, zi, dr, di, N) out, where z = (zr + zi i) 2^-F is f_c^k(c)
    and dz = (dr + di i) 2^-F its c-derivative.  Each product is rounded by
    one floor shift, so a step costs a few big-integer multiplications.  The
    rounding error is absolute (2^-F per operation); guard bits below the
    working precision absorb its amplification along the orbit, which is
    the same amplification a floating-point orbit suffers.

    Normally k = K and N = 1.  An orbit that leaves radius 2^F stops at that
    k and returns N = n^(K-k): then z_K = z_k^N and dz_K = N z_k^(N-1) dz_k
    (see _escaped), because c and the derivative's +1 are below working
    precision from there on.
    """
    F1 = F - 1  # shift for a product doubled, as in 2xy and 2 z dz
    one = 1 << F
    lim = 1 << (2 * F)  # |z| = 2^F in fixed point
    zr, zi, dr, di = cr, ci, one, 0
    for k in range(K):
        if not (-lim < zr < lim and -lim < zi < lim):
            return zr, zi, dr, di, n ** (K - k)
        if n == 2:
            # z^2 = (x + y)(x - y) + 2xy i, and dz <- 2 z dz + 1
            dr, di = ((zr * dr - zi * di) >> F1) + one, (zr * di + zi * dr) >> F1
            zr, zi = (((zr + zi) * (zr - zi)) >> F) + cr, ((zr * zi) >> F1) + ci
        else:
            wr, wi = zr, zi  # w = z^(n-1)
            for _ in range(n - 2):
                wr, wi = (wr * zr - wi * zi) >> F, (wr * zi + wi * zr) >> F
            dr, di = (n * ((wr * dr - wi * di) >> F) + one,
                      n * ((wr * di + wi * dr) >> F))
            zr, zi = ((wr * zr - wi * zi) >> F) + cr, ((wr * zi + wi * zr) >> F) + ci
    return zr, zi, dr, di, 1


def _escaped(zr: int, zi: int, dr: int, di: int, N: int, F: int):
    """(z_K, dz_K) = (z^N, N z^(N-1) dz) as mpc values at F + log2 N bits,
    for an orbit that _orbit stopped at radius 2^F, N = n^(K-k) powers short
    of depth K."""
    prec = F + N.bit_length()
    with mp.workprec(prec):
        z = _from_fixed(zr, zi, F, prec)
        z_K = z ** N
        return z_K, N * z_K / z * _from_fixed(dr, di, F, prec)


def _to_fixed(z, F: int) -> tuple[int, int]:
    return to_fixed(z.real._mpf_, F), to_fixed(z.imag._mpf_, F)


def _from_fixed(re: int, im: int, F: int, bits: int):
    return mp.make_mpc((from_man_exp(re, -F, bits, round_nearest),
                        from_man_exp(im, -F, bits, round_nearest)))


def _ledger(n, K, c, target, t2, F, h):
    """The cheap iterations of _solve_ray_point, on c, the target and t2 =
    |target|^2 scaled as there: each runs _orbit and steps at Fk = max(2 b,
    L, T) + _GUARD_BITS bits, with b = -log2|last step| (_GUARD_BITS / 2 at
    first), L = log2|dz/target| and T = log2|target| all read off integer
    bit lengths.  After a step of 2^-b, c is good to about 2 b - L bits."""
    (cr, ci), (tr, ti) = c, target
    T = t2.bit_length() // 2 - F
    b, last, L = _GUARD_BITS // 2, -math.inf, 0
    # past F - _GUARD_BITS a cheap orbit would save only the guard bits
    while (Fk := max(2 * b, L, T) + _GUARD_BITS) <= F - _GUARD_BITS:
        s = F - Fk
        zr, zi, dr, di, N = _orbit(n, cr >> s, ci >> s, K, Fk)
        d2 = dr * dr + di * di
        if N != 1 or not d2:
            return c
        L = d2.bit_length() // 2 - Fk - T
        if Fk >= L + _GUARD_BITS:  # else run again at the next Fk
            fr, fi = zr - (tr >> s), zi - (ti >> s)
            sr = ((fr * dr + fi * di) << Fk) // d2
            si = ((fi * dr - fr * di) << Fk) // d2
            b = Fk - (sr * sr + si * si).bit_length() // 2
            if b <= last:
                return c
            last = b
            cr, ci = ((cr >> s) - sr) << s, ((ci >> s) - si) << s
            if min(2 * b - L, Fk) >= h + L:  # the residual test should pass
                break
    return cr, ci


def _solve_ray_point(n: int, angle: Angle, t, c0, bits: int,
                     tau: float = TAU_ESCAPE):
    """Newton-solve f_c^K(c) = exp(n^K (t + 2 pi i angle)) starting at c0.

    c and the target enter once as fixed-point integers at F = bits +
    _GUARD_BITS.  A precision ledger (_ledger) takes the first iterations
    at about twice the last step's bits.  Its orbits resolve the spacing
    |target/dz| between the branches of the ray equation and keep |target|
    inside the kernel's radius; on an escape, a zero derivative or a step
    that fails to shrink, the loop below restarts from c0.  That loop runs
    at F, and only it accepts a point: one whose residual passes tol =
    |target| 2^-(bits/2) at F.  The residual, tol and both classification
    windows below are compared as squared integer magnitudes, the step is
    one complex division by |dz|^2, and |c| in the step floor is an
    integer square root.  An orbit that escapes (see _orbit) has residual
    +inf and takes its one step in mpc.  The result is rounded back to
    bits.
    """
    K = _depth(n, t, tau)
    target = _ray_target(n, angle, t, K)
    if K == 0:
        return target  # f_c^0(c) = c, so the ray equation reads c = target
    F = bits + _GUARD_BITS
    one = 1 << F
    h = bits // 2
    tr, ti = _to_fixed(target, F)
    t2 = tr * tr + ti * ti  # |target|^2 2^2F, so tol^2 = t2 2^-(2F + 2h)
    cr, ci = _to_fixed(mp.mpc(c0), F) if c0 is not None else (tr, ti)
    cr, ci = _ledger(n, K, (cr, ci), (tr, ti), t2, F, h)
    best_c, best_f2 = None, None  # None: every residual so far is +inf
    for _ in range(_NEWTON_MAX_ITERS):
        zr, zi, dr, di, N = _orbit(n, cr, ci, K, F)
        if N == 1:
            fr, fi = zr - tr, zi - ti
            f2 = fr * fr + fi * fi
            if best_f2 is None or f2 < best_f2:
                best_c, best_f2 = (cr, ci), f2
            if f2 << 2 * h <= t2:
                return _from_fixed(cr, ci, F, bits)
        d2 = dr * dr + di * di
        if not d2:
            raise NewtonDivergenceError(f"critical Newton derivative at t={t}")
        if N == 1:
            # (f / dz) 2^F = f conj(dz) 2^F / |dz|^2
            sr = ((fr * dr + fi * di) << F) // d2
            si = ((fi * dr - fr * di) << F) // d2
        else:
            # |z_K| >= 2^2F dwarfs the target and any residual
            z, dz = _escaped(zr, zi, dr, di, N, F)
            sr, si = _to_fixed((z - target) / dz, F)
        # |step| <= 2^(8 - bits) (1 + |c|): cannot move at this precision
        c_mag = one + math.isqrt(cr * cr + ci * ci)  # (1 + |c|) 2^F
        if (sr * sr + si * si) << 2 * (bits - 8) <= c_mag * c_mag:
            break
        cr, ci = cr - sr, ci - si
    # deep orbits lose ~2 bits per level to cancellation, so accept a
    # residual within a few orders of the requested tolerance
    # (best_f <= tol 2^24), and call a stall within sqrt(tol |target|)
    # a precision limit
    if best_f2 is not None and best_f2 << (2 * h - 48) <= t2:
        return _from_fixed(*best_c, F, bits)
    where = f"potential {mp.nstr(mp.mpf(t), 8)}"
    if best_f2 is None:
        raise NewtonDivergenceError(
            f"no convergence in {_NEWTON_MAX_ITERS} iterations at {where} "
            "(every orbit escaped)"
        )
    best_f = mp.nstr(mp.ldexp(mp.sqrt(best_f2), -F), 5)
    if best_f2 << h <= t2:
        raise PrecisionExhaustedError(
            f"Newton stalled at residual {best_f} with {bits} bits at {where}"
        )
    raise NewtonDivergenceError(
        f"no convergence in {_NEWTON_MAX_ITERS} iterations at {where} "
        f"(best residual {best_f})"
    )


def _continue(n, angle, points, potentials, bits):
    """Extend the path `points`, a list of (t, c) at decreasing potential,
    to each of `potentials` in turn: the one continuation of every ray.

    The first solve at a potential starts from the linear predictor through
    the last two points.  Newton divergence halves the potential step
    geometrically from the last accepted point, and the solves after a
    halving start at that point, as the predictor's step no longer fits;
    accepted midpoints join the path, and divergence after
    _MAX_STEP_HALVINGS halvings at one potential is fatal.  A jump bigger
    than _CONTINUITY_FACTOR times the previous step plus the solves' own
    step floor 2^(8 - bits) (1 + |c|) raises ContinuityError rather than
    risk hopping to a neighboring ray.
    """
    for target in potentials:
        t, halvings = target, 0
        while points[-1][0] != target:
            t_prev, c_prev = points[-1]
            guess = c_prev
            if len(points) >= 2 and not halvings:
                guess = 2 * c_prev - points[-2][1]
            try:
                c = _solve_ray_point(n, angle, t, guess, bits)
            except NewtonDivergenceError:
                if halvings == _MAX_STEP_HALVINGS:
                    raise NewtonDivergenceError(
                        f"ray {angle} (n={n}): Newton diverged at potential "
                        f"{mp.nstr(mp.mpf(target), 8)} after {_MAX_STEP_HALVINGS} "
                        "step halvings"
                    ) from None
                halvings += 1
                t = mp.sqrt(t_prev * t)
                continue
            if len(points) >= 2:
                jump = abs(c - c_prev)
                bound = _CONTINUITY_FACTOR * abs(c_prev - points[-2][1])
                # the floor only matters past the bound: compute it there
                if jump > bound and jump > bound + mp.ldexp(1 + abs(c), 8 - bits):
                    raise ContinuityError(
                        f"ray {angle} (n={n}): jump {mp.nstr(jump, 5)} at "
                        f"potential {mp.nstr(mp.mpf(t), 8)} exceeds "
                        f"{_CONTINUITY_FACTOR}x the local step"
                    )
            points.append((t, c))
            t = target


def trace_param_ray(
    n: int,
    angle: Angle,
    potential_start: float = 32.0,
    potential_end: float = 1e-8,
    steps_per_halving: int = 12,
    precision_bits: int = 256,
) -> RayPath:
    """Continue the external ray of the given angle from potential_start
    down to potential_end, steps_per_halving geometric steps per halving
    of the potential, the last one clamped to potential_end.

    The path is the start point plus one _continue over the schedule, so
    Newton divergence at a level triggers geometric step halving (fatal
    after a fixed retry budget), and a jump far beyond the previous
    accepted step aborts with ContinuityError rather than risk hopping to
    a neighboring ray.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not potential_start > potential_end > 0:
        raise ValueError("need potential_start > potential_end > 0")
    if steps_per_halving < 1:
        raise ValueError("steps_per_halving must be >= 1")
    if precision_bits < _MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be >= {_MIN_PRECISION_BITS}")
    with mp.workprec(precision_bits):
        start = mp.mpf(potential_start)
        end = mp.mpf(potential_end)
        ratio = mp.mpf(2) ** (mp.mpf(-1) / steps_per_halving)
        schedule = [start]
        while schedule[-1] > end:
            schedule.append(max(schedule[-1] * ratio, end))
        points = [(start, _solve_ray_point(n, angle, start, None, precision_bits))]
        _continue(n, angle, points, schedule[1:], precision_bits)
    return RayPath(angle, n, tuple(points), precision_bits)


def _neville_zero(samples):
    """Polynomial extrapolation of c as a function of u = 1/log(1/t) to u=0."""
    us = [1 / mp.log(1 / t) for t, _ in samples]
    tab = [c for _, c in samples]
    m = len(tab)
    for level in range(1, m):
        tab = [
            (-us[i] * tab[i + 1] + us[i + level] * tab[i])
            / (us[i + level] - us[i])
            for i in range(m - level)
        ]
    return tab[0]


_TAU_POLISH = 18.0
# the landing extrapolation stops once two consecutive Neville estimates over
# the last _LANDING_WINDOW nodes agree to _LANDING_AGREE, or at
# _LANDING_MAX_NODES nodes
_LANDING_AGREE = 1e-9
_LANDING_WINDOW = 8
_LANDING_MAX_NODES = 24


def _extrapolate_landing(n, angle, path):
    """Landing estimate as t -> 0, rate-agnostic over the landing types
    that occur here.

    Measured approach laws: Misiurewicz landings converge like t itself;
    parabolic landings only like powers of u = 1/log(1/t) (the escape
    time through the parabolic bottleneck grows like 1/sqrt(c - c*), so
    the potential is exponentially small in it), with a log-periodic
    component whose period is the ray period r.  c(u) sampled at
    potentials spaced by the exact factor n^-r is analytic in u at
    u = 0 with the oscillation frozen, so the ray is continued deeper
    past the traced end and extrapolated to u = 0 by Neville's scheme
    on those aligned nodes.  Depth is adaptive: stop once consecutive
    window extrapolations agree, so fast landings stop shallow and
    parabolic ones go deep.

    Two numerical guard rails, both load-bearing: the descent is a fresh
    _continue path from the traced end (whose last step is clamped, so
    shorter) in steps that keep the depth-K iterate's modulus factor
    bounded (a full n^-r jump would hop to a neighboring ray), and each
    node, the traced end included, is re-solved at a deeper escape radius
    to shrink the truncation bias of the escape approximation before it
    enters the divided differences.
    """
    bits = path.precision_bits
    r = angle_orbit(angle, n)[1]
    steps = max(1, math.ceil(4 * r * n * math.log(n)))
    with mp.workprec(bits):
        ratio = mp.mpf(n) ** (mp.mpf(-r) / steps)
        descent = [path.points[-1]]
        nodes, prev_est = [], None
        while len(nodes) < _LANDING_MAX_NODES:
            try:
                if nodes:
                    # lazily: each potential is one ratio below the last point
                    _continue(n, angle, descent,
                              (descent[-1][0] * ratio for _ in range(steps)), bits)
                t, c = descent[-1]
                nodes.append((t, _solve_ray_point(n, angle, t, c, bits, _TAU_POLISH)))
            except PrecisionExhaustedError:
                # the landing is already resolved to working precision;
                # extrapolate from what we have
                if len(nodes) < 3:
                    raise
                break
            if len(nodes) >= _LANDING_WINDOW and len(nodes) % 2 == 0:
                est = _neville_zero(nodes[-_LANDING_WINDOW:])
                if prev_est is not None and abs(est - prev_est) <= _LANDING_AGREE:
                    return est
                prev_est = est
        return _neville_zero(nodes[-_LANDING_WINDOW:])


def complex_roots(p: IntPoly, precision_bits: int = 256) -> list:
    """All complex roots of a squarefree integer polynomial, deterministically
    ordered by (real, imaginary) part, residual-checked."""
    if p.degree < 1:
        return []
    with mp.workprec(precision_bits + 64):
        coeffs = list(reversed(p.coeffs))
        try:
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=precision_bits)
        except mp.libmp.NoConvergence as exc:
            raise NonConvergenceError(str(exc)) from exc
        roots = sorted((mp.mpc(r) for r in roots), key=lambda r: (r.real, r.imag))
        eps = mp.mpf(2) ** -(precision_bits // 2)
        for r in roots:
            scale = sum(abs(a) * max(1, abs(r)) ** i for i, a in enumerate(p.coeffs))
            if abs(mp.polyval(coeffs, r)) > eps * scale:
                raise NonConvergenceError(
                    f"root residual above bound for {p!r} at {mp.nstr(r, 10)}"
                )
    return roots


@dataclass(frozen=True)
class LandingReport:
    """Landing value of one ray matched against exact candidate factors."""

    angle: Angle
    n: int
    landing: object
    matched_factor: IntPoly | None
    candidate_index: int | None
    root_index: int | None
    match_distance: float
    margin: float | None
    status: str
    precision_bits: int

    def to_json(self) -> dict:
        return {
            "angle": str(self.angle),
            "n": self.n,
            "landing": _landing_json(self.landing, self.precision_bits),
            "matched_factor": (
                poly_to_json(self.matched_factor)
                if self.matched_factor is not None
                else None
            ),
            "candidate_index": self.candidate_index,
            "root_index": self.root_index,
            "match_distance": repr(self.match_distance),
            "margin": None if self.margin is None else repr(self.margin),
            "status": self.status,
        }


def _candidate_poly(candidate) -> IntPoly:
    if isinstance(candidate, ParamPolynomial):
        return coord_transform(candidate, "c").poly
    if isinstance(candidate, IntPoly):
        return candidate
    raise TypeError(f"cannot use {type(candidate).__name__} as a ray candidate")


def land_and_match(
    n: int,
    angle: Angle,
    candidates,
    potential_end: float = 1e-8,
    precision_bits: int = 256,
    tolerance: float = 1e-6,
    margin_min: float = 10.0,
) -> LandingReport:
    """Trace the ray, extrapolate its landing point, and identify which
    irreducible factor of which candidate polynomial it lands on.  A
    candidate is an IntPoly in c or a ParamPolynomial in any coordinate,
    moved to c by coord_transform.

    The match is accepted when the nearest candidate root is within
    `tolerance` and the second-nearest is at least `margin_min` times
    farther; otherwise the status degrades to "ambiguous" or
    "no_candidate" and the caller sees the distances either way.
    """
    path = trace_param_ray(
        n, angle, potential_end=potential_end, precision_bits=precision_bits
    )
    landing = _extrapolate_landing(n, angle, path)

    pool = []  # (candidate_index, factor, root_index, root)
    seen_factors = set()
    for idx, candidate in enumerate(candidates):
        for piece, _ in factor(_candidate_poly(candidate)).factors:
            if piece.coeffs in seen_factors:
                continue
            seen_factors.add(piece.coeffs)
            for j, root in enumerate(complex_roots(piece, precision_bits)):
                pool.append((idx, piece, j, root))
    if not pool:
        raise ValueError("no candidate roots to match against")

    with mp.workprec(precision_bits):
        ranked = sorted(pool, key=lambda entry: abs(landing - entry[3]))
        best = ranked[0]
        dist = float(abs(landing - best[3]))
        margin = None
        if len(ranked) > 1:
            margin = float(abs(landing - ranked[1][3])) / max(dist, 1e-300)

    if dist >= tolerance:
        status = "no_candidate"
    elif margin is not None and margin < margin_min:
        status = "ambiguous"
    else:
        status = "matched"
    matched = status != "no_candidate"
    return LandingReport(
        angle=angle,
        n=n,
        landing=landing,
        matched_factor=best[1] if matched else None,
        candidate_index=best[0] if matched else None,
        root_index=best[2] if matched else None,
        match_distance=dist,
        margin=margin,
        status=status,
        precision_bits=precision_bits,
    )
