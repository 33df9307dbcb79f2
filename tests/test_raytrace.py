"""External-ray tracing, landing extrapolation, and candidate matching."""

import mpmath as mp
import pytest

from unicrit.dynmaps import misiurewicz_poly, parabolic_param_poly
from unicrit import raytrace
from unicrit.polycore import IntPoly
from unicrit.raytrace import (
    _GUARD_BITS,
    _NEWTON_MAX_ITERS,
    _TAU_POLISH,
    TAU_ESCAPE,
    Angle,
    ContinuityError,
    NewtonDivergenceError,
    PrecisionExhaustedError,
    RayPath,
    RayTraceError,
    _candidate_poly,
    _continue,
    _depth,
    _escaped,
    _extrapolate_landing,
    _from_fixed,
    _orbit,
    _ray_target,
    _solve_ray_point,
    _to_fixed,
    angle_orbit,
    complex_roots,
    land_and_match,
    trace_param_ray,
)


# ---------------------------------------------------------------- angles

def test_angle_basic():
    a = Angle(3, 7)
    assert (a.p, a.q) == (3, 7)
    assert str(a) == "3/7"
    assert a.value == mp.mpf(3) / 7 or float(a.value) == 3 / 7


def test_angle_validation():
    with pytest.raises(ValueError):
        Angle(2, 4)  # not reduced
    with pytest.raises(ValueError):
        Angle(3, 2)  # >= 1
    with pytest.raises(ValueError):
        Angle(-1, 3)
    with pytest.raises(TypeError):
        Angle(1.0, 3)


def test_angle_parse():
    assert Angle.parse("3/7") == Angle(3, 7)
    assert Angle.parse(" 1/2 ") == Angle(1, 2)
    assert Angle.parse("2/4") == Angle(1, 2)  # Fraction reduces first
    assert Angle.parse("0") == Angle(0, 1)
    with pytest.raises(ValueError):
        Angle.parse("7/4")
    with pytest.raises(ValueError):
        Angle.parse("-1/3")


@pytest.mark.parametrize(
    "p,q,n,expected",
    [
        (1, 7, 2, (0, 3)),
        (1, 5, 2, (0, 4)),
        (9, 56, 2, (3, 3)),
        (1, 2, 2, (1, 1)),
        (1, 4, 2, (2, 1)),
        (1, 6, 2, (1, 2)),
        (0, 1, 2, (0, 1)),
        (1, 3, 3, (1, 1)),
        (1, 4, 3, (0, 2)),
    ],
)
def test_angle_orbit(p, q, n, expected):
    assert angle_orbit(Angle(p, q), n) == expected


def test_angle_orbit_periodic_denominator_divides():
    # strictly periodic angle under x n  <=>  gcd(q, n) = 1,
    # and then q | n^r - 1 for the orbit period r
    for n, qs in [(2, (3, 5, 7, 9, 11, 13, 15, 21)), (3, (2, 4, 5, 7, 8))]:
        for q in qs:
            pre, r = angle_orbit(Angle(1, q), n)
            assert pre == 0
            assert (n**r - 1) % q == 0


def test_angle_orbit_rejects_small_n():
    with pytest.raises(ValueError):
        angle_orbit(Angle(1, 3), 1)


# ---------------------------------------------------------------- tracing

@pytest.fixture(scope="module")
def zero_ray():
    return trace_param_ray(2, Angle(0, 1), potential_end=1e-4)


def test_trace_zero_ray_real_and_monotone(zero_ray):
    # the 0-ray is the real slice c > 1/4: every sample exactly real,
    # strictly decreasing toward the cusp
    assert zero_ray.points[0][0] == 32
    assert zero_ray.points[-1][0] == mp.mpf(1e-4)
    for _, c in zero_ray.points:
        assert abs(mp.mpc(c).imag) < 1e-70
    reals = [mp.mpc(c).real for _, c in zero_ray.points]
    assert all(b < a for a, b in zip(reals, reals[1:]))
    assert 0.25 < reals[-1] < 0.35


def test_trace_potentials_strictly_decrease(zero_ray):
    pots = [t for t, _ in zero_ray.points]
    assert all(b < a for a, b in zip(pots, pots[1:]))


def test_trace_records_precision(zero_ray):
    assert zero_ray.precision_bits == 256
    assert zero_ray.n == 2
    assert zero_ray.angle == Angle(0, 1)


def test_trace_one_third_approaches_satellite_root():
    # landing point is c = -3/4; the parabolic approach is logarithmically
    # slow, so at t = 1e-6 we only check the trace is near the right
    # landing point rather than a neighboring ray's
    path = trace_param_ray(2, Angle(1, 3), potential_end=1e-6)
    assert abs(mp.mpc(path.endpoint) + 0.75) < 0.2


def test_trace_argument_validation():
    with pytest.raises(ValueError):
        trace_param_ray(1, Angle(1, 3))
    with pytest.raises(ValueError):
        trace_param_ray(2, Angle(1, 3), potential_start=1e-8, potential_end=32.0)
    # zero divided the potential ratio; negative steps grew the potential
    # until a ContinuityError; zero bits ran without end
    for kwargs in ({"steps_per_halving": 0}, {"steps_per_halving": -3},
                   {"precision_bits": 0, "potential_end": 1.0},
                   {"precision_bits": 52}):
        with pytest.raises(ValueError):
            trace_param_ray(2, Angle(1, 3), **kwargs)
    with pytest.raises(ValueError, match="precision_bits"):
        land_and_match(2, Angle(1, 2), [IntPoly((2, 1), "c")], precision_bits=0)


def test_ray_path_rejects_nondecreasing_potentials():
    pts = ((mp.mpf(1), mp.mpc(3)), (mp.mpf(2), mp.mpc(3)))
    with pytest.raises(ValueError):
        RayPath(Angle(0, 1), 2, pts, 256)


def test_ray_path_json(zero_ray):
    doc = zero_ray.to_json()
    assert doc["angle"] == "0/1"
    assert doc["n"] == 2
    assert doc["precision_bits"] == 256
    assert len(doc["points"]) == len(zero_ray.points)
    first = doc["points"][0]
    assert set(first) == {"potential", "c"}
    assert set(first["c"]) == {"re", "im", "bits"}
    assert isinstance(first["potential"], str)
    assert float(first["c"]["im"]) == 0.0


def test_ray_path_json_carries_declared_precision(zero_ray):
    # every decimal string must parse back to the stored 256-bit value, not
    # to its nearest double
    bits = zero_ray.precision_bits
    doc = zero_ray.to_json()
    with mp.workprec(bits):
        tol = mp.mpf(2) ** -(bits - 8)
        for (t, c), row in zip(zero_ray.points, doc["points"]):
            c = mp.mpc(c)
            for value, text in ((t, row["potential"]), (c.real, row["c"]["re"]),
                                (c.imag, row["c"]["im"])):
                assert abs(mp.mpf(text) - value) <= tol * abs(value)


# ---------------------------------------------------------------- orbit kernel

def _mpc_orbit(n, c, K):
    """The mpc loop the integer kernel replaced, at the ambient precision."""
    z, dz = c, mp.mpc(1)
    for _ in range(K):
        dz = n * z ** (n - 1) * dz + 1
        z = z ** n + c
    return z, dz


# c outward from the cusp of the main component of z^n + c (1/4, -0.3849
# and -0.2362 - 0.4091i for n = 2, 3, 4), placed so the K-th iterate lands
# between e^_TAU_POLISH and e^(n _TAU_POLISH); at K = 40 the orbit gets
# there only after a slow parabolic passage near the cusp
_POLISH_C = {
    (2, 7): mp.mpc("0.75"),
    (2, 40): mp.mpc("0.2568359375"),
    (3, 7): mp.mpc("-0.57735"),
    (3, 40): mp.mpc("-0.388659"),
    (4, 7): mp.mpc("-0.295294", "-0.511464"),
    (4, 40): mp.mpc("-0.237562", "-0.411469"),
}


def _kernel_cases(n, K):
    # bounded orbit with negative parts (>> floors toward -infinity), a fast
    # escape that reaches the polish radius within 1 or 7 steps, and the
    # slow escapes above
    yield mp.mpc("-0.2", "-0.3"), False
    if K in (1, 7):
        yield mp.mpc("-6000", "-7000") if K == 1 else mp.mpc("-3", "-4"), True
    if (n, K) in _POLISH_C:
        yield _POLISH_C[n, K], True


def _rel_err(x, ref):
    return abs(x - ref) / abs(ref)


def _kernel(n, c, K, bits):
    """_orbit at c as mpc values at the ambient precision."""
    F = bits + _GUARD_BITS
    zr, zi, dr, di, N = raytrace._orbit(n, *_to_fixed(c, F), K, F)
    if N > 1:
        z, dz = _escaped(zr, zi, dr, di, N, F)
        return +z, +dz
    return _from_fixed(zr, zi, F, bits), _from_fixed(dr, di, F, bits)


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("K", [0, 1, 7, 40])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_kernel_matches_mpc_loop(n, K, bits):
    for c, escapes in _kernel_cases(n, K):
        with mp.workprec(bits):
            c = +c
            z, dz = _kernel(n, c, K, bits)
        # the reference runs far above the kernel's precision, so what is
        # compared is the kernel's own rounding
        with mp.workprec(4 * bits + 400):
            z_ref, dz_ref = _mpc_orbit(n, c, K)
            if escapes:
                assert abs(z_ref) >= mp.exp(_TAU_POLISH)
            tol = mp.mpf(2) ** -(bits - 8)
            assert _rel_err(z, z_ref) <= tol, (n, K, bits, c)
            assert _rel_err(dz, dz_ref) <= tol, (n, K, bits, c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_kernel_fast_escape_no_worse_than_mpc_loop(n):
    # an orbit that escapes at once and is raised to the n-th power 40 more
    # times amplifies the first rounding by n^40, beyond any fixed working
    # precision (the old loop's result has no correct bit for n = 3, 4).
    # The kernel leaves radius 2^(bits + 32) within a few steps, finishes in
    # closed form, and keeps the error of its guard bits.
    bits, K, c = 53, 40, mp.mpc("-3", "-4")
    with mp.workprec(bits):
        z, dz = _kernel(n, c, K, bits)
        z_old, dz_old = _mpc_orbit(n, c, K)
    with mp.workprec(4 * bits + 400):
        z_ref, dz_ref = _mpc_orbit(n, c, K)
        bound = mp.mpf(n) ** K * mp.mpf(2) ** -(bits + _GUARD_BITS)
        for x, x_old, ref in ((z, z_old, z_ref), (dz, dz_old, dz_ref)):
            assert _rel_err(x, ref) <= min(bound, _rel_err(x_old, ref))


def test_solve_ray_point_reports_precision_exhaustion():
    # the 1/2 ray lands on the Misiurewicz point -2, where |dz| grows like
    # 4^K; at potential 1e-14 a 128-bit c cannot bring the residual under
    # tol * 2^24, yet Newton stalls far inside the divergence bound
    path = trace_param_ray(2, Angle(1, 2), potential_end=1e-14)
    t, c = path.points[-1]
    with mp.workprec(128):
        with pytest.raises(PrecisionExhaustedError, match="with 128 bits"):
            _solve_ray_point(2, Angle(1, 2), t, c, 128)


# ---------------------------------------------------------------- Newton loop

def _mpc_solve(n, angle, t, c0, bits, tau=TAU_ESCAPE):
    """The mpc Newton loop the fixed-point one replaced, on the same orbit
    kernel."""
    K = _depth(n, t, tau)
    target = _ray_target(n, angle, t, K)
    tol = abs(target) * mp.mpf(2) ** -(bits // 2)
    step_floor = mp.mpf(2) ** (8 - bits)
    c = mp.mpc(c0) if c0 is not None else target
    best_c, best_f = c, mp.inf
    for _ in range(_NEWTON_MAX_ITERS):
        z, dz = _kernel(n, c, K, bits)
        f = abs(z - target)
        if f < best_f:
            best_c, best_f = c, f
        if f <= tol:
            return c
        if dz == 0:
            raise NewtonDivergenceError(f"critical Newton derivative at t={t}")
        step = (z - target) / dz
        if abs(step) <= step_floor * (1 + abs(c)):
            break
        c = c - step
    if best_f <= tol * 2 ** 24:
        return best_c
    if best_f <= mp.sqrt(tol * abs(target)):
        raise PrecisionExhaustedError(f"Newton stalled at residual {best_f}")
    raise NewtonDivergenceError(f"best residual {best_f}")


def _outcome(monkeypatch, solve):
    """(c or the exception class, orbit evaluations) of one solve."""
    calls, kernel = [], raytrace._orbit
    with monkeypatch.context() as m:
        m.setattr(raytrace, "_orbit", lambda *a: calls.append(1) or kernel(*a))
        try:
            return solve(), len(calls)
        except RayTraceError as exc:
            return type(exc), len(calls)


def _assert_same_outcome(n, angle, t, K, bits, reference, outcome):
    # the same exception class, or c within tol; and, but for K = 0, which
    # returns the target without an orbit, the same number of iterations
    (ref, ref_iters), (got, iters) = reference, outcome
    if isinstance(ref, type):
        assert got is ref
    else:
        tol = abs(_ray_target(n, angle, t, K)) * mp.mpf(2) ** -(bits // 2)
        assert abs(got - ref) <= tol
    assert iters == (0 if K == 0 else ref_iters)


# the ray, per n, whose traced points start the Newton comparisons: the
# parabolic 1/3 for n = 2 and period-2 angles for n = 3, 4
_NEWTON_ANGLE = {2: Angle(1, 3), 3: Angle(1, 4), 4: Angle(1, 5)}


@pytest.fixture(scope="module")
def deep_rays():
    # each ray traced down to depth 40
    return {n: trace_param_ray(n, a, potential_end=TAU_ESCAPE / n ** 40,
                               steps_per_halving=4)
            for n, a in _NEWTON_ANGLE.items()}


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("K", [0, 7, 40])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_newton_loop_matches_mpc_loop(deep_rays, monkeypatch, n, K, bits):
    # solve at the first traced potential of depth K, from the point traced
    # one step before it
    angle, points = _NEWTON_ANGLE[n], deep_rays[n].points
    i = next(i for i, (t, _) in enumerate(points) if _depth(n, t) == K and i)
    (_, c0), (t, _) = points[i - 1], points[i]
    with mp.workprec(bits):
        c0, t = +c0, +t
        ref = _outcome(monkeypatch, lambda: _mpc_solve(n, angle, t, c0, bits))
        got = _outcome(monkeypatch, lambda: _solve_ray_point(n, angle, t, c0, bits))
        _assert_same_outcome(n, angle, t, K, bits, ref, got)


@pytest.mark.parametrize("bits", [53, 96, 128])
def test_newton_loop_stalls_like_mpc_loop(monkeypatch, bits):
    # 256-bit points near the Misiurewicz landing -2 of the 1/2 ray, solved
    # again at fewer bits: each solve stops at the step floor after its
    # first iteration, converged or not, and is classified as the mpc
    # loop classifies it (at 1e-14, PrecisionExhaustedError with 128 bits
    # and NewtonDivergenceError with 96 or fewer)
    angle = Angle(1, 2)
    points = trace_param_ray(2, angle, potential_end=1e-14).points
    for t, c0 in (points[-1], points[-20]):
        with mp.workprec(bits):
            c0, t = +c0, +t
            ref = _outcome(monkeypatch, lambda: _mpc_solve(2, angle, t, c0, bits))
            got = _outcome(monkeypatch, lambda: _solve_ray_point(2, angle, t, c0, bits))
            assert ref[1] == 1
            _assert_same_outcome(2, angle, t, _depth(2, t), bits, ref, got)


@pytest.mark.parametrize("bits", [53, 256])
def test_newton_loop_escape_step_matches_mpc_loop(monkeypatch, bits):
    # depth 1 with |target| = 2^(2F - 4), so the solution lies near radius
    # 2^(F - 2); the start at radius 2^(F + 1) leaves radius 2^F at once,
    # and the first step is the closed-form escape step taken in mpc
    n, angle, F = 2, Angle(1, 3), bits + _GUARD_BITS
    with mp.workprec(bits):
        t = (F - 2) * mp.log(2)
        tau = float(1.5 * t)
        c0 = mp.mpf(2) ** (F + 1) * mp.expjpi(mp.mpf(2) / 3)
        assert _depth(n, t, tau) == 1
        assert _orbit(n, *_to_fixed(c0, F), 1, F)[4] == n
        ref = _outcome(monkeypatch, lambda: _mpc_solve(n, angle, t, c0, bits, tau))
        got = _outcome(monkeypatch, lambda: _solve_ray_point(n, angle, t, c0, bits, tau))
        assert not isinstance(ref[0], type)
        _assert_same_outcome(n, angle, t, 1, bits, ref, got)


# ---------------------------------------------------------------- continuation

def _spy(monkeypatch, diverge=lambda t, tau: False, shift=lambda t, tau: 0):
    """Record (t, c0, tau) of every _solve_ray_point call; a call where
    diverge(t, tau) holds raises NewtonDivergenceError, and every other one
    returns the true solve moved by shift(t, tau)."""
    solve, calls = raytrace._solve_ray_point, []

    def spy(n, angle, t, c0, bits, tau=TAU_ESCAPE):
        calls.append((t, c0, tau))
        if diverge(t, tau):
            raise NewtonDivergenceError(f"injected at potential {t}")
        return solve(n, angle, t, c0, bits, tau) + shift(t, tau)

    monkeypatch.setattr(raytrace, "_solve_ray_point", spy)
    return calls


def _once(pred):
    """pred, but true at most once."""
    hits = []
    return lambda *a: not hits and pred(*a) and not hits.append(1)


# a short, coarse 1/3 trace: 32 down to 1 in steps of 2^-1/2
_SHORT = {"potential_start": 32.0, "potential_end": 1.0, "steps_per_halving": 2,
          "precision_bits": 64}


@pytest.fixture(scope="module")
def short_potentials():
    return [t for t, _ in trace_param_ray(2, Angle(1, 3), **_SHORT).points]


def test_trace_divergence_halves_the_step_once(monkeypatch, short_potentials):
    ts = short_potentials
    calls = _spy(monkeypatch, _once(lambda t, tau: t == ts[4]))
    path = trace_param_ray(2, Angle(1, 3), **_SHORT)
    c2, c3, c_mid = path.points[2][1], path.points[3][1], path.points[4][1]
    with mp.workprec(64):
        mid, predictor = mp.sqrt(ts[3] * ts[4]), 2 * c3 - c2
    assert [t for t, _ in path.points] == ts[:4] + [mid] + ts[4:]
    # the first try at ts[4] starts from the linear predictor; after the
    # halving, the midpoint and ts[4] start from the last accepted point
    assert [t for t, _, _ in calls[4:7]] == [ts[4], mid, ts[4]]
    assert [c0 for _, c0, _ in calls[4:7]] == [predictor, c3, c_mid]


def test_trace_divergence_is_fatal_after_ten_halvings(monkeypatch, short_potentials):
    ts = short_potentials
    calls = _spy(monkeypatch, lambda t, tau: t < ts[3])
    with pytest.raises(NewtonDivergenceError) as info:
        trace_param_ray(2, Angle(1, 3), **_SHORT)
    assert str(info.value) == (
        f"ray 1/3 (n=2): Newton diverged at potential {mp.nstr(ts[4], 8)} "
        "after 10 step halvings"
    )
    assert len(calls) == 4 + 11  # the first try and one per halving


def _half_ray_path():
    return trace_param_ray(2, Angle(1, 2), potential_end=1e-8,
                           steps_per_halving=3, precision_bits=128)


def test_landing_descent_halves_the_step_on_divergence(monkeypatch):
    path = _half_ray_path()
    calls = _spy(monkeypatch, _once(lambda t, tau: tau == TAU_ESCAPE))
    landing = _extrapolate_landing(2, Angle(1, 2), path)
    assert abs(landing + 2) < 1e-9
    # the traced end's polish, the diverging first descent potential, its
    # midpoint from the traced end, then that potential again
    (t_end, _, tau), (t1, _, _), (t_mid, c_mid0, _), (t1_again, _, _) = calls[:4]
    assert (t_end, tau) == (path.points[-1][0], _TAU_POLISH)
    with mp.workprec(128):
        assert t_mid == mp.sqrt(t_end * t1)
    assert c_mid0 == path.points[-1][1]
    assert t1_again == t1


def test_far_point_breaks_continuity_in_trace_and_descent(monkeypatch, short_potentials):
    ts = short_potentials
    # the coarse steps near potential 1 move c by about 10
    _spy(monkeypatch, shift=lambda t, tau: 1000 if t == ts[-1] else 0)
    with pytest.raises(ContinuityError, match=f"at potential {mp.nstr(ts[-1], 8)} exceeds"):
        trace_param_ray(2, Angle(1, 3), **_SHORT)
    monkeypatch.undo()
    path = _half_ray_path()
    # the first descent point has no previous step to compare with; the
    # second one jumps
    far = _once(lambda t, tau: tau == TAU_ESCAPE and t < path.points[-1][0] / 2 ** 0.2)
    _spy(monkeypatch, shift=lambda t, tau: 1 if far(t, tau) else 0)
    with pytest.raises(ContinuityError, match=r"ray 1/2 \(n=2\): jump 1\.0"):
        _extrapolate_landing(2, Angle(1, 2), path)


def _continue_with(monkeypatch, points, c, bits):
    """_continue one potential below points, where the solve returns c."""
    monkeypatch.setattr(raytrace, "_solve_ray_point", lambda *a: c)
    with mp.workprec(bits):
        _continue(2, Angle(1, 2), points, [points[-1][0] / 2], bits)
    return points


def test_continuity_floor_follows_the_precision(monkeypatch):
    with mp.workprec(256):
        c = mp.mpc(-2)
        ts = [mp.mpf(4), mp.mpf(2)]
        # 1e-18 steps: a 5e-18 jump is continuous, a 1e-15 one is not, though
        # a fixed floor of 1e-12 would have let it pass
        pts = _continue_with(monkeypatch, list(zip(ts, [c, c + 1e-18])), c + 6e-18, 256)
        assert pts[-1] == (1, c + 6e-18)
        with pytest.raises(ContinuityError):
            _continue_with(monkeypatch, list(zip(ts, [c, c + 1e-18])), c + 1e-15, 256)
    with mp.workprec(64):
        # solves stalled at the step floor repeat c exactly; a jump under
        # the 64-bit floor 2^-56 (1 + |c|) ~ 4e-17 is still continuous
        c = mp.mpc(-2)
        pts = _continue_with(monkeypatch, list(zip(ts, [c, c])), c + 1e-17, 64)
        assert pts[-1] == (1, c + 1e-17)


# ---------------------------------------------------------------- roots

def test_complex_roots_ordering():
    roots = complex_roots(IntPoly((1, 0, 1), "x"))
    assert len(roots) == 2
    assert abs(roots[0] + 1j) < 1e-70
    assert abs(roots[1] - 1j) < 1e-70


def test_complex_roots_quadratic():
    roots = complex_roots(IntPoly((7, 1, 1), "b"))
    with mp.workprec(320):  # compare at full precision, not the ambient 53 bits
        half_sqrt27 = mp.sqrt(27) / 2
        assert abs(roots[0] - mp.mpc(-0.5, -half_sqrt27)) < 1e-70
        assert abs(roots[1] - mp.mpc(-0.5, half_sqrt27)) < 1e-70


def test_complex_roots_linear_and_constant():
    (root,) = complex_roots(IntPoly((2, 1), "c"))
    assert abs(root + 2) < 1e-70
    assert complex_roots(IntPoly((5,), "c")) == []


def test_complex_roots_symmetric_functions():
    p = IntPoly((135, 108, 144, 64), "c")
    roots = complex_roots(p)
    assert len(roots) == 3
    with mp.workprec(320):
        total = mp.fsum(r.real for r in roots) + 1j * mp.fsum(r.imag for r in roots)
        assert abs(total + mp.mpf(144) / 64) < 1e-70
        prod = roots[0] * roots[1] * roots[2]
        assert abs(prod + mp.mpf(135) / 64) < 1e-70


# ---------------------------------------------------------------- landing

@pytest.fixture(scope="module")
def half_ray_match():
    return land_and_match(2, Angle(1, 2), [misiurewicz_poly(2, 1, 1, 2, "c")])


def test_landing_half_ray(half_ray_match):
    rep = half_ray_match
    assert rep.status == "matched"
    assert rep.matched_factor.coeffs == (2, 1)
    assert rep.margin is None  # single candidate root
    assert rep.match_distance < 1e-9
    assert abs(mp.mpc(rep.landing) + 2) < 1e-9


def test_landing_one_sixth_ray():
    rep = land_and_match(2, Angle(1, 6), [misiurewicz_poly(2, 1, 2, 2, "c")])
    assert rep.status == "matched"
    assert rep.matched_factor.coeffs == (1, 0, 1)
    assert rep.root_index == 1  # roots sorted by (re, im): -i, then +i
    assert abs(mp.mpc(rep.landing) - 1j) < 1e-8
    assert rep.margin > 10


def test_landing_one_seventh_picks_quadratic_factor():
    cands = [parabolic_param_poly(2, 1, 3, "c"), parabolic_param_poly(2, 3, 1, "c")]
    rep = land_and_match(2, Angle(1, 7), cands)
    assert rep.status == "matched"
    assert rep.candidate_index == 0
    assert rep.matched_factor.coeffs == (7, 4, 16)
    assert mp.mpc(rep.landing).imag > 0
    assert rep.match_distance < 1e-6
    assert rep.margin > 10


def test_landing_conjugate_angles_land_conjugate():
    # complex conjugation sends the p/q ray to the (q-p)/q ray
    cands = [parabolic_param_poly(2, 1, 3, "c")]
    rep_a = land_and_match(2, Angle(1, 7), cands)
    rep_b = land_and_match(2, Angle(6, 7), cands)
    za, zb = mp.mpc(rep_a.landing), mp.mpc(rep_b.landing)
    assert abs(za - mp.conj(zb)) < 1e-9
    assert {rep_a.root_index, rep_b.root_index} == {0, 1}


def test_landing_no_candidate(half_ray_match):
    rep = land_and_match(2, Angle(1, 2), [IntPoly((1, 0, 1), "c")])
    assert rep.status == "no_candidate"
    assert rep.matched_factor is None
    assert rep.candidate_index is None
    assert rep.root_index is None
    assert rep.match_distance > 1  # landing is -2, roots are +-i
    # distances are still reported so the caller can see how far off it was
    assert abs(rep.match_distance - abs(mp.mpc(half_ray_match.landing) - 1j)) < 1e-6


def test_landing_ambiguous_when_roots_collide():
    # second candidate plants a decoy root 3e-12 away from -2, well inside
    # the extrapolation error times margin_min, so no match wins by 10x
    decoy = IntPoly((2000000000003, 1000000000000), "c")
    rep = land_and_match(2, Angle(1, 2), [IntPoly((2, 1), "c"), decoy])
    assert rep.status == "ambiguous"
    assert rep.margin is not None and rep.margin < 10
    assert rep.matched_factor is not None
    assert rep.match_distance < 1e-10


def test_landing_empty_candidate_pool():
    with pytest.raises(ValueError, match="no candidate roots"):
        land_and_match(2, Angle(1, 2), [IntPoly((5,), "c")])


def test_candidate_coordinate_guard():
    # a candidate in b or chat is moved to c, not refused
    assert _candidate_poly(parabolic_param_poly(2, 1, 2, "b")) == parabolic_param_poly(
        2, 1, 2, "c").poly
    assert _candidate_poly(misiurewicz_poly(3, 1, 1, 3)) == IntPoly((3, 0, 3, 0, 1), "c")
    with pytest.raises(TypeError):
        _candidate_poly(3.14)
    raw = IntPoly((2, 1), "c")
    assert _candidate_poly(raw) is raw
    assert _candidate_poly(parabolic_param_poly(2, 1, 2, "c")).degree >= 1


def test_landing_report_json(half_ray_match):
    doc = half_ray_match.to_json()
    assert set(doc) == {
        "angle", "n", "landing", "matched_factor", "candidate_index",
        "root_index", "match_distance", "margin", "status",
    }
    assert doc["angle"] == "1/2"
    assert doc["status"] == "matched"
    assert doc["margin"] is None
    assert doc["matched_factor"] == {"coeffs": ["2", "1"], "var": "c"}
    assert float(doc["match_distance"]) < 1e-9
    assert set(doc["landing"]) == {"re", "im", "bits"}
    assert abs(float(doc["landing"]["re"]) + 2) < 1e-9
    assert doc["landing"]["im"] == "0.0"  # a real ray


def test_landing_json_prints_near_zero_parts_on_the_landing_grid():
    # a part far below max(1, |landing|) keeps only the digits down to that
    # scale's last digit, so rounding noise below it cannot change the bytes
    with mp.workprec(256):
        real = mp.mpc(-2, mp.mpf("1.11e-88"))
        small = mp.mpc(mp.mpf("-8.098e-12"), 1)
        nudged = small + mp.mpf("1e-85")
        big = mp.mpc(mp.mpf("1.5e3"), mp.mpf("2.5e-77"))
        unit = mp.mpc(mp.mpf("0.5"), mp.mpf("2.5e-77"))
    doc = raytrace._landing_json(real, 256)
    assert doc == {"re": raytrace._complex_json(real, 256)["re"], "im": "0.0", "bits": 256}
    a, b = raytrace._landing_json(small, 256), raytrace._landing_json(nudged, 256)
    assert a == b
    assert raytrace._complex_json(small, 256)["re"] != raytrace._complex_json(nudged, 256)["re"]
    assert a["im"] == raytrace._complex_json(small, 256)["im"]
    assert float(a["re"]) == pytest.approx(-8.098e-12, rel=1e-12)
    assert len(a["re"]) < len(raytrace._complex_json(small, 256)["re"])
    # past |landing| = 1 the grid follows |landing|: 3 digits coarser at 1.5e3
    doc = raytrace._landing_json(big, 256)
    assert doc["re"] == raytrace._complex_json(big, 256)["re"]
    assert doc["im"] == "0.0"
    assert raytrace._landing_json(unit, 256)["im"] == "2.5e-77"
    assert raytrace._landing_json(mp.mpc(0, 0), 256) == raytrace._complex_json(mp.mpc(0, 0), 256)


def test_depth_lands_in_escape_annulus_below_double_range():
    # 1e-320 is subnormal and 1e-5000 underflows a double to 0
    for n, t in ((2, "1e-4"), (3, "1e-320"), (2, "1e-5000")):
        K = _depth(n, mp.mpf(t))
        assert TAU_ESCAPE <= n ** K * mp.mpf(t) < n * TAU_ESCAPE, (n, t, K)
