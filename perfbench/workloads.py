"""Workload definitions: the CLI calls each workload makes and the checks
applied to every document those calls print.

A call is one `unicrit` command line, written as a space-separated string
(no argument contains a space).  The seed only orders calls and, on
cache-replay, picks one coordinate or map variant per pool cell; every
variant of a cell costs about the same, so the amount of work per pass
does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

# keys whose values are mathematical content; everything else in a document
# (timings, provenance, free-text notes, floating landing digits) is ignored
# by the content digest, so a new field is not a failure but a changed
# coefficient, norm, bound or verdict is
CONTENT_KEYS = frozenset(
    {
        "P", "angle", "angles", "applicable", "bound", "candidate_index",
        "candidates", "certificate", "claim", "coeffs", "coordinate",
        "degree", "degree_b", "degree_w", "degrees", "denom", "divides_n",
        "element_minpoly", "factor", "factor_count", "factors", "form", "h",
        "inner", "is_integer", "is_unit", "k", "kind", "lead_coeff_b",
        "lead_coeff_w", "matched_factor", "n", "norm", "orbit_modulus",
        "outer", "period", "phi_units", "poly", "polynomial", "preperiod",
        "product_is_one", "quotient", "reports", "root_index", "rows",
        "skipped", "status", "var", "verdict", "witnesses",
    }
)
WHOLE_KEYS = frozenset({"cell"})  # kept verbatim: a cell is its identity


def content(doc):
    """The mathematical content of a CLI document (see CONTENT_KEYS)."""
    if isinstance(doc, dict):
        return {
            k: (v if k in WHOLE_KEYS else content(v))
            for k, v in doc.items()
            if k in CONTENT_KEYS or k in WHOLE_KEYS
        }
    if isinstance(doc, list):
        return [content(v) for v in doc]
    return doc


def content_digest(doc) -> str:
    blob = json.dumps(content(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# per-document checks beyond the digest; each returns a list of problems

# landing factor per default angle, as in the criterion-4 acceptance table
RAY_CANDIDATES = {
    "1/3": ("parabolic:1,2",),
    "1/4": ("misiurewicz:2,1,2",),
}
RAY_FACTOR = {"1/3": ["3", "4"], "1/4": ["2", "2", "2", "1"]}
MATCH_DISTANCE_MAX = 1e-6


def _check_sweep(doc, count, incomplete, all_pass=False):
    problems = []
    reports = doc.get("reports", [])
    if doc.get("verdict") != "pass":
        problems.append(f"sweep verdict {doc.get('verdict')!r}")
    if len(reports) != count:
        problems.append(f"{len(reports)} reports, expected {count}")
    got = {
        tuple(sorted(r["cell"].items())) for r in reports if r["verdict"] == "incomplete"
    }
    want = {tuple(sorted(c.items())) for c in incomplete}
    if got != want:
        problems.append(f"incomplete cells {sorted(got)}, expected {sorted(want)}")
    if all_pass and any(r["verdict"] != "pass" for r in reports):
        problems.append("a report is not 'pass'")
    return problems


def _check_ray(doc, angle):
    problems = []
    if doc.get("status") != "matched":
        problems.append(f"ray {angle} status {doc.get('status')!r}")
    try:
        dist = float(doc["match_distance"])
    except (KeyError, TypeError, ValueError):
        dist = float("inf")
    if not dist < MATCH_DISTANCE_MAX:
        problems.append(f"ray {angle} match distance {doc.get('match_distance')}")
    factor = (doc.get("matched_factor") or {}).get("coeffs")
    if factor != RAY_FACTOR[angle]:
        problems.append(f"ray {angle} matched {factor}, expected {RAY_FACTOR[angle]}")
    return problems


def _verdict_pass(doc):
    return [] if doc.get("verdict") == "pass" else [f"verdict {doc.get('verdict')!r}"]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[[random.Random], list]  # seed -> the call set of a pass
    checks: dict  # call string -> extra check(doc) -> problems
    # cache workloads run their calls against an empty --cache-dir (the
    # timed cold pass), then replay them warm in the same child
    cache: bool = False


THM31_CALLS = (
    "verify sweep thm31 --ns 2,3 --sum-max 5",
    "verify thm31 --n 4 --t 1 --h 4 --tau 4",
)
THM14_CALLS = (
    "verify sweep thm14 --ns 2 --r-max 5",
    "verify sweep thm14 --ns 3 --r-max 5 --degree-cap 60",
)
RAY_CALLS = tuple(
    f"ray land --n 2 --angle {a}" + "".join(f" --candidates {c}" for c in cands)
    for a, cands in RAY_CANDIDATES.items()
)

_C4 = ("c", "chat", "b", "bhat")


def _coords(family, n):
    """Coordinates a family can be emitted in at degree n.

    For n >= 3 the `b` coordinate of gleason and misiurewicz polynomials
    exits 2 ("no transform path") although the README lists bhat -> b as
    legal; those requests are left out (see README.md in this directory).
    """
    if n == 2:
        return _C4
    return {"gleason": ("c", "chat", "bhat"), "misiurewicz": ("chat", "bhat"),
            "parabolic": _C4}[family]


def cache_pool():
    """Strata of small calls, one list of interchangeable variants each.

    Cells whose first construction takes over ~30 ms are left out, so that
    no single draw dominates a pass.
    """
    strata = []
    for n, hs in ((2, range(2, 7)), (3, range(2, 5)), (4, range(2, 4))):
        for h in hs:
            strata.append([f"poly gleason --n {n} --h {h} --coord {c}"
                           for c in _coords("gleason", n)])
    for n, tau, s in ((2, 2, 5), (3, 3, 4), (4, 2, 4), (4, 4, 4)):
        for t in range(1, s):
            for h in range(1, s - t + 1):
                strata.append([
                    f"poly misiurewicz --n {n} --t {t} --h {h} --tau {tau} --coord {c}"
                    for c in _coords("misiurewicz", n)
                ])
    slow_parabolic = {(2, 4, 1), (2, 5, 1), (3, 3, 1), (4, 2, 1)}
    for n, r in ((2, 5), (3, 3), (4, 2)):
        for h in range(1, r + 1):
            for m in range(1, r // h + 1):
                if (n, h, m) not in slow_parabolic:
                    strata.append([f"poly parabolic --n {n} --h {h} --m {m} --coord {c}"
                                   for c in _coords("parabolic", n)])
    for n, hs in ((2, 5), (3, 3), (4, 2)):
        for h in range(1, hs + 1):
            for op in ("dynatomic", "iterate"):
                strata.append([f"poly {op} --n {n} --h {h} --map {m}" for m in ("fc", "gb")])
    for n, hs in ((2, 4), (3, 3), (4, 2)):
        for h in range(1, hs + 1):
            strata.append([f"verify monic --n {n} --h {h}"])
    for c in ("-1", "-2"):
        for h in (2, 3):
            strata.append([f"verify units --n 2 --c {c} --h {h}"])
        for h in (1, 2, 3):
            strata.append([f"verify congruences --n 2 --c {c} --h {h}"])
    for n, hs in ((2, (3, 4, 5)), (3, (2, 3))):
        for h in hs:
            strata.append([f"galois --kind gleason --n {n} --h {h}"])
    for t, h in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        strata.append([f"galois --kind misiurewicz --n 2 --t {t} --h {h} --tau 2"])
    for h, m in ((1, 2), (1, 3), (2, 1), (2, 2), (3, 1)):
        strata.append([f"galois --kind parabolic --n 2 --h {h} --m {m}"])
    strata.append(["ray angles --n 2"])
    return strata


def _cache_calls(rng):
    return [rng.choice(variants) for variants in cache_pool()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "thm31",
            lambda rng: list(THM31_CALLS),
            {
                THM31_CALLS[0]: lambda d: _check_sweep(d, 28, (), all_pass=True),
                THM31_CALLS[1]: _verdict_pass,
            },
        ),
        Workload(
            "thm14",
            lambda rng: list(THM14_CALLS),
            {
                THM14_CALLS[0]: lambda d: _check_sweep(d, 10, ()),
                THM14_CALLS[1]: lambda d: _check_sweep(
                    d, 10, ({"n": 3, "h": 4, "m": 1}, {"n": 3, "h": 5, "m": 1})
                ),
            },
        ),
        Workload(
            "ray-land",
            lambda rng: list(RAY_CALLS),
            {call: (lambda d, a=a: _check_ray(d, a))
             for call, a in zip(RAY_CALLS, RAY_CANDIDATES)},
        ),
        Workload("cache-replay", _cache_calls, {}, cache=True),
    )
}


def all_calls():
    """Every call any workload can make, for recording digests."""
    calls = list(THM31_CALLS) + list(THM14_CALLS) + list(RAY_CALLS)
    for variants in cache_pool():
        calls.extend(variants)
    return calls
