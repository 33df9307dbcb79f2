"""Command-line frontend: polynomial families, verification runs, external
rays, and an on-disk result cache.

Output is a single JSON document on stdout (--format=table renders the same
document as aligned text). Exit codes: 0 success or pass, 1 verification
failure, 2 usage error, 3 resource-cap abort. Every error document has the
shape {"error": {"kind": ..., "detail": ...}}.
"""

import argparse
import hashlib
import json
import os
import signal
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import __version__
from .dynmaps import (
    COORDINATES,
    DEFAULT_DEGREE_CAP,
    DegreeCapError,
    ParamPolynomial,
    SpecialCaseError,
    coord_transform,
    dynatomic,
    gleason_poly,
    iterate_map,
    iterate_poly_gb,
    misiurewicz_poly,
    parabolic_param_poly,
)
from .numfield import ParabolicCollisionError
from .raytrace import (
    Angle,
    NonConvergenceError,
    PrecisionExhaustedError,
    RayTraceError,
    angle_orbit,
    land_and_match,
    trace_param_ray,
)
from .verify import (
    SweepCaps,
    galois_experiment,
    sweep_thm_1_4,
    sweep_thm_3_1,
    sweep_verdict,
    verify_congruences,
    verify_dynamical_units,
    verify_monic_structure,
    verify_thm_1_4,
    verify_thm_3_1,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# default angle set for n = 2 with the candidate families their rays land on
DEFAULT_ANGLES = (
    ("1/3", ("parabolic:1,2",)),
    ("2/5", ("parabolic:2,2",)),
    ("3/7", ("parabolic:3,1",)),
    ("1/7", ("parabolic:1,3", "parabolic:3,1")),
    ("1/5", ("parabolic:4,1",)),
    ("1/2", ("misiurewicz:1,1,2",)),
    ("1/4", ("misiurewicz:2,1,2",)),
    ("1/6", ("misiurewicz:1,2,2",)),
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; we map to exit 2
        raise UsageError(message)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _bipoly_json(P) -> dict:
    return {
        "outer": P.outer,
        "inner": P.inner,
        "rows": [[str(a) for a in row] for row in P.rows],
    }


def _param_poly_json(pp: ParamPolynomial) -> dict:
    out = pp.to_json()
    out["degree"] = pp.degree
    return out


# ---------------------------------------------------------------------------
# cache: one file per key, content-hashed, LRU by mtime


def _cache_dir(ns) -> Path | None:
    d = getattr(ns, "cache_dir", None) or os.environ.get("UNICRIT_CACHE")
    return Path(d) if d else None


def _cache_path(d: Path, key: str) -> Path:
    return d / (hashlib.sha256(key.encode()).hexdigest()[:32] + ".json")


def _with_cache(ns, key: str, build):
    """Return build() through the cache when one is configured.

    The cached payload is the canonical JSON emission; a hit is re-parsed so
    the output path is identical either way. Corrupt or stale entries (bad
    hash, other artifact version) are recomputed and overwritten, never
    trusted. --timings bypasses the cache entirely: timed documents are not
    byte-stable.
    """
    d = _cache_dir(ns)
    if d is None or getattr(ns, "timings", False):
        return build()
    d.mkdir(parents=True, exist_ok=True)
    path = _cache_path(d, key)
    try:
        obj = json.loads(path.read_text())
        payload = obj["payload"]
        if (
            obj["key"] == key
            and obj["version"] == __version__
            and hashlib.sha256(payload.encode()).hexdigest() == obj["sha256"]
        ):
            os.utime(path)
            return json.loads(payload)
    except (OSError, ValueError, KeyError, TypeError):
        pass
    doc = build()
    payload = _dumps(doc)
    entry = {
        "key": key,
        "version": __version__,
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "payload": payload,
    }
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(_dumps(entry))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return doc


def _key(op: str, **params) -> str:
    params["op"] = op
    params["version"] = __version__
    return json.dumps(params, sort_keys=True, default=str)


def _cache_entries(d: Path) -> list[tuple[Path, int, float, str]]:
    out = []
    for path in sorted(d.glob("*.json")):
        st = path.stat()
        try:
            key = json.loads(path.read_text())["key"]
        except (OSError, ValueError, KeyError, TypeError):
            key = path.name  # corrupt entry; identified by file name
        out.append((path, st.st_size, st.st_mtime, key))
    return out


def cmd_cache_gc(ns):
    d = _cache_dir(ns)
    if d is None:
        raise UsageError("no cache directory configured (--cache-dir or UNICRIT_CACHE)")
    if not d.is_dir():
        return {"evicted": [], "kept": 0, "bytes": 0}
    entries = sorted(_cache_entries(d), key=lambda e: (e[2], e[0].name))
    total = sum(size for _, size, _, _ in entries)
    evicted = []
    for path, size, _, key in entries:
        if total <= ns.max_bytes:
            break
        path.unlink()
        total -= size
        evicted.append(key)
    return {"evicted": evicted, "kept": len(entries) - len(evicted), "bytes": total}


def cmd_cache_stat(ns):
    d = _cache_dir(ns)
    if d is None:
        raise UsageError("no cache directory configured (--cache-dir or UNICRIT_CACHE)")
    if not d.is_dir():
        return {"entries": 0, "bytes": 0, "dir": str(d)}
    entries = _cache_entries(d)
    return {
        "entries": len(entries),
        "bytes": sum(size for _, size, _, _ in entries),
        "dir": str(d),
    }


# ---------------------------------------------------------------------------
# document builders: ns -> document


def _poly_iterate(ns):
    if ns.map == "gb":
        pair = iterate_poly_gb(ns.n, ns.h, degree_cap=ns.degree_cap)
        return {"kind": "iterate-gb", "n": ns.n, "k": ns.h,
                "P": _bipoly_json(pair.poly), "denom": str(pair.denom)}
    P = iterate_map(ns.n, ns.h, degree_cap=ns.degree_cap)
    return {"kind": "iterate-fc", "n": ns.n, "k": ns.h, "poly": _bipoly_json(P)}


def _poly_dynatomic(ns):
    form = {"fc": "f_c", "gb": "g_b"}[ns.map]
    P = dynatomic(ns.n, ns.h, form, degree_cap=ns.degree_cap)
    return {"kind": "dynatomic", "form": form, "n": ns.n, "h": ns.h, "poly": _bipoly_json(P)}


def cmd_poly_transform(ns):
    try:
        pp = ParamPolynomial.from_json(json.load(sys.stdin))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"stdin is not a polynomial document: {exc}") from exc
    return _param_poly_json(coord_transform(pp, ns.coord))


def _report_doc(ns, report):
    return report.to_json(timings=getattr(ns, "timings", False))


# the flags each sweep claim reads; its cache key names only these
_SWEEP_READS = {"thm14": ("ns", "r_max", "degree_cap"), "thm31": ("ns", "sum_max", "gleason_h_max")}


def _verify_sweep(ns):
    if ns.claim == "thm14":
        caps = SweepCaps(max_dynatomic_degree=ns.degree_cap)
        reports = sweep_thm_1_4(ns=ns.ns, r_max=ns.r_max, caps=caps)
    else:
        reports = sweep_thm_3_1(ns=ns.ns, sum_max=ns.sum_max, gleason_h_max=ns.gleason_h_max)
    return {"claim": ns.claim, "verdict": sweep_verdict(reports),
            "reports": [_report_doc(ns, r) for r in reports]}


def _usage_type(what: str, parse):
    """parse(text), with a bad value reported as a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad {what} {text!r}: {exc}") from exc

    return convert


_parse_angle = _usage_type("angle", Angle.parse)
_parse_rational = _usage_type("rational", Fraction)
_parse_int_list = _usage_type("integer list", lambda text: tuple(map(int, text.split(","))))


def _build_candidate(n: int, spec: str):
    kind, _, rest = spec.partition(":")
    try:
        nums = [int(x) for x in rest.split(",")] if rest else []
    except ValueError:
        nums = None
    if nums is not None:
        if kind == "parabolic" and len(nums) == 2:
            return parabolic_param_poly(n, nums[0], nums[1], "c")
        if kind == "misiurewicz" and len(nums) == 3:
            return misiurewicz_poly(n, nums[0], nums[1], nums[2], "c")
        if kind == "gleason" and len(nums) == 1:
            return gleason_poly(n, nums[0], "c")
    raise UsageError(
        f"bad candidate spec {spec!r}; expected parabolic:h,m or "
        "misiurewicz:t,h,tau or gleason:h"
    )


def cmd_ray_trace(ns):
    path = trace_param_ray(
        ns.n,
        _parse_angle(ns.angle),
        potential_start=ns.potential_start,
        potential_end=ns.potential_end,
        steps_per_halving=ns.steps_per_halving,
        precision_bits=ns.precision_bits,
    )
    return path.to_json()


def cmd_ray_land(ns):
    if not ns.candidates:
        raise UsageError("ray land needs at least one --candidates spec")
    angle = _parse_angle(ns.angle)
    cands = [_build_candidate(ns.n, spec) for spec in ns.candidates]
    report = land_and_match(
        ns.n,
        angle,
        cands,
        potential_end=ns.potential_end,
        precision_bits=ns.precision_bits,
        tolerance=ns.tolerance,
        margin_min=ns.margin_min,
    )
    return report.to_json()


def cmd_ray_angles(ns):
    if ns.n != 2:
        raise UsageError("the default angle set is defined for n = 2")
    rows = []
    for text, cands in DEFAULT_ANGLES:
        angle = Angle.parse(text)
        pre, per = angle_orbit(angle, ns.n)
        rows.append(
            {
                "angle": text,
                "preperiod": pre,
                "period": per,
                "candidates": list(cands),
            }
        )
    return {"n": ns.n, "angles": rows}


# ---------------------------------------------------------------------------
# command table: one entry per leaf command, and everything derived from it


def _ints(*flags):
    """Required integer flags."""
    return tuple((flag, {"type": int, "required": True}) for flag in flags)


def _opt(flag, default=None, type=int):
    return (flag, {"type": type, "default": default})


def _coord(default):
    # the per-family default is the parsed value, so an omitted --coord
    # and an explicit one naming the default share one cache key
    return ("--coord", {"choices": COORDINATES, "default": default})


def _map(default):
    return ("--map", {"choices": ("gb", "fc"), "default": default})


def _rational(example):
    help_ = f"rational parameter, e.g. {example}"
    return ("--c", {"type": _parse_rational, "required": True, "help": help_})


_CAP = _opt("--degree-cap", DEFAULT_DEGREE_CAP)
_ANGLE = ("--angle", {"required": True, "help": "rational angle p/q"})


@dataclass(frozen=True)
class Command:
    """A leaf command.  A cached command's key is its path plus the parsed
    value of every argument the builder reads, so equal cells share one entry
    however they are spelled."""

    path: str  # "group/leaf" or "leaf"; also the cache key's op
    build: Callable  # ns -> document
    args: tuple  # (flag or positional name, add_argument keywords), in order
    cached: bool = True
    timings: bool = False  # takes --timings
    reads: Callable | None = None  # ns -> dests the builder reads; None: all args


COMMANDS = (
    Command("poly/iterate", _poly_iterate, _ints("--n", "--h") + (_map("gb"), _CAP)),
    Command("poly/dynatomic", _poly_dynatomic, _ints("--n", "--h") + (_map("fc"), _CAP)),
    Command("poly/gleason", lambda ns: _param_poly_json(
        gleason_poly(ns.n, ns.h, ns.coord, degree_cap=ns.degree_cap)
    ), _ints("--n", "--h") + (_coord("c"), _CAP)),
    Command("poly/misiurewicz", lambda ns: _param_poly_json(
        misiurewicz_poly(ns.n, ns.t, ns.h, ns.tau, ns.coord, degree_cap=ns.degree_cap)
    ), _ints("--n", "--t", "--h", "--tau") + (_coord("chat"), _CAP)),
    Command("poly/parabolic", lambda ns: _param_poly_json(
        parabolic_param_poly(ns.n, ns.h, ns.m, ns.coord, degree_cap=ns.degree_cap)
    ), _ints("--n", "--h", "--m") + (_coord("c"), _CAP)),
    Command("poly/transform", cmd_poly_transform,
            (("--coord", {"choices": COORDINATES, "required": True}),), cached=False),
    Command("verify/thm14", lambda ns: _report_doc(ns, verify_thm_1_4(ns.n, ns.h, ns.m)),
            _ints("--n", "--h", "--m"), timings=True),
    Command("verify/thm31", lambda ns: _report_doc(
        ns, verify_thm_3_1(ns.n, ns.t, ns.h, ns.tau)
    ), _ints("--n", "--t", "--h") + (_opt("--tau"),), timings=True),
    Command("verify/monic", lambda ns: _report_doc(ns, verify_monic_structure(ns.n, ns.h)),
            _ints("--n", "--h"), timings=True),
    Command("verify/congruences", lambda ns: _report_doc(
        ns, verify_congruences(ns.n, ns.c, ns.h)
    ), _ints("--n") + (_rational("-1/4"),) + _ints("--h"), timings=True),
    Command("verify/units", lambda ns: _report_doc(
        ns, verify_dynamical_units(ns.n, ns.c, ns.h)
    ), _ints("--n") + (_rational("-2"),) + _ints("--h"), timings=True),
    Command("verify/sweep", _verify_sweep, (
        ("claim", {"choices": ("thm14", "thm31")}),
        ("--ns", {"type": _parse_int_list, "default": "2,3,4",
                  "help": "comma-separated degrees n"}),
        _opt("--r-max", 6), _opt("--sum-max", 6), _opt("--gleason-h-max", 5),
        _opt("--degree-cap", SweepCaps().max_dynatomic_degree),
    ), timings=True, reads=lambda ns: ("claim",) + _SWEEP_READS[ns.claim]),
    Command("ray/trace", cmd_ray_trace, _ints("--n") + (
        _ANGLE, _opt("--potential-start", 32.0, float), _opt("--potential-end", 1e-8, float),
        _opt("--steps-per-halving", 12), _opt("--precision-bits", 256),
    ), cached=False),
    Command("ray/land", cmd_ray_land, _ints("--n") + (
        _ANGLE,
        ("--candidates", {"action": "append", "default": None,
                          "help": "candidate family, e.g. parabolic:4,1 (repeatable)"}),
        _opt("--potential-end", 1e-8, float), _opt("--precision-bits", 256),
        _opt("--tolerance", 1e-6, float), _opt("--margin-min", 10.0, float),
    ), cached=False),
    Command("ray/angles", cmd_ray_angles, (_opt("--n", 2),), cached=False),
    Command("galois", lambda ns: _report_doc(
        ns, galois_experiment(ns.n, ns.kind, h=ns.h, t=ns.t, tau=ns.tau, m=ns.m)
    ), (
        ("--kind", {"choices": ("gleason", "misiurewicz", "parabolic"), "required": True}),
        *_ints("--n", "--h"), _opt("--t"), _opt("--tau"), _opt("--m"),
    ), timings=True),
    Command("cache/gc", cmd_cache_gc, _ints("--max-bytes"), cached=False),
    Command("cache/stat", cmd_cache_stat, (), cached=False),
)

# the dest of each group's subcommand, as argparse names it in usage errors
_GROUP_DEST = {"poly": "family", "verify": "claim_group", "ray": "ray_op", "cache": "cache_op"}


def _run(cmd: Command, ns):
    """Build cmd's document, through the cache when cmd is cached."""
    if not cmd.cached:
        return cmd.build(ns)
    if cmd.reads is not None:
        dests = cmd.reads(ns)
    else:
        dests = (flag.lstrip("-").replace("-", "_") for flag, _ in cmd.args)
    key = _key(cmd.path, **{dest: getattr(ns, dest) for dest in dests})
    return _with_cache(ns, key, lambda: cmd.build(ns))


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--cache-dir", default=None)

    timed = _Parser(add_help=False)
    timed.add_argument("--timings", action="store_true",
                       help="real elapsed_ms in reports (disables the cache)")

    parser = _Parser(prog="unicrit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)
    subs = {}
    for cmd in COMMANDS:
        group, _, name = cmd.path.rpartition("/")
        if group and group not in subs:
            subs[group] = groups.add_parser(group, parents=[common]).add_subparsers(
                dest=_GROUP_DEST[group], required=True, parser_class=_Parser
            )
        p = subs.get(group, groups).add_parser(
            name, parents=[common, timed] if cmd.timings else [common]
        )
        # only leaves set the command: argparse applies a group parser's
        # defaults to the namespace first, which would mask the leaf's
        p.set_defaults(command=cmd)
        for flag, kw in cmd.args:
            p.add_argument(flag, **kw)
    return parser


# ---------------------------------------------------------------------------
# rendering


def _table_rows(rows: list[dict], columns: list[str]) -> list[str]:
    widths = [
        max(len(col), *(len(str(r.get(col, ""))) for r in rows)) if rows else len(col)
        for col in columns
    ]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip()]
    for r in rows:
        lines.append(
            "  ".join(str(r.get(col, "")).ljust(w) for col, w in zip(columns, widths)).rstrip()
        )
    return lines


def _kv_lines(doc: dict, skip=()) -> list[str]:
    width = max((len(k) for k in doc if k not in skip), default=0)
    out = []
    for k in sorted(doc):
        if k in skip:
            continue
        v = doc[k]
        if isinstance(v, (dict, list)):
            v = json.dumps(v, sort_keys=True)
        out.append(f"{k.ljust(width)}  {v}")
    return out


def _poly_terms(doc: dict) -> list[str]:
    var = doc.get("var", "x")
    coeffs = doc["coeffs"]
    lines = []
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k] != "0":
            lines.append(f"{var}^{k}".ljust(8) + coeffs[k])
    return lines


def render_table(doc: dict) -> str:
    if "error" in doc:
        err = doc["error"]
        return f"error [{err['kind']}]: {err['detail']}"
    if "note" in doc:
        return f"note: {doc['note']['detail']}"
    if "reports" in doc:  # sweep
        rows = [
            {
                "claim": r["claim"],
                "cell": json.dumps(r["cell"], sort_keys=True),
                "verdict": r["verdict"],
                "witnesses": len(r["witnesses"]),
            }
            for r in doc["reports"]
        ]
        lines = _table_rows(rows, ["claim", "cell", "verdict", "witnesses"])
        lines.append(f"verdict: {doc['verdict']}")
        return "\n".join(lines)
    if "claim" in doc:  # single verification report
        lines = _kv_lines(doc, skip=("witnesses",))
        for i, w in enumerate(doc["witnesses"]):
            lines.append(f"witness {i}:")
            lines.extend("  " + ln for ln in _kv_lines(w))
        return "\n".join(lines)
    if "points" in doc:  # ray path
        head = _kv_lines(doc, skip=("points",))
        rows = [
            {"potential": p["potential"], "re": p["c"]["re"], "im": p["c"]["im"]}
            for p in doc["points"]
        ]
        return "\n".join(head + _table_rows(rows, ["potential", "re", "im"]))
    if "status" in doc and "landing" in doc:
        return "\n".join(_kv_lines(doc))
    if "angles" in doc:
        rows = [
            {**r, "candidates": " ".join(r["candidates"])} for r in doc["angles"]
        ]
        return "\n".join(
            _table_rows(rows, ["angle", "preperiod", "period", "candidates"])
        )
    if "rows" in doc or "poly" in doc or "P" in doc:  # bivariate families
        inner_doc = doc.get("P") or doc.get("poly") or doc
        lines = _kv_lines(doc, skip=("P", "poly", "rows"))
        if "rows" in inner_doc:
            outer, inner = inner_doc["outer"], inner_doc["inner"]
            for i, row in enumerate(inner_doc["rows"]):
                lines.append(f"{outer}^{i}".ljust(8) + f"[{', '.join(row)}] in {inner}")
        return "\n".join(lines)
    if "coeffs" in doc:
        lines = _kv_lines(doc, skip=("coeffs",))
        lines.extend(_poly_terms(doc))
        return "\n".join(lines)
    return "\n".join(_kv_lines(doc))


# ---------------------------------------------------------------------------
# entry point


def _exit_for(doc: dict) -> int:
    if "verdict" in doc:
        return {
            "pass": EXIT_OK,
            "not_applicable": EXIT_OK,
            "parabolic_collision": EXIT_OK,
            "incomplete": EXIT_CAP,
            "fail": EXIT_FAIL,
        }[doc["verdict"]]
    if "status" in doc and "landing" in doc:
        return EXIT_OK if doc["status"] == "matched" else EXIT_FAIL
    return EXIT_OK


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "table":
        print(render_table(doc))
    else:
        print(_dumps(doc))


def _absorb_rational_values(argv: list) -> list:
    # argparse treats "-1/4" as an option string, not a value; fold the
    # token after --c into --c=... so negative rationals parse
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--c" and i + 1 < len(argv):
            out.append("--c=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


# exception type, error kind, exit code; the first match wins, so subclasses
# come before their bases (SpecialCaseError and ParabolicCollisionError are
# ValueErrors, PrecisionExhaustedError is a RayTraceError).  An exit-0 kind
# is reported as a note, not an error.
_ERRORS = (
    (UsageError, "usage", EXIT_USAGE),
    (DegreeCapError, "degree-cap", EXIT_CAP),
    (PrecisionExhaustedError, "precision-exhausted", EXIT_CAP),
    (SpecialCaseError, "special-case", EXIT_OK),
    (ParabolicCollisionError, "parabolic-collision", EXIT_FAIL),
    (RayTraceError, "numeric", EXIT_FAIL),
    (NonConvergenceError, "numeric", EXIT_FAIL),
    (ValueError, "usage", EXIT_USAGE),
    (OSError, "filesystem", EXIT_FAIL),
)


def main(argv=None) -> int:
    try:
        # die silently at 128+SIGPIPE when a downstream consumer closes
        # early (unicrit ... | head), like any other pipeline tool
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (AttributeError, ValueError):
        pass
    if hasattr(sys, "set_int_max_str_digits"):
        # coefficients and norms are decimal strings of any length
        sys.set_int_max_str_digits(0)
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    argv = _absorb_rational_values(argv)
    fmt = "json"  # until --format is parsed
    try:
        ns = build_parser().parse_args(argv)
        fmt = getattr(ns, "format", "json")
        doc = _run(ns.command, ns)
    except tuple(exc_type for exc_type, _, _ in _ERRORS) as exc:
        kind, code = next((k, c) for t, k, c in _ERRORS if isinstance(exc, t))
        _emit({"note" if code == EXIT_OK else "error": {"kind": kind, "detail": str(exc)}}, fmt)
        return code

    _emit(doc, fmt)
    return _exit_for(doc)


if __name__ == "__main__":
    sys.exit(main())
