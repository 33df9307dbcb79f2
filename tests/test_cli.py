"""CLI surface: emitted documents, exit codes, cache behavior."""

import contextlib
import io
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from unicrit import cli
from unicrit.cli import COMMANDS, DEFAULT_ANGLES, main


def run(args, stdin=None):
    buf = io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


def run_json(args, stdin=None):
    code, out = run(args, stdin)
    return code, json.loads(out)


# ---------------------------------------------------------------- poly

def test_poly_misiurewicz_degree_seven_cell():
    code, doc = run_json(["poly", "misiurewicz", "--n", "2", "--t", "3",
                          "--h", "1", "--tau", "2"])
    assert code == 0
    assert doc["degree"] == 7
    assert doc["coordinate"] == "chat"
    assert doc["provenance"]["kind"] == "misiurewicz"


def test_poly_misiurewicz_c_coordinate():
    code, doc = run_json(["poly", "misiurewicz", "--n", "2", "--t", "2",
                          "--h", "1", "--tau", "2", "--coord", "c"])
    assert code == 0
    assert doc["coeffs"] == ["2", "2", "2", "1"]


def test_poly_gleason():
    code, doc = run_json(["poly", "gleason", "--n", "2", "--h", "3"])
    assert code == 0
    assert doc["coeffs"] == ["1", "1", "2", "1"]


def test_poly_gleason_power_coordinate_note():
    code, doc = run_json(["poly", "gleason", "--n", "2", "--h", "1",
                          "--coord", "chat"])
    assert code == 0
    assert doc["note"]["kind"] == "special-case"


def test_poly_parabolic_b_coordinate():
    code, doc = run_json(["poly", "parabolic", "--n", "2", "--h", "2",
                          "--m", "2", "--coord", "b"])
    assert code == 0
    assert doc["coeffs"] == ["5", "1"]


def test_poly_gleason_b_coordinate_unreachable_for_n3():
    # for n >= 3, b is reached only from bhat, never from the chat a
    # Gleason polynomial lives in (README "Coordinates")
    code, doc = run_json(["poly", "gleason", "--n", "3", "--h", "2", "--coord", "b"])
    assert (code, doc["error"]["kind"]) == (2, "usage")
    assert "no transform path" in doc["error"]["detail"]


def test_poly_iterate_gb():
    code, doc = run_json(["poly", "iterate", "--n", "2", "--h", "3"])
    assert code == 0
    assert doc["denom"] == "128"
    assert doc["P"]["outer"] == "b"
    assert doc["P"]["inner"] == "w"


def test_poly_iterate_degree_cap():
    code, doc = run_json(["poly", "iterate", "--n", "2", "--h", "13"])
    assert code == 3
    assert doc["error"]["kind"] == "degree-cap"


def test_poly_dynatomic():
    code, doc = run_json(["poly", "dynatomic", "--n", "2", "--h", "2"])
    assert code == 0
    # z^2 + z + c + 1 as rows[i][j] = coeff of c^i z^j
    assert doc["poly"]["rows"] == [["1", "1", "1"], ["1", "0", "0"]]


def test_poly_transform_stdin():
    _, gleason_doc = run(["poly", "gleason", "--n", "2", "--h", "2"])
    code, doc = run_json(["poly", "transform", "--coord", "b"], stdin=gleason_doc)
    assert code == 0
    assert doc["coordinate"] == "b"
    assert doc["coeffs"] == ["4", "1"]  # root -1 in c scales to -4 in b


def test_poly_transform_rejects_garbage():
    code, doc = run_json(["poly", "transform", "--coord", "b"], stdin="not json")
    assert code == 2
    assert doc["error"]["kind"] == "usage"


def test_poly_transform_huge_coefficients():
    # a fresh interpreter keeps Python's 4,300-digit int<->str limit, which
    # the CLI lifts: decimal strings are safe at any size
    big = "1" + "0" * 4999 + "1"  # 10^5000 + 1, 5,001 digits
    doc = {"var": "chat", "coeffs": [big, "1", "1"], "coordinate": "chat", "n": 3,
           "provenance": {"kind": "test"}}
    proc = subprocess.run(
        [sys.executable, "-m", "unicrit.cli", "poly", "transform", "--coord", "bhat"],
        input=json.dumps(doc), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    out = json.loads(proc.stdout)
    # roots scale by 3^3 = 27: x^2 + x + K -> x^2 + 27 x + 729 K
    assert out["coeffs"] == ["729" + "0" * 4997 + "729", "27", "1"]
    assert out["coordinate"] == "bhat"


# ---------------------------------------------------------------- verify

def test_verify_thm14():
    code, doc = run_json(["verify", "thm14", "--n", "2", "--h", "1", "--m", "3"])
    assert code == 0
    assert doc["verdict"] == "pass"
    assert [w["quotient"] for w in doc["witnesses"]] == ["7", "7"]
    assert doc["elapsed_ms"] == 0  # deterministic by default


def test_verify_thm14_cap_is_exit_3():
    code, doc = run_json(["verify", "thm14", "--n", "2", "--h", "13", "--m", "1"])
    assert code == 3
    assert doc["verdict"] == "incomplete"


def test_verify_thm31():
    code, doc = run_json(["verify", "thm31", "--n", "2", "--t", "3", "--h", "1",
                          "--tau", "2"])
    assert code == 0
    assert doc["verdict"] == "pass"


def test_verify_thm31_gleason_h1_not_applicable():
    code, doc = run_json(["verify", "thm31", "--n", "2", "--t", "0", "--h", "1"])
    assert code == 0
    assert doc["verdict"] == "not_applicable"


def test_verify_thm31_tau_with_gleason_is_usage_error():
    code, doc = run_json(["verify", "thm31", "--n", "2", "--t", "0", "--h", "2",
                          "--tau", "2"])
    assert code == 2
    assert doc["error"]["kind"] == "usage"


def test_verify_monic():
    code, doc = run_json(["verify", "monic", "--n", "3", "--h", "2"])
    assert code == 0
    assert doc["verdict"] == "pass"


def test_verify_congruences():
    code, doc = run_json(["verify", "congruences", "--n", "2", "--c", "-1/4",
                          "--h", "1"])
    assert code == 0
    assert doc["verdict"] == "pass"


def test_verify_congruences_parabolic_collision():
    code, doc = run_json(["verify", "congruences", "--n", "2", "--c", "-3/4",
                          "--h", "2"])
    assert code == 0  # reported, not a failure
    assert doc["verdict"] == "parabolic_collision"


def test_verify_units():
    code, doc = run_json(["verify", "units", "--n", "2", "--c", "-1", "--h", "3"])
    assert code == 0
    assert doc["verdict"] == "pass"


def test_verify_sweep_thm14():
    code, doc = run_json(["verify", "sweep", "thm14", "--ns", "2", "--r-max", "4"])
    assert code == 0
    assert doc["verdict"] == "pass"
    assert len(doc["reports"]) == 8
    assert all(r["verdict"] == "pass" for r in doc["reports"])


def test_verify_sweep_thm31():
    code, doc = run_json(["verify", "sweep", "thm31", "--ns", "2",
                          "--sum-max", "3", "--gleason-h-max", "3"])
    assert code == 0
    assert doc["verdict"] == "pass"


def test_galois_parabolic():
    code, doc = run_json(["galois", "--kind", "parabolic", "--n", "2", "--h", "4",
                          "--m", "1"])
    assert code == 0
    assert doc["verdict"] == "pass"
    w = doc["witnesses"][0]
    assert w["factor_count"] == 1
    assert w["factors"][0]["coeffs"] == ["135", "108", "144", "64"]


# ---------------------------------------------------------------- ray

def test_ray_trace_document():
    code, doc = run_json(["ray", "trace", "--n", "2", "--angle", "0/1",
                          "--potential-end", "0.01"])
    assert code == 0
    assert doc["angle"] == "0/1"
    assert doc["precision_bits"] == 256
    assert len(doc["points"]) > 50
    assert float(doc["points"][-1]["potential"]) == pytest.approx(0.01)


def test_ray_land_parabolic_cubic():
    code, doc = run_json(["ray", "land", "--n", "2", "--angle", "1/5",
                          "--candidates", "parabolic:4,1"])
    assert code == 0
    assert doc["status"] == "matched"
    assert doc["matched_factor"]["coeffs"] == ["135", "108", "144", "64"]
    assert float(doc["match_distance"]) < 1e-6


def test_ray_land_miss_is_exit_1():
    code, doc = run_json(["ray", "land", "--n", "2", "--angle", "1/2",
                          "--candidates", "gleason:2"])
    assert code == 1
    assert doc["status"] == "no_candidate"


def test_ray_land_candidate_spec_errors():
    code, doc = run_json(["ray", "land", "--n", "2", "--angle", "1/2"])
    assert (code, doc["error"]["kind"]) == (2, "usage")
    code, doc = run_json(["ray", "land", "--n", "2", "--angle", "1/2",
                          "--candidates", "weird:1"])
    assert (code, doc["error"]["kind"]) == (2, "usage")
    code, doc = run_json(["ray", "land", "--n", "2", "--angle", "5/3",
                          "--candidates", "gleason:2"])
    assert (code, doc["error"]["kind"]) == (2, "usage")


def test_ray_angles_defaults():
    code, doc = run_json(["ray", "angles"])
    assert code == 0
    rows = {r["angle"]: r for r in doc["angles"]}
    assert set(rows) == {a for a, _ in DEFAULT_ANGLES}
    assert (rows["1/7"]["preperiod"], rows["1/7"]["period"]) == (0, 3)
    assert (rows["1/6"]["preperiod"], rows["1/6"]["period"]) == (1, 2)
    code, doc = run_json(["ray", "angles", "--n", "3"])
    assert code == 2


# ---------------------------------------------------------------- cache

def test_cache_roundtrip(tmp_path):
    args = ["verify", "thm14", "--n", "2", "--h", "4", "--m", "1",
            "--cache-dir", str(tmp_path)]
    code1, out1 = run(args)
    assert code1 == 0
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    code2, out2 = run(args)
    assert out2 == out1  # byte-identical on hit

    # corrupt entries are recomputed, never trusted
    files[0].write_text(files[0].read_text()[:-30] + '"x"}')
    code3, out3 = run(args)
    assert out3 == out1

    code, doc = run_json(["cache", "stat", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert doc["entries"] == 1
    assert doc["bytes"] > 0


def test_cache_gc(tmp_path):
    run(["poly", "gleason", "--n", "2", "--h", "3", "--cache-dir", str(tmp_path)])
    run(["poly", "gleason", "--n", "2", "--h", "4", "--cache-dir", str(tmp_path)])
    code, doc = run_json(["cache", "gc", "--max-bytes", "0",
                          "--cache-dir", str(tmp_path)])
    assert code == 0
    assert len(doc["evicted"]) == 2
    assert doc["kept"] == 0
    assert all("poly/gleason" in key for key in doc["evicted"])
    # empty cache: no-op summary
    code, doc = run_json(["cache", "gc", "--max-bytes", "0",
                          "--cache-dir", str(tmp_path)])
    assert code == 0
    assert doc == {"evicted": [], "kept": 0, "bytes": 0}


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("UNICRIT_CACHE", str(tmp_path))
    code, _ = run_json(["poly", "gleason", "--n", "2", "--h", "3"])
    assert code == 0
    assert len(list(tmp_path.glob("*.json"))) == 1
    monkeypatch.delenv("UNICRIT_CACHE")
    code, doc = run_json(["cache", "stat"])
    assert code == 2  # no cache configured


def test_cache_recomputes_after_eviction(tmp_path):
    args = ["poly", "parabolic", "--n", "2", "--h", "3", "--m", "1",
            "--cache-dir", str(tmp_path)]
    _, out1 = run(args)
    run(["cache", "gc", "--max-bytes", "0", "--cache-dir", str(tmp_path)])
    _, out2 = run(args)
    assert out2 == out1


def _cache_keys(monkeypatch, *calls):
    """The cache key each call derives; handlers look _with_cache up at
    call time, so the stub sees every cached call and builds nothing."""
    keys = []
    monkeypatch.setattr(cli, "_with_cache", lambda ns, key, build: keys.append(key) or {})
    for args in calls:
        assert run(args.split())[0] == 0
    return keys


def test_cache_keys_equal_for_equivalent_spellings(monkeypatch):
    a, b = _cache_keys(monkeypatch, "verify congruences --n 2 --c -2/4 --h 1",
                       "verify congruences --n 2 --c -1/2 --h 1")
    assert a == b
    a, b = _cache_keys(monkeypatch, "poly gleason --n 2 --h 3",
                       "poly gleason --n 2 --h 3 --coord c")
    assert a == b
    a, b = _cache_keys(monkeypatch, "verify sweep thm14 --ns 2,3",
                       "verify sweep thm14 --ns 2,03 --format table")
    assert a == b


def test_sweep_cache_keys_ignore_flags_the_claim_does_not_read(monkeypatch):
    for plain, extra in (
        ("verify sweep thm31 --ns 2", "--degree-cap 60"),
        ("verify sweep thm31 --ns 2", "--r-max 3"),
        ("verify sweep thm14 --ns 2", "--sum-max 3"),
        ("verify sweep thm14 --ns 2", "--gleason-h-max 3"),
    ):
        a, b = _cache_keys(monkeypatch, plain, f"{plain} {extra}")
        assert a == b, extra


def test_cache_keys_differ_per_argument(monkeypatch):
    keys = _cache_keys(
        monkeypatch,
        "poly gleason --n 2 --h 3",
        "poly gleason --n 2 --h 3 --degree-cap 100",
        "poly gleason --n 2 --h 4",
        "poly gleason --n 3 --h 3",
        "poly gleason --n 2 --h 3 --coord b",
        "poly parabolic --n 2 --h 3 --m 1",
        "verify sweep thm14 --ns 2,3",
        "verify sweep thm14 --ns 2",
        "verify sweep thm14 --ns 2,3 --degree-cap 60",
        "verify sweep thm31 --ns 2,3",
        "galois --kind misiurewicz --n 2 --t 1 --h 1 --tau 2",
        "galois --kind misiurewicz --n 2 --t 2 --h 1 --tau 2",
    )
    assert len(set(keys)) == len(keys)


def test_uncached_commands_skip_the_cache(monkeypatch, tmp_path):
    assert _cache_keys(monkeypatch, "ray angles", f"cache stat --cache-dir {tmp_path}") == []
    uncached = {cmd.path for cmd in COMMANDS if not cmd.cached}
    assert uncached == {"poly/transform", "ray/trace", "ray/land", "ray/angles",
                        "cache/gc", "cache/stat"}


def test_command_table_matches_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme.split("Subcommands:", 1)[1].split(".", 1)[0]
    listed = set()
    for group, leaves in re.findall(r"`(\w+)(?: \{([\w|]+)\})?`", listing):
        listed |= {f"{group}/{leaf}" for leaf in leaves.split("|")} if leaves else {group}
    assert {cmd.path for cmd in COMMANDS} == listed


# ---------------------------------------------------------------- surface

def test_usage_errors():
    code, doc = run_json(["bogus"])
    assert (code, doc["error"]["kind"]) == (2, "usage")
    code, doc = run_json(["poly", "gleason", "--h", "3"])  # missing --n
    assert (code, doc["error"]["kind"]) == (2, "usage")
    code, doc = run_json(["verify", "congruences", "--n", "2", "--c", "x",
                          "--h", "1"])
    assert (code, doc["error"]["kind"]) == (2, "usage")


def test_repeat_invocations_byte_identical():
    args = ["verify", "thm31", "--n", "2", "--t", "1", "--h", "2", "--tau", "2"]
    _, out1 = run(args)
    _, out2 = run(args)
    assert out1 == out2


def test_format_table():
    code, out = run(["poly", "gleason", "--n", "2", "--h", "3",
                     "--format", "table"])
    assert code == 0
    assert "c^3" in out and "degree" in out
    code, out = run(["verify", "thm14", "--n", "2", "--h", "1", "--m", "3",
                     "--format", "table"])
    assert code == 0
    assert "witness 0:" in out and "verdict" in out
    code, out = run(["verify", "sweep", "thm14", "--ns", "2", "--r-max", "3",
                     "--format", "table"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "verdict: pass"


def test_truncated_pipe_dies_quietly():
    # payload must overflow the OS pipe buffer so the write hits EPIPE;
    # the process should die at 128+SIGPIPE with no traceback, like grep
    proc = subprocess.Popen(
        [sys.executable, "-m", "unicrit.cli",
         "poly", "iterate", "--n", "2", "--h", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.read(16)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == -signal.SIGPIPE
    assert stderr == b""
