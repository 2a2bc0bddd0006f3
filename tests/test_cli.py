from __future__ import annotations

import concurrent.futures
import hashlib
import io
import json
import os
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padictiles import cli, decide
from padictiles.cli import main
from padictiles.decide import CensusRow, classify_all, spectrum_orthogonality_defect


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_the_parser_is_built_once_and_each_command_reads_its_function_when_it_runs(capsys, monkeypatch):
    assert run(capsys, "is-tile", "--p", "2", "--set", "0,3", "--M", "2")[0] == 0
    assert cli._build_parser() is cli._build_parser()
    seen = []
    monkeypatch.setattr(cli, "is_tile_zmod", lambda ds: seen.append(ds.C))
    monkeypatch.setattr(cli, "verify_tiling_pair", lambda *args: seen.append(args[2]) or 1 / 0)
    assert run(capsys, "is-tile", "--p", "2", "--set", "0,3", "--M", "2") == (2, "not a tile\n", "")
    with pytest.raises(ZeroDivisionError):
        main(["verify-tiling", "--p", "2", "--set", "0,3", "--M", "2", "--elements", "0,2", "--window", "0",
              "--window-exp", "4"])
    assert seen == [(0, 3), 4]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "classify" in out and "verify-tiling" in out


def test_measure(capsys):
    code, out, _ = run(capsys, "measure", "--p", "2", "--set", "0,3", "--M", "2")
    assert code == 0 and out.strip() == "1/2"
    code, obj, _ = run_json(capsys, "measure", "--p", "2", "--set", "[0,3]", "--M", "2")
    assert code == 0 and obj == {"measure": "1/2"}


def test_measure_stdin(capsys, monkeypatch):
    doc = {"p": 2, "v": 0, "M": 2, "digits": [0, 3]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "measure", "--stdin")
    assert code == 0 and out.strip() == "1/2" and err == ""
    # non-canonical input still parses, but says so on stderr
    doc = {"p": 2, "v": 0, "M": 3, "digits": [0, 1, 4, 5]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "measure", "--stdin")
    assert code == 0 and out.strip() == "1/2"
    assert "warning" in err


@pytest.mark.parametrize(
    "command,doc,field",
    [
        ("measure", [1, 2], "JSON object"),
        ("measure", {"p": 2, "v": 0, "M": 2, "digits": 5}, "digits"),
        ("measure", {"p": 2, "v": 0, "digits": [0]}, "field M"),
        ("measure", {"p": 2, "v": 0, "M": 2, "digits": [0, [3]]}, "digits[1]"),
        ("measure", {"p": 2, "v": 0, "M": 2, "digits": [0.9, 3]}, "digits[0]"),
        ("measure", {"p": 2, "v": True, "M": 2, "digits": [0, 3]}, "field v"),
        ("normalize", {"p": 2, "balls": 5}, "balls"),
        ("normalize", {"p": 2, "balls": [{"v": 0, "M": 1}]}, "balls[0].c"),
    ],
)
def test_stdin_document_of_wrong_shape(capsys, monkeypatch, command, doc, field):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, command, "--stdin", "--json")
    assert code == 1 and out == ""
    assert field in err and "Traceback" not in err


def test_measure_bad_digit_list(capsys):
    code, _, err = run(capsys, "measure", "--p", "2", "--set", "0,x", "--M", "2")
    assert code == 1
    assert "--set" in err


@pytest.mark.parametrize("argv", [
    ["measure", "--p", "2", "--M", "2"],
    ["fourier", "--p", "2", "--M", "2", "--xi", "1/4"],
    ["homogeneity", "--p", "2", "--M", "2"],
    ["homogeneity", "--p", "2", "--M", "2", "--declared-frame"],
    ["verify-spectral", "--p", "2", "--M", "2", "--elements", "0,1/8,1/2,5/8", "--window", "3", "--window-exp", "2"],
    ["spectrum-to-tiling", "--p", "2", "--M", "2"],
])
def test_set_dash_reads_stdin_on_every_set_command(capsys, monkeypatch, argv):
    # measure --set - exited 1, as the compact-open-set commands read the dash as a digit list
    for flags in ([], ["--json"]):
        want = run(capsys, *argv, "--set", "0,3", *flags)
        monkeypatch.setattr("sys.stdin", io.StringIO("0,3\n"))
        assert run(capsys, *argv, "--set", "-", *flags) == want
        assert want[0] == 0 and want[1] != "" and want[2] == ""


@pytest.mark.parametrize("argv, name", [
    (["is-tile", "--p", "2", "--set", "[1e400]"], "--set[0]"),  # inf: int() raised OverflowError
    (["is-tile", "--p", "2", "--set", "[0, 1.5]"], "--set[1]"),  # was read as 1
    (["measure", "--p", "2", "--set", "[true]"], "--set[0]"),  # was read as 1
    (["normalize", "--p", "2", "--balls", "0,1,0;[0,1,1.5]"], "--balls[1][2]"),
    # a comma-list entry is named the same way; the whole list was named before
    (["measure", "--p", "2", "--set", "0,1,x"], "--set[2]"),
    (["is-tile", "--p", "2", "--set", "0,,1.5"], "--set[2]"),
    (["scan-zeros", "--p", "2", "--elements", "0", "--window", "0", "--levels", "0,y"], "--levels[1]"),
    (["scan-zeros", "--p", "2", "--elements", "0", "--window", "0", "--levels=a:b"], "--levels: cannot parse range"),
    (["normalize", "--p", "2", "--balls", "0,1,0;0,z,1"], "--balls[1][1]"),
])
def test_json_list_elements_must_be_integers(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert name in err and "Traceback" not in err


def test_normalize(capsys):
    code, obj, _ = run_json(
        capsys, "normalize", "--p", "2", "--balls", "0,2,0;0,2,1;0,2,2;0,2,3"
    )
    assert code == 0
    assert (obj["v"], obj["M"], obj["digits"]) == (0, 0, [0])
    code, out, _ = run(capsys, "normalize", "--p", "3", "--balls", "0,2,3")
    assert code == 0 and out.strip() == "p=3 v=1 M=1 digits=1"
    code, _, err = run(capsys, "normalize", "--p", "2", "--balls", "0,2")
    assert code == 1 and "--balls[0]" in err


def test_normalize_bounds_the_frame_depth_before_expanding(capsys):
    # each ball's expansion to the common frame is checked against 2^18 digits before
    # any is built; a deep ball that needs no expansion stays one digit
    code, out, err = run(capsys, "normalize", "--p", "2", "--balls", "0,0,0;19,0,0")
    assert code == 1 and out == ""
    assert "levels below a ball=19" in err and "262144" in err and "Traceback" not in err
    code, out, _ = run(capsys, "normalize", "--p", "2", "--balls", "0,0,0;18,0,0")
    assert code == 0 and out.strip() == "p=2 v=0 M=0 digits=0"
    code, out, _ = run(capsys, "normalize", "--p", "2", "--balls", "0,40,5")
    assert code == 0 and out.strip() == "p=2 v=0 M=40 digits=5"


# 40 copies of all of Z_2, each of which expanded to 2^18 digits again, then a ball inside them
_NESTED_BALLS = ";".join(["0,0,0"] * 40 + ["0,18,1"])
# 15 disjoint balls of radius 1/2 (v = 0 down to -3, c odd), 2^17 digits each, and one inside them
_DISJOINT_BALLS = ";".join([f"{v},{1 - v},{c}" for v in range(0, -4, -1) for c in range(1, 2 ** (1 - v), 2)]
                           + ["0,18,1"])


def test_normalize_skips_a_ball_inside_one_already_expanded(cli_child):
    # took 12.3 s
    code, out, _, seconds = cli_child.run("normalize", "--p", "2", "--balls", _NESTED_BALLS)
    assert code == 0 and out.strip() == "p=2 v=0 M=0 digits=0" and seconds < 1


def test_normalize_bounds_the_digits_of_all_balls_together(cli_child, capsys):
    # took 3.0 s and 313 MB of RSS to print 56 bytes, about 20 MB per ball
    code, out, err, seconds = cli_child.run("normalize", "--p", "2", "--balls", _DISJOINT_BALLS)
    assert code == 1 and out == "" and "Traceback" not in err and seconds < 1
    assert "limited to 262144 digits in all: p=2, 262144 digits and then a ball of 131072" in err
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "normalize", "--p", "2", "--balls", _DISJOINT_BALLS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 40_000_000  # 22 MB: the 2^18 digits of the first two balls
    # two balls at both limits: 2^18 digits, then one more
    code, out, err, _ = cli_child.run("normalize", "--p", "2", "--balls", "0,2047,1;2029,0,0")
    assert code == 1 and out == "" and "262144 digits and then a ball of 1" in err


def test_normalize_stdin(capsys, monkeypatch):
    doc = {"p": 2, "balls": [{"v": 0, "M": 1, "c": 0}, {"v": 0, "M": 1, "c": 1}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, obj, _ = run_json(capsys, "normalize", "--stdin")
    assert code == 0 and (obj["v"], obj["M"]) == (0, 0)


def test_fourier(capsys):
    code, obj, _ = run_json(
        capsys, "fourier", "--p", "2", "--set", "0,3", "--M", "2", "--xi", "2"
    )
    assert code == 0 and obj["rational"] == "1/2"
    code, obj, _ = run_json(
        capsys, "fourier", "--p", "2", "--set", "0,3", "--M", "2", "--xi", "1/4"
    )
    assert code == 0
    assert obj["rational"] is None
    assert "numeric_hint" in obj
    code, out, _ = run(
        capsys, "fourier", "--p", "2", "--set", "0,3", "--M", "2", "--xi", "1/2"
    )
    assert code == 0 and "0/1" in out


def test_autocorr(capsys):
    code, out, _ = run(
        capsys, "autocorr", "--p", "2", "--set", "0,3", "--M", "2", "--xi", "1"
    )
    assert code == 0 and out.strip() == "1/4"
    code, _, err = run(
        capsys, "autocorr", "--p", "2", "--set", "0,3", "--M", "2", "--xi", "a/b"
    )
    assert code == 1 and "--xi" in err


def test_homogeneity(capsys):
    code, obj, _ = run_json(
        capsys, "homogeneity", "--p", "2", "--set", "0,3", "--M", "2"
    )
    assert code == 0 and obj["is_homogeneous"] and obj["I"] == [0]
    code, _, _ = run(capsys, "homogeneity", "--p", "2", "--set", "0,1,2", "--M", "2")
    assert code == 2
    # the canonical frame of {0,3,6} is a scaled ball (I = []); the declared
    # 3^2 frame keeps the branching level visible
    code, obj, _ = run_json(
        capsys, "homogeneity", "--p", "3", "--set", "0,3,6", "--M", "2"
    )
    assert code == 0 and obj["I"] == []
    code, obj, _ = run_json(
        capsys, "homogeneity", "--p", "3", "--set", "0,3,6", "--M", "2",
        "--declared-frame",
    )
    assert code == 0 and obj["I"] == [1]


def test_homogeneity_takes_a_canonical_frame_past_the_exponent_limit(capsys):
    # v = -2047 and v + M = 2047 are within the 2048-bit limit and M = 4094 is not: the branching
    # set of a canonical frame may not bound M as an exponent
    code, obj, err = run_json(capsys, "homogeneity", "--p", "2", "--v=-2047", "--M", "4094", "--set", "1")
    assert code == 0 and err == "" and obj["is_homogeneous"] and obj["I"] == []


def test_declared_frame_refuses_stdin(capsys, monkeypatch):
    # it read --set with p = None and ended in a TypeError from PrimeContext(None)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"p": 2, "v": 0, "M": 2, "digits": [0, 3]})))
    code, out, err = run(capsys, "homogeneity", "--declared-frame", "--stdin")
    assert code == 1 and out == ""
    assert "--declared-frame" in err and "--stdin" in err and "Traceback" not in err


def test_is_tile(capsys):
    code, obj, _ = run_json(capsys, "is-tile", "--p", "2", "--set", "0,3")
    assert code == 0
    assert obj["witness"] == {
        "kind": "tiling-complement",
        "p": 2,
        "M": 2,
        "elements": [0, 2],
    }
    code, out, _ = run(capsys, "is-tile", "--p", "2", "--set", "0,1,2", "--M", "2")
    assert code == 2 and "not a tile" in out


def test_is_spectral(capsys):
    code, obj, _ = run_json(capsys, "is-spectral", "--p", "2", "--set", "0,3")
    assert code == 0 and obj["witness"]["kind"] == "spectrum"
    assert obj["witness"]["elements"] == [0, 2]
    code, _, _ = run(capsys, "is-spectral", "--p", "3", "--set", "0,1", "--M", "1")
    assert code == 2


def test_constructors(capsys):
    code, obj, _ = run_json(capsys, "make-spectrum", "--p", "2", "--set", "0,3")
    assert code == 0 and obj["I"] == [0] and obj["witness"]["elements"] == [0, 2]
    code, obj, _ = run_json(
        capsys, "make-complement", "--p", "3", "--set", "0,3,6", "--M", "2"
    )
    assert code == 0 and obj["I"] == [1] and obj["witness"]["elements"] == [0, 1, 2]
    code, _, err = run(capsys, "make-spectrum", "--p", "2", "--set", "0,1,2", "--M", "2")
    assert code == 2 and "not p-homogeneous" in err


def test_verify_tiling(capsys):
    ok = ["verify-tiling", "--p", "2", "--set", "0", "--M", "0",
          "--elements", "0,1/4,1/2,3/4", "--window", "2", "--window-exp", "2"]
    code, out, _ = run(capsys, *ok)
    assert code == 0 and out.startswith("Verified")
    bad = ["verify-tiling", "--p", "2", "--set", "0", "--M", "0",
           "--elements", "0,2,1/4,1/2,3/4", "--window", "2", "--window-exp", "0"]
    code, obj, _ = run_json(capsys, *bad)
    assert code == 2 and obj["status"] == "FailedAt"
    assert obj["failure"]["lhs"] == "2/1"
    short = ["verify-tiling", "--p", "2", "--set", "0", "--M", "0",
             "--elements", "0,2", "--window", "0", "--window-exp", "3"]
    code, _, err = run(capsys, *short)
    assert code == 3 and "need" in err


def test_verify_spectral(capsys):
    ok = ["verify-spectral", "--p", "2", "--set", "0", "--M", "0",
          "--elements", "0,1/4,1/2,3/4", "--window", "2", "--window-exp", "2"]
    code, obj, _ = run_json(capsys, *ok)
    assert code == 0 and obj["status"] == "Verified"
    assert obj["derived"]["density"] == "1/1"
    gap = ["verify-spectral", "--p", "2", "--set", "0", "--M", "0",
           "--elements", "0,1/4,1/2", "--window", "2", "--window-exp", "2"]
    code, obj, _ = run_json(capsys, *gap)
    assert code == 2 and obj["status"] == "FailedAt"


def test_spectrum_to_tiling(capsys):
    code, out, _ = run(capsys, "spectrum-to-tiling", "--p", "2", "--set", "0,3", "--M", "2", "--json")
    assert code == 0
    assert out == ('{"U": [0, 2], "report": {"checked_points": 32, "derived": {"I": [0], "J": [1], "card_U": 2, '
                   '"measure": "1/2", "n_f": 2, "spectrum_count_at_n_f": 2}, "failure": null, "kind": "tiling", '
                   '"status": "Verified", "verified_window": {"M": 0, "c": 0, "v": -3}}}\n')
    obj = json.loads(out)
    assert obj["U"] == [0, 2]
    d = obj["report"]["derived"]
    assert d["n_f"] == 2 and d["I"] == [0] and d["J"] == [1]
    assert obj["report"]["status"] == "Verified"
    # handing it the spectrum of Z_2 instead starves U
    code, _, err = run(
        capsys, "spectrum-to-tiling", "--p", "2", "--set", "0,3", "--M", "2",
        "--elements", "0,1/8,1/4,3/8,1/2,5/8,3/4,7/8", "--window", "3",
    )
    assert code == 2 and "1" in err
    # the lift depth is no flag: no output depended on it
    code, out, err = run(capsys, "spectrum-to-tiling", "--p", "2", "--set", "0,3", "--M", "2", "--lift-exp", "3")
    assert code == 1 and out == "" and "unrecognized arguments: --lift-exp 3" in err


def test_spectrum_to_tiling_prints_its_frozen_bytes_on_every_roundtrip_set(roundtrip_sets):
    # the exit code and --json output of each of the 835 sets, in order, frozen when the command still
    # took --lift-exp (default 3): lifting the constructed spectrum at the constant depth 3 changes no byte
    digest = hashlib.sha256()
    for p, M, C in roundtrip_sets:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["spectrum-to-tiling", "--p", str(p), "--M", str(M), "--set", ",".join(map(str, C)), "--json"])
        digest.update(f"{code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == "fa1e8811a2a45551a1db6efc6174716d4701157173b4d914fb39c0980ce863f5"


def test_scan_zeros(capsys):
    code, obj, _ = run_json(
        capsys, "scan-zeros", "--p", "2", "--elements", "0,3", "--window", "0",
        "--levels=-3:0",
    )
    assert code == 0
    assert obj["n_E"] == 0
    assert obj["statuses"] == {
        "-3": "NotInZeroSet",
        "-2": "NotInZeroSet",
        "-1": "InZeroSet",
        "0": "NotInZeroSet",
    }
    code, out, _ = run(
        capsys, "scan-zeros", "--p", "2", "--elements", "7", "--window", "3", "--bound"
    )
    assert code == 0 and "vacuous" in out
    code, _, _ = run(capsys, "scan-zeros", "--p", "2", "--elements", "0,3",
                     "--window", "0")
    assert code == 1  # nothing requested
    code, _, _ = run(capsys, "scan-zeros", "--p", "2", "--elements", "0,3",
                     "--window", "0", "--levels", "1")
    assert code == 3  # sphere beyond the window
    code, _, _ = run(capsys, "scan-zeros", "--p", "2", "--elements", "0,3,1/2",
                     "--window", "1", "--levels=-1")
    assert code == 3  # truncated sum vanished, then revived


def test_density(capsys):
    code, obj, _ = run_json(
        capsys, "density", "--p", "2", "--elements", "0,1,2,3,4,5,6,7",
        "--window", "3", "--k-range=0:3",
    )
    assert code == 0
    assert obj["densities"] == [[0, "8/1"], [1, "4/1"], [2, "2/1"], [3, "1/1"]]
    code, obj, _ = run_json(
        capsys, "density", "--p", "2", "--elements", "0,1/4,1/2,3/4",
        "--window", "2", "--k-range", "2", "--probes", "0,1/2", "--uniformity-n", "1",
    )
    assert code == 0 and obj["uniform"] is True
    code, obj, _ = run_json(
        capsys, "density", "--p", "2", "--elements", "0,1",
        "--window", "2", "--k-range", "0", "--probes", "0", "--uniformity-n", "1",
    )
    assert code == 2 and obj["uniform"] is False
    code, _, err = run(
        capsys, "density", "--p", "2", "--elements", "0,1",
        "--window", "2", "--k-range", "0", "--probes", "0",
    )
    assert code == 1 and "--uniformity-n" in err
    # each human line carried a zero-width space after "Card/"
    code, out, _ = run(capsys, "density", "--p", "2", "--elements", "0,1", "--window", "2", "--k-range=-1:0")
    assert code == 0 and out == "k = -1: Card/p^k = 2/1\nk = 0: Card/p^k = 2/1\n"
    assert "\u200b" not in out


def test_classify_exhaustive(capsys):
    code, obj, _ = run_json(capsys, "classify", "--p", "2", "--M", "2", "--exhaustive")
    assert code == 0
    assert obj["total"] == 15 and obj["positive"] == 11
    assert obj["counts_by_card"] == {"1": 4, "2": 6, "4": 1}
    assert obj["counts_by_I"] == {"": 4, "0": 4, "0,1": 1, "1": 2}


def test_classify_rows_to_stdout(capsys):
    code, out, _ = run(capsys, "classify", "--p", "2", "--M", "2", "--exhaustive",
                       "--out", "-")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15
    rows = [json.loads(line) for line in lines]
    assert all(
        set(row) == {"C", "is_tile", "is_spectral", "is_homogeneous", "I",
                     "witness_T", "witness_Lambda"}
        for row in rows
    )
    assert sum(1 for r in rows if r["is_tile"]) == 11


def test_classify_out_file_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["classify", "--p", "3", "--M", "1", "--exhaustive",
                 "--out", str(a)]) == 0
    capsys.readouterr()
    assert main(["classify", "--p", "3", "--M", "1", "--exhaustive",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 7


def test_classify_with_two_jobs_writes_the_frozen_census(tmp_path, capsys, monkeypatch):
    # the worker pool maps rows in chunks; two workers are allowed on a one-CPU host too
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "c.jsonl"
    assert main(["classify", "--p", "2", "--M", "4", "--exhaustive", "--jobs", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "15204d667b57faf469b84dea8e3dde09c2f1acb74c94417e7e4e8d176fa63fca"


@pytest.mark.parametrize("argv,kwargs", [
    (["--M", "3", "--exhaustive"], dict(M=3, mode="exhaustive")),
    (["--M", "4", "--sample", "300", "--seed", "5"], dict(M=4, mode="sample", sample_size=300, seed=5)),
    (["--M", "3", "--exhaustive", "--jobs", "2"], dict(M=3, mode="exhaustive", jobs=2)),
])
def test_classify_out_file_streams_the_census_rows(tmp_path, capsys, monkeypatch, argv, kwargs):
    # two workers are allowed on a one-CPU host too
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "rows.jsonl"
    assert main(["classify", "--p", "2", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    want = [json.dumps(r.to_json_dict(), sort_keys=True) for r in classify_all(2, **kwargs).rows]
    assert out.read_text().splitlines() == want


@pytest.mark.parametrize("out", ["-", "rows.jsonl"])
@pytest.mark.parametrize("argv", [
    *(["--p", p, "--M", M, "--exhaustive"] for p, M in ("21", "22", "23", "24", "31", "32")),
    ["--p", "3", "--M", "2", "--sample", "60", "--seed", "4"],
])
def test_row_writer_writes_json_dumps_of_each_row(tmp_path, capsys, monkeypatch, argv, out):
    # the rows handed to the writer are kept, so each line is checked against its own row
    rows, writer = [], cli._row_writer

    def recording_writer(stream):
        emit = writer(stream)

        def record(row):
            rows.append(row)
            emit(row)
        return record

    monkeypatch.setattr(cli, "_row_writer", recording_writer)
    path = out if out == "-" else str(tmp_path / out)
    assert main(["classify", *argv, "--out", path]) == 0
    written = capsys.readouterr().out if out == "-" else Path(path).read_bytes().decode()
    assert rows and written == "".join(json.dumps(row.to_json_dict(), sort_keys=True) + "\n" for row in rows)


_INTS = st.one_of(st.none(), st.lists(st.integers(-2**64, 2**64), max_size=5).map(tuple))


@settings(max_examples=300)
@given(C=st.lists(st.integers(0, 2**64), max_size=5).map(tuple), flags=st.tuples(*[st.booleans()] * 3),
       branching=_INTS, witness_T=_INTS, witness_Lambda=_INTS)
def test_row_writer_writes_json_dumps_of_drawn_rows(C, flags, branching, witness_T, witness_Lambda):
    row = CensusRow(C, *flags, branching, witness_T, witness_Lambda)
    out = io.StringIO()
    cli._row_writer(out)(row)
    assert out.getvalue() == json.dumps(row.to_json_dict(), sort_keys=True) + "\n"


def test_classify_out_file_keeps_no_rows(tmp_path, capsys):
    tracemalloc.start()
    try:
        code = main(["classify", "--p", "2", "--M", "4", "--exhaustive",
                     "--out", str(tmp_path / "rows.jsonl")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    # holding all 65,535 rows peaked at about 15 MB
    assert peak < 5_000_000


def test_classify_sample_and_errors(capsys):
    code, obj, _ = run_json(capsys, "classify", "--p", "2", "--M", "3",
                            "--sample", "20", "--seed", "7")
    assert code == 0 and obj["total"] == 20 and obj["mode"] == "sample"
    code, _, err = run(capsys, "classify", "--p", "5", "--M", "1", "--exhaustive")
    assert code == 1 and "exhaustive" in err
    code, _, _ = run(capsys, "classify", "--p", "2", "--M", "2")
    assert code == 1
    code, _, _ = run(capsys, "classify", "--p", "2", "--M", "2", "--exhaustive",
                     "--sample", "4")
    assert code == 1
    # q = p^M past 2^18 is refused before any q-bit mask is built
    code, _, err = run(capsys, "classify", "--p", "2", "--M", "19", "--sample", "1")
    assert code == 1 and "p=2, M=19" in err and "262144" in err and "Traceback" not in err
    code, _, err = run(capsys, "is-tile", "--p", "3", "--M", "12", "--set", "0")
    assert code == 1 and "p=3, M=12" in err and "262144" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", [["--exhaustive"], ["--sample", "1"]])
def test_classify_refuses_a_negative_depth(tmp_path, capsys, mode):
    # both modes passed their scope checks and ended in a TypeError from 1 << 2**-1
    out = tmp_path / "rows.jsonl"
    code, stdout, err = run(capsys, "classify", "--p", "2", "--M=-1", *mode, "--out", str(out))
    assert code == 1 and stdout == "" and "M=-1" in err and "Traceback" not in err
    assert not out.exists()


def _positive(ds):
    return decide.Witness(decide.WitnessKind.TILING_COMPLEMENT, ds.context.p, ds.M, (0,))


@pytest.mark.parametrize("patches, message", [
    ({"is_spectral_zmod": lambda ds: None}, "flags disagree on p=2, M=2, C=(0,)"),
    ({"homogeneous_census_size": lambda p, M, levels, size=decide.homogeneous_census_size: size(p, M, levels) + 1},
     "branching-set census mismatch at I=()"),
    ({"is_tile_zmod": _positive, "is_spectral_zmod": _positive, "_frame_branching_set": lambda p, M, C: frozenset()},
     "positive set with non-p-power size: C=(0, 1, 2)"),
])
def test_a_failed_census_cross_check_exits_2(capsys, monkeypatch, patches, message):
    for name, fn in patches.items():
        monkeypatch.setattr(decide, name, fn)
    code, out, err = run(capsys, "classify", "--p", "2", "--M", "2", "--exhaustive")
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_a_sample_past_the_mask_bit_limit_exits_1_before_drawing(cli_child, tmp_path):
    # every mask was drawn before the first row: 2,000 masks at (2,18) took max RSS from 33 to 90 MB;
    # K = 65 is one mask past 2^24 bits at q = 2^18, so a regression costs 2 MiB, and the child's
    # timeout fails it by name
    out = tmp_path / "rows.jsonl"
    for dest in ("-", str(out)):
        code, stdout, err, seconds = cli_child.run("classify", "--p", "2", "--M", "18", "--sample", "65",
                                                   "--out", dest)
        assert code == 1 and stdout == "" and seconds < 1 and "Traceback" not in err
        assert "K=65, p=2, M=18" in err and "16777216" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["is-tile", "is-spectral"])
@pytest.mark.parametrize("p", ["2", "3"])
def test_deciders_refuse_a_huge_depth_at_once(capsys, command, p):
    # the level loop ran before any limit and formed p^(M-j) for every j
    start = time.perf_counter()
    code, _, err = run(capsys, command, "--p", p, "--M", "100000", "--set", "0,1")
    assert time.perf_counter() - start < 1
    assert code == 1 and f"p={p}, M=100000" in err and "262144" in err and "Traceback" not in err


def test_is_spectral_reads_a_large_set_from_stdin(capsys, monkeypatch):
    # all of Z/2^18 as a comma list is about 1.6 MB, past the 128 KiB cap on one argument
    monkeypatch.setattr("sys.stdin", io.StringIO(",".join(map(str, range(2**18)))))
    code, obj, err = run_json(capsys, "is-spectral", "--p", "2", "--M", "18", "--set", "-")
    assert code == 0 and err == ""
    assert obj["is_spectral"] and obj["witness"]["elements"] == list(range(2**18))
    monkeypatch.setattr("sys.stdin", io.StringIO("0,1\n"))
    code, obj, _ = run_json(capsys, "is-tile", "--p", "2", "--M", "2", "--set", "-")
    assert code == 0 and obj["witness"]["elements"] == [0, 2]


@pytest.mark.parametrize("command", ["verify-spectral", "spectrum-to-tiling"])
def test_a_dense_set_exits_1_before_its_digit_differences(cli_child, command):
    # 2^16 digits make 2^32 differences: at the rate of 2,048 digits, about 6 and 10 minutes
    digits = ",".join(map(str, range(0, 3 * 2**16, 3)))
    code, out, err, seconds = cli_child.run(command, "--p", "2", "--M", "18", "--set", digits,
                                            "--elements", "0", "--window", "18", "--window-exp", "0")
    assert code == 1 and out == "" and "|D| = 65536" in err and "Traceback" not in err
    assert seconds < 1


@pytest.mark.parametrize("argv, names", [
    (["verify-tiling", "--p", "2", "--set", "0", "--elements", "0", "--window", "19",
      "--window-exp", "19"], "window_exp=19"),
    (["verify-spectral", "--p", "2", "--set", "0", "--elements", "0", "--window", "19",
      "--window-exp", "19"], "window_exp=19"),
    (["density", "--p", "2", "--elements", "0", "--window", "0", "--k-range=-262144:0"], "--k-range"),
    (["scan-zeros", "--p", "2", "--elements", "0", "--window", "0", "--levels=-262144:0"], "--levels"),
    (["spectrum-to-tiling", "--p", "2", "--set", "0", "--M", "19"], "levels=19, q = 2^19"),
    (["make-complement", "--p", "2", "--set", "0", "--M", "19"], "levels=19, q = 2^19"),
])
def test_window_sizes_past_the_limit_exit_1_at_once(capsys, argv, names):
    # the first value past q = 2^18 elements, cells, representatives or levels
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, *argv)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == "" and names in err and "262144" in err and "Traceback" not in err
    assert took < 0.5 and peak < 1_000_000


@pytest.mark.parametrize("argv, names", [
    (["is-tile", "--p", "3", "--set", "0", "--M", "100000000"], "M=100000000, q = 3^100000000 > 262144"),
    (["homogeneity", "--p", "3", "--set", "0", "--M", "100000000", "--declared-frame"], "p=3, M=100000000"),
    (["make-spectrum", "--p", "3", "--set", "0", "--M", "100000000"], "p=3, M=100000000"),
    (["measure", "--p", "3", "--set", "1", "--v", "-100000000"], "p=3, v=-100000000"),
    (["scan-zeros", "--p", "3", "--elements", "0", "--window", "100000000", "--levels", "0"],
     "p=3, window=100000000"),
    (["autocorr", "--p", "2", "--set", "0", "--M", "100000", "--xi", "1"], "p=2, v + M=100000"),
    (["measure", "--p", "2", "--set", "0", "--M", "20000"], "p=2, v + M=20000"),
    (["normalize", "--p", "3", "--balls", "0,100000000,1"], "p=3, M=100000000"),
    (["density", "--p", "3", "--elements", "0", "--window", "0", "--k-range", "0", "--probes", "0",
      "--uniformity-n=-100000000"], "p=3, depth=100000000"),
])
def test_huge_exponent_flags_exit_1_at_once(cli_child, argv, names):
    # each ran past an 8 s timeout: p**M, p**v or p**window was formed, or a frame reduced
    # one level at a time; measure --M 20000 ended in Python's int-to-str "Exceeds the limit"
    code, out, err, seconds = cli_child.run(*argv)
    assert seconds < 1
    assert code == 1 and out == "" and names in err and "Traceback" not in err
    assert "262144" in err if argv[0] == "is-tile" else "of at most 2048 bits" in err


def test_an_element_outside_the_window_exits_3_naming_its_position(cli_child):
    # the message printed the element, about 4,000 digits
    code, out, err, _ = cli_child.run("scan-zeros", "--p", "2", "--elements", f"1/{2**13000}", "--window", "0",
                                      "--levels", "0")
    assert code == 3 and out == "" and len(err) < 200
    assert err == "error: element 0 lies outside the window B(0, p**0)\n"


def test_a_density_center_outside_the_window_exits_3_naming_k_and_the_window(cli_child):
    # the message printed the center, 4,280 bytes
    code, out, err, _ = cli_child.run("density", "--p", "2", "--elements", "0,3", "--window", "0", "--k-range=-2:0",
                                      "--x0", f"1/{2**14000}")
    assert code == 3 and out == "" and len(err) < 200
    assert err == "error: the ball of radius p**-2 about x0 is not contained in the window B(0, p**0)\n"


def test_the_numeric_guard_takes_every_depth_the_exact_recheck_admits(cli_child):
    # ended in an OverflowError traceback: the guard's angle step 2j * pi / n has no float past n = 2^1023
    code, out, err, _ = cli_child.run("make-spectrum", "--p", "2", "--M", "1024", "--set", f"0,{2**1023}")
    assert code == 0 and out == "spectrum = {0, 1} (I = [1023])\n" and "Traceback" not in err
    assert spectrum_orthogonality_defect(2, 1024, [0, 2**1023], [0, 1]) < 1e-9
    assert spectrum_orthogonality_defect(2, 2047, [0, 2**2046], [0, 1]) < 1e-9
    assert spectrum_orthogonality_defect(2, 1024, [0, 2**1022], [0, 1]) == pytest.approx(2**0.5)


def test_a_huge_negative_window_exp_needs_one_representative(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify-spectral", "--p", "3", "--set", "0", "--elements", "0",
                       "--window", "0", "--window-exp=-100000000")
    assert time.perf_counter() - start < 1
    assert code == 0 and "(1 cells)" in out


@pytest.mark.parametrize("argv, flag, at, past, names", [
    (["measure", "--p", "2", "--set", "0"], "--M", "2047", "2048", "v + M=2048"),
    (["measure", "--p", "3", "--set", "1"], "--v", "-1292", "-1293", "v=-1293"),
    (["homogeneity", "--p", "2", "--set", "0", "--declared-frame"], "--M", "2047", "2048", "M=2048"),
    (["make-spectrum", "--p", "3", "--set", "0"], "--M", "1292", "1293", "M=1293"),
    (["normalize", "--p", "2"], "--balls", "0,2047,1", "0,2048,1", "M=2048"),
    (["scan-zeros", "--p", "2", "--elements", "0", "--levels", "0"], "--window", "2047", "2048",
     "window=2048"),
    (["scan-zeros", "--p", "2", "--elements", "0,3", "--window", "0"], "--levels", "-2047:0", "-2048:0",
     "window 0 down to level -2048 is limited to p^|depth| of at most 2048 bits: p=2, depth=2048"),
    (["density", "--p", "2", "--elements", "0,3", "--window", "0"], "--k-range", "-2047:0", "-2048:0",
     "window 0 down to k = -2048 is limited to p^|depth| of at most 2048 bits: p=2, depth=2048"),
])
def test_exponents_at_and_past_the_bit_limit(capsys, argv, flag, at, past, names):
    # 2^2047 and 3^1292 have 2048 bits, 2^2048 and 3^1293 more
    code, _, err = run(capsys, *argv, f"{flag}={at}")
    assert code == 0 and err == ""
    code, out, err = run(capsys, *argv, f"{flag}={past}")
    assert code == 1 and out == "" and names in err and "2048 bits" in err and "Traceback" not in err


class _NoPool:
    def __init__(self, max_workers):
        raise AssertionError("a worker pool was started")


@pytest.mark.parametrize("command", [["classify", "--p", "2", "--M", "2", "--exhaustive"], ["gallery"]])
@pytest.mark.parametrize("jobs", ["0", "3"])
def test_jobs_past_the_cpu_count_exit_1(tmp_path, capsys, monkeypatch, command, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # decide imports the pool class from concurrent.futures only when jobs > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    if command == ["gallery"]:
        command = ["gallery", "--out", str(tmp_path / "g")]
    code, out, err = run(capsys, *command, "--jobs", jobs)
    assert code == 1 and out == ""
    assert f"--jobs must be between 1 and os.cpu_count() = 2; got {jobs}" in err
    assert not (tmp_path / "g").exists()  # --jobs is refused before --out is made


def test_gallery(tmp_path, capsys):
    out = tmp_path / "gallery"
    assert main(["gallery", "--out", str(out)]) == 0
    listing = capsys.readouterr().out.strip().splitlines()
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "census_p2_M1.jsonl",
        "census_p2_M2.jsonl",
        "census_p2_M3.jsonl",
        "census_p2_M4.jsonl",
        "census_p3_M1.jsonl",
        "census_p3_M2.jsonl",
        "pipelines.jsonl",
        "summary.md",
    ]
    assert len(listing) == 8
    assert len((out / "census_p2_M2.jsonl").read_text().splitlines()) == 15
    assert len((out / "census_p3_M2.jsonl").read_text().splitlines()) == 511
    pipes = [json.loads(s) for s in (out / "pipelines.jsonl").read_text().splitlines()]
    assert len(pipes) == 3
    assert all(row["tiling_report"]["status"] == "Verified" for row in pipes)
    assert all(row["spectral_report"]["status"] == "Verified" for row in pipes)
    assert "| Verified | Verified |" in (out / "summary.md").read_text()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # byte-for-byte output of the seed code
    assert {
        name: hashlib.sha256(before[name]).hexdigest()
        for name in names
    } == {
        "census_p2_M1.jsonl": "2c7f015a504fac83c08cf84a76c9b65b82d2fb5fa1819d1cdfb4df71b3d00d89",
        "census_p2_M2.jsonl": "e10f6950db0cef7a0b29d840886b14e7fc48d33f24e78f4973bbbe7035cd0fb0",
        "census_p2_M3.jsonl": "1b7a200676bd3db2c7c843070f6ff8727a6dc900687e53dddeab0277059c0d93",
        "census_p2_M4.jsonl": "15204d667b57faf469b84dea8e3dde09c2f1acb74c94417e7e4e8d176fa63fca",
        "census_p3_M1.jsonl": "0f65aa62991efc39e5692089c9a61184d3899bb92775443c0a0d7e6423e8f376",
        "census_p3_M2.jsonl": "1f54604ab2d269bcabac46315435673e6f57b3017da947dee233209d2339b25d",
        "pipelines.jsonl": "e38c1c16402d47428479b5b60e546aa55608f3a452925da2fef972fda8eefab9",
        "summary.md": "494c7fba826f4351406feb61c99be615b4813519ba3dd41948eaf9373d322dcd",
    }
    assert main(["gallery", "--out", str(out)]) == 0
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_gallery_unwritable_path(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _, err = run(capsys, "gallery", "--out", str(blocker / "sub"))
    assert code == 1 and err != ""


def test_negative_flag_values_need_equals_syntax(capsys):
    # argparse reads a bare "-3:0" as a flag; the documented form is --levels=-3:0
    code, _, _ = run(capsys, "scan-zeros", "--p", "2", "--elements", "0,3",
                     "--window", "0", "--levels", "-3:0")
    assert code == 1


# One element of an integer-list flag: an int small enough that no command builds much
# (a --balls triple of such ints spans at most p^9 digits), or a value that must be refused.
_TOKENS = st.one_of(
    st.integers(-1, 4).map(str),
    st.floats().map(json.dumps),
    st.sampled_from(["1e400", "-1e400", "true", "false", "null"]),
    st.text(max_size=3).map(json.dumps),
    st.lists(st.integers(-1, 4), max_size=2).map(json.dumps),
)


@st.composite
def _int_list_flag(draw):
    """A comma list or a JSON array of drawn tokens."""
    tokens = draw(st.lists(_TOKENS, max_size=4))
    return "[" + ", ".join(tokens) + "]" if draw(st.booleans()) else ",".join(tokens)


@settings(max_examples=200, deadline=2000)
@given(
    command=st.sampled_from(["measure", "homogeneity", "is-tile", "make-spectrum", "normalize"]),
    p=st.sampled_from([2, 3, None]),
    M=st.integers(-1, 4),
    values=st.lists(_int_list_flag(), min_size=1, max_size=2),
    extra=st.lists(st.sampled_from(["--stdin", "--declared-frame", "--json"]), unique=True),
)
@example(command="is-tile", p=2, M=2, values=["[1e400]"], extra=[])
@example(command="homogeneity", p=None, M=2, values=["[0, 3]"], extra=["--declared-frame", "--stdin"])
@example(command="is-tile", p=2, M=2, values=["[" * 100000], extra=[])
@example(command="measure", p=2, M=2, values=["[" * 100000], extra=["--stdin"])
def test_fuzz_integer_list_flags_exit_cleanly(command, p, M, values, extra):
    # p=None leaves --p out; --stdin reads a document whose digits are the same list
    argv = [command, *(["--p", str(p)] if p else [])]
    if command == "normalize":
        argv += ["--balls", ";".join(values)]
    else:
        argv += ["--set", values[0], "--M", str(M)]
    doc = f'{{"p": {p or 2}, "v": 0, "M": {M}, "digits": {values[0]}}}'
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(doc)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv + extra)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# An exponent flag: a small value, one at or just past the 2048-bit limit for p = 3 or 2, or anything
# up to 10^8 in size
_EXPONENT = st.one_of(st.integers(-4, 4), st.sampled_from([1292, 1293, 2047, 2048]),
                      st.integers(-10**8, 10**8))


@st.composite
def _exponent_argv(draw):
    """A command with drawn --M, --v, --window, A:B --levels or --k-range, or --balls triples."""
    command = draw(st.sampled_from(["measure", "autocorr", "homogeneity", "make-spectrum", "scan-zeros",
                                    "density", "normalize"]))
    argv = [command, "--p", str(draw(st.sampled_from([2, 3])))]
    M, v, window, lo, hi = (str(draw(_EXPONENT)) for _ in range(5))
    if command == "normalize":
        triples = draw(st.lists(st.tuples(_EXPONENT, _EXPONENT, st.integers(-10, 10**9)),
                                min_size=1, max_size=2))
        return argv + ["--balls", ";".join(",".join(map(str, t)) for t in triples)]
    if command in ("scan-zeros", "density"):
        levels = f"{lo}:{hi}" if draw(st.booleans()) else lo
        flag = "--levels" if command == "scan-zeros" else "--k-range"
        argv += ["--elements", "0,1/3,7", f"--window={window}", f"{flag}={levels}"]
        return argv + (["--bound"] if command == "scan-zeros" and draw(st.booleans()) else [])
    argv += ["--set", "0,1", f"--M={M}"] + ([f"--v={v}"] if command != "make-spectrum" else [])
    if command == "homogeneity" and draw(st.booleans()):
        argv.append("--declared-frame")
    return argv + (["--xi", "1/3"] if command == "autocorr" else [])


@settings(max_examples=200, deadline=2000)
@given(argv=_exponent_argv())
@example(argv=["is-tile", "--p", "3", "--set", "0", "--M", "100000000"])
@example(argv=["homogeneity", "--p", "3", "--set", "0", "--M", "100000000", "--declared-frame"])
@example(argv=["make-spectrum", "--p", "3", "--set", "0", "--M", "100000000"])
@example(argv=["measure", "--p", "3", "--set", "1", "--v", "-100000000"])
@example(argv=["scan-zeros", "--p", "3", "--elements", "0", "--window", "100000000", "--levels", "0"])
@example(argv=["autocorr", "--p", "2", "--set", "0", "--M", "100000", "--xi", "1"])
@example(argv=["scan-zeros", "--p", "2", "--elements", "0,3", "--window", "0", "--levels=-20000:0"])
@example(argv=["normalize", "--p", "3", "--balls", "0,100000000,1"])
@example(argv=["make-spectrum", "--p", "2", "--M", "1024", "--set", f"0,{2**1023}"])
def test_fuzz_exponent_flags_exit_cleanly(cli_child, argv):
    code, _, err, _ = cli_child.run(*argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# One element of a rational-list or rational flag: a small rational, a power of p of up to 4,215
# digits (2^14000) as a numerator or a denominator, 5,000 digits (past Python's 4,300-digit limit
# on reading an integer), or text that must be refused
_RATIONAL = st.one_of(
    st.fractions(-20, 20, max_denominator=30).map(str),
    st.builds(lambda a, pe, inv: f"{a}/{pe[0] ** pe[1]}" if inv else f"{a * pe[0] ** pe[1]}",
              st.integers(-3, 3), st.sampled_from([(2, 40), (3, 40), (2, 2048), (3, 1292), (3, 8000),
                                                   (2, 14000)]), st.booleans()),
    st.sampled_from(["1/0", "x", "1e400", "-1e400", "nan", "inf", "1.5", "", "1/" + "9" * 5000, "[1, 2]",
                     '["1/2", 3]', "[[1]]", "[true]", "[1e400]", "[" * 10000]),
)


@st.composite
def _rational_list_flag(draw):
    """A comma list or a JSON array of drawn tokens."""
    tokens = draw(st.lists(_RATIONAL, max_size=4))
    return "[" + ", ".join(json.dumps(t) for t in tokens) + "]" if draw(st.booleans()) else ",".join(tokens)


@st.composite
def _rational_argv(draw):
    """A command with drawn --elements, --probes, --xi, --x0 or --window-exp, and --M and --v of fourier and
    autocorr."""
    command = draw(st.sampled_from(["fourier", "autocorr", "density", "scan-zeros", "verify-tiling",
                                    "verify-spectral", "spectrum-to-tiling"]))
    argv = [command, "--p", str(draw(st.sampled_from([2, 3])))]
    small = st.integers(-3, 4).map(str)
    if command in ("fourier", "autocorr"):
        return argv + ["--set", "0,1", f"--M={draw(_EXPONENT)}", f"--v={draw(_EXPONENT)}",
                       f"--xi={draw(_RATIONAL)}"]
    truncation = [f"--elements={draw(_rational_list_flag())}",
                  f"--window={draw(st.one_of(small, _EXPONENT.map(str)))}"]
    if command == "density":
        argv += truncation + [f"--k-range={draw(small)}:{draw(small)}", f"--x0={draw(_RATIONAL)}"]
        if draw(st.booleans()):
            argv += [f"--probes={draw(_rational_list_flag())}", f"--uniformity-n={draw(small)}"]
        return argv
    if command == "scan-zeros":
        return argv + truncation + [f"--levels={draw(small)}:{draw(small)}"]
    argv += ["--set", draw(st.sampled_from(["0", "0,3", "0,1,4,5"])), f"--M={draw(small)}",
             f"--window-exp={draw(_EXPONENT)}"]
    if command == "spectrum-to-tiling" and draw(st.booleans()):  # without --elements it lifts the constructed spectrum
        return argv
    return argv + truncation


_HUGE = "1/" + str(2**14000)  # 4,215 digits

# Past the float range: a root of order 2^1100 under the scale 2^-1100, where the float step j / q
# raised OverflowError; the scale 2^1099 of a zero value; and a failure whose irrational left side
# carries the scale 2^1194, where float(p**power) raised.  Each: argv, exit code, numeric hint
_PAST_THE_FLOAT_RANGE = [
    (["fourier", "--p", "2", "--set", "1", "--M", "1100", "--xi", f"1/{2**1100}"], 0,
     "+0.000000000000e+00-0.000000000000e+00i"),
    (["fourier", "--p", "2", "--set", "1", "--v", "-1100", "--M", "1", "--xi", "1/3"], 0,
     "+0.000000000000e+00+0.000000000000e+00i"),
    (["verify-spectral", "--p", "2", "--set", "0,1,2", "--v", "-600", "--M", "3", "--elements", "0",
      "--window", "-597", "--window-exp", "-597"], 2, "(inf-infj)"),
]


@settings(max_examples=200, deadline=2000)
@given(argv=_rational_argv())
@example(argv=["fourier", "--p", "2", "--set", "0,1", "--M", "2", "--xi", _HUGE])
@example(argv=["autocorr", "--p", "2", "--set", "0,1", "--M", "2", "--xi", _HUGE])
@example(argv=["density", "--p", "2", "--elements", "0,3", "--window", "0", "--k-range=-2:0", "--x0", _HUGE])
@example(argv=["density", "--p", "2", "--elements", "0,3", "--window", "0", "--k-range=-2:0",
               "--probes", _HUGE, "--uniformity-n=-1"])
@example(argv=["scan-zeros", "--p", "2", "--elements", _HUGE, "--window", "0", "--levels=-2:0"])
@example(argv=["verify-spectral", "--p", "3", "--set", "0", "--elements", "0", "--window", "0",
               "--window-exp=-100000"])
@example(argv=["verify-tiling", "--p", "3", "--set", "0", "--elements", "0", "--window", "0",
               "--window-exp=-100000"])
@example(argv=["spectrum-to-tiling", "--p", "2", "--set", "0", "--M", "0", "--window-exp", str(10**12)])
@example(argv=_PAST_THE_FLOAT_RANGE[0][0])
@example(argv=_PAST_THE_FLOAT_RANGE[1][0])
@example(argv=_PAST_THE_FLOAT_RANGE[2][0])
def test_fuzz_rational_and_window_flags_exit_cleanly(cli_child, argv):
    code, _, err, _ = cli_child.run(*argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,want,hint", _PAST_THE_FLOAT_RANGE + [
    # the float step j / q overflowed to inf inside the angle and read +nan+nani
    (["fourier", "--p", "2", "--set", "1", "--M", "1023", "--xi", f"1/{2**1023}"], 0,
     "+1.112536929254e-308-4.940656458412e-324i"),
])
def test_numeric_hints_past_the_float_range_are_floats_not_a_traceback(capsys, argv, want, hint):
    code, out, err = run(capsys, *argv, "--json")
    assert code == want and err == ""
    obj = json.loads(out)
    assert (obj["numeric_hint"] if want == 0 else obj["failure"]["lhs"]["numeric_hint"]) == hint
