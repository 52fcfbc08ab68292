"""The command-line surface: parsing, formats, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nicfdim.cli import main, parse_alphabet_spec, SpecParseError


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_explicit_and_roundtrip():
    sel = parse_alphabet_spec("-3,3")
    assert sel.letters == (-3, 3)
    assert parse_alphabet_spec(sel.spec_string()).letters == sel.letters


def test_parse_abs_forms():
    sel = parse_alphabet_spec("abs:3..4")
    assert sel.letters == (-3, 3, -4, 4)
    assert parse_alphabet_spec(sel.spec_string()) == sel
    sel = parse_alphabet_spec("absmin:3:100")
    assert sel.is_cofinite and sel.trunc == 100 and sel.tail_min == 101
    assert parse_alphabet_spec(sel.spec_string()) == sel
    assert parse_alphabet_spec(" abs: 3 .. 5 ").letters == (-3, 3, -4, 4, -5, 5)


def test_parse_errors_carry_offsets():
    with pytest.raises(SpecParseError) as err:
        parse_alphabet_spec("3,x7")
    assert "byte 2" in str(err.value)
    with pytest.raises(SpecParseError, match="byte 0"):
        parse_alphabet_spec("abs:2..5")
    with pytest.raises(SpecParseError):
        parse_alphabet_spec("")
    with pytest.raises(SpecParseError):
        parse_alphabet_spec("abs:3..5,7")


def test_nicf_commands(capsys):
    rc, out, _ = run(capsys, "nicf", "expand", "4/11", "--digits", "5")
    assert rc == 0 and json.loads(out) == [3, -4]
    rc, out, _ = run(capsys, "nicf", "singularize", "--rcf", "2,1,3")
    assert rc == 0 and json.loads(out) == [3, -4]
    rc, out, _ = run(capsys, "nicf", "convergents", "-8/21", "--digits", "6")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "p_n", "q_n"]
    assert lines[-1].split() == ["3", "-8", "21"]


def test_dim_command_json(capsys):
    rc, out, _ = run(capsys, "dim", "--alphabet", "-3,3", "--depth", "12",
                     "--tol", "0.05")
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"lo", "hi", "depth"}
    assert payload["lo"] <= payload["hi"] <= 1


def test_dim_exit_indeterminate(capsys):
    rc, out, _ = run(capsys, "dim", "--alphabet", "-3,3", "--depth", "3",
                     "--tol", "0.0001")
    assert rc == 3
    payload = json.loads(out)
    assert payload["hi"] - payload["lo"] > 0.0001


def test_dim_rejects_pm2(capsys):
    rc, _, err = run(capsys, "dim", "--alphabet", "-2,3", "--depth", "4",
                     "--tol", "0.5")
    assert rc == 2 and "|b| >= 3" in err


def test_pressure_csv(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    rc, out, _ = run(capsys, "pressure", "--alphabet", "abs:3..4",
                     "--t-grid", "0.25:0.75:0.25", "--depth", "6",
                     "--csv", str(path))
    assert rc == 0
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t", "pressure_lo", "pressure_hi"]
    assert len(rows) == 4
    for t, lo, hi in rows[1:]:
        assert float(lo) <= float(hi)


def test_pressure_divergent_rows(capsys):
    rc, out, _ = run(capsys, "pressure", "--alphabet", "absmin:3:40",
                     "--t-grid", "0.4:0.6:0.2", "--depth", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1].endswith("inf,inf")
    assert "inf" not in lines[2]


def test_spectrum_command(capsys):
    rc, out, _ = run(capsys, "spectrum", "--target", "0", "--system", "phi_f",
                     "--budget", "4", "--depth", "6")
    assert rc == 0
    payload = json.loads(out)
    assert payload["final_F"] == ["-3"]
    assert payload["achieved"]["lo"] == 0.0


def test_ledger_command(capsys):
    rc, out, _ = run(capsys, "ledger", "--case", "case_esti")
    assert rc == 0 and "case_esti" in out and "holds" in out
    rc, out, _ = run(capsys, "ledger", "--case", "case_letter3", "--json")
    payload = json.loads(out)
    assert payload[0]["verdict"] == "holds"


def test_vertex_letters_command(capsys):
    rc, out, _ = run(capsys, "vertex-letters", "--count", "22")
    letters = json.loads(out)
    assert letters[:4] == ["-3", "3", "-4", "4"]
    assert letters[20:] == ["-5", "5"]


def test_appendix_command(tmp_path, capsys):
    path = tmp_path / "appendix.csv"
    rc, _, _ = run(capsys, "appendix", "--example", "cycle4", "--ratio", "1/3",
                   "--t-grid", "0.125:0.375:0.125", "--csv", str(path))
    assert rc == 0
    rows = list(csv.reader(path.open()))
    assert rows[0][0] == "t" and rows[0][-1] == "consistent"
    assert all(r[-1] == "1" for r in rows[1:])


def test_appendix_ratio_near_one_exits_numeric_range(capsys):
    # the loop families converge at t > 0 (ratio < 1), but the enclosure
    # of ratio**t at t = 1/1000 reaches 1: a range failure, not "inf"
    rc, out, err = run(capsys, "appendix", "--example", "cycle4",
                       "--ratio", "0.99999999999999999999",
                       "--t-grid", "1/1000:1/1000:1")
    assert rc == 4 and out == "" and err.startswith("error:")


def test_outward_csv_rounding(capsys):
    # lower bounds round down, upper bounds round up, as doubles
    from nicfdim.cli import _out_lo, _out_hi
    x = F(1, 3)
    assert F(_out_lo(x)) <= x <= F(_out_hi(x))


def test_threads_flag_identical_output(capsys):
    rc1, out1, _ = run(capsys, "--threads", "1", "dim", "--alphabet", "-3,3",
                       "--depth", "10", "--tol", "0.05")
    rc4, out4, _ = run(capsys, "--threads", "4", "dim", "--alphabet", "-3,3",
                       "--depth", "10", "--tol", "0.05")
    assert rc1 == rc4 and out1 == out4


def test_pressure_depth_is_capped_by_the_word_budget(capsys):
    # 76 letters: depth 4 would walk 33 million words, the cap is depth 2
    grid = ("--alphabet", "abs:3..40", "--t-grid", "0.7:0.7:1")
    rc, out, _ = run(capsys, "pressure", *grid, "--depth", "4")
    assert rc == 0
    rc2, out2, _ = run(capsys, "pressure", *grid, "--depth", "2")
    assert rc2 == 0 and out == out2 and len(out.splitlines()) == 2


def test_dim_overflow_exits_numeric_range(capsys):
    # depth-16 word denominators of digits +-10**12 exceed the double range;
    # a tolerance this fine needs certificates deeper than depth 1
    big = 10 ** 12
    rc, out, err = run(capsys, "dim", f"--alphabet=-{big},{big}", "--depth", "16",
                       "--tol", "0.000001")
    assert rc == 4 and out == "" and err.startswith("error:")


def test_dim_stops_at_the_depth_that_certifies(capsys):
    # at these tolerances every probe of +-10**12 is decided before the
    # ladder reaches depth 16, so the tree that overflows is never walked
    big = 10 ** 12
    root = math.log(2) / (2 * math.log(big))
    for tol in (None, "0.0001"):
        argv = ["dim", f"--alphabet=-{big},{big}", "--depth", "16"]
        rc, out, err = run(capsys, *argv, *(["--tol", tol] if tol else []))
        got = json.loads(out)
        assert rc == 0 and err == ""
        assert got["lo"] <= root <= got["hi"]


def test_pressure_underflow_exits_numeric_range(capsys):
    # Z_1 of digits +-10**150 underflows to 0 in the float lane, at
    # fractional (t = 2.9) and integer (t = 3) exponents alike
    huge = 10 ** 150
    for grid in ("2.9:2.9:1", "3:3:1"):
        rc, _, err = run(capsys, "pressure", f"--alphabet=-{huge},{huge}",
                         "--t-grid", grid, "--depth", "1")
        assert rc == 4 and err.startswith("error:")


def test_pressure_csv_bounds_are_outward(tmp_path, capsys):
    from nicfdim.pressure_dim import DigitIfs, pressure_bounds
    from nicfdim.symbolic import AlphabetSelection
    path = tmp_path / "c.csv"
    rc, _, _ = run(capsys, "pressure", "--alphabet", "-3,3",
                   "--t-grid", "0.5:0.5:0.1", "--depth", "6", "--csv", str(path))
    assert rc == 0
    row = path.read_text().splitlines()[1].split(",")
    pb = pressure_bounds(DigitIfs(AlphabetSelection.explicit([-3, 3])),
                         F(1, 2), 6)
    assert F(float(row[1])) <= pb.lo and pb.hi <= F(float(row[2]))



def cli(*argv):
    """(exit code, stdout, stderr) as the console script would give them:
    argparse errors leave ``main`` through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_bits_is_an_appendix_option():
    # before the subcommand the message says where --bits lives
    rc, out, err = cli("--bits", "64", "dim", "--alphabet", "-3,3")
    assert rc == 2 and out == ""
    assert "--bits" in err and "appendix" in err
    rc, out, err = cli("dim", "--alphabet", "-3,3", "--bits", "64")
    assert rc == 2 and out == "" and "--bits" in err


@pytest.mark.parametrize("bits", ["0", "-1"])
def test_appendix_bits_below_one_rejected(bits):
    rc, out, err = cli("appendix", "--example", "cycle4",
                       "--t-grid", "0.125:0.125:1", "--bits", bits)
    assert rc == 2 and out == ""
    assert "argument --bits" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv, option", [
    (("dim", "--alphabet=-3,3"), "--depth"),
    (("pressure", "--alphabet=-3,3", "--t-grid", "0:1:1"), "--depth"),
    (("spectrum", "--target", "0.3"), "--budget"),
    (("spectrum", "--target", "0.3"), "--depth"),
    (("vertex-letters",), "--count"),
    (("appendix", "--example", "cycle4", "--t-grid", "0:1:1"), "--bits"),
    (("appendix", "--example", "cycle4", "--t-grid", "0:1:1"), "--max-len"),
    (("nicf", "expand", "3/7"), "--digits"),
    (("nicf", "convergents", "3/7"), "--digits"),
])
def test_integer_options_below_one_rejected(argv, option, value):
    # checked when the arguments are parsed, so the message names the option
    rc, out, err = cli(*argv, option, value)
    assert rc == 2 and out == ""
    assert f"argument {option}: " in err


def _appendix_rows(bits):
    rc, out, _ = cli("appendix", "--example", "cycle4", "--bits", bits,
                     "--t-grid", "0.125:0.375:0.125")
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert rows and all(r[-1] == "1" for r in rows)
    # (closed_lo, closed_hi) and (enclosure_lo, enclosure_hi) per row
    return [[(F(r[2]), F(r[3])), (F(r[4]), F(r[5]))] for r in rows]


def test_appendix_bits_nests_the_enclosures():
    coarse, mid, fine = (_appendix_rows(b) for b in ("8", "64", "160"))
    for outer, inner in ((coarse, mid), (mid, fine)):
        assert len(outer) == len(inner)
        for row_o, row_i in zip(outer, inner):
            for (lo_o, hi_o), (lo_i, hi_i) in zip(row_o, row_i):
                assert lo_o <= lo_i <= hi_i <= hi_o
    assert coarse != mid  # the option reaches the output


# 10**12 overflows deep word denominators and 10**150 underflows Z_1
# (exit 4); sizes below 3 are rejected (exit 2)
_DIGIT = st.builds(lambda k, sign: sign * k,
                   st.sampled_from((3, 4, 5, 7, 11, 10 ** 12, 10 ** 150, 2, 1)),
                   st.sampled_from((-1, 1)))
_SPEC = st.one_of(
    st.lists(_DIGIT, min_size=1, max_size=4, unique=True).map(
        lambda ds: ",".join(map(str, ds))),
    st.builds(lambda lo, n: f"abs:{lo}..{lo + n}", st.integers(3, 9),
              st.integers(-1, 2)),
    st.builds(lambda lo, n: f"absmin:{lo}:{lo + n}", st.integers(3, 9),
              st.integers(-1, 5)),
    st.text("0123456789-,:.absmin ", max_size=12),
)


@given(
    cmd=st.sampled_from(["dim", "pressure", "appendix"]),
    spec=_SPEC,
    depth=st.sampled_from((1, 2, 3, 0)),
    grid=st.sampled_from(["0:1:0.5", "0.3:0.9:0.3", "1:2:1", "-1:0:1", "1:0",
                          "0.55:0.55:1"]),
    bits=st.one_of(st.integers(-2, 200).map(str), st.sampled_from(["", "x", "1.5"])),
)
@settings(max_examples=120, derandomize=True, deadline=None)
def test_cli_exit_codes_are_documented(cmd, spec, depth, grid, bits):
    # any exception other than argparse's SystemExit fails the property
    if cmd == "dim":
        argv = ["dim", f"--alphabet={spec}", "--depth", str(depth), "--tol", "0.1"]
    elif cmd == "pressure":
        argv = ["pressure", f"--alphabet={spec}", "--depth", str(depth),
                "--t-grid", grid]
    else:
        argv = ["appendix", "--example", "cycle4",
                "--t-grid", "0.125:0.25:0.125", f"--bits={bits}"]
    rc, _, err = cli(*argv)
    assert rc in (0, 2, 3, 4), (argv, rc, err)


def test_main_reuses_one_parser(monkeypatch):
    # a parse error (exit 2) must leave nothing behind in the shared parser
    from nicfdim import cli as cli_module

    builds = []
    build = cli_module.build_parser

    def counting_build():
        builds.append(1)
        return build()

    cli_module._shared_parser.cache_clear()
    monkeypatch.setattr(cli_module, "build_parser", counting_build)
    argv = ("dim", "--alphabet", "-3,3", "--depth", "8", "--tol", "0.1")
    first = cli(*argv)
    for bad in (("dim", "--alphabet", "-3,3", "--depth", "0"),
                ("--bits", "64", "dim", "--alphabet", "-3,3"),
                ("dim", "--tol", "0.5"),
                ("dim", "--alphabet", "-3,2")):
        assert cli(*bad)[0] == 2
    again = cli(*argv)
    assert len(builds) == 1

    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    fresh = subprocess.run([sys.executable, "-m", "nicfdim.cli", *argv],
                           capture_output=True, text=True, env=env, check=False)
    assert first == again == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert fresh.returncode == 0 and fresh.stdout
