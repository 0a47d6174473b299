"""Command-line interface: parsing, output schemas, exit statuses."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import whitadd
from helpers import GOLDEN_DIR, rel
from whitadd.cli import (EVAL_FUNCTIONS, IDENTITIES, UsageError, encode_value, fmt_value,
                         main, parse_point, parse_scalar)
from whitadd.golden import GROUPS
from whitadd.green import (CoulombParams, SphericalPoint, diagonal_density, hostler_green,
                           partial_wave_green, projection_kernel, radial_distribution)
from whitadd.special_core import (bessel_modified, gegenbauer_c, kummer_m, kummer_u, laguerre,
                                  legendre_p, spherical_harmonic, whittaker_m, whittaker_w)
from whitadd.summation import SeriesOptions

pytestmark = pytest.mark.usefixtures("no_env_digits")


@pytest.fixture(autouse=True)
def no_env_digits(monkeypatch):
    monkeypatch.delenv("WHITADD_DIGITS", raising=False)


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# --- scalar grammar --------------------------------------------------------------

def test_parse_scalar_forms():
    assert parse_scalar("pi") == math.pi
    assert parse_scalar("-pi") == -math.pi
    assert parse_scalar("2pi") == 2 * math.pi
    assert parse_scalar("pi/3") == math.pi / 3
    assert parse_scalar("1.5pi/3") == math.pi / 2
    assert parse_scalar("42") == 42 and isinstance(parse_scalar("42"), int)
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("2.5") == 2.5
    assert parse_scalar("1+2j") == 1 + 2j
    with pytest.raises(UsageError):
        parse_scalar("abc")
    with pytest.raises(UsageError):
        parse_scalar("")


def test_parse_point():
    pt = parse_point("3,0.4,0.0")
    assert (pt.r, pt.theta, pt.phi) == (3.0, 0.4, 0.0)
    with pytest.raises(UsageError):
        parse_point("3,0.4")


# --- eval ------------------------------------------------------------------------

def test_eval_whittaker_w(capsys):
    rc, out, _ = run(["eval", "whittaker_w", "--kappa", "0", "--mu", "0.5",
                      "--r", "3"], capsys)
    assert rc == 0
    assert "= 0.2231301601" in out


def test_eval_legendre(capsys):
    rc, out, _ = run(["eval", "legendre", "--l", "2", "--x", "0.5"], capsys)
    assert rc == 0 and "= -0.125" in out


def test_eval_hostler_json_value_encoding(capsys):
    rc, out, _ = run(["eval", "hostler", "--g", "1", "--k", "0.7",
                      "--p", "3,0.4,0.0", "--p0", "1.2,2.2,5.1", "--json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == 2
    assert payload["command"] == "eval" and payload["function"] == "hostler"
    want = hostler_green(CoulombParams(1.0, 0.7),
                         SphericalPoint(3.0, 0.4, 0.0),
                         SphericalPoint(1.2, 2.2, 5.1))
    # 17 significant digits: value strings round-trip doubles exactly
    assert payload["value"]["re"] == format(want, ".17g")
    assert float(payload["value"]["re"]) == want


def test_eval_partial_wave_reports_diagnostics(capsys):
    rc, out, _ = run(["eval", "partial_wave", "--g", "1", "--k", "0.7",
                      "--p", "2,1.1,0.7", "--p0", "1,2,4", "--json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["n_terms"] > 3
    assert payload["condition_number"] >= 1.0
    assert payload["tail_estimate"] >= 0.0


_P, _P0 = SphericalPoint(2.0, 1.1, 0.7), SphericalPoint(1.0, 2.0, 4.0)
_POINTS = "--g 1 --k 0.7 --p 2,1.1,0.7 --p0 1,2,4"

# eval function -> (its flags, the library call they stand for)
EVAL_CASES = {
    "whittaker_m": ("--kappa 0.3 --mu 0.5 --r 2", lambda: whittaker_m((0.3, 0.5), 2)),
    "whittaker_w": ("--kappa 0.3 --mu 1.5 --r 3 --deriv",
                    lambda: whittaker_w((0.3, 1.5), 3, deriv=True)),
    "kummer_m": ("--a 0.5 --b 1.5 --z 2", lambda: kummer_m(0.5, 1.5, 2)),
    "kummer_u": ("--a 0.5 --b 1.5 --z 2", lambda: kummer_u(0.5, 1.5, 2)),
    "legendre": ("--l 3 --m 1 --x 0.5", lambda: legendre_p(3, 1, 0.5)),
    "gegenbauer": ("--l 3 --mu 0.7 --x 0.4", lambda: gegenbauer_c(3, 0.7, 0.4)),
    "laguerre": ("--n 4 --alpha 1/2 --x 6/5",
                 lambda: laguerre(4, Fraction(1, 2), Fraction(6, 5))),
    "spherical_harmonic": ("--l 2 --m 1 --theta 0.4 --phi 1.1",
                           lambda: spherical_harmonic(2, 1, 0.4, 1.1)),
    "bessel_i": ("--nu 1 --z 2", lambda: bessel_modified(1, 2, "I")),
    "bessel_k": ("--nu 1 --z 2", lambda: bessel_modified(1, 2, "K")),
    "hostler": (_POINTS, lambda: hostler_green(CoulombParams(1.0, 0.7), _P, _P0)),
    "partial_wave": (_POINTS, lambda: partial_wave_green(CoulombParams(1.0, 0.7), _P, _P0).value),
    "projection": ("--n 2 --g 1 --p 2,1.1,0.7 --p0 1,2,4 --method eigen_sum",
                   lambda: projection_kernel(2, 1.0, _P, _P0, method="eigen_sum")),
    "density": ("--n 2 --g 1 --r 1.5", lambda: diagonal_density(2, 1.0, 1.5)),
    "radial_density": ("--n 2 --g 1 --r 1.5", lambda: radial_distribution(2, 1.0, 1.5)),
}


@pytest.mark.parametrize("function", sorted(EVAL_FUNCTIONS))
def test_eval_every_function_matches_the_library(function, capsys):
    flags, call = EVAL_CASES[function]
    rc, out, _ = run(["eval", function, *flags.split(), "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["value"] == encode_value(call())


@pytest.mark.parametrize("function", sorted(EVAL_FUNCTIONS))
def test_eval_every_function_prints_its_value(function, capsys):
    # the human output echoes every flag, projection's --method string included
    flags, call = EVAL_CASES[function]
    rc, out, err = run(["eval", function, *flags.split()], capsys)
    assert rc == 0 and err == ""
    assert out.splitlines()[0].endswith(f" = {fmt_value(call())}")


def test_eval_refuses_flags_the_function_does_not_take(capsys):
    rc, out, err = run(["eval", "legendre", "--l", "2", "--x", "0.5", "--kappa", "3"], capsys)
    assert rc == 2 and out == ""
    assert err == "error: legendre does not take --kappa\n"


def test_eval_missing_argument(capsys):
    rc, _, err = run(["eval", "whittaker_w", "--kappa", "0"], capsys)
    assert rc == 2 and "error" in err


def test_eval_digits_below_extended_floor(capsys):
    rc, _, err = run(["eval", "kummer_m", "--a", "1", "--b", "2", "--z", "1",
                      "--digits", "10"], capsys)
    assert rc == 2 and "error" in err


def test_eval_env_digits(monkeypatch, capsys):
    monkeypatch.setenv("WHITADD_DIGITS", "40")
    rc, out, _ = run(["eval", "kummer_m", "--a", "0.5", "--b", "1.5",
                      "--z", "2", "--json"], capsys)
    assert rc == 0 and json.loads(out)["digits"] == 40
    # an explicit flag beats the environment
    rc, out, _ = run(["eval", "kummer_m", "--a", "0.5", "--b", "1.5",
                      "--z", "2", "--digits", "35", "--json"], capsys)
    assert json.loads(out)["digits"] == 35


# --- verify ------------------------------------------------------------------------

def test_verify_list(capsys):
    rc, out, _ = run(["verify", "--list"], capsys)
    assert rc == 0
    for name in ("whittaker_addition", "lemma_binomial", "pi_addition", "delta_sum"):
        assert name in out


def test_closed_stdout_pipe_exits_quietly():
    # the reader is gone before the first write, as in `whitadd ... | head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [str(Path(whitadd.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run([sys.executable, "-m", "whitadd.cli", "verify", "--list"],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write_end)
    assert proc.returncode == 141  # 128 + SIGPIPE
    assert proc.stderr == b""


def test_every_verifier_reports_its_precision():
    # the first grid point of every identity with a residual threshold
    for name, entry in IDENTITIES.items():
        if entry.threshold is None:
            continue
        pt = {param: entry.grid[param][0] for param in entry.params}
        rep = entry.run(pt, SeriesOptions())
        assert rep.precision == "hardware" or (
            rep.precision[0] == "extended" and rep.precision[1] >= 30), name


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_verify_prints_every_identity_at_its_default_grid(name, capsys):
    # one human row per grid point, string parameters (laguerre_symmetric's
    # variant) printed as they are
    entry = IDENTITIES[name]
    points = math.prod(len(entry.grid[param]) for param in entry.params)
    rc, out, err = run(["verify", name], capsys)
    assert rc == 0 and err == ""
    assert out.splitlines()[-1].startswith(f"{name}: {points}/{points} passed")


def test_verify_unknown_identity(capsys):
    rc, _, err = run(["verify", "nope"], capsys)
    assert rc == 2 and "error" in err


def test_verify_grid_override_json(capsys):
    rc, out, _ = run(["verify", "lemma_binomial", "--grid", "N=0,1,2",
                      "--grid", "nu=1/3", "--json", "-"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["identity"] == "lemma_binomial"
    assert len(payload["rows"]) == 3
    assert payload["passed"] == 3 and payload["failed"] == 0
    assert all(r["exact"] is True and r["passed"] is True for r in payload["rows"])
    # exact rationals survive serialization
    assert payload["rows"][0]["lhs"]["fraction"].count("/") == 1


def test_verify_json_rows_carry_precision_and_seconds(capsys):
    rc, out, _ = run(["verify", "gamma_zero", "--grid", "kappa=-0.7",
                      "--grid", "r0=1", "--grid", "r=2", "--digits", "30",
                      "--json", "-"], capsys)
    assert rc == 0
    row, = json.loads(out)["rows"]
    assert row["precision"] == ["extended", 30] and row["seconds"] > 0
    rc, out, _ = run(["verify", "lemma_binomial", "--grid", "N=1",
                      "--grid", "nu=1/3", "--json", "-"], capsys)
    row, = json.loads(out)["rows"]
    assert row["precision"] is None and row["seconds"] >= 0


def test_verify_bad_grid_name(capsys):
    rc, _, err = run(["verify", "lemma_binomial", "--grid", "bogus=1"], capsys)
    assert rc == 2 and "error" in err


def test_verify_csv_header(capsys):
    rc, out, _ = run(["verify", "gamma_zero", "--grid", "kappa=-0.7",
                      "--grid", "r0=1", "--grid", "r=2,5", "--csv", "-"], capsys)
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "kappa", "r0", "r", "lhs", "rhs", "abs_err",
                       "rel_err", "n_terms", "condition_number", "digits_lost",
                       "exact", "passed", "error", "precision", "seconds"]
    assert len(rows) == 3
    for r in rows[1:]:
        cell = dict(zip(rows[0], r))
        assert cell["exact"] == "" and cell["passed"] == "true" and cell["error"] == ""
        assert cell["precision"] == "hardware" and float(cell["seconds"]) > 0
    # JSON rows carry the same columns in the same order, params as one object
    rc, out, _ = run(["verify", "gamma_zero", "--grid", "kappa=-0.7",
                      "--grid", "r0=1", "--grid", "r=2", "--json", "-"], capsys)
    row, = json.loads(out)["rows"]
    assert list(row) == ["index", "params", *rows[0][4:]]


def test_verify_failure_exit_code(capsys):
    rc, out, err = run(["verify", "whittaker_addition", "--grid", "kappa=-0.7",
                        "--grid", "r0=1", "--grid", "r=2",
                        "--grid", "gamma=pi/2", "--threshold", "1e-20"], capsys)
    assert rc == 1
    assert "FAIL" in out
    assert err.strip()  # failure count lands on stderr


def test_verify_rows_keep_grid_order(capsys):
    rc, out, _ = run(["verify", "delta_sum", "--grid", "n=0,1,2,3,4,5",
                      "--json", "-"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert [r["index"] for r in payload["rows"]] == list(range(6))
    assert payload["failed"] == 0


def test_verify_remark53_json(capsys):
    rc, out, _ = run(["verify", "--preset", "remark53", "--json", "-"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["preset"] == "remark53"
    assert rel(payload["t0"], 1.0723911e7) < 1e-4
    assert abs(payload["normalized_sum"] - 1) < 1e-6
    assert payload["surrogate_drop_l"] == 168
    assert payload["digits_lost"] > 15


# --- green -------------------------------------------------------------------------

def test_green_human_output(capsys):
    rc, out, _ = run(["green", "--g", "1", "--k", "0.7",
                      "--p", "2,1.1,0.7", "--p0", "1,2,4"], capsys)
    assert rc == 0
    assert "hostler" in out and "partial_wave" in out
    assert "residual" in out


def test_green_rel_tol_gate(capsys):
    base = ["green", "--g", "1", "--k", "0.7", "--p", "2,1.1,0.7", "--p0", "1,2,4"]
    rc, _, _ = run(base + ["--rel-tol", "1e-7"], capsys)
    assert rc == 0
    rc, _, _ = run(base + ["--rel-tol", "1e-20"], capsys)
    assert rc == 1


def test_green_rel_tol_only_gates_the_residual(capsys):
    base = ["green", "--g", "1", "--k", "0.7", "--p", "2,1.1,0.7", "--p0", "1,2,4",
            "--json"]
    lmax = [json.loads(run(base + extra, capsys)[1])["lmax"]
            for extra in ([], ["--rel-tol", "1e-3"])]
    assert lmax[0] == lmax[1]


def test_green_coincident_points(capsys):
    rc, _, err = run(["green", "--g", "1", "--k", "0.7",
                      "--p", "2,1.1,0.7", "--p0", "2,1.1,0.7"], capsys)
    assert rc == 2 and "error" in err


def test_green_json(capsys):
    rc, out, _ = run(["green", "--g", "1", "--k", "0.7",
                      "--p", "2,1.1,0.7", "--p0", "1,2,4", "--json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    h = float(payload["hostler"]["re"])
    pw = float(payload["partial_wave"]["re"])
    assert rel(h, pw) < 1e-9
    assert payload["rel_residual"] < 1e-9
    assert payload["lmax"] >= 3


def test_green_extended_residual(capsys):
    # the residual is taken at the command's precision, not in complex doubles
    rc, out, _ = run(["green", "--g", "1", "--k", "0.7", "--p", "2,1.1,0.7",
                      "--p0", "1,2,4", "--digits", "50", "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["rel_residual"] < 1e-20


@pytest.mark.parametrize("command", ["green", "eval hostler"])
@pytest.mark.parametrize("flags", ["--g 1 --k 0.7+0.1j", "--g 1j --k 0.7",
                                   "--g abc --k 0.7"])
def test_green_parameters_must_be_real(command, flags, capsys):
    argv = [*command.split(), *flags.split(), "--p", "2,1.1,0.7", "--p0", "1,2,4"]
    rc, out, err = run(argv, capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "internal" not in err


# --- golden ------------------------------------------------------------------------

def test_golden_write_reproduces_committed_file(tmp_path, capsys):
    # every group, byte for byte: a committed file that a fresh write does
    # not reproduce records values the code no longer computes
    rc, out, _ = run(["golden", "--write", str(tmp_path)], capsys)
    assert rc == 0
    for group in GROUPS:
        assert f"{group}.json" in out
        got = (tmp_path / f"{group}.json").read_text()
        want = (GOLDEN_DIR / f"{group}.json").read_text()
        assert got == want, group


def test_golden_check_only_one_group(tmp_path, capsys):
    rc, out, _ = run(["golden", "--check", str(GOLDEN_DIR), "--only",
                      "special_core"], capsys)
    assert rc == 0 and "reproduce" in out
    # a copy holding only the checked group: the absent groups are not
    # compared, and one perturbed digit in the checked group is caught
    text = (GOLDEN_DIR / "special_core.json").read_text()
    (tmp_path / "special_core.json").write_text(text)
    argv = ["golden", "--check", str(tmp_path), "--only", "special_core"]
    assert run(argv, capsys)[0] == 0
    payload = json.loads(text)
    value = payload["entries"][0]["lhs"]
    value["re"] = value["re"][:4] + str((int(value["re"][4]) + 1) % 10) + value["re"][5:]
    (tmp_path / "special_core.json").write_text(json.dumps(payload))
    rc, _, err = run(argv, capsys)
    assert rc == 1 and "drifted" in err


def test_golden_digits_below_extended_floor(tmp_path, capsys):
    rc, out, err = run(["golden", "--write", str(tmp_path), "--digits", "10"], capsys)
    assert rc == 2 and out == ""
    assert err == "error: extended precision needs --digits >= 30\n"
    assert not any(tmp_path.iterdir())


def test_golden_unknown_group(capsys):
    rc, _, err = run(["golden", "--only", "nope"], capsys)
    assert rc == 2 and "error" in err
