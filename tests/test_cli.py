"""End-to-end tests for the command-line interface.

Every test shells out to ``python -m fracsmooth.cli`` so the argument
parsing, dispatch, output formatting, and exit-code contract are
exercised exactly as a user would hit them.  Numerical correctness of
the underlying routines is covered by the per-module tests; here we pin
the plumbing: formats, determinism, and error routing.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

import mpmath
import pytest

import fracsmooth
from test_kernel import z_mpmath

_COMPLEX_LINE = re.compile(
    r"^(z|psi) = (-?[0-9][0-9.e+-]*) ([+-]) ([0-9][0-9.e+-]*)i$")


#: the directory that holds the imported ``fracsmooth`` package (``src`` in
#: a checkout), put first on the child's path so that it runs the same code
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    fracsmooth.__file__)))


def run_cli(*args):
    path = [_PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-m", "fracsmooth.cli", *args],
                          capture_output=True, text=True, env=env)


def parse_complex(line):
    m = _COMPLEX_LINE.match(line)
    assert m is not None, f"unparseable output line: {line!r}"
    real = float(m.group(2))
    imag = float(m.group(4))
    if m.group(3) == "-":
        imag = -imag
    return complex(real, imag)


class TestPsi:
    """Point evaluation: two lines, ``z = ...`` and ``psi = ...``."""

    def test_order_five_checkpoint(self):
        res = run_cli("psi", "--beta", "5", "--t", "8.1681")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("z = ")
        assert lines[1].startswith("psi = ")
        z = parse_complex(lines[0])
        psi = parse_complex(lines[1])
        assert abs(z - (3.6224904397828297 + 2.3271187150933597j)) <= 1e-12
        assert abs(psi - z / 8.1681) <= 1e-15

    def test_origin_is_exact_zero(self):
        res = run_cli("psi", "--beta", "2.5", "--t", "0")
        assert res.returncode == 0
        assert res.stdout == "z = 0 + 0i\npsi = 0 + 0i\n"

    def test_negation_symmetry(self):
        pos = run_cli("psi", "--beta", "2.5", "--t", "1.3")
        neg = run_cli("psi", "--beta", "2.5", "--t", "-1.3")
        assert pos.returncode == 0 and neg.returncode == 0
        zp = parse_complex(pos.stdout.splitlines()[0])
        zn = parse_complex(neg.stdout.splitlines()[0])
        pp = parse_complex(pos.stdout.splitlines()[1])
        pn = parse_complex(neg.stdout.splitlines()[1])
        assert abs(zn - (-zp.conjugate())) <= 1e-13
        assert abs(pn - pp.conjugate()) <= 1e-13

    @pytest.mark.skipif(shutil.which("fracsmooth") is None,
                        reason="console script not on PATH")
    def test_console_script_matches_module(self):
        script = subprocess.run(
            ["fracsmooth", "psi", "--beta", "5", "--t", "8.1681"],
            capture_output=True, text=True)
        module = run_cli("psi", "--beta", "5", "--t", "8.1681")
        assert script.returncode == 0
        assert script.stdout == module.stdout


class TestExitCodes:
    """0 success, 1 usage/invalid, 2 numerical failure, 3 I/O failure."""

    def test_missing_required_flag(self):
        res = run_cli("psi", "--beta", "2.5")
        assert res.returncode == 1
        assert res.stderr.startswith("usage error:")

    def test_unknown_subcommand(self):
        res = run_cli("frobnicate")
        assert res.returncode == 1
        assert res.stderr.startswith("usage error:")

    def test_unknown_function_spec(self):
        res = run_cli("modulus", "--kind", "omega", "--fn", "nope:3",
                      "--beta", "1", "--h", "0.5", "--p", "2")
        assert res.returncode == 1
        assert "unknown function spec" in res.stderr

    def test_malformed_function_spec(self):
        res = run_cli("modulus", "--kind", "omega", "--fn", "random:abc",
                      "--beta", "1", "--h", "0.5", "--p", "2")
        assert res.returncode == 1
        assert "bad function spec" in res.stderr

    def test_bad_numeric_list(self):
        res = run_cli("equiv", "--fn", "exp:1", "--betas", "0.5,abc")
        assert res.returncode == 1
        assert "bad numeric list" in res.stderr

    def test_invalid_order(self):
        res = run_cli("psi", "--beta", "-1", "--t", "2.0")
        assert res.returncode == 1
        assert res.stderr.startswith("invalid arguments:")

    def test_unsupported_exponent(self):
        res = run_cli("modulus", "--kind", "tilde", "--fn", "exp:1",
                      "--beta", "1", "--h", "0.5", "--p", "0.5")
        assert res.returncode == 1
        assert res.stderr.startswith("invalid arguments:")

    def test_star_requires_alpha(self):
        res = run_cli("modulus", "--kind", "star", "--fn", "exp:1",
                      "--beta", "2.5", "--h", "0.5", "--p", "2")
        assert res.returncode == 1
        assert "alpha" in res.stderr

    def test_numerical_failure(self):
        # past 2^1024 the integrand overflows the float range, so z is
        # not finite; order 800 converges (next test)
        res = run_cli("psi", "--beta", "1100", "--t", "3.0")
        assert res.returncode == 2
        assert res.stderr.startswith("numerical failure:")

    def test_large_order_converges(self):
        res = run_cli("psi", "--beta", "800", "--t", "3.0")
        assert res.returncode == 0, res.stderr
        z = complex(res.stdout.splitlines()[0].removeprefix("z = ")
                    .replace(" ", "").replace("i", "j"))
        with mpmath.workdps(30):
            want = complex(mpmath.quad(
                lambda phi: ((2 * mpmath.sin(phi / 2)) ** 800
                             * mpmath.expj(400 * (phi - mpmath.pi))),
                mpmath.linspace(0, 3, 61)))
        assert abs(z - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("args", [
        ("psi", "--beta", "10000", "--t", "2"),
        ("curve", "--beta", "10000", "--t-hi", "3", "--samples", "3"),
    ])
    def test_non_finite_kernel(self, args):
        # the integrand overflows at this order; the commands printed nan
        # and exited 0 before z_many checked its result
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stderr.startswith("numerical failure:")
        assert "nan" not in res.stdout

    def test_io_failure(self, tmp_path):
        target = tmp_path / "no_such_dir" / "out.csv"
        res = run_cli("curve", "--beta", "1", "--t-hi", "3.0",
                      "--samples", "4", "--out", str(target))
        assert res.returncode == 3
        assert res.stderr.startswith("io failure:")


class TestCurve:
    def test_header_and_row_count(self):
        res = run_cli("curve", "--beta", "1", "--t-hi", "6.0",
                      "--samples", "7")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "beta,t,x,y"
        assert len(lines) == 1 + 7

    def test_order_one_closed_form(self):
        # x(t) = t - sin t, y(t) = cos t - 1
        res = run_cli("curve", "--beta", "1",
                      "--t-hi", str(2 * math.pi), "--samples", "5")
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        ts = [float(r[1]) for r in rows]
        assert ts[0] == 0.0
        assert all(b < a for b, a in zip(ts, ts[1:]))
        mid = rows[2]
        assert abs(float(mid[1]) - math.pi) <= 1e-12
        assert abs(float(mid[2]) - math.pi) <= 1e-12
        assert abs(float(mid[3]) + 2.0) <= 1e-12

    def test_full_turn_lands_on_lattice(self):
        res = run_cli("curve", "--beta", "1",
                      "--t-hi", str(2 * math.pi), "--samples", "5")
        last = res.stdout.splitlines()[-1].split(",")
        # x equals t byte-for-byte at the full turn, and y vanishes
        assert last[2] == last[1]
        assert float(last[3]) == 0.0

    def test_file_output_matches_stdout(self, tmp_path):
        target = tmp_path / "curve.csv"
        to_file = run_cli("curve", "--beta", "2.5", "--t-hi", "7.0",
                          "--samples", "9", "--out", str(target))
        to_stdout = run_cli("curve", "--beta", "2.5", "--t-hi", "7.0",
                            "--samples", "9")
        assert to_file.returncode == 0
        assert target.read_text(encoding="utf-8") == to_stdout.stdout

    def test_bad_sample_count(self):
        res = run_cli("curve", "--beta", "1", "--t-hi", "3.0",
                      "--samples", "1")
        assert res.returncode == 1
        assert res.stderr.startswith("invalid arguments:")

    def test_order_seventy_matches_mpmath(self):
        res = run_cli("curve", "--beta", "70", "--t-hi", "6.283",
                      "--samples", "600")
        assert res.returncode == 0
        rows = [[float(c) for c in line.split(",")]
                for line in res.stdout.splitlines()[1:]]
        assert len(rows) == 600
        # below pi, around the peak 2^70 at pi, past pi, and next to 2pi
        for i in (100, 250, 300, 450, 599):
            _, t, x, y = rows[i]
            want = z_mpmath(70.0, t)
            assert abs(complex(x, y) - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("window", [("--t-hi", "inf"),
                                        ("--t-lo", "nan", "--t-hi", "1")])
    def test_non_finite_window(self, window):
        # rejected before np.linspace, which printed a RuntimeWarning first
        res = run_cli("curve", "--beta", "2.5", *window, "--samples", "10")
        assert res.returncode == 1
        assert res.stderr.startswith("invalid arguments:")
        assert "Warning" not in res.stderr


class TestZeros:
    ARGS = ("zeros", "--beta-min", "4", "--beta-max", "8",
            "--t-max", "18.85", "--beta-grid", "40", "--t-grid", "256")

    def test_no_zeros_below_threshold(self):
        res = run_cli("zeros", "--beta-max", "4",
                      "--beta-grid", "8", "--t-grid", "32", "--t-max", "12")
        assert res.returncode == 0
        assert res.stdout == "[]\n"

    def test_registry_content(self):
        res = run_cli(*self.ARGS)
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert len(data) > 0
        for rec in data:
            assert sorted(rec) == ["beta", "bracket", "branch", "residual",
                                   "t"]
            assert rec["branch"] >= 1
            assert rec["t"] > 2 * math.pi
            assert rec["residual"] <= 1e-8
        assert abs(data[0]["beta"] - 4.843171446205815) <= 1e-8

    def test_rerun_reproduces_bytes(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli(*self.ARGS, "--out", str(first)).returncode == 0
        assert run_cli(*self.ARGS, "--out", str(second)).returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_grid(self):
        res = run_cli("zeros", "--beta-grid", "0")
        assert res.returncode == 1
        assert res.stderr.startswith("invalid arguments:")

    def test_orders_forty_to_sixty(self):
        res = run_cli("zeros", "--beta-min", "40", "--beta-max", "60",
                      "--beta-grid", "20")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert len(data) > 0
        for rec in data[::16]:
            assert abs(z_mpmath(rec["beta"], rec["t"])) <= 1e-10

    @pytest.mark.parametrize("bound", [("--t-max", "nan"), ("--t-max", "inf"),
                                       ("--beta-max", "inf")])
    def test_non_finite_bound(self, bound):
        res = run_cli("zeros", *bound)
        assert res.returncode == 1
        assert res.stderr.startswith("invalid arguments:")


class TestModulus:
    def test_classical_single_mode(self):
        res = run_cli("modulus", "--kind", "omega", "--fn", "exp:1",
                      "--beta", "0.5", "--h", "0.5", "--p", "2")
        assert res.returncode == 0
        value = float(res.stdout)
        expect = (2.0 * math.sin(0.25)) ** 0.5
        assert abs(value - expect) <= 1e-9 * expect

    def test_integral_single_mode(self):
        res = run_cli("modulus", "--kind", "w", "--fn", "exp:1",
                      "--beta", "1", "--h", "0.5", "--p", "2")
        value = float(res.stdout)
        expect = 8.0 * (1.0 - math.cos(0.25))
        assert abs(value - expect) <= 1e-11 * expect

    def test_linearized_single_mode(self):
        res = run_cli("modulus", "--kind", "tilde", "--fn", "exp:1",
                      "--beta", "1", "--h", "0.5", "--p", "2")
        value = float(res.stdout)
        expect = abs(complex(0.5 - math.sin(0.5),
                             math.cos(0.5) - 1.0)) / 0.5
        assert abs(value - expect) <= 1e-11 * expect

    def test_star_with_equal_orders_matches_tilde(self):
        star = run_cli("modulus", "--kind", "star", "--fn", "exp:3",
                       "--beta", "2.5", "--alpha", "2.5",
                       "--h", "0.4", "--p", "2")
        tilde = run_cli("modulus", "--kind", "tilde", "--fn", "exp:3",
                        "--beta", "2.5", "--h", "0.4", "--p", "2")
        assert star.returncode == 0
        assert star.stdout == tilde.stdout

    @pytest.mark.parametrize("kind", ["omega", "w", "tilde"])
    @pytest.mark.parametrize("alpha, message", [
        ("0.5", "alpha does not apply to this modulus"),
        ("7", "alpha must lie in (0, 4]")])
    def test_alpha_is_rejected_where_it_does_not_apply(self, kind, alpha,
                                                       message):
        # 0.5 splits the order 2.5 and 7 does not; either way only the
        # gapped modulus takes an alpha
        res = run_cli("modulus", "--kind", kind, "--fn", "exp:1",
                      "--beta", "2.5", "--h", "0.1", "--p", "2",
                      "--alpha", alpha)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == f"invalid arguments: {message}\n"

    def test_constant_is_annihilated(self):
        res = run_cli("modulus", "--kind", "omega", "--fn", "const",
                      "--beta", "1.5", "--h", "1.0", "--p", "inf")
        assert res.returncode == 0
        assert float(res.stdout) == 0.0


class TestEquiv:
    HEADER = ("fid,beta,alpha,h,p,omega,w,omega_tilde,omega_star,"
              "r_w,r_tilde,r_star")

    def test_default_grid_shape(self):
        res = run_cli("equiv", "--fn", "exp:1")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == self.HEADER
        # defaults: 3 orders x 3 steps x 3 exponents for one member
        assert len(lines) == 1 + 27
        assert all(line.startswith("exp:1,") for line in lines[1:])

    def test_members_sorted_in_output(self):
        res = run_cli("equiv", "--fn", "sawtooth:4", "--fn", "exp:1",
                      "--betas", "0.5", "--hs", "0.2", "--ps", "2")
        lines = res.stdout.splitlines()[1:]
        assert len(lines) == 2
        assert lines[0].startswith("exp:1,")
        assert lines[1].startswith("sawtooth:4,")

    def test_full_corpus_row_count(self):
        res = run_cli("equiv", "--full-corpus",
                      "--betas", "0.5", "--hs", "0.2", "--ps", "2")
        lines = res.stdout.splitlines()
        fids = {line.split(",")[0] for line in lines[1:]}
        assert len(lines) == 1 + 6
        assert fids == {"exp:1", "exp:3", "random:8:1", "random:16:2",
                        "sawtooth:8", "abssin:8"}

    def test_json_agrees_with_csv(self):
        args = ("equiv", "--fn", "exp:1", "--betas", "2.5",
                "--hs", "0.2", "--ps", "2")
        as_csv = run_cli(*args)
        as_json = run_cli(*args, "--format", "json")
        assert as_json.returncode == 0
        rows = json.loads(as_json.stdout)
        assert len(rows) == 1
        cells = as_csv.stdout.splitlines()[1].split(",")
        # the JSON carries the same twelve cells, stringified so the
        # bytes stay deterministic; floats round-trip through float()
        assert rows[0]["fid"] == cells[0]
        assert rows[0]["omega"] == cells[5]
        assert rows[0]["r_tilde"] == cells[10]
        assert len(rows[0]) == len(self.HEADER.split(","))

    def test_unsupported_exponent_becomes_error_row(self):
        res = run_cli("equiv", "--fn", "exp:1", "--betas", "0.5",
                      "--hs", "0.2", "--ps", "0.5", "--format", "json")
        assert res.returncode == 0
        assert "p >= 1" in res.stderr
        rows = json.loads(res.stdout)
        assert len(rows) == 1
        assert math.isnan(float(rows[0]["omega_tilde"]))

    @pytest.mark.parametrize("flag", [
        "--betas=-1", "--betas=inf", "--hs=0", "--hs=nan", "--ps=0"])
    def test_invalid_grid_value_exits_1(self, flag):
        # a value outside the domain of every row fails the scan before
        # any row runs, where a row that fails on its own is recorded
        grid = {"--betas": "1", "--hs": "0.2", "--ps": "2"}
        grid[flag.split("=")[0]] = flag.split("=")[1]
        res = run_cli("equiv", "--fn", "exp:1",
                      *(f"{k}={v}" for k, v in grid.items()))
        assert res.returncode == 1
        assert res.stderr.startswith("invalid arguments:")
        assert res.stdout == ""

    def test_in_process_calls_share_no_state(self, capsys):
        # the parser is built once per process; the flags of one call must
        # not reach the next, neither through an appended --fn nor
        # through the default --betas list
        from fracsmooth import cli
        assert cli.main(["equiv", "--fn", "sawtooth:4", "--fn", "exp:1",
                         "--betas", "0.5", "--hs", "0.2", "--ps", "2"]) == 0
        first = [line.split(",")[:2]
                 for line in capsys.readouterr().out.splitlines()[1:]]
        assert cli.main(["equiv", "--fn", "exp:3",
                         "--hs", "0.2", "--ps", "2"]) == 0
        second = [line.split(",")[:2]
                  for line in capsys.readouterr().out.splitlines()[1:]]
        assert first == [["exp:1", "0.5"], ["sawtooth:4", "0.5"]]
        assert second == [["exp:3", "0.5"], ["exp:3", "1"], ["exp:3", "2.5"]]
        assert cli._build_parser() is cli._build_parser()
        args = cli._build_parser().parse_args(["equiv"])
        assert args.fn == []
        assert args.betas == [0.5, 1.0, 2.5]

    def test_file_output_round_trip(self, tmp_path):
        target = tmp_path / "report.csv"
        args = ("equiv", "--fn", "abssin:8", "--betas", "1.0",
                "--hs", "0.05,0.2", "--ps", "2,inf", "--out", str(target))
        assert run_cli(*args).returncode == 0
        text = target.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 1 + 4
