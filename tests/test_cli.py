"""Tests for the command line front end: parsing, exit codes, config
handling, report formats, and the golden gate plumbing."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from commdyn import cli
from commdyn.budget import Budget, current, limits
from commdyn.cli import RunConfig, emit_report, load_config, main
from commdyn.errors import BudgetError, PreconditionError
from commdyn.golden import GOLDEN_CHECKS, GoldenCheck, run_golden_suite
from commdyn.parsing import parse_map


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 0
        assert cfg.format == "text"

    def test_caps_must_be_positive(self):
        with pytest.raises(PreconditionError):
            RunConfig(degree_cap=0)
        with pytest.raises(PreconditionError):
            RunConfig(kmax=-1)

    def test_format_checked(self):
        with pytest.raises(PreconditionError):
            RunConfig(format="yaml")


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 11\nkmax = 8  # closure budget\nformat = structured\n")
        overrides = load_config(str(path))
        assert overrides == {"seed": 11, "kmax": 8, "format": "structured"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("banana = 3\n")
        from commdyn.errors import InputParseError
        with pytest.raises(InputParseError):
            load_config(str(path))


class TestEmitReport:
    def test_text_booleans_lowercase(self):
        assert emit_report({"holds": True}) == "holds: true"
        assert emit_report({"holds": False}) == "holds: false"

    def test_structured_deterministic(self):
        payload = {"b": 1, "a": [2, 3], "flag": True}
        once = emit_report(payload, "structured")
        again = emit_report(dict(payload), "structured")
        assert once == again
        assert json.loads(once) == payload


class TestGenCommands:
    def test_chebyshev(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "chebyshev", "3")
        assert code == 0
        assert "z^3 - 3*z" in out

    def test_power_with_rotation(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "power", "2", "--zeta", "3")
        assert code == 0
        assert "degree: 2" in out

    def test_lattes(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "lattes", "2", "-1", "0")
        assert code == 0
        assert "degree: 4" in out

    def test_map_output_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "chebyshev", "5", "--format",
                            "structured")
        emitted = json.loads(out)["map"]
        from commdyn.exceptional import chebyshev
        assert parse_map(emitted) == chebyshev(5)

    @pytest.mark.parametrize("argv", [["lattes", "80", "0", "1"], ["chebyshev", "5001"],
                                      ["power", "5001"]])
    def test_degree_cap_before_building(self, capsys, argv):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "gen", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert err.startswith("budget exceeded") and "\n" not in err


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _, err = run_cli(capsys, "per", "poly", "z^2 +", "1")
        assert code == 2
        assert "parse error" in err

    def test_budget_is_three(self, capsys):
        code, _, err = run_cli(capsys, "identity", "eq8", "z^4 + 1", "z^4",
                               "--N", "2")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("argv", [["ritt", "common-iterate", "z^2", "--", "--"],
                                      ["per", "poly", "--", "z^2", "--"]])
    def test_second_double_dash_is_a_usage_error(self, capsys, argv):
        # argparse would hand the second "--" to a positional as [], an
        # internal error (exit 5) further on
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "'--' may appear only once" in capsys.readouterr().err

    def test_precondition_is_four(self, capsys):
        code, _, err = run_cli(capsys, "exp", "lyapunov", "z + 1")
        assert code == 4
        assert "precondition" in err

    def test_parser_caps_degree_before_building(self):
        with pytest.raises(BudgetError):
            parse_map("z^5001")
        with limits(Budget(degree_cap=8)):
            with pytest.raises(BudgetError):
                parse_map("z^3*z^3*z^3")
            with pytest.raises(BudgetError):
                parse_map("(z^2 + 1)^5")
            assert parse_map("z^3*z^3").degree == 6

    def test_nesting_is_bounded(self, capsys):
        deep = "(" * 200 + "z" + ")" * 200
        code, out, err = run_cli(capsys, "per", "poly", deep, "1")
        assert code == 2 and out == ""
        assert err.startswith("parse error") and "\n" not in err
        assert parse_map("(" * 64 + "z^2" + ")" * 64) == parse_map("z^2")

    def test_sign_runs_fold_without_recursion(self, capsys):
        expected = run_cli(capsys, "per", "poly", "z^2", "1")
        assert run_cli(capsys, "per", "poly", "--", "-" * 1000 + "z^2", "1") == expected
        assert expected[0] == 0
        assert parse_map("-" * 999 + "z^2") == parse_map("-z^2")

    def test_conductor_gate(self, capsys):
        code, _, err = run_cli(capsys, "per", "poly", "zeta32*z^2", "1",
                               "--field", "8")
        assert code == 4
        assert "conductor" in err


class TestPipelines:
    def test_ritt_seq_reports_step_degrees(self, capsys):
        f = "z*(z^3 - 8)/(z^3 + 1)"
        code, out, _ = run_cli(capsys, "ritt", "seq", f, f, "--format",
                               "structured")
        assert code == 0
        data = json.loads(out)
        assert data["terminated"]
        assert data["steps"][0]["r"] == 1

    def test_eq2_text(self, capsys):
        code, out, _ = run_cli(capsys, "per", "eq2", "z^2", "z^3", "1", "1")
        assert code == 0
        assert "holds: true" in out

    def test_closure_orbit_size(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "closure", "z", "zeta2*z",
                               "--format", "structured")
        assert code == 0
        assert json.loads(out)["orbit_size"] == 2

    def test_lyapunov_includes_seed(self, capsys):
        code, out, _ = run_cli(capsys, "exp", "lyapunov", "z^2", "--depth",
                               "8", "--breadth", "16", "--seed", "5",
                               "--format", "structured")
        assert code == 0
        data = json.loads(out)
        assert data["seed"] == 5
        assert abs(data["value"] - 0.6931) < 0.01

    def test_explore_then_phi(self, capsys, tmp_path):
        gens = tmp_path / "gens.list"
        gens.write_text("# squaring only\nz^2\n")
        code, out, _ = run_cli(capsys, "orbit", "explore", str(gens),
                               "--start", "zeta7", "--format", "structured")
        assert code == 0
        orbit_file = tmp_path / "orbit.json"
        orbit_file.write_text(out)
        code, out, _ = run_cli(capsys, "orbit", "phi", "z^2", "z^8",
                               str(orbit_file), "--format", "structured")
        assert code == 0
        data = json.loads(out)
        assert data["residue"] == 1
        assert sorted(data["action"]) == [0, 1, 2]

    def test_phi_undefined_result(self, capsys, tmp_path):
        orbit_file = tmp_path / "orbit.json"
        orbit_file.write_text("0\n")
        code, out, _ = run_cli(capsys, "orbit", "phi", "z^10", "z^8",
                               str(orbit_file))
        assert code == 0
        assert "undefined" in out

    def test_map_file_arguments(self, capsys, tmp_path):
        fmap = tmp_path / "f.map"
        fmap.write_text("z*(z^3 - 8)/(z^3 + 1)\n")
        code, out, _ = run_cli(capsys, "ritt", "common-iterate", str(fmap),
                               str(fmap))
        assert code == 0
        assert "p: 1" in out

    def test_config_file_applies(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\n")
        code, out, _ = run_cli(capsys, "exp", "lyapunov", "z^2", "--depth",
                               "8", "--breadth", "16", "--config", str(cfg),
                               "--format", "structured")
        assert code == 0
        assert json.loads(out)["seed"] == 9


class TestGoldenGate:
    def test_subset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "golden", "chebyshev-cubic",
                               "quartic-product")
        assert code == 0
        assert "failures: 0" in out

    def test_list_names(self, capsys):
        code, out, _ = run_cli(capsys, "golden", "--list")
        assert code == 0
        for check in GOLDEN_CHECKS:
            assert check.name in out

    def test_unknown_name_fails_gate(self, capsys):
        code, out, _ = run_cli(capsys, "golden", "no-such-check")
        assert code == 1

    def test_injected_failure_reported(self):
        broken = GoldenCheck("tampered", "negative control", lambda: False)
        report = run_golden_suite(checks=[broken])
        assert not report.passed
        assert report.failures[0].name == "tampered"

    def test_check_names_unique(self):
        names = [c.name for c in GOLDEN_CHECKS]
        assert len(names) == len(set(names))


class TestOneValidationPoint:
    """Run-wide flags go through RunConfig wherever they appear on the line."""

    @pytest.mark.parametrize("argv, code", [
        (["exp", "lyapunov", "z^2-1", "--breadth", "-5"], 4),
        (["exp", "lyapunov", "z^2-1", "--depth", "-3"], 4),
        (["exp", "lyapunov", "z^2-1", "--depth", "0"], 4),
        (["orbit", "phi", "z^2", "z^8", '{"points": 5}'], 2),
        (["orbit", "phi", "z^2", "z^8", '{"points": [5]}'], 2),
        (["corr", "closure", "z^2", "zeta3*z^2", "--kmax", "-1"], 4),
        (["--field", "2", "gen", "power", "2", "--zeta", "3"], 4),
        (["--format", "structured", "gen", "chebyshev", "3"], 0),
        (["exp", "probe", "z^2", "--nmax", "0"], 4),
        (["ritt", "seq", "z^2", "z^2", "--min-steps", "-1"], 4),
        (["--degree-cap", "8", "per", "poly", "z^3*z^3*z^3", "1"], 3),
    ])
    def test_documented_exit_code(self, capsys, argv, code):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        if code:
            assert err.count("\n") == 0
        else:
            assert json.loads(out)["degree"] == 3

    def test_top_level_flags_kept(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "structured", "--seed", "5",
                               "--depth", "8", "--breadth", "16",
                               "exp", "lyapunov", "z^2")
        assert code == 0
        data = json.loads(out)
        assert (data["seed"], data["depth"], data["breadth"]) == (5, 8, 16)

    @pytest.mark.parametrize("top, leaf, status", [
        (["--budget-orbit", "100"], ["--budget", "3"], "BudgetExceeded"),
        (["--budget", "3"], ["--budget-orbit", "100"], "Closed"),
    ])
    def test_leaf_spelling_wins(self, capsys, top, leaf, status):
        code, out, _ = run_cli(capsys, *top, "orbit", "explore", "z^2; zeta3*z",
                               "--start", "zeta7", *leaf)
        assert code == 0
        assert f"status: {status}" in out

    def test_internal_error_is_five(self, capsys, monkeypatch):
        def broken(args, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_gen_chebyshev", broken)
        code, out, err = run_cli(capsys, "gen", "chebyshev", "3")
        assert code == 5
        assert out == ""
        assert err == "internal error: RuntimeError('boom')"

    def test_tolerance_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tolerance = 1e-6\n")
        code, _, err = run_cli(capsys, "gen", "chebyshev", "2", "--config",
                               str(cfg))
        assert code == 2
        assert "unknown key" in err


# g = v o u and h = v o rot o u of golden._quartic_pair(), in printed form
QUARTIC_G = "(z^4 - 6*z^2 - 4*z + 18)/(z^3 - 6*z + 5)"
QUARTIC_H = ("(zeta3*z^4 + (-10*zeta3 - 2)*z^2 + (4*zeta3 + 4)*z + (14*zeta3 - 2))"
             "/(z^3 + (-zeta3 - 2)*z^2 + (2*zeta3 - 2)*z + (-zeta3 + 3))")


class TestRunBudget:
    """main runs every command under limits(config), so each cap bounds
    every command, and is checked before the work it bounds."""

    @pytest.mark.parametrize("argv", [
        ["--degree-cap", "8", "exp", "probe", "z^2", "--nmax", "5"],
        ["ritt", "common-iterate", "zeta7*z^8", "z^8"],
        ["ritt", "common-iterate", "zeta31*z^32", "z^32"],
        ["--degree-cap", "8", "corr", "lemma4", "zeta7*z^8", "z^8"],
        ["--degree-cap", "20", "corr", "closure", "z^2", "z^3"],
        ["--kmax", "1", "corr", "lemma4", QUARTIC_G, QUARTIC_H],
    ], ids=["probe", "common-iterate-p7", "common-iterate-p31", "lemma4-degree",
            "closure", "lemma4-kmax"])
    def test_cap_stops_before_the_work(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("budget exceeded") and "\n" not in err

    # each command with a fixed input, and the largest degree it builds
    @pytest.mark.parametrize("argv, degree", [
        (["gen", "chebyshev", "6"], 6),
        (["gen", "power", "5", "--zeta", "3"], 5),
        (["gen", "lattes", "2", "0", "1"], 4),
        (["ritt", "seq", "z^2 - 2", "z^2 - 2"], 4),
        (["ritt", "common-iterate", "z^3", "zeta2*z^3"], 9),
        (["corr", "graph", "z^2", "z^3"], 3),
        (["corr", "closure", "z", "zeta2*z"], 4),
        (["corr", "lemma4", "z^3", "zeta2*z^3"], 9),
        (["per", "poly", "z^2", "3"], 8),
        (["per", "poly", "z^2 - 1", "3", "--exact"], 8),
        (["per", "multipliers", "z^2", "2"], 4),
        (["per", "eq2", "z^2", "z^3", "1", "1"], 6),
        (["exp", "lyapunov", "z^2", "--depth", "4", "--breadth", "8"], 2),
        (["exp", "probe", "z^2", "--nmax", "3", "--depth", "4", "--breadth", "8"], 8),
        (["orbit", "explore", "z^2; zeta3*z", "--start", "zeta7"], 2),
        (["orbit", "phi", "z^2", "z^8", "zeta7; zeta7^2; zeta7^4"], 8),
        (["identity", "eq8", "z^2", "z + 1"], 4),
    ], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else str(v))
    def test_every_command_reads_the_degree_cap(self, capsys, argv, degree):
        code, _, err = run_cli(capsys, "--degree-cap", str(degree - 1), *argv)
        assert code == 3 and err.startswith("budget exceeded")
        code, _, _ = run_cli(capsys, "--degree-cap", str(degree), *argv)
        assert code == 0
        assert current() == Budget()

    def test_limits_restore_the_previous_budget(self):
        with limits(Budget(degree_cap=8)):
            with limits(Budget(degree_cap=4)):
                assert current().degree_cap == 4
            assert current() == Budget(degree_cap=8)
        assert current() == Budget()


class TestStartup:
    """numpy is imported on first use, so exact commands start without it.

    Each check runs in a fresh interpreter: this one has numpy loaded."""

    SCRIPT = """
import runpy, sys
sys.argv = ["commdyn"] + {argv!r}
try:
    runpy.run_module("commdyn.cli", run_name="__main__")
except SystemExit as exc:
    print("exit", exc.code, "numpy", "numpy" in sys.modules)
"""

    @staticmethod
    def _fresh(script):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        return subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))

    def test_import_leaves_numpy_out(self):
        run = self._fresh("import sys, commdyn, commdyn.cli\n"
                          "print('numpy' in sys.modules)")
        assert run.stdout.strip() == "False", run.stderr

    @pytest.mark.parametrize("argv", [["gen", "chebyshev", "3"], ["golden", "--list"]])
    def test_exact_commands_leave_numpy_out(self, argv):
        run = self._fresh(self.SCRIPT.format(argv=argv))
        assert run.stdout.splitlines()[-1] == "exit 0 numpy False", run.stderr

    def test_numeric_command_loads_numpy(self):
        argv = ["exp", "lyapunov", "z^2", "--depth", "4", "--breadth", "8", "--seed", "1"]
        run = self._fresh(self.SCRIPT.format(argv=argv))
        assert run.stdout.splitlines() == [
            "value: 0.6859700666136878", "std_error: 0.00107381951844919",
            "depth: 4", "breadth: 8", "seed: 1", "exit 0 numpy True"], run.stderr


# -- fuzzing -----------------------------------------------------------------

# Valid and malformed pieces, valid seven times in eight.  Every map has
# degree at most two and every count, degree and budget is small, so that
# no argv asks for heavy work.
def _pieces(valid, malformed):
    return st.integers(0, 7).flatmap(
        lambda i: st.sampled_from(malformed if i == 0 else valid))


_MAP = _pieces(("z^2", "z^2 - 2", "z^2 - 1", "z + 1/z", "1/z", "-z", "z + 1", "zeta4*z",
                "zeta3*z^2 + 1", "(z^2 + 2)/(z + 1)", "2*z^2/(z^2 + 1)", "z^2 + zeta4*z"),
               ("", "z^", "((z", "z^-2", "1/0", "z/z", "2", "w^2", "zeta0*z", "zeta999*z",
                "z^6000", "z^2.5", "nan", "--", "z^^2", "zeta3^"))
_POINT = _pieces(("0", "1", "-2", "1/2", "zeta3", "zeta7^2", "inf"), ("", "x", "1/0", "zeta0"))
_COUNT = _pieces(("1", "2", "3"), ("-1", "0", "x", "", "1.5"))
_SMALL = _pieces(("1", "2"), ("-1", "0", "x"))
_FLAGS = {"--format": _pieces(("text", "structured"), ("yaml",)),
          "--seed": _pieces(("0", "-5"), ("x",)),
          "--field": _pieces(("1", "3", "12"), ("-1", "0")),
          "--degree-cap": _pieces(("16", "5000"), ("-1", "0", "1")),
          "--config": st.sampled_from(("/nonexistent/run.cfg", ".")),
          "--budget-ritt": _SMALL, "--budget-orbit": _SMALL, "--kmax": _SMALL,
          "--depth": _SMALL, "--breadth": _SMALL}
_COMMANDS = {
    "gen chebyshev": [_COUNT, st.sampled_from(("--sign=1", "--sign=-1", "--sign=2"))],
    "gen power": [_COUNT, st.just("--zeta"), _pieces(("1", "3", "12"), ("0", "50", "x")),
                  st.just("--exponent"), _COUNT],
    "gen lattes": [_SMALL, _POINT, _POINT],
    "ritt seq": [_MAP, _MAP, st.just("--min-steps"), _SMALL],
    "ritt common-iterate": [_MAP, _MAP],
    "corr graph": [_MAP, _MAP],
    "corr closure": [_MAP, _MAP, st.just("--kmax"), _SMALL],
    "corr lemma4": [_MAP, _MAP],
    "per poly": [_MAP, _COUNT, st.sampled_from(("--exact", "--format=text"))],
    "per multipliers": [_MAP, _COUNT],
    "per eq2": [_MAP, _MAP, _SMALL, _SMALL],
    "exp lyapunov": [_MAP, st.just("--depth"), _SMALL, st.just("--breadth"), _SMALL],
    "exp probe": [_MAP, st.just("--nmax"), _SMALL, st.just("--depth"), _SMALL,
                  st.just("--breadth"), _SMALL],
    "orbit explore": [_MAP, st.just("--start"), _POINT, st.just("--budget"), _SMALL],
    "orbit phi": [_MAP, _MAP, st.lists(_POINT, max_size=3).map(";".join)],
    "identity eq8": [_MAP, _MAP, st.just("--N"), _pieces(("1",), ("-1", "0", "x"))],
    "golden": [st.just("--list")],
}


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = name.split() + [draw(piece) for piece in _COMMANDS[name]]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAGS)), max_size=2)):
        argv += [flag, draw(_FLAGS[flag])]
    if draw(st.integers(0, 3)) == 0:  # drop, repeat or follow a token with junk
        i = draw(st.integers(0, len(argv) - 1))
        junk = draw(st.sampled_from(("--bogus", "extra", "-h", "--kmax")))
        argv[i:i + 1] = draw(st.sampled_from(([], [argv[i]] * 2, [argv[i], junk])))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
