"""Command-line surface: flags, output formats, exit codes, determinism."""

import argparse
import gc
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nekrasov import cli
from nekrasov.cli import main
from nekrasov.localization import VanishingWeight


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckCommand:
    def test_acceptance_invocation_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "main", "--w0", "1", "--w1", "0", "--k", "0",
             "--max-n", "2", "--trials", "5", "--seed", "161"],
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_check_all_json_is_a_report_list(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "all", "--w0", "0", "--w1", "1", "--k", "1/2",
             "--max-n", "1", "--json"],
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["check"] for r in reports] == ["main", "mult", "symmetry", "must"]
        assert all(r["pass"] for r in reports)
        assert all(r["k"] == "1/2" for r in reports)

    def test_check_all_skips_recursion_for_negative_k(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "all", "--w0", "1", "--w1", "0", "--k", "-1",
             "--max-n", "1", "--json"],
        )
        assert code == 0
        assert [r["check"] for r in json.loads(out)] == ["main", "mult", "symmetry"]

    def test_half_integer_k_parsed_from_fraction_string(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "main", "--w0", "0", "--w1", "1", "--k", "-1/2", "--max-n", "1"],
        )
        assert code == 0

    def test_must_with_negative_k_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", "must", "--w0", "1", "--w1", "0", "--k", "-1", "--max-n", "1"])
        assert err.value.code == 2

    def test_internal_errors_exit_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise VanishingWeight("zero weight for monomial 1")

        monkeypatch.setitem(cli._CHECKS, "main", boom)
        code = main(["check", "main", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "zero weight" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "main", "--w0", "1", "--w1", "0", "--k", "1/3", "--max-n", "1"],
            ["check", "main", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "-1"],
            ["check", "main", "--w0", "0", "--w1", "0", "--k", "0", "--max-n", "1"],
            ["check", "main", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "1",
             "--trials", "0"],
            ["check", "nosuch", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "1"],
            ["compute", "zx1", "--w0", "1", "--w1", "0", "--max-n", "1"],
            ["imo-point", "--eps1", "1/0", "--eps2", "2", "--a", "3", "--m", "5,0"],
            ["imo-point", "--eps1", "1", "--eps2", "2", "--a", "3", "--m", "5,1/0"],
            ["imo-point", "--eps1", "1", "--eps2", "2", "--a", "3,,4",
             "--m", "5,0,1,2"],
            ["walls", "--v0", "-1", "--v1", "0"],
            ["walls", "--v0", "3", "--v1", "-2"],
            ["compute", "zx0", "--w0", "0", "--w1", "1", "--k", "--", "--max-n", "0"],
            ["walls", "--v0=--", "--v1", "1"],
            ["imo-point", "--eps1", "--", "--eps2", "2", "--a", "3", "--m", "5,0"],
            ["compute", "zx0", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "-1"],
            ["compute", "zx0", "--w0", "0", "--w1", "0", "--k", "0", "--max-n", "1"],
            ["compute", "zx0", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "1",
             "--trials", "0"],
            ["compute", "zx0", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "1",
             "--threads", "0"],
        ],
    )
    def test_exit_code_2(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("command", [["compute", "zx0"], ["check", "must"]])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--w0", "0", "--max-n", "-1", "--trials", "0", "--threads", "0"], "--w0, --w1"),
            (["--w0", "1", "--max-n", "-1", "--trials", "0", "--threads", "0"], "--max-n"),
            (["--w0", "1", "--max-n", "1", "--trials", "0", "--threads", "0"], "--trials"),
            (["--w0", "1", "--max-n", "1", "--trials", "1", "--threads", "0"], "--threads"),
        ],
    )
    def test_first_bad_flag_is_reported(self, capsys, command, flags, message):
        # compute and check validate in one order, and both before check's
        # own k >= 0 requirement for must
        with pytest.raises(SystemExit) as err:
            main(command + ["--w1", "0", "--k=-1"] + flags)
        assert err.value.code == 2
        assert message in capsys.readouterr().err.splitlines()[-1]


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compute", "zx0", "--w0", "1", "--w1", "0", "--k", "1/3", "--max-n", "1"],
             "argument --k: half-integers must be 'p' or 'p/2', got '1/3'"),
            (["compute", "zx0", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "1",
              "--seed", "18446744073709551616"],
             "argument --seed: seed must fit in 64 unsigned bits"),
            (["check", "main", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "1",
              "--seed", "x1"],
             "argument --seed: seed must be an integer, got 'x1'"),
            (["imo-point", "--eps1", "1", "--eps2", "2", "--a", "1,y", "--m", "5,0"],
             "argument --a: rationals must be 'p' or 'p/q' with q nonzero, got 'y'"),
            (["imo-point", "--eps1", "1", "--eps2", "2", "--a", "3", "--m", "5,"],
             "argument --m: empty item in '5,'"),
            (["imo-point", "--eps1", "1/0", "--eps2", "2", "--a", "3", "--m", "5,0"],
             "argument --eps1: rationals must be 'p' or 'p/q' with q nonzero, got '1/0'"),
        ],
    )
    def test_bad_flag_value_names_its_reason(self, capsys, argv, message):
        # argparse prints a type's private name for a plain ValueError
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(message)
        assert "invalid" not in captured.err


class TestComputeCommand:
    def test_json_series_dump(self, capsys):
        code, out, _ = run(
            capsys,
            ["compute", "zx1", "--w0", "1", "--w1", "0", "--k", "1",
             "--max-n", "2", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["series"] == "zx1"
        assert payload["w"] == [1, 0]
        assert payload["k"] == "1"
        assert payload["max_4n"] == 8
        assert payload["grade_offset"] == 0
        assert [g["grade4n"] for g in payload["grades"]] == [0, 4, 8]
        assert [g["n"] for g in payload["grades"]] == ["0", "1", "2"]
        grade0 = payload["grades"][0]
        assert grade0["values"] == ["0"] * 5  # no fixed points below sum(k^2)

    def test_quarter_grades_reported_as_fractions(self, capsys):
        code, out, _ = run(
            capsys,
            ["compute", "zx0", "--w0", "0", "--w1", "1", "--k", "1/2",
             "--max-n", "1", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["grade_offset"] == 1
        assert [g["n"] for g in payload["grades"]] == ["1/4", "5/4"]

    def test_text_output_runs(self, capsys):
        code, out, _ = run(
            capsys,
            ["compute", "zp2", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "1"],
        )
        assert code == 0
        assert out.startswith("series=zp2")

    def test_factorized_dump_matches_direct_sum(self, capsys):
        base = ["--w0", "1", "--w1", "0", "--k", "0", "--max-n", "2", "--json"]
        _, direct, _ = run(capsys, ["compute", "zx1"] + base)
        _, factored, _ = run(capsys, ["compute", "zx1-fact"] + base)
        direct, factored = json.loads(direct), json.loads(factored)
        assert direct["points"] == factored["points"]
        assert [g["values"] for g in direct["grades"]] == [
            g["values"] for g in factored["grades"]
        ]


class TestLargeK:
    """A k far beyond what max-n can reach gives the zero series at once:
    enumeration does not walk the unreachable colored count."""

    @pytest.mark.parametrize("w0", [1, 2, 3])
    def test_compute_is_the_zero_series(self, capsys, w0):
        start = time.perf_counter()
        code, out, _ = run(
            capsys,
            ["compute", "zx0", "--w0", str(w0), "--w1", "0", "--k", "99999999999",
             "--max-n", "1", "--json"],
        )
        assert time.perf_counter() - start < 5
        assert code == 0
        grades = json.loads(out)["grades"]
        assert grades and all(v == "0" for g in grades for v in g["values"])

    def test_check_all_passes(self, capsys):
        start = time.perf_counter()
        code, _, _ = run(
            capsys,
            ["check", "all", "--w0", "1", "--w1", "0", "--k", "99999999999",
             "--max-n", "1"],
        )
        assert time.perf_counter() - start < 5
        assert code == 0


class TestCollectorState:
    """`main` runs its request with the cyclic collector off and leaves the
    collector as it found it, however the request ends."""

    ARGS = ["check", "main", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "1"]

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller_enabled(self, request):
        enabled = gc.isenabled()
        if request.param:
            gc.enable()
        else:
            gc.disable()
        try:
            yield request.param
        finally:
            if enabled:
                gc.enable()
            else:
                gc.disable()

    def _patch_check(self, monkeypatch, seen, fail=False):
        """`check main` notes whether the collector is on, then runs, or
        raises VanishingWeight when `fail`."""
        original = cli._CHECKS["main"]

        def check(pair, cfg):
            seen.append(gc.isenabled())
            if fail:
                raise VanishingWeight("zero weight for monomial 1")
            return original(pair, cfg)

        monkeypatch.setitem(cli._CHECKS, "main", check)

    def test_normal_return(self, capsys, monkeypatch, caller_enabled):
        seen = []
        self._patch_check(monkeypatch, seen)
        code, _, _ = run(capsys, self.ARGS)
        assert code == 0
        assert seen == [False]
        assert gc.isenabled() == caller_enabled

    def test_usage_error(self, capsys, caller_enabled):
        with pytest.raises(SystemExit) as err:
            main(["check", "main", "--w0", "1", "--w1", "0", "--k", "0", "--max-n", "-1"])
        assert err.value.code == 2
        assert gc.isenabled() == caller_enabled

    def test_internal_error(self, capsys, monkeypatch, caller_enabled):
        seen = []
        self._patch_check(monkeypatch, seen, fail=True)
        code, _, _ = run(capsys, self.ARGS)
        assert code == 3
        assert seen == [False]
        assert gc.isenabled() == caller_enabled


class TestDeterminism:
    ARGS = ["check", "all", "--w0", "1", "--w1", "0", "--k", "0",
            "--max-n", "1", "--json"]

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, self.ARGS)
        _, second, _ = run(capsys, self.ARGS)
        assert first == second

    def test_byte_identical_across_thread_counts(self, capsys):
        _, one, _ = run(capsys, self.ARGS + ["--threads", "1"])
        _, eight, _ = run(capsys, self.ARGS + ["--threads", "8"])
        assert one == eight

    def test_env_override_does_not_change_output(self, capsys, monkeypatch):
        _, plain, _ = run(capsys, self.ARGS)
        monkeypatch.setenv("NEKRASOV_THREADS", "8")
        _, with_env, _ = run(capsys, self.ARGS)
        assert plain == with_env

    def test_invalid_env_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("NEKRASOV_THREADS", "many")
        with pytest.raises(SystemExit) as err:
            main(self.ARGS)
        assert err.value.code == 2

    @pytest.mark.parametrize("env, flag, code", [
        ("2", "0", 0),  # a valid environment value skips the flag's check
        ("0", "1", 2),
        (None, "0", 2),
    ])
    def test_env_takes_precedence_over_the_flag(self, capsys, monkeypatch, env, flag, code):
        if env is not None:
            monkeypatch.setenv("NEKRASOV_THREADS", env)
        else:
            monkeypatch.delenv("NEKRASOV_THREADS", raising=False)
        try:
            got = main(self.ARGS + ["--threads", flag])
        except SystemExit as err:
            got = err.code
        capsys.readouterr()
        assert got == code


# Modules a CLI process must not load at start-up: `dataclasses` pulls in
# `inspect`, `ast`, `dis` and `tokenize`, `logging` threading, weakref
# and traceback, and `shutil` bz2, lzma, zlib and fnmatch, each for work
# the engine does not need; `typing` only named the engine's records.
HEAVY_MODULES = ("dataclasses", "inspect", "logging", "shutil", "typing")


def test_cli_setup_imports_no_heavy_module():
    """A fresh `python -S` process that imports the CLI from the source
    tree and builds its parser has loaded none of HEAVY_MODULES."""
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import nekrasov.cli\n"
        "nekrasov.cli.build_parser()\n"
        f"print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [["walls", "--v0", "1", "--v1", "2"],
     ["compute", "zx1", "--w0", "2", "--w1", "1", "--k", "-1/2", "--max-n", "2", "--json"]],
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    """A reader that is gone before the CLI writes (`| head -c 200` that
    has already exited) ends the run with 128 + SIGPIPE and no traceback."""
    src = str(Path(cli.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "nekrasov.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["compute", "--help"], ["check", "--help"], ["walls", "--help"],
     ["imo-point", "--help"], [], ["bogus"], ["check", "all", "--w0", "1"],
     ["compute", "zx9", "--w0", "1"], ["walls", "--v0", "x", "--v1", "1"]],
)
def test_help_and_usage_errors_equal_the_stock_formatters(monkeypatch, argv):
    """The parser's formatter sets itself up only to format, and then
    prints what argparse's stock formatter prints, at a fixed width."""
    monkeypatch.setenv("COLUMNS", "60")

    def text(parser):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
            parser.parse_args(argv)
        return out.getvalue(), err.getvalue(), exit_.value.code

    lazy = text(cli.build_parser.__wrapped__())
    monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
    stock = text(cli.build_parser.__wrapped__())
    assert lazy == stock
    assert "usage: nekrasov" in lazy[0] + lazy[1]


class TestWallsCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, ["walls", "--v0", "1", "--v1", "2"])
        assert code == 0
        assert out.splitlines() == [
            "real m=0 root=(0,1)",
            "real m=-1 root=(1,0)",
            "real m=1 root=(1,2)",
            "imaginary p=1 root=(1,1)",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["walls", "--v0", "1", "--v1", "1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["v"] == [1, 1]
        assert payload["walls"] == [
            {"kind": "real", "m": 0, "root": [0, 1]},
            {"kind": "real", "m": -1, "root": [1, 0]},
            {"kind": "imaginary", "p": 1, "root": [1, 1]},
        ]

    def test_empty(self, capsys):
        code, out, _ = run(capsys, ["walls", "--v0", "0", "--v1", "0"])
        assert code == 0
        assert out == ""


class TestConventionPointCommand:
    def test_conversion_with_chern_flip(self, capsys):
        code, out, _ = run(
            capsys,
            ["imo-point", "--eps1", "1", "--eps2", "2", "--a", "3",
             "--m", "5,0", "--k", "1/2"],
        )
        assert code == 0
        assert out.splitlines() == [
            "eps1 = -1",
            "eps2 = -2",
            "a1 = 3",
            "mu1 = 7/2",
            "mu2 = 3/2",
            "c = -1/2",
        ]

    def test_mass_count_validated(self):
        with pytest.raises(SystemExit) as err:
            main(["imo-point", "--eps1", "1", "--eps2", "2", "--a", "3", "--m", "5"])
        assert err.value.code == 2


# The argv grammar at smoke sizes (max-n <= 1, w0 + w1 <= 3, trials <= 2).
# Each flag takes a well-formed value most of the time, and otherwise a
# malformed fraction, a negative or out-of-range value, or nothing at all.
FRACTIONS = (["0", "1", "-1", "1/2", "-3/2", "2/4", "7"],
             ["1/3", "1/0", "1.5", "x", "", "1/", "/2", "--"])
LISTS = (["3", "1,2", "1/2,-1", "5,0,1,2", "-2"], ["1,,2", "1/0", "x", ""])
SERIES_FLAGS = {
    "--w0": (["0", "1", "2"], ["-1", "x"]),
    "--w1": (["0", "1"], ["-1", "1/2"]),
    "--k": FRACTIONS,
    "--max-n": (["0", "1"], ["-1", "x"]),
    "--trials": (["1", "2"], ["0", "-1", ""]),
    "--seed": (["0", "161", "18446744073709551615"], ["-1", "18446744073709551616"]),
    "--threads": (["1", "3"], ["0", "-2", "x"]),
    "--json": None,
}
FLAGS = {
    "walls": {"--v0": (["0", "1", "2", "5"], ["-1", "x"]),
              "--v1": (["0", "1", "3"], ["-2", ""]), "--json": None},
    "imo-point": {"--eps1": FRACTIONS, "--eps2": FRACTIONS, "--a": LISTS,
                  "--m": LISTS, "--k": FRACTIONS},
}
TARGETS = {"compute": ["zx0", "zx1", "zp2", "zx1-fact"],
           "check": ["main", "mult", "symmetry", "must", "all"]}


def _mostly(draw, choices) -> str:
    # Rare branches key on a middle value: hypothesis favours a range's ends.
    good, bad = choices
    return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 5 else good))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["compute", "check", "walls", "imo-point"]))
    argv = [command]
    if command in TARGETS:
        argv.append(_mostly(draw, (TARGETS[command], ["none"])))
    groups = []
    for flag, choices in FLAGS.get(command, SERIES_FLAGS).items():
        if draw(st.integers(0, 9)) == 5:  # a flag, required or not, left out
            continue
        groups.append([flag] if choices is None else [flag, _mostly(draw, choices)])
    if draw(st.integers(0, 9)) == 5:
        groups.append([draw(st.sampled_from(["--bogus", "extra", "-", "--k", "-h"]))])
    if draw(st.integers(0, 19)) == 10:
        argv = ["nosuch"]
    return argv + [arg for group in draw(st.permutations(groups)) for arg in group]


class TestArgvFuzz:
    @settings(max_examples=60, deadline=None)
    @given(argvs())
    def test_every_argv_exits_with_a_known_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue()
