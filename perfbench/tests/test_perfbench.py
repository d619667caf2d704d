"""Tests of the benchmark harness (not of the engine it measures).

The end-to-end tests run each workload at its smoke size (one instanton
level, two sample points) through the same child processes the benchmark
uses.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SEED = workloads.DEFAULT_SEED

COUNT_METRICS = (
    "diagrams.fixed_points", "diagrams.kvectors", "characters.builds",
    "localization.terms", "exact.factor_occurrences", "exact.distinct_forms",
    "exact.coeff_evals", "exact.terms_evaluated", "series.builds",
    "series.terms_built", "series.mul_terms", "verify.pole_forms",
    "verify.resamples", "cli.report_bytes",
)

# Functions each workload must reach.  frontier (check all) reaches every
# traced function; the other two cover the layer they were chosen for.
CONSTRUCTION = [
    f"{m}.{n}" for m, n, layer in layertrace.TRACED
    if layer in ("diagrams", "characters", "localization", "exact.build")
] + [f"nekrasov.series.{n}" for n in
     ("series_zx0", "series_zx1", "series_zp2", "series_zx1_factorized", "series_mul")]
REACH = {
    "frontier": [f"{m}.{n}" for m, n, _ in layertrace.TRACED],
    "eval-deep": ["nekrasov.exact.coeff_eval", "nekrasov.exact.term_eval",
                  "nekrasov.verify.check_main", "nekrasov.verify.check_recursion_must",
                  "nekrasov.series.series_prefactor"],
    "build-wide": CONSTRUCTION,
}


def smoke(name: str, trace: bool) -> dict:
    return run.run(name, SEED, 0, trace, smoke=True, setup_probes=1)


@pytest.fixture(scope="module")
def traced():
    return {name: (smoke(name, True), smoke(name, True)) for name in NAMES}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", NAMES)
def test_smoke_size_runs_end_to_end(name, capsys):
    result = smoke(name, False)
    assert result["correct"], result["failures"] + result["problems"]
    assert result["attempted"] == len(workloads.WORKLOADS[name])
    line = run.report(result, trace=False)
    assert line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert "fail_ratio" in capsys.readouterr().out


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_repeat_their_counts(traced, name):
    first, second = traced[name]
    assert first["correct"] and second["correct"]
    for key in COUNT_METRICS:
        assert first["layers"][key] == second["layers"][key], key


@pytest.mark.parametrize("name", NAMES)
def test_wrapped_functions_are_reached(traced, name):
    calls = traced[name][0]["functions"]
    missing = [q for q in REACH[name] if calls.get(q, 0) < 1]
    assert not missing


def test_traced_report_has_every_per_layer_metric(traced, capsys):
    line = run.report(traced["build-wide"][0], trace=True)
    assert set(line["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    assert "design:" in capsys.readouterr().out


def test_untraced_pass_never_loads_the_tracer():
    argvs = workloads.command_lines("eval-deep", SEED, smoke=True)
    _, result = run.spawn("pass", argvs)
    assert result["tracer_loaded"] is False
    assert result["trace"] is None


def test_only_untraced_passes_read_the_host_speed():
    argvs = workloads.command_lines("eval-deep", SEED, smoke=True)
    _, untraced = run.spawn("pass", argvs)
    assert untraced["ref_n"] >= len(argvs) * 5
    assert untraced["ref_host_speed"] > 0 and untraced["ref_cpu_speed"] > 0
    _, traced = run.spawn("trace", argvs)
    assert traced["ref_n"] is None and traced["ref_host_speed"] is None


def test_reference_sampler_stops_its_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    reference = hostspeed.Reference()
    with reference:
        deadline = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert reference.count >= 2 and reference.cpu_speed > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_scale_is_the_mean_speed_reading():
    reference = hostspeed.Reference()
    for _ in range(3):
        reference.sample()
    assert reference.count == 3
    assert hostspeed.scale(reference.cpu_speed, 3) == reference.cpu_speed / 3
    # A host at half speed in one slice and at nominal speed in the next
    # did 0.75 of the nominal work.
    assert hostspeed.scale(0.5 + 1.0, 2) == 0.75


def test_tracer_wraps_every_binding_and_restores_it():
    from nekrasov import cli, series, verify

    originals = (cli._CHECKS["main"], verify.series_zx1, series.series_zx1)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli._CHECKS["main"] is not originals[0]
        assert verify.series_zx1 is not originals[1]
        assert series.series_zx1 is not originals[2]
        assert not tracer.restored()
    finally:
        tracer.restore()
    assert (cli._CHECKS["main"], verify.series_zx1, series.series_zx1) == originals
    assert tracer.restored()


def _output(stdout: str, exit_code: int = 0) -> dict:
    return {"exit": exit_code, "wall_s": 0.1, "stdout": stdout, "error": None}


def test_failed_invocations_are_recognised():
    good = json.dumps([{"check": "main", "pass": True}])
    assert run.check_invocation(_output(good), run.sha256(good)) == []
    assert run.check_invocation(_output(good, exit_code=1), None) == ["exit code 1"]
    bad = json.dumps([{"check": "main", "pass": True}, {"check": "mult", "pass": False}])
    assert run.check_invocation(_output(bad), None) == ["check mult does not pass"]
    assert run.check_invocation(_output(good), "0" * 64) == [
        "stdout sha256 differs from the pinned one"
    ]
    raised = dict(_output(""), exit=None, error="Traceback\nValueError: boom\n")
    assert run.check_invocation(raised, None) == ["raised ValueError: boom"]


def test_zx1_factorization_is_cross_checked():
    def doc(series, value):
        return _output(json.dumps({
            "series": series, "w": [1, 0], "k": "0", "max_4n": 4, "seed": 7,
            "trials": 1, "points": [{"eps1": "1"}],
            "grades": [{"grade4n": 0, "values": [value]}],
        }))

    assert run.cross_check([doc("zx1", "3"), doc("zx1-fact", "3")]) == {}
    assert set(run.cross_check([doc("zx1", "3"), doc("zx1-fact", "4")])) == {1}


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile([1.0] * 10) is None
    samples = [float(i) for i in range(30)]
    p, value = run.tail_percentile(samples)
    assert p == 66 and sum(s > value for s in samples) == 10


def test_invocation_seeds_come_from_the_workload_seed():
    lines = workloads.command_lines("build-wide", 5)
    assert lines == workloads.command_lines("build-wide", 5)
    assert lines != workloads.command_lines("build-wide", 6)
    seeds = [argv[argv.index("--seed") + 1] for argv in lines]
    assert seeds[1] == seeds[2] != seeds[0]  # zx1 and zx1-fact share points


def test_every_invocation_has_a_pinned_hash():
    for name in NAMES:
        hashes = workloads.pinned_hashes(name)
        assert len(hashes) == len(workloads.WORKLOADS[name])
        assert all(len(h) == 64 for h in hashes)
    assert sorted(w["name"] for w in spec()["workloads"]) == NAMES
