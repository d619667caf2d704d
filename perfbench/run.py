"""Benchmark of the nekrasov engine, driven from outside through cli.main.

    python3 perfbench/run.py --workload {frontier|eval-deep|build-wide|all}
                             [--seed N] [--seconds S] [--trace 0|1]

A single closed-loop client runs the workload's invocations one after
another, each pass in a fresh interpreter (child.py), until the next pass
would end after --seconds.  It checks every stdout, prints each metric by
name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics.  wall_s and cpu_s are
rescaled to a nominal host speed read from reference chunks timed during
each untraced pass (hostspeed.py); setup_s is rescaled by chunks each
set-up probe times after set-up.  README.md in this
directory explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

SETUP_PROBES = 20
CHILD_TIMEOUT_S = 120

CONSTRUCTION_LAYERS = ("diagrams", "characters", "localization", "series", "exact.build")

# Layer self times, keyed by metric name -> tracer layer.
LAYER_METRICS = {
    "cli.self_s": "cli",
    "verify.self_s": "verify",
    "series.self_s": "series",
    "localization.self_s": "localization",
    "characters.self_s": "characters",
    "diagrams.self_s": "diagrams",
    "exact.build_self_s": "exact.build",
    "exact.eval_self_s": "exact.eval",
}

# Inclusive time of each check; zero on workloads that do not run it, so
# these are printed but are not among the metrics of BENCHMARK.json.
CHECK_TIMES = {
    "verify.main_s": "nekrasov.verify.check_main",
    "verify.mult_s": "nekrasov.verify.check_factorization",
    "verify.symmetry_s": "nekrasov.verify.check_symmetry",
    "verify.must_s": "nekrasov.verify.check_recursion_must",
}

# The reason each workload exists, checked against its traced layer shares.
DESIGN = {
    "frontier": (
        "evaluation and construction each take at least a quarter of wall",
        lambda m: m["trace.eval_share"] >= 0.25 and m["trace.build_share"] >= 0.25,
    ),
    "eval-deep": (
        "exact.eval_self_s is the largest layer",
        lambda m: m["exact.eval_self_s"] == max(m[k] for k in LAYER_METRICS),
    ),
    "build-wide": (
        "construction layers are the majority and evaluation is under a third of wall",
        lambda m: m["trace.build_share"] > 0.5 and m["trace.eval_share"] < 1 / 3,
    ),
}


def summary(name: str):
    """How a run sums up a metric's samples: the median, except for peak
    RSS.  A pass's peak RSS sits on one of two levels about 0.8 MB apart,
    at random from pass to pass and not tied to the inputs, so a run
    reports the lowest, the level every pass can reach."""
    if name == "peak_rss_mb":
        return "lowest", min
    return "median", statistics.median


class HarnessError(RuntimeError):
    """The benchmark itself could not run (no engine, a child crashed)."""


def spawn(mode: str, argvs=()) -> tuple[float, dict]:
    """Run one fresh child; return its set-up time and its pass result."""
    job = json.dumps({"mode": mode, "argvs": list(argvs)})
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(ROOT / "src")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(job, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"child ({mode}) ran longer than {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise HarnessError(
            f"child ({mode}) failed with exit {proc.returncode}: {err.strip()[-2000:]}"
        )
    return setup_s, json.loads(out)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_invocation(out: dict, pinned: str | None) -> list[str]:
    """Why one invocation failed: a nonzero exit, a report with
    "pass": false, malformed output, or a stdout sha256 that differs from
    the pinned one.  Empty when it passed."""
    if out["error"] is not None:
        return ["raised " + out["error"].strip().splitlines()[-1]]
    reasons = []
    if out["exit"] != 0:
        reasons.append(f"exit code {out['exit']}")
    try:
        doc = json.loads(out["stdout"])
    except ValueError:
        return reasons + ["stdout is not JSON"]
    for report in doc if isinstance(doc, list) else [doc]:
        if "check" in report and report.get("pass") is not True:
            reasons.append(f"check {report['check']} does not pass")
        if "series" in report and any(
            len(g["values"]) != report["trials"] for g in report["grades"]
        ):
            reasons.append("a grade lacks a value per trial")
    if pinned is not None and sha256(out["stdout"]) != pinned:
        reasons.append("stdout sha256 differs from the pinned one")
    return reasons


def cross_check(outputs: list[dict]) -> dict[int, str]:
    """compute zx1-fact must agree with compute zx1, grade by grade, when
    both ran at the same w, k, max-n, seed and sample points."""
    docs = {}
    for i, out in enumerate(outputs):
        try:
            doc = json.loads(out["stdout"])
        except ValueError:
            continue
        if isinstance(doc, dict) and doc.get("series") in ("zx1", "zx1-fact"):
            key = json.dumps([doc[f] for f in ("w", "k", "max_4n", "seed", "points")])
            docs[(doc["series"], key)] = (i, doc["grades"])
    problems = {}
    for (series, key), (i, grades) in docs.items():
        plain = docs.get(("zx1", key))
        if series == "zx1-fact" and plain is not None and plain[1] != grades:
            problems[i] = "zx1-fact disagrees with zx1 at the same points"
    return problems


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile (nearest rank) with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nekrasov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def layer_metrics(trace: dict, outputs: list[dict]) -> dict:
    """Per-layer metrics of one traced pass."""
    wall = sum(out["wall_s"] for out in outputs)
    layers, counts, funcs = trace["layers"], trace["counts"], trace["functions"]

    def calls(layer=None, names=()):
        return sum(f["calls"] for q, f in funcs.items()
                   if f["layer"] == layer or q.rsplit(".", 1)[1] in names)

    m = {name: layers[layer] for name, layer in LAYER_METRICS.items()}
    m["verify.pole_union_s"] = funcs.get("nekrasov.verify.union_pole_forms", {}).get("self_s", 0.0)
    m["verify.sample_s"] = funcs.get("nekrasov.verify.sample_point_with_stats", {}).get("self_s", 0.0)
    for name, qualname in CHECK_TIMES.items():
        m[name] = funcs.get(qualname, {}).get("incl_s", 0.0)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(layers.values())
    m["trace.eval_share"] = layers["exact.eval"] / wall
    m["trace.build_share"] = sum(layers[layer] for layer in CONSTRUCTION_LAYERS) / wall
    occurrences = counts.get("exact.factor_occurrences", 0)
    terms_built = counts.get("series.terms_built", 0)
    draws = counts.get("verify.draws", 0)
    m.update({
        "diagrams.fixed_points": counts.get("diagrams.fixed_points", 0),
        "diagrams.kvectors": counts.get("diagrams.kvectors", 0),
        "characters.builds": calls("characters"),
        "localization.terms": calls(names=("term_p2", "term_x0", "term_x1", "ell_factor")),
        "exact.factor_occurrences": occurrences,
        "exact.distinct_forms": counts["exact.distinct_forms"],
        "exact.form_reuse": counts["exact.distinct_forms"] / occurrences if occurrences else 0.0,
        "exact.coeff_evals": calls(names=("coeff_eval",)),
        "exact.terms_evaluated": counts.get("exact.terms_evaluated", 0),
        "exact.evals_per_term": counts.get("exact.terms_evaluated", 0) / terms_built if terms_built else 0.0,
        "series.builds": calls("series"),
        "series.terms_built": terms_built,
        "series.mul_terms": counts.get("series.mul_terms", 0),
        "verify.pole_forms": counts.get("verify.pole_forms", 0),
        "verify.resamples": counts.get("verify.resamples", 0),
        "verify.draw_accept_ratio": (draws - counts.get("verify.resamples", 0)) / draws if draws else 0.0,
        "cli.report_bytes": sum(len(out["stdout"].encode()) for out in outputs),
    })
    return m


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, setup_probes: int = SETUP_PROBES) -> dict:
    """Run one workload; return its metrics, failures and raw samples."""
    argvs = workloads.command_lines(workload, seed, smoke)
    pinned = None
    if seed == workloads.DEFAULT_SEED and not smoke:
        pinned = workloads.pinned_hashes(workload)
    start = time.perf_counter()
    spawn("setup")  # warm-up: the first start byte-compiles the engine
    probes = [spawn("setup") for _ in range(setup_probes)]
    passes, traced = [], []
    while True:
        cycle0 = time.perf_counter()
        passes.append(spawn("pass", argvs)[1])
        if trace:
            traced.append(spawn("trace", argvs)[1])
        now = time.perf_counter()
        if now - start + (now - cycle0) > seconds:
            break

    failures: list[str] = []
    attempted = failed = 0
    reference = [out["stdout"] for out in passes[0]["invocations"]]
    for kind, result in [("pass", p) for p in passes] + [("traced pass", p) for p in traced]:
        outputs = result["invocations"]
        crossed = cross_check(outputs)
        for i, out in enumerate(outputs):
            reasons = check_invocation(out, pinned[i] if pinned else None)
            if out["stdout"] != reference[i]:
                reasons.append("stdout differs from the first pass")
            if i in crossed:
                reasons.append(crossed[i])
            attempted += 1
            if reasons:
                failed += 1
                failures.append(f"{kind} invocation {i}: " + "; ".join(reasons))
    problems = []
    if any(p["tracer_loaded"] for p in passes):
        problems.append("the tracer was loaded in an untraced pass")

    walls = [sum(out["wall_s"] for out in p["invocations"]) for p in passes]
    samples = {
        "wall_s": [w * hostspeed.scale(p["ref_host_speed"], p["ref_n"])
                   for w, p in zip(walls, passes)],
        "cpu_s": [p["cpu_s"] * hostspeed.scale(p["ref_cpu_speed"], p["ref_n"])
                  for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": [t * probe["host_speed"] for t, probe in probes],
    }
    # As measured, before rescaling to the nominal host speed; printed only.
    raw = {
        "wall_s.raw": walls,
        "cpu_s.raw": [p["cpu_s"] for p in passes],
        "setup_s.raw": [t for t, _ in probes],
        "host.speed": [hostspeed.scale(p["ref_host_speed"], p["ref_n"]) for p in passes],
        "host.cpu_speed": [hostspeed.scale(p["ref_cpu_speed"], p["ref_n"]) for p in passes],
    }
    result = {
        "workload": workload,
        "env": environment(seed),
        "argvs": argvs,
        "sha256": [sha256(s) for s in reference],
        "pinned": pinned,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": samples,
        "raw_samples": raw,
        "end_to_end": {name: summary(name)[1](v) for name, v in samples.items()},
        "layers": None,
        "functions": None,
    }
    if trace:
        per_pass = [layer_metrics(t["trace"], t["invocations"]) for t in traced]
        if not all(t["trace"]["restored"] for t in traced):
            problems.append("the tracer left a wrapped binding behind")
        count_names = [k for k, v in per_pass[0].items() if isinstance(v, int)]
        if any(m[k] != per_pass[0][k] for m in per_pass for k in count_names):
            problems.append("traced passes disagree on the layer counts")
        layers = {
            k: (v if k in count_names else statistics.median(m[k] for m in per_pass))
            for k, v in per_pass[0].items()
        }
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(walls)
        result["layers"] = layers
        result["functions"] = {q: f["calls"] for q, f in traced[0]["trace"]["functions"].items()}
    result["problems"] = problems
    result["correct"] = failed == 0 and not problems
    return result


def metric_specs() -> dict:
    with (ROOT / "BENCHMARK.json").open() as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the final JSON object."""
    name = result["workload"]
    print(f"== {name}")
    print("env " + json.dumps(result["env"]))
    for i, argv in enumerate(result["argvs"]):
        digest = result["sha256"][i]
        pin = "not pinned at this seed"
        if result["pinned"]:
            pin = "pinned: match" if result["pinned"][i] == digest else "pinned: MISMATCH"
        print(f"  nekrasov {' '.join(argv)}\n    sha256 {digest} ({pin})")
    specs = metric_specs()
    units = {m["name"]: m["unit"] for m in specs["end_to_end"]}
    units.update({"wall_s.raw": "s", "cpu_s.raw": "s", "setup_s.raw": "s",
                  "host.speed": "x", "host.cpu_speed": "x"})
    for name_, values in {**result["samples"], **result["raw_samples"]}.items():
        unit = units[name_]
        tail = tail_percentile(values)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} {unit}" if tail
                     else "no percentile has 10 samples above it")
        label, estimate = summary(name_)
        print(f"{name_:<17} {label} {estimate(values):.4f} {unit}  "
              f"{tail_text}  (n={len(values)})")
    ratio = result["failed"] / result["attempted"]
    print(f"fail_ratio        {ratio:.4f} ({result['failed']} of {result['attempted']} invocations)")
    for line in result["failures"][:20] + result["problems"]:
        print("  FAIL " + line)
    if trace:
        layers = result["layers"]
        wall = layers["trace.wall_s"]
        self_times = [*LAYER_METRICS, "verify.pole_union_s", "verify.sample_s"]
        for key, value in layers.items():
            note = ""
            if key in self_times:
                note = f"  {value / wall:6.1%} of traced wall (self)"
            elif key in CHECK_TIMES:
                note = f"  {value / wall:6.1%} of traced wall (inclusive)"
            print(f"  {key:<28} {value:.6g}{note}")
        claim, holds = DESIGN[name]
        print(f"design: {claim}: {'held' if holds(layers) else 'NOT held'}")
        for q, n in sorted(result["functions"].items()):
            print(f"  calls {q} {n}")
        chosen = specs["per_layer"]
        values = layers
    else:
        chosen = specs["end_to_end"]
        values = result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            line = report(run(name, args.seed, args.seconds, bool(args.trace)), bool(args.trace))
            print(json.dumps(line))
            sys.stdout.flush()
    except HarnessError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
