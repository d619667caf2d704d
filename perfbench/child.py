"""One fresh interpreter of the benchmark: set up the CLI, then run a pass.

Usage: python3 child.py SRC_DIR

The process imports ``nekrasov.cli`` from SRC_DIR, builds the parser and
writes ``ready`` on stdout; the parent times set-up up to that line.  It
then reads a JSON job from stdin:

    {"mode": "setup"}                       read the host speed (a set-up probe)
    {"mode": "pass", "argvs": [[...], ...]}  run each argv through cli.main
    {"mode": "trace", "argvs": [[...], ...]} the same, with layer tracing

and, for a pass, writes one JSON object with each invocation's exit code,
wall time and captured stdout, plus the pass's CPU time and peak RSS.
The tracer module is imported only in trace mode, after set-up.

An untraced pass also times reference chunks (hostspeed.py): a few before
each invocation and one every 50 ms during it.  Their time is taken out of
each invocation's wall time and out of the CPU time, and the sums of
their speed readings and their count are reported so that the harness can
rescale the pass to a nominal host speed.  A set-up probe reads the host speed the same way once it
has written ``ready``, so that set-up time can be rescaled too.
"""

import os
import sys

# Reference chunks timed before each invocation, so that even a pass too
# short for the timer to fire has a host-speed reading.
REFERENCE_PROBES = 5

# A set-up probe reads the host speed after its ready line, from chunks
# timed once the interpreter has specialised them.
SETUP_WARMUP_CHUNKS = 20
SETUP_READINGS = 10


def _cpu_seconds() -> float:
    import resource

    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run_pass(cli, argvs, traced: bool) -> dict:
    # Imported here, after the ready line, so that set-up time is the CLI's.
    import contextlib
    import io
    import resource
    import time
    import traceback

    tracer = reference = None
    if traced:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    else:
        import hostspeed

        reference = hostspeed.Reference()
    sampling = reference if reference is not None else contextlib.nullcontext()
    invocations = []
    cpu0 = _cpu_seconds()
    for argv in argvs:
        buf = io.StringIO()
        error = None
        if reference is not None:
            for _ in range(REFERENCE_PROBES):
                reference.sample()
        ref0 = reference.wall_s if reference is not None else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), sampling:
                code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit with 2
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # record the failure and go on with the pass
            code = None
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        if reference is not None:
            wall -= reference.wall_s - ref0
        invocations.append(
            {"exit": code, "wall_s": wall, "stdout": buf.getvalue(), "error": error}
        )
    cpu = _cpu_seconds() - cpu0
    if reference is not None:
        cpu -= reference.cpu_s
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "invocations": invocations,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024,
        "tracer_loaded": "layertrace" in sys.modules,
        "trace": None,
        "ref_host_speed": reference.host_speed if reference is not None else None,
        "ref_cpu_speed": reference.cpu_speed if reference is not None else None,
        "ref_n": reference.count if reference is not None else None,
    }
    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.summary()
        result["trace"]["restored"] = tracer.restored()
    return result


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    from nekrasov import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"child: nekrasov imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import json

    job = json.loads(sys.stdin.read())
    if job["mode"] == "setup":
        import hostspeed

        reference = hostspeed.Reference(warmup=SETUP_WARMUP_CHUNKS)
        for _ in range(SETUP_READINGS):
            reference.sample()
        speed = hostspeed.scale(reference.host_speed, reference.count)
        sys.stdout.write(json.dumps({"host_speed": speed}))
        return 0
    result = _run_pass(cli, job["argvs"], job["mode"] == "trace")
    sys.stdout.write(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
