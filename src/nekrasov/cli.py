"""Command-line interface.

    nekrasov compute {zx0|zx1|zp2|zx1-fact} --w0 INT --w1 INT --k FRAC --max-n INT
                     [--json] [--seed U64] [--trials INT] [--threads INT]
    nekrasov check {main|mult|symmetry|must|all}   (same flags)
    nekrasov walls --v0 INT --v1 INT [--json]
    nekrasov imo-point --eps1 FRAC --eps2 FRAC --a FRAC,... --m FRAC,... [--k FRAC]

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage error,
3 internal error (vanishing weight / resampling exhausted), 141 stdout
closed before the output was written (``| head``).

``--max-n N`` truncates at max4n = 4N + w1, i.e. N whole instanton levels
above the base grade (for ``compute zp2`` it simply truncates at q^N).
``compute`` and ``check`` share one build, sample and read path: each
builds its series once in a ``verify.SeriesPair``, draws points that
avoid the series' denominator forms, and reads values off the pair.
``NEKRASOV_THREADS`` overrides ``--threads``; both are accepted for
interface stability, but evaluation is sequential either way, so output
is byte-identical for any thread count.  The count is a no-op: each
series is compiled once into an integer kernel and evaluated at one or
two points per trial (zx1-fact at one).  In ``check all`` evaluation is
43-55% of the wall time at w = (1,0) max-n 16 and 61-66% at w = (1,2)
and (3,0) max-n 6, compiling 13-15% and 10-12%, and series
construction, which a pool over trials cannot share out, the rest,
32-42% and 23-28% (2-core x86-64 VM, Python 3.11, four runs per cell in
a process each, timing every kernel compile and evaluation in-process).

``main`` runs each request with the cyclic garbage collector off and
hands the caller's setting back on the way out, however the request
ends.  The engine allocates no reference cycles (see
``nekrasov.diagrams``), and argparse's parser, which is cyclic, is
built once per process, so after the first request reference counting
frees all of a request's garbage; the collector found nothing to free
but kept re-scanning the growing heap of forms, pieces and terms, 11-22%
of ``check all``'s wall time at those cells.

Importing this module and building its parser loads the engine and,
from the standard library, ``argparse``, ``fractions`` and ``json`` with
what they import: 52 modules under ``python -S``.  It loads none of
``dataclasses``, ``inspect``, ``logging``, ``shutil`` or ``typing`` (a
tier-1 test and CI check this): the engine's records are
``collections.namedtuple`` or ``__slots__`` classes, the parser's help
formatter sets itself up only to format help or usage, and a
sample-point collision is one line written to stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from fractions import Fraction

from .diagrams import FrameData, HalfInt, enum_walls
from .exact import EPS1, EPS2, format_rational, parse_rational, scope_vars, var_a, var_m
from .localization import VanishingWeight
from .series import map_to_imo
from .verify import (
    ResampleExhausted,
    SampleConfig,
    SeriesPair,
    VerificationReport,
    check_factorization,
    check_main,
    check_recursion_must,
    check_symmetry,
    sample_points,
)

DEFAULT_SEED = 161
DEFAULT_TRIALS = 5

_CHECKS = {
    "main": check_main,
    "mult": check_factorization,
    "symmetry": check_symmetry,
    "must": check_recursion_must,
}


# The flag types raise argparse.ArgumentTypeError: for any other error
# argparse prints only "invalid <function name> value", not the reason.


def _half_int(text: str) -> HalfInt:
    try:
        return HalfInt.parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"half-integers must be 'p' or 'p/2', got {text!r}"
        ) from None


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"rationals must be 'p' or 'p/q' with q nonzero, got {text!r}"
        ) from None


def _fraction_list(text: str) -> list[Fraction]:
    parts = text.split(",")
    if "" in parts:
        raise argparse.ArgumentTypeError(f"empty item in {text!r}")
    return [_rational(part) for part in parts]


def _add_series_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--w0", type=int, required=True, help="framing slots of color 0")
    sub.add_argument("--w1", type=int, required=True, help="framing slots of color 1")
    sub.add_argument("--k", type=_half_int, required=True,
                     help="total first-Chern datum, 'p' or 'p/2'")
    sub.add_argument("--max-n", type=int, required=True, dest="max_n",
                     help="instanton levels above the base grade")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--seed", type=_u64, default=DEFAULT_SEED)
    sub.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    sub.add_argument("--threads", type=int, default=1)


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, set up only to format help or usage, not for
    add_argument's metavar check or an add_subparsers given its prog: the
    stock one imports shutil, bz2, lzma, zlib and fnmatch for the width."""

    def __init__(self, *args, **kwargs) -> None:
        self._deferred = (args, kwargs)

    def __getattr__(self, name: str):
        deferred = self.__dict__.pop("_deferred", None)
        if deferred is None:
            raise AttributeError(name)
        super().__init__(*deferred[0], **deferred[1])
        return getattr(self, name)


@functools.cache  # an argparse parser is cyclic: build one per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nekrasov",
        description="Exact Nekrasov partition functions on the A1 orbifold "
        "and its resolution, with identity checks by rational sampling.",
        formatter_class=_HelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True, prog="nekrasov")
    sub = functools.partial(commands.add_parser, formatter_class=_HelpFormatter)

    compute = sub("compute", help="compute one series and print it")
    compute.add_argument("target", choices=["zx0", "zx1", "zp2", "zx1-fact"])
    _add_series_flags(compute)

    check = sub("check", help="verify functional equations")
    check.add_argument("target", choices=["main", "mult", "symmetry", "must", "all"])
    _add_series_flags(check)

    walls = sub("walls", help="list walls for a dimension vector")
    walls.add_argument("--v0", type=int, required=True)
    walls.add_argument("--v1", type=int, required=True)
    walls.add_argument("--json", action="store_true")

    imo = sub("imo-point", help="convert an evaluation point to the alternate convention")
    imo.add_argument("--eps1", type=_rational, required=True)
    imo.add_argument("--eps2", type=_rational, required=True)
    imo.add_argument("--a", type=_fraction_list, required=True,
                     help="comma-separated framing values, one per slot")
    imo.add_argument("--m", type=_fraction_list, required=True,
                     help="comma-separated mass values, two per slot")
    imo.add_argument("--k", type=_half_int, default=None,
                     help="optionally report the flipped total Chern datum c = -k")
    return parser


def _resolve_threads(parser: argparse.ArgumentParser, args) -> None:
    """Validate NEKRASOV_THREADS when it is set, else --threads; a bad
    value is a usage error.  Evaluation is sequential, so the count itself
    is not used."""
    env = os.environ.get("NEKRASOV_THREADS")
    if env is None:
        if args.threads < 1:
            parser.error("--threads must be >= 1")
    else:
        try:
            threads = int(env)
        except ValueError:
            parser.error(f"NEKRASOV_THREADS must be an integer, got {env!r}")
        if threads < 1:
            parser.error("NEKRASOV_THREADS must be >= 1")


def _request(parser: argparse.ArgumentParser, args) -> tuple[SeriesPair, SampleConfig]:
    """The series pair and sampling protocol of a `compute` or `check`
    request; a bad flag is a usage error (exit 2)."""
    if args.w0 < 0 or args.w1 < 0 or args.w0 + args.w1 < 1:
        parser.error("need --w0, --w1 >= 0 with w0 + w1 >= 1")
    if args.max_n < 0:
        parser.error("--max-n must be >= 0")
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    _resolve_threads(parser, args)
    frame = FrameData(args.w0, args.w1)
    pair = SeriesPair(frame, args.k, 4 * args.max_n + frame.w1)
    return pair, SampleConfig(seed=args.seed, trials=args.trials)


def _cmd_compute(parser: argparse.ArgumentParser, args) -> int:
    pair, cfg = _request(parser, args)
    frame = pair.key[0]
    span = pair.grades(args.target)
    points, resamples = sample_points(cfg, pair.pole_forms(args.target), frame.r)
    values = [pair.values(args.target, p) for p in points]
    grades = [
        {
            "grade4n": g,
            "n": format_rational(Fraction(g, 4)),
            "values": [format_rational(v[g]) for v in values],
        }
        for g in span
    ]
    payload = {
        "series": args.target,
        "w": [frame.w0, frame.w1],
        "k": str(args.k),
        "max_4n": span[-1],
        "grade_offset": span.start,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "points": [
            {v.name: format_rational(p[v]) for v in scope_vars(frame.r)}
            for p in points
        ],
        "resamples": resamples,
        "grades": grades,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"series={args.target} w=({frame.w0},{frame.w1}) k={args.k} "
        f"max_4n={span[-1]} grade_offset={span.start} "
        f"seed={cfg.seed} trials={cfg.trials}"
    )
    for trial, point in enumerate(points):
        rendered = ", ".join(
            f"{v.name}={format_rational(point[v])}" for v in scope_vars(frame.r)
        )
        print(f"point[{trial}]: {rendered}")
    for entry in grades:
        print(
            f"grade {entry['grade4n']} (n={entry['n']}): "
            + " ".join(entry["values"])
        )
    return 0


def _print_report(report: VerificationReport) -> None:
    head = report.to_dict()
    print(
        f"[{head['check']}] w=({head['w'][0]},{head['w'][1]}) k={head['k']} "
        f"max_4n={head['max_4n']} seed={head['seed']} trials={head['trials']}"
    )
    for record in report.grades:
        tag = "".join(f" {key}={value}" for key, value in record.tags.items())
        cells = []
        for lhs, rhs in record.values:
            if lhs == rhs:
                cells.append("ok")
            else:
                cells.append(f"MISMATCH lhs={format_rational(lhs)} rhs={format_rational(rhs)}")
        print(f"  grade {record.grade4n}{tag}: " + " ".join(cells))
    print("PASS" if report.passed else "FAIL")


def _cmd_check(parser: argparse.ArgumentParser, args) -> int:
    pair, cfg = _request(parser, args)
    if args.target == "all":
        names = ["main", "mult", "symmetry"]
        if args.k.doubled >= 0:
            names.append("must")
    else:
        names = [args.target]
    if "must" in names and args.k.doubled < 0:
        parser.error("check must requires k >= 0")
    reports = [_CHECKS[name](pair, cfg) for name in names]  # each series built once
    if args.json:
        if args.target == "all":
            print(json.dumps([r.to_dict() for r in reports], indent=2))
        else:
            print(json.dumps(reports[0].to_dict(), indent=2))
    else:
        for report in reports:
            _print_report(report)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_walls(parser: argparse.ArgumentParser, args) -> int:
    if args.v0 < 0 or args.v1 < 0:
        parser.error("need --v0, --v1 >= 0")
    walls = enum_walls(args.v0, args.v1)
    if args.json:
        entries = []
        for wall in walls:
            entry = {"kind": wall.kind}
            entry["m" if wall.kind == "real" else "p"] = wall.index
            entry["root"] = list(wall.root)
            entries.append(entry)
        print(json.dumps({"v": [args.v0, args.v1], "walls": entries}, indent=2))
        return 0
    for wall in walls:
        label = "m" if wall.kind == "real" else "p"
        print(f"{wall.kind} {label}={wall.index} root=({wall.root[0]},{wall.root[1]})")
    return 0


def _cmd_imo_point(parser: argparse.ArgumentParser, args) -> int:
    r = len(args.a)
    if r < 1:
        parser.error("--a needs at least one value")
    if len(args.m) != 2 * r:
        parser.error(f"--m needs exactly {2 * r} values for {r} framing slots")
    frame = FrameData(r, 0)  # only r matters for the conversion
    point = {EPS1: args.eps1, EPS2: args.eps2}
    for alpha, value in enumerate(args.a, start=1):
        point[var_a(alpha)] = value
    for f, value in enumerate(args.m, start=1):
        point[var_m(f)] = value
    converted = map_to_imo(point, frame)
    for name, value in converted.items():
        print(f"{name} = {format_rational(value)}")
    if args.k is not None:
        print(f"c = {-args.k}")
    return 0


_VALUE_FLAGS = {"--k", "--eps1", "--eps2", "--a", "--m"}


def _merge_negative_values(argv: list) -> list:
    """Rewrite ["--k", "-1/2"] as ["--k=-1/2"] so argparse does not read a
    negative fraction as an option string."""
    out, i = [], 0
    while i < len(argv):
        arg = argv[i]
        if arg in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    # The engine allocates no reference cycles (see `nekrasov.diagrams`),
    # so reference counting frees all its garbage.  The cyclic collector
    # would only re-scan the growing heap of forms, pieces and terms a
    # request builds (11-22% of `check all` near the ~10 s frontier), so
    # it is off for the request; the caller's setting comes back after.
    # The limit on int-to-str digits (Python 3.10.7 on) is lifted the same
    # way: an exact value can run past its default 4300 digits, as rank 50
    # at max-n 1 does.
    enabled = gc.isenabled()
    limit = getattr(sys, "set_int_max_str_digits", None)
    digits = sys.get_int_max_str_digits() if limit else 0
    gc.disable()
    if limit:
        limit(0)
    try:
        return _run(argv)
    finally:
        if limit:
            limit(digits)
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    for arg in argv:  # argparse reads "--flag=--" as an empty list of values
        if arg.startswith("--") and arg.endswith("=--"):
            parser.error(f"argument {arg[:-3]}: expected one argument")
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(parser, args)
        if args.command == "check":
            return _cmd_check(parser, args)
        if args.command == "walls":
            return _cmd_walls(parser, args)
        return _cmd_imo_point(parser, args)
    except (VanishingWeight, ResampleExhausted) as err:
        print(f"nekrasov: internal error: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    """Run `main` and exit with its code, or with 141 (128 + SIGPIPE) and no
    traceback when stdout closes early; the exit flush then goes to devnull."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entry()
