"""The benchmark's workloads: which ``nekrasov`` invocations each one runs.

A workload is a fixed list of command lines.  The workload seed passed to
the benchmark is turned into each invocation's ``--seed``; the engine sees
only the generated argv.  Invocations that share a ``seed_group`` get the
same ``--seed``, so their sample points coincide and their outputs can be
compared with each other (``compute zx1`` against ``compute zx1-fact``).

README.md in this directory says why each workload exists and which
optimisation it should show.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# The workload seed at which every invocation's stdout sha256 is pinned in
# pinned.json.  161 is also the engine's own default --seed.
DEFAULT_SEED = 161

PINNED_FILE = Path(__file__).with_name("pinned.json")


@dataclass(frozen=True)
class Invocation:
    """One command line, without the --seed and --json the harness adds."""

    argv: tuple[str, ...]
    seed_group: int


def _inv(text: str, seed_group: int) -> Invocation:
    return Invocation(tuple(text.split()), seed_group)


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # check all near the ~10 s frontier: all four checks, both main
    # branches (k = 0), half-integer k with mixed colours, duplicate builds.
    "frontier": (
        _inv("check all --w0 2 --w1 0 --k 0 --max-n 3 --trials 5", 0),
        _inv("check all --w0 1 --w1 1 --k 1/2 --max-n 3 --trials 5", 1),
    ),
    # Evaluation-bound: must re-reads every orbifold coefficient at each
    # later grade; main with many trials evaluates each term 20 times.
    "eval-deep": (
        _inv("check must --w0 1 --w1 0 --k 1 --max-n 8 --trials 10", 0),
        _inv("check main --w0 2 --w1 0 --k 1 --max-n 3 --trials 20", 1),
    ),
    # Construction-bound: rank 3 (11 variables) with one sample point.
    "build-wide": (
        _inv("compute zx0 --w0 1 --w1 2 --k 0 --max-n 3 --trials 1", 0),
        _inv("compute zx1 --w0 1 --w1 2 --k 0 --max-n 3 --trials 1", 1),
        _inv("compute zx1-fact --w0 1 --w1 2 --k 0 --max-n 3 --trials 1", 1),
    ),
}

# Smoke size used by the harness's own tests: the same command lines cut
# down to one instanton level and two sample points.
_SMOKE = {"--max-n": "1", "--trials": "2"}


def invocation_seed(workload: str, workload_seed: int, seed_group: int) -> int:
    """A 64-bit --seed that depends only on its three arguments."""
    text = f"{workload}/{workload_seed}/{seed_group}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def command_lines(workload: str, workload_seed: int, smoke: bool = False) -> list[list[str]]:
    """The argv of every invocation of a workload, in run order."""
    out = []
    for inv in WORKLOADS[workload]:
        argv = list(inv.argv)
        if smoke:
            for i in range(len(argv) - 1):
                if argv[i] in _SMOKE:
                    argv[i + 1] = _SMOKE[argv[i]]
        seed = invocation_seed(workload, workload_seed, inv.seed_group)
        out.append(argv + ["--seed", str(seed), "--json"])
    return out


def pinned_hashes(workload: str) -> list[str]:
    """stdout sha256 of each invocation at DEFAULT_SEED, full size."""
    with PINNED_FILE.open() as fh:
        return json.load(fh)[workload]
