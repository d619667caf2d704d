"""Byte-identity of JSON reports: the stdout sha256 of small CLI runs at
the default seed (161), pinned.

A change to sampling, evaluation or report formatting that alters even one
byte of a report fails here.  The values were recorded from the engine
before its integer evaluation kernel, so they also pin that the kernel
reproduces exact ``Fraction`` evaluation."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nekrasov

SRC = str(Path(nekrasov.__file__).resolve().parents[1])

GOLDEN = [
    (
        "check all --w0 1 --w1 0 --k 0 --max-n 2",
        "77007b8297a0d987f017503db7ca1306eeb8b9547ae02cb31c4f47150e61b973",
    ),
    (
        "check all --w0 1 --w1 1 --k 1/2 --max-n 1",
        "62d098b1731f13facc3d479add242f991c54d0831de825bc16442ed3b97a30bb",
    ),
    (
        "compute zx1-fact --w0 1 --w1 1 --k 1/2 --max-n 2",
        "5f0ae6265d0d1bd9b725b646d14ed9ad9ac3f6b03583f566730c993cd0fdb277",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_report_sha256_is_pinned(argv, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nekrasov.cli", *argv.split(), "--json"],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
