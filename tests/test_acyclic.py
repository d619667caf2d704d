"""The engine allocates no reference cycles: every object a series build,
a kernel compile, a check or a whole `cli.main` request makes is freed by
reference counting alone.  This is what lets `cli.main` run a request
with the cyclic collector off."""

import gc

import pytest

from nekrasov import cli
from nekrasov.diagrams import FrameData, HalfInt
from nekrasov.verify import (
    SampleConfig,
    SeriesPair,
    check_factorization,
    check_main,
    check_recursion_must,
    check_symmetry,
)


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "w0, w1, k, max_n",
    [(1, 0, "0", 3), (1, 1, "1/2", 2), (1, 2, "1", 1)],
)
def test_builds_and_checks_leave_no_cyclic_garbage(collector_off, w0, w1, k, max_n):
    gc.collect()
    frame = FrameData(w0, w1)
    pair = SeriesPair(frame, HalfInt.parse(k), 4 * max_n + w1)
    for name in ("zx0", "zx1", "zx1-fact", "zp2"):
        pair.series(name)
        pair.pole_forms(name)  # compiles the series' kernel
        assert gc.collect() == 0, name
    cfg = SampleConfig(seed=161, trials=2)
    for check in (check_main, check_factorization, check_symmetry, check_recursion_must):
        check(pair, cfg)
        assert gc.collect() == 0, check.__name__


def test_requests_leave_no_cyclic_garbage(collector_off, capsys):
    # argparse's parser is cyclic, and building it leaves cyclic garbage,
    # so it is built once per process: after the first request, none
    # leaves any
    cli.main(["walls", "--v0", "0", "--v1", "0"])
    gc.collect()
    argvs = (
        ["check", "all", "--w0", "1", "--w1", "1", "--k", "1/2", "--max-n", "1", "--trials", "2"],
        ["walls", "--v0", "1", "--v1", "2"],
    )
    for argv in argvs:
        assert cli.main(argv) == 0
        assert gc.collect() == 0, argv[0]
    capsys.readouterr()
