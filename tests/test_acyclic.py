"""The engine allocates no reference cycles: every object a series build,
a kernel compile or a check makes is freed by reference counting alone.
This is what lets `cli.main` run a request with the cyclic collector off."""

import gc

import pytest

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
    for name in ("zx0", "zx1", "zx1-fact", "zp2", "prefactor"):
        pair.series(name)
        pair.pole_forms(name)  # compiles the series' kernel
        assert gc.collect() == 0, name
    cfg = SampleConfig(seed=161, trials=2)
    for check in (check_main, check_factorization, check_symmetry, check_recursion_must):
        check(pair, cfg)
        assert gc.collect() == 0, check.__name__
