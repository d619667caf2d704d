"""The engine allocates no reference cycles: every object a series build,
a kernel compile, a check or a whole `cli.main` request makes is freed by
reference counting alone.  This is what lets `cli.main` run a request
with the cyclic collector off.  A series pair keeps no series either:
each is freed as soon as its kernel is compiled."""

import gc
import weakref

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
from whole_fixed_point import expanded_terms


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


@pytest.mark.parametrize(
    "w0, w1, k, max_n",
    [(1, 0, "0", 3), (1, 1, "1/2", 2), (1, 2, "1", 1)],
)
def test_no_series_outlives_its_compile(collector_off, monkeypatch, w0, w1, k, max_n):
    from nekrasov import verify

    built = {}  # series name -> weakrefs to the series and a sample of its pieces

    def recording(name, build):
        def wrapper(*args):
            series = build(*args)
            pieces = []
            assert (series.compiled is None) == (name != "series_zx0"), name
            if series.compiled is None:  # zx0 is compiled as built and holds no piece
                terms = [t for c in series.coeffs.values() for t in expanded_terms(c)]
                pieces = [piece for t in terms[:3] + terms[-3:] for piece in t]
                assert pieces, name
            built[name] = [weakref.ref(series)] + [weakref.ref(piece) for piece in pieces]
            return series

        return wrapper

    for name in ("series_zx0", "series_zx1", "series_zx1_factorized", "series_zp2"):
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    pair = SeriesPair(FrameData(w0, w1), HalfInt.parse(k), 4 * max_n + w1)
    cfg = SampleConfig(seed=161, trials=2)
    for check in (check_main, check_factorization, check_symmetry, check_recursion_must):
        check(pair, cfg)
    pair.pole_forms("zp2")
    assert set(built) == {"series_zx0", "series_zx1", "series_zx1_factorized", "series_zp2"}
    for name, refs in built.items():
        assert all(ref() is None for ref in refs), name


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
