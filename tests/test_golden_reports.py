"""Byte-identity of reports: the stdout sha256 of small CLI runs, pinned,
at the default seed (161) unless a run names its own.  Every run goes
through ``python -S``, so no site-packages module can enter a report,
and CI runs this file at two hash seeds.  Each argv carries its own
``--json``; the two without it pin the text output (report headers and
sample points named by variable).

A change to sampling, evaluation or report formatting that alters even one
byte of a report fails here.  The first three values were recorded from
the engine before its integer evaluation kernel, so they also pin that the
kernel reproduces exact ``Fraction`` evaluation; the next two were recorded
while sign flips were still applied symbolically to every term, so they pin
that evaluating at the flipped point changes nothing.  The three ``compute``
runs at rank 2 and 3 exercise term construction; they were recorded while
linear forms still held ``Fraction`` coefficients, so they pin that the
int-coded forms build the same terms.  The last two were recorded while
every check built its own series and the blow-up side rebuilt the plane
series for each chart, so they pin that sharing both changes nothing.  The
rank-3 ``check all`` at k = 0 was recorded while symmetry and must still
evaluated both series at every flipped point, so it pins that reading
those values off each coefficient's degree and the shared value table
changes nothing.  ``compute zp2`` at w1 = 4 was recorded while ``compute``
built its series outside ``verify.SeriesPair``; it pins the plane series'
truncation at (max4n - w1)/4 levels, which ``max4n // 4`` would overshoot
by one.  The last three were recorded while every fixed point's term was
built from its whole characters, before terms were read off factors
cached per slot and slot pair; they run at sizes where those cached pieces
repeat across fixed points (rank 3 with k != 0 on both surfaces, and the
blow-up side at half-integer k, where one chart image serves many terms),
so they pin that the cached pieces build the same terms.  ``check must``
at rank 1 was recorded while every term was evaluated factor by factor and
added as its own ``Fraction``, before each series was read through one
compiled kernel; it reads deep rank-1 coefficients at several points, so
it pins that the kernel's shared slots and one-``Fraction``-per-coefficient
sums give the same values.  ``check all`` at rank 4 was recorded while
every fixed point's term was still one merged ``FactoredTerm``, before
terms became products of their cached pieces, each piece compiled and
evaluated once per point; until then no pin reached rank 4, where a term
has 4 slot pieces and 16 slot-pair pieces (on the resolved side, three
per slot and per slot pair), so it pins that products of pieces give the
same values where the most pieces meet.  ``compute zx0`` at w = (2,1) and
k = 1/2 was recorded while arms and legs were measured with one transpose
per box and each orbifold piece was filtered to its Z2-invariant part
monomial by monomial, before the builders read one transpose per diagram,
kept that part by one parity test with the slot pair's color offset, and
built each form once per series build; its slot pairs of mixed colors have
offset 1 and its diagrams reach several columns, so it pins that the
inline filter and the shared forms build the same terms.  The two
``check main`` runs at k = 1/2 were recorded while main's k >= 0
prefactor was a series of terms, compiled and evaluated like the others,
and must's weights a separate recurrence, before both became one numeric
side; they read the prefactor to u^6 at r = 1 and to u^4 at r = 2, where
its sign -(-1)^r is -1, so they pin that the numeric side gives the same
values.  ``compute zx0`` at w = (1,0), k = 0 and max-n 8 was recorded
while each piece's character was a ``Counter`` of (p, q, e) monomials,
before pieces became lists of (p, q) pairs merged once per piece with
their e-part passed once; its diagrams reach 16 boxes, and 303 of its
866 non-unit pieces repeat a hook weight, so it pins that the merge keeps
every exponent and the first-seen factor order.  The last ten were
pinned in CI's smoke step alone before they joined this table: ``check
must`` at rank 1 to max-n 8, the five benchmark invocations of the
frontier and build-wide workloads at full size and their own seeds, two
``check all`` runs whose zx1 grades hold several chart parts per side
(w = (2,0) to max-n 6, and k = -1/2), and the two text outputs."""

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
        "check all --w0 1 --w1 0 --k 0 --max-n 2 --json",
        "77007b8297a0d987f017503db7ca1306eeb8b9547ae02cb31c4f47150e61b973",
    ),
    (
        "check all --w0 1 --w1 1 --k 1/2 --max-n 1 --json",
        "62d098b1731f13facc3d479add242f991c54d0831de825bc16442ed3b97a30bb",
    ),
    (
        "compute zx1-fact --w0 1 --w1 1 --k 1/2 --max-n 2 --json",
        "5f0ae6265d0d1bd9b725b646d14ed9ad9ac3f6b03583f566730c993cd0fdb277",
    ),
    # rank 2, where the sign flips move a-difference forms
    (
        "check all --w0 2 --w1 0 --k 0 --max-n 1 --json",
        "fbf31b7c988736cd4ff626db77cc1274d559425e50969bd9b1a8ad182113f6ac",
    ),
    # k < 0: only the k <= 0 branch of main, and no must
    (
        "check all --w0 1 --w1 1 --k -1/2 --max-n 1 --json",
        "37344438ecdcb09ec6fa3e48b1ef463106619ce368381ac25cab1776f8af6e3c",
    ),
    # term construction at rank 3 on both surfaces, and the plane at rank 2
    (
        "compute zx0 --w0 1 --w1 2 --k 0 --max-n 1 --json",
        "c8561374135f4361e45d12837423b8099050ddf4980366f97172ea739f4b2078",
    ),
    (
        "compute zx1 --w0 1 --w1 2 --k 0 --max-n 1 --json",
        "15ef320343a5e2a86ab1bc6a62749f59da6efc6b60be6b075ffdcaddd92805dd",
    ),
    (
        "compute zp2 --w0 2 --w1 0 --k 0 --max-n 2 --json",
        "c27873e5087b4837b3c8a353389eeed724daa3da21223ad50f4b34b6f2c21a86",
    ),
    # the blow-up side at rank 3, and check all at an integer k > 0
    (
        "compute zx1-fact --w0 1 --w1 2 --k 0 --max-n 1 --json",
        "ef7c23bfc4affb9c27da40473cbe1e472b6ce4bca2c17f87c81db6ab31b66f3d",
    ),
    (
        "check all --w0 2 --w1 0 --k 1 --max-n 2 --json",
        "20192026ec14ffda9c58cb34a8be57fd962ba9560e686650028a28becb6a40f4",
    ),
    # both main branches, symmetry at degree -2 and must at rank 3
    (
        "check all --w0 1 --w1 2 --k 0 --max-n 1 --json",
        "850eb2241a2f28a6046f6f342a6d42978f609b8dbeb152681535efabf97711ff",
    ),
    # the plane series at w1 >= 4, built through the series pair
    (
        "compute zp2 --w0 1 --w1 4 --k 0 --max-n 2 --json",
        "1d183ce500bb74c1df5f11e605c8d964482c2312d8d1bdac3e3b44bc23f7dce2",
    ),
    # cached slot and slot-pair factors reused across fixed points
    (
        "check all --w0 1 --w1 2 --k 1 --max-n 2 --json",
        "75ef340b71d3b5bb8c7cf97482d0aa33226201896415bdc7ce63e1003bb6380f",
    ),
    (
        "check all --w0 3 --w1 0 --k -1 --max-n 2 --json",
        "e6a8ba353e3f7bf74650525e4a0fbd85c8a475c3f6675f144cc51727235e7185",
    ),
    (
        "compute zx1-fact --w0 2 --w1 1 --k -1/2 --max-n 3 --json",
        "dc867e1028647a51f3500c361aa0df42a7a92937f6e323e3a56b2d78721b5a5a",
    ),
    # deep rank-1 coefficients read through one compiled kernel per series
    (
        "check must --w0 1 --w1 0 --k 1 --max-n 5 --trials 3 --json",
        "ec1a790754a384d4e5f8cb85d1e44d0f795f1be7e70ac24bc4f99e170e3d1132",
    ),
    # rank 4, each term a product of its cached pieces
    (
        "check all --w0 2 --w1 2 --k 0 --max-n 1 --json",
        "86aa04fdf5453e31d9110e5ece5eeae418d7e51834559c9c821b71d4f76fa82b",
    ),
    # mixed-color slot pairs and multi-column diagrams on the orbifold
    (
        "compute zx0 --w0 2 --w1 1 --k 1/2 --max-n 3 --json",
        "ae0103e3513186665ed4daa1ea001c64b1f879526ddb24fe2cf55f5b09860f1b",
    ),
    # main's k >= 0 prefactor read deep, at both signs of -(-1)^r
    (
        "check main --w0 0 --w1 1 --k 1/2 --max-n 6 --json",
        "325037a026f13d1decdaac3d489dee4c10535c6c6ece8cb4fcf040ef7c1fc069",
    ),
    (
        "check main --w0 1 --w1 1 --k 1/2 --max-n 4 --json",
        "a8ce3f73887e0aac99967da82c1199edcaaa701ebb0b2b82cceeb6e06d0c17ca",
    ),
    # orbifold pieces with repeated hook weights, diagrams up to 16 boxes
    (
        "compute zx0 --w0 1 --w1 0 --k 0 --max-n 8 --json",
        "491461699834920e6d2bee6ef4cc3f6723d1e114e0ed125d5dc1243a31aa0977",
    ),
    # rank-1 must read deep: every orbifold term is one numerator set over
    # one denominator set
    (
        "check must --w0 1 --w1 0 --k 1 --max-n 8 --trials 2 --json",
        "8ece3d46ffbde155c56254f9ebde59fc9f9487578438a6947df0fb3fe107527e",
    ),
    # the benchmark's frontier invocations at full size: every kernel read
    # goes through its rows and frame parts
    (
        "check all --w0 2 --w1 0 --k 0 --max-n 3 --trials 5 --seed 7960282491362185493 --json",
        "ed2c6385b8658489396a760f02950ef1ba1049db8aa97786121f0ad731d4e50c",
    ),
    (
        "check all --w0 1 --w1 1 --k 1/2 --max-n 3 --trials 5 --seed 6613868079402153961 --json",
        "d6fd1335ddbe4962f9645a6df69050e68441ff8ff6a488314eb447c5739d508c",
    ),
    # the benchmark's build-wide invocations: rank-3 zx1-fact images every
    # chart through the int rules
    (
        "compute zx0 --w0 1 --w1 2 --k 0 --max-n 3 --trials 1 --seed 16919262418644769328 --json",
        "cf55091609b3649ae0dba0217dc6caa6fb738818b2ad2cf4f9e0829dcf32345f",
    ),
    (
        "compute zx1 --w0 1 --w1 2 --k 0 --max-n 3 --trials 1 --seed 15281496796322986471 --json",
        "3b18e1032fce563c61601f0016e1e77abb3edc538b85fedf47836111a8f0f30c",
    ),
    (
        "compute zx1-fact --w0 1 --w1 2 --k 0 --max-n 3 --trials 1 --seed 15281496796322986471 --json",
        "6a1f181875fb9a714073bfa92557fb5486018455ff031c397c4509d4c6ff9a6d",
    ),
    # zx1 grades as one term per rectangle, with several parts on each side
    (
        "check all --w0 2 --w1 0 --k 0 --max-n 6 --json",
        "474b577767d09d625ded64b1e6839ca7999172a337091bf653181a09e3fcbe89",
    ),
    # negative k: zx1 grades hold several parts per side, each a sum the
    # kernel compiles once
    (
        "check all --w0 2 --w1 1 --k -1/2 --max-n 3 --json",
        "f1ce051e865a864ddc0b2ea3e4cd0ae055ef52b3867917a9d44098bd443e24e6",
    ),
    # text (non-JSON) output: report headers and sample points named by
    # variable
    (
        "check all --w0 1 --w1 1 --k 1/2 --max-n 1",
        "ce2ea1496ed2cddc42afbf81fa3652df6d7dd11a2e7aac8019e233fc97cfea08",
    ),
    (
        "compute zx1-fact --w0 1 --w1 2 --k 0 --max-n 2",
        "21e55474ebf2790b98072c05a2d2b51e4ae575895722ca232b9cde33b32c33e2",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_report_sha256_is_pinned(argv, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "nekrasov.cli", *argv.split()],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
