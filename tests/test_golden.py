"""Byte-for-byte guard on the two text backends.

``tests/fixtures/golden/`` holds the ``--target flat`` and ``--target clp``
output of ``pivotc compile`` with the default passes for every fixture
(golfers once per data file).  A change to the passes, the lowering or the
emitters that alters a single byte of either backend fails here.
"""

import pytest

from pivotc.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"

CASES = [
    ("golfers", "golfers.som", "golfers.dat"),
    ("golfers_small", "golfers.som", "golfers_small.dat"),
    ("queens4", "queens4.som", None),
    ("queens5", "queens5.som", None),
    ("queens6", "queens6.som", None),
    ("send", "send.som", None),
]


@pytest.mark.parametrize("target,ext", [("flat", "flat"), ("clp", "ecl")])
@pytest.mark.parametrize("stem,model,data", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(tmp_path, stem, model, data, target, ext):
    out = tmp_path / f"{stem}.{ext}"
    argv = ["compile", "-m", str(FIXTURES / model), "--target", target, "-o", str(out)]
    if data is not None:
        argv += ["-d", str(FIXTURES / data)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.{ext}").read_bytes()
