"""Byte-for-byte guard on the two text backends.

``tests/fixtures/golden/`` holds the ``--target flat``, ``--target clp``
and ``--target pivot`` output of ``pivotc compile`` with the default passes
for every fixture (golfers once per data file), and the flat output of the
queens fixtures under the relaxation and boolean alldifferent
reformulations (``<stem>.<mode>.flat``; send's domains fit neither).  ``wide_classes.som`` exercises objectFlatten:
scalar and array instances, nested object arrays, navigation, class
constants, enum-set features and zones in the main and the part classes.
A change to the passes, the lowering or the emitters that alters a single
byte of either backend fails here.  Golfers at benchmark scale is checked
by the sha256 of its flat output.
"""

import copy
import hashlib

import pytest

from pivotc import ir
from pivotc.cli import DEFAULT_PASSES, FLAT_EXTRA_PASSES, main
from pivotc.flat import emit_flat, lower_to_flat
from pivotc.parser import SourceUnit, parse
from pivotc.passes import PassConfig, run_pipeline

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"

CASES = [
    ("golfers", "golfers.som", "golfers.dat"),
    ("golfers_small", "golfers.som", "golfers_small.dat"),
    ("queens4", "queens4.som", None),
    ("queens5", "queens5.som", None),
    ("queens6", "queens6.som", None),
    ("send", "send.som", None),
    ("wide_classes", "wide_classes.som", None),
]


@pytest.mark.parametrize("target,ext", [("flat", "flat"), ("clp", "ecl"), ("pivot", "pivot")])
@pytest.mark.parametrize("stem,model,data", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(tmp_path, stem, model, data, target, ext):
    out = tmp_path / f"{stem}.{ext}"
    argv = ["compile", "-m", str(FIXTURES / model), "--target", target, "-o", str(out)]
    if data is not None:
        argv += ["-d", str(FIXTURES / data)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.{ext}").read_bytes()


@pytest.mark.parametrize("mode", ["relaxation", "boolean"])
@pytest.mark.parametrize("stem", ["queens4", "queens5", "queens6"])
def test_flat_under_each_reformulation_matches_golden(tmp_path, stem, mode):
    out = tmp_path / f"{stem}.flat"
    argv = ["compile", "-m", str(FIXTURES / f"{stem}.som"), "--target", "flat", "--alldiff", mode,
            "-o", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.{mode}.flat").read_bytes()


# Social golfers w10 g10 s4 (5,050 flat constraints), where loopUnroll
# shares each distinct cell reference between the constraints that read it.
SCALE_DATA = (
    "enum Name := {" + ", ".join(f"p{k}" for k in range(1, 41)) + "};\n"
    "int s := 4;\nint w := 10;\nint g := 10;\n"
)
# sha256 of the .flat output before unrolled instances shared subtrees
SCALE_FLAT_SHA256 = "0d1c13b4900b43d5bfc37f674ccd6e476dd01d96299446c54e6b7d100b35d8fb"


def test_golfers_at_scale_matches_golden(tmp_path):
    data = tmp_path / "golfers.dat"
    data.write_text(SCALE_DATA)
    out = tmp_path / "golfers.flat"
    argv = ["compile", "-m", str(FIXTURES / "golfers.som"), "-d", str(data),
            "--target", "flat", "-o", str(out)]
    assert main(argv) == 0
    text = out.read_bytes()
    assert len(text) == 499392
    assert hashlib.sha256(text).hexdigest() == SCALE_FLAT_SHA256


def _nodes(model):
    return [n for e in model.elements for n in ir.walk_expr(e)]


def test_lowering_ignores_sharing():
    # the unrolled model shares subtrees between constraints; a per-node copy
    # shares none (copy.deepcopy would keep the aliasing) and lowers the same
    model = parse(SourceUnit(
        (FIXTURES / "golfers.som").read_text(), SCALE_DATA, "golfers.som", "golfers.dat"
    ))
    unrolled, _ = run_pipeline(model, PassConfig(DEFAULT_PASSES + FLAT_EXTRA_PASSES))
    unshared = ir.map_expr(unrolled, copy.copy)
    shared_nodes, copied_nodes = _nodes(unrolled), _nodes(unshared)
    assert len({id(n) for n in shared_nodes}) < len(shared_nodes)
    assert len({id(n) for n in copied_nodes}) == len(copied_nodes)
    assert emit_flat(lower_to_flat(unshared)) == emit_flat(lower_to_flat(unrolled))
