"""The contract of the small value classes outside the IR: constructors and
defaults, equality and hash, repr and str, immutability and pickling."""

import copy
import pickle

import pytest

from pivotc import ir
from pivotc.clp import ClpEmitOptions
from pivotc.errors import Diagnostic, Loc
from pivotc.flat import FlatProgram, FlatVar
from pivotc.oracle import Assignment, SolutionSet
from pivotc.parser import SourceUnit
from pivotc.passes import PassConfig, PassReport


def _values():
    """One instance of each class, every field set away from its default."""
    return [
        Loc(3, 4, "m.som"),
        Diagnostic("warning", "odd", 2, 7, "m.som"),
        SourceUnit("int x;", "int y;", "m.som", "m.dat"),
        PassConfig(("enumRemove", "loopUnroll"), "relaxation"),
        PassReport("loopUnroll", 3, 9, 2),
        FlatVar("x__1", "int", 1, 3),
        FlatProgram((FlatVar("b", "bool"),), (ir.VarOccurrence("b"),)),
        ClpEmitOptions("p", False),
        Assignment({"x": 1, "s": frozenset({2})}),
        SolutionSet(("x",), ((1,), (2,)), False, 5),
    ]


def test_values_construct_positionally_and_by_keyword_with_defaults():
    assert Loc() == Loc(0, 0, "") == Loc(line=0, col=0, file="")
    assert Loc(3, 4, "m.som") == Loc(file="m.som", col=4, line=3)
    assert (Loc(3, 4, "m.som").line, Loc(3, 4, "m.som").col, Loc(3, 4, "m.som").file) == (3, 4, "m.som")
    d = Diagnostic("error", "bad")
    assert (d.severity, d.message, d.line, d.column, d.file) == ("error", "bad", 1, 1, "")
    assert Diagnostic(message="bad", severity="error", column=1) == d
    u = SourceUnit("int x;")
    assert (u.model_text, u.data_text, u.model_file, u.data_file) == ("int x;", None, "<model>", "<data>")
    assert SourceUnit(model_text="int x;", data_file="<data>") == u
    c = PassConfig()
    assert (c.passes, c.alldiff_mode) == ((), "disequalities")
    assert PassConfig(["loopUnroll"]).passes == ("loopUnroll",)  # any iterable, kept as a tuple
    assert PassConfig(alldiff_mode="boolean", passes=("loopUnroll",)).passes == ("loopUnroll",)
    r = PassReport(pass_id="p", elements_before=1, elements_after=2, rewrites_applied=3)
    assert r == PassReport("p", 1, 2, 3) and (r.elements_before, r.rewrites_applied) == (1, 3)
    v = FlatVar("b", "bool")
    assert (v.name, v.kind, v.lo, v.hi) == ("b", "bool", None, None)
    assert FlatVar(hi=3, lo=1, kind="int", name="x") == FlatVar("x", "int", 1, 3)
    assert (FlatProgram().vars, FlatProgram().constraints) == ((), ())
    assert FlatProgram(constraints=(ir.BoolValue(True),)).vars == ()
    o = ClpEmitOptions()
    assert (o.predicate_name, o.label_sets) == (None, True)
    assert ClpEmitOptions(label_sets=False) == ClpEmitOptions(None, False)
    a = Assignment()
    assert a.values == {} and Assignment(values={"x": 1})["x"] == 1
    assert Assignment({"x": 1, "y": 2}).project(["y", "x"]) == (2, 1)
    s = SolutionSet()
    assert (s.names, s.rows, s.complete, s.nodes, len(s)) == ((), (), True, 0, 0)
    s = SolutionSet(rows=((1,), (2,)), names=("x",), nodes=4)
    assert len(s) == 2 and s.solutions == (Assignment({"x": 1}), Assignment({"x": 2}))
    with pytest.raises(TypeError):
        Loc(1, 2, "f", 4)
    with pytest.raises(TypeError):
        Diagnostic("error")
    with pytest.raises(TypeError):
        PassReport("p", 1, 2)
    with pytest.raises(TypeError):
        FlatVar("x")


def test_pass_config_rejects_unknown_and_duplicate_passes():
    with pytest.raises(ValueError, match=r"^unknown pass 'nope'$"):
        PassConfig(("loopUnroll", "nope"))
    with pytest.raises(ValueError, match=r"^duplicate pass in pipeline$"):
        PassConfig(("loopUnroll", "loopUnroll"))
    with pytest.raises(ValueError, match=r"^unknown alldifferent mode 'odd'$"):
        PassConfig((), "odd")


def test_values_compare_and_hash_by_value():
    for value, twin in zip(_values(), _values()):
        assert value == twin and value is not twin, type(value)
        assert not value != twin
        if not isinstance(value, Assignment):
            assert hash(value) == hash(twin), type(value)
    assert Loc(3, 4, "m.som") != Loc(3, 5, "m.som")
    assert hash(Loc(3, 4, "m.som")) == hash((3, 4, "m.som"))
    assert Diagnostic("error", "a") != Diagnostic("warning", "a")
    assert SourceUnit("a") != SourceUnit("a", "")
    assert PassConfig(("loopUnroll",)) != PassConfig(("loopUnroll",), "boolean")
    assert hash(PassConfig(("loopUnroll",))) == hash((("loopUnroll",), "disequalities"))
    assert PassReport("p", 1, 2, 3) != PassReport("p", 1, 2, 4)
    assert FlatVar("x", "int", 1, 3) != FlatVar("x", "int", 1, 4)
    assert FlatProgram((), (ir.IntValue(1),)) != FlatProgram((), (ir.IntValue(2),))
    assert ClpEmitOptions("p") != ClpEmitOptions("q")
    assert Assignment({"x": 1}) != Assignment({"x": 2})
    with pytest.raises(TypeError):
        hash(Assignment({"x": 1}))  # it holds a dict
    # nodes (the search's cost) stays out of equality and hash
    assert SolutionSet(("x",), ((1,),), True, 3) == SolutionSet(("x",), ((1,),), True, 9)
    assert hash(SolutionSet(("x",), ((1,),), True, 3)) == hash((("x",), ((1,),), True))
    assert SolutionSet(("x",), ((1,),)) != SolutionSet(("x",), ((1,),), False)
    assert SolutionSet(("x",), ((1,),)) != SolutionSet(("y",), ((1,),))
    # the classes with behaviour equal only their own class
    assert Assignment({"x": 1}) != ({"x": 1},)
    assert SolutionSet(("x",), ((1,),)) != (("x",), ((1,),), True, 0)
    assert PassConfig() != ((), "disequalities")


def test_values_repr_and_str():
    assert repr(Loc(3, 4, "m.som")) == "Loc(line=3, col=4, file='m.som')"
    assert str(Loc(3, 4, "m.som")) == "m.som:3:4" and str(Loc(1, 2)) == "<input>:1:2"
    d = Diagnostic("error", "bad", 2, 5, "m.som")
    assert repr(d) == "Diagnostic(severity='error', message='bad', line=2, column=5, file='m.som')"
    assert str(d) == "m.som:2:5: error: bad"
    assert str(Diagnostic("warning", "odd")) == "<input>:1:1: warning: odd"
    assert repr(SourceUnit("a")) == (
        "SourceUnit(model_text='a', data_text=None, model_file='<model>', data_file='<data>')"
    )
    assert repr(PassConfig(("loopUnroll",))) == (
        "PassConfig(passes=('loopUnroll',), alldiff_mode='disequalities')"
    )
    r = PassReport("loopUnroll", 3, 9, 2)
    assert repr(r) == (
        "PassReport(pass_id='loopUnroll', elements_before=3, elements_after=9, rewrites_applied=2)"
    )
    assert str(r) == "loopUnroll: elements 3 -> 9, rewrites 2"
    assert repr(FlatVar("b", "bool")) == "FlatVar(name='b', kind='bool', lo=None, hi=None)"
    assert repr(FlatProgram((FlatVar("x", "int", 1, 2),), (ir.IntValue(1),))) == (
        "FlatProgram(vars=(FlatVar(name='x', kind='int', lo=1, hi=2),), "
        "constraints=(IntValue(v=1),))"
    )
    assert repr(ClpEmitOptions()) == "ClpEmitOptions(predicate_name=None, label_sets=True)"
    assert repr(Assignment({"x": 1})) == "Assignment(values={'x': 1})"
    assert repr(SolutionSet(("x",), ((1,),), True, 3)) == (
        "SolutionSet(names=('x',), rows=((1,),), complete=True, nodes=3)"
    )
    for value in _values():
        if not isinstance(value, (Loc, Diagnostic, PassReport)):
            assert str(value) == repr(value), type(value)


def test_values_refuse_assignment():
    for value in _values():
        name = next(n for n in ("line", "severity", "model_text", "passes", "pass_id",
                                "name", "vars", "label_sets", "values", "rows")
                    if hasattr(value, n))
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        if not isinstance(value, Assignment):  # see the test below
            with pytest.raises(AttributeError):
                value.extra = 1
        assert getattr(value, name) is before, type(value)


def test_assignment_refuses_unknown_attributes():
    # as a slotted frozen dataclass (Python 3.11) it raised TypeError here
    a = Assignment({"x": 1})
    with pytest.raises(AttributeError):
        a.extra = 1


def test_values_survive_pickle_and_copies():
    for value in _values():
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value, type(value)
    s = pickle.loads(pickle.dumps(SolutionSet(("x",), ((1,),), True, 7)))
    assert s.nodes == 7


def test_assignments_carry_no_instance_dict():
    # a read of solutions can build 10^6 of them
    assert not hasattr(Assignment({"x": 1}), "__dict__")


def test_pass_config_refuses_a_string_pass_list():
    # a string is an iterable of characters; it is refused as a whole
    with pytest.raises(ValueError) as info:
        PassConfig("loopUnroll")
    assert str(info.value) == "pass list is the string 'loopUnroll', not a sequence of pass ids"


def test_values_use_one_of_two_immutability_idioms():
    # a NamedTuple, or the IR's frozen base; not a third hand-written one
    for value in _values():
        assert isinstance(value, (tuple, ir._Frozen)), type(value)
