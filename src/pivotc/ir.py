"""The pivot intermediate representation for constraint models.

Every node is a frozen dataclass; passes never mutate a tree, they build
new ones, sharing every subtree they leave unchanged (``rebuild``).
Source locations and name bindings ride along on nodes but are excluded
from equality, so ``a == b`` is structural identity: same names, same
order, same shapes.

One table, ``CHILD_FIELDS``, names the fields of every node class that
hold other nodes, from the model down to the expressions; ``map_expr``
and ``walk_expr`` walk any node through it.

The element hierarchy:

    Model
      Classifier ............ Enumeration | Class   (DataType is built in)
      ModelFeature .......... Variable | Constant | ConstraintZone | Statement
      Statement ............. ExpressionConstraint | GlobalCtr | ForAll | If

``ConstraintZone`` is the in-tree form of a named group of statements; the
frontend attaches one per ``constraint <name> { ... }`` block and passes
keep the grouping so the structured backend can emit one block per zone.

Expressions form a separate tree (values, occurrences, boolean / set /
algebraic operators and functions).  ``VarOccurrence`` is the single occurrence
node for variables, constants, loop iterators and enumeration literals;
``resolve`` distinguishes them by attaching a ``Binding``.
"""

from __future__ import annotations

import dataclasses
import operator
import types
import typing
from dataclasses import dataclass, field

from .errors import Loc

__all__ = [
    "AlgBinaryOp", "AlgFunction", "AlgUnaryOp", "Binding", "Bindings", "BoolBinaryOp",
    "BoolUnaryOp", "BoolValue", "Class", "Classifier", "Constant",
    "ConstraintZone", "DataType", "Domain", "Enumeration", "Expression",
    "ExpressionConstraint", "ExprDomain", "ForAll", "GlobalCtr", "If",
    "IntervalDomain", "IntervalValue", "IntValue", "Model", "ModelElement",
    "ModelFeature", "Node", "ObjectOccurrence", "RealValue", "SetBinaryOp",
    "SetDomain", "SetFunction", "SetValue", "Statement", "TypedElement", "TypeKind", "VarOccurrence",
    "Variable", "BOOLEAN", "INTEGER", "REAL", "SET_OF_INT", "enum_kind",
    "set_of_enum", "object_kind", "ALG_FUNCTIONS", "BOOL_BINARY_OPS",
    "CHILD_FIELDS", "COMPARISON_OPS", "SET_BINARY_OPS", "element_count",
    "map_expressions", "map_expr", "model_equals", "rebuild", "walk_expr",
]


# --------------------------------------------------------------------------
# Inference results

@dataclass(frozen=True)
class TypeKind:
    """Result of type inference: a base kind plus an enum/class name."""

    kind: str  # boolean | integer | real | set_of_int | set_of_enum | enum | object
    name: str | None = None

    def __str__(self) -> str:
        if self.kind == "set_of_int":
            return "set of int"
        if self.kind == "set_of_enum":
            return f"set of {self.name}"
        if self.kind in ("enum", "object"):
            return str(self.name)
        return self.kind

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("integer", "real", "boolean")

    @property
    def is_set(self) -> bool:
        return self.kind in ("set_of_int", "set_of_enum")


BOOLEAN = TypeKind("boolean")
INTEGER = TypeKind("integer")
REAL = TypeKind("real")
SET_OF_INT = TypeKind("set_of_int")


def enum_kind(name: str) -> TypeKind:
    return TypeKind("enum", name)


def set_of_enum(name: str) -> TypeKind:
    return TypeKind("set_of_enum", name)


def object_kind(name: str) -> TypeKind:
    return TypeKind("object", name)


# --------------------------------------------------------------------------
# Bindings attached by name resolution

@dataclass(frozen=True)
class Binding:
    """What a resolved occurrence refers to.

    kind is one of "variable", "constant", "iterator", "enum_literal",
    "attribute" (a feature of a class, for navigation steps).  For enum
    literals, ``enum_name`` and 1-based ``position`` identify the literal.
    For attributes, ``owner`` names the declaring class.
    """

    kind: str
    target: str
    enum_name: str | None = None
    position: int | None = None
    owner: str | None = None


class Bindings(dict):
    """Equal bindings as one shared object, for one walk: nodes are
    immutable and bindings compare by value, so an occurrence needs no
    Binding of its own."""

    def __call__(self, kind, target, enum_name=None, position=None, owner=None) -> Binding:
        key = (kind, target, enum_name, position, owner)
        b = self.get(key)
        if b is None:
            b = self[key] = Binding(*key)
        return b


# --------------------------------------------------------------------------
# Node base

@dataclass(frozen=True)
class Node:
    loc: Loc | None = field(default=None, compare=False, repr=False, kw_only=True)


class ModelElement(Node):
    pass


class Classifier(ModelElement):
    pass


class ModelFeature(ModelElement):
    pass


class TypedElement(ModelFeature):
    pass


class Statement(ModelFeature):
    pass


class Expression(Node):
    pass


class Domain(Node):
    pass


# --------------------------------------------------------------------------
# Classifiers

@dataclass(frozen=True)
class DataType(Classifier):
    """One of the three primitive types; values compare by kind."""

    kind: str  # "boolean" | "integer" | "real"


BUILTIN_TYPES = {"bool": DataType("boolean"), "int": DataType("integer"), "real": DataType("real")}


@dataclass(frozen=True)
class Enumeration(Classifier):
    name: str
    literals: tuple[str, ...]


@dataclass(frozen=True)
class Class(Classifier):
    name: str
    features: tuple[ModelFeature, ...] = ()
    is_main: bool = False


# --------------------------------------------------------------------------
# Features

@dataclass(frozen=True)
class Variable(TypedElement):
    name: str
    type_name: str  # "int" | "real" | "bool" | enum name | class name
    is_set: bool = False
    dims: tuple[Expression, ...] = ()
    domain: Domain | None = None


@dataclass(frozen=True)
class Constant(TypedElement):
    name: str
    type_name: str
    value: Expression = None  # type: ignore[assignment]
    is_set: bool = False
    dims: tuple[Expression, ...] = ()


@dataclass(frozen=True)
class ConstraintZone(ModelFeature):
    """A named group of statements (``constraint <name> { ... }``)."""

    name: str
    body: tuple[Statement, ...] = ()


# --------------------------------------------------------------------------
# Statements

@dataclass(frozen=True)
class ExpressionConstraint(Statement):
    expr: Expression


@dataclass(frozen=True)
class GlobalCtr(Statement):
    ctr_name: str
    params: tuple[Expression, ...] = ()


@dataclass(frozen=True)
class ForAll(Statement):
    iter_var: str
    lower: Expression = None  # type: ignore[assignment]
    upper: Expression = None  # type: ignore[assignment]
    body: tuple[Statement, ...] = ()


@dataclass(frozen=True)
class If(Statement):
    cond: Expression
    then_body: tuple[Statement, ...] = ()
    else_body: tuple[Statement, ...] | None = None


# --------------------------------------------------------------------------
# Domains

@dataclass(frozen=True)
class IntervalDomain(Domain):
    lo: Expression
    hi: Expression


@dataclass(frozen=True)
class SetDomain(Domain):
    members: tuple[Expression, ...]


@dataclass(frozen=True)
class ExprDomain(Domain):
    expr: Expression


# --------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True)
class IntValue(Expression):
    v: int


@dataclass(frozen=True)
class RealValue(Expression):
    v: float


@dataclass(frozen=True)
class IntervalValue(Expression):
    lo: float
    hi: float


@dataclass(frozen=True)
class BoolValue(Expression):
    value: bool


@dataclass(frozen=True)
class VarOccurrence(Expression):
    name: str
    indexes: tuple[Expression, ...] = ()
    binding: Binding | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class ObjectOccurrence(Expression):
    """Navigation path to an object attribute, e.g. ``a[i].b[j].c``."""

    path: tuple[VarOccurrence, ...]


BOOL_BINARY_OPS = ("iff", "implies", "and", "or", "=", "!=", "<=", ">=", "<", ">")
COMPARISON_OPS = ("=", "!=", "<=", ">=", "<", ">")


@dataclass(frozen=True)
class BoolUnaryOp(Expression):
    op: str  # "not"
    operand: Expression = None  # type: ignore[assignment]


@dataclass(frozen=True)
class BoolBinaryOp(Expression):
    op: str
    left: Expression = None  # type: ignore[assignment]
    right: Expression = None  # type: ignore[assignment]


@dataclass(frozen=True)
class SetValue(Expression):
    elems: tuple[Expression, ...] = ()


@dataclass(frozen=True)
class SetFunction(Expression):
    fn: str  # "card"
    arg: Expression = None  # type: ignore[assignment]


SET_BINARY_OPS = ("intersect", "union", "diff")


@dataclass(frozen=True)
class SetBinaryOp(Expression):
    op: str
    left: Expression = None  # type: ignore[assignment]
    right: Expression = None  # type: ignore[assignment]


ALG_FUNCTIONS = ("abs", "min", "max", "sin", "cos", "tan", "exp", "log", "sqrt")


@dataclass(frozen=True)
class AlgFunction(Expression):
    fn: str
    args: tuple[Expression, ...] = ()


@dataclass(frozen=True)
class AlgUnaryOp(Expression):
    op: str  # "neg" | "plus"
    operand: Expression = None  # type: ignore[assignment]


@dataclass(frozen=True)
class AlgBinaryOp(Expression):
    op: str  # "+" | "-" | "*" | "/" | "^"
    left: Expression = None  # type: ignore[assignment]
    right: Expression = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# Model root

@dataclass(frozen=True)
class Model(Node):
    name: str
    elements: tuple[ModelElement, ...] = ()

    def classes(self) -> dict[str, Class]:
        return {e.name: e for e in self.elements if isinstance(e, Class)}

    def enumerations(self) -> dict[str, Enumeration]:
        return {e.name: e for e in self.elements if isinstance(e, Enumeration)}


def model_equals(a: Model, b: Model) -> bool:
    """Structural equality; locations and bindings are ignored by design."""
    return a == b


# --------------------------------------------------------------------------
# Tree helpers

class _ChildFields(dict):
    """Per node class, (field name, holds a tuple) for every field that
    holds IR nodes: ``X``, ``X | None``, ``tuple[X, ...]`` or
    ``tuple[X, ...] | None`` for a node class X.  Read once per class
    from the field annotations."""

    def __missing__(self, cls: type) -> tuple[tuple[str, bool], ...]:
        hints = typing.get_type_hints(cls)
        table = []
        for f in dataclasses.fields(cls):
            t = hints[f.name]
            if isinstance(t, types.UnionType):  # X | None
                t = typing.get_args(t)[0]
            elem = typing.get_args(t)[0] if typing.get_origin(t) is tuple else t
            if isinstance(elem, type) and issubclass(elem, Node):
                table.append((f.name, elem is not t))
        self[cls] = table = tuple(table)
        return table


# The child fields of every node class, statements, domains, features and
# the model included.  Recursive walks iterate it in their own body: one
# frame per tree level.
CHILD_FIELDS = _ChildFields()


def map_expr(e: Node, fn) -> Node:
    """Rebuild a tree bottom-up, applying fn to every node; fn returns a
    node it does not rewrite as is, and so does the walk.

    Children are compared by identity: equality would miss changes to
    fields excluded from comparison (bindings, locations).  After
    ``loopUnroll`` identical subtrees may be shared between statements;
    nodes are immutable, so fn sees a shared node once per occurrence and
    must not rely on node identity being unique."""
    updates = {}
    for name, many in CHILD_FIELDS[type(e)]:
        v = getattr(e, name)
        if v is None:
            continue
        if many:
            nv = tuple([map_expr(x, fn) for x in v])
            if any(map(operator.is_not, nv, v)):
                updates[name] = nv
        else:
            nv = map_expr(v, fn)
            if nv is not v:
                updates[name] = nv
    return fn(rebuild(e, updates) if updates else e)


_set_field = object.__setattr__  # frozen dataclasses refuse plain assignment


def rebuild(e: Node, updates: dict) -> Node:
    """A copy of e with some fields replaced: dataclasses.replace without
    its per-call field scan (bindings and locations are copied too).

    Each field is read and set on its own.  Touching ``__dict__`` instead
    would give both nodes a dict of their own, about 64 bytes a node more
    than the compact layout their class's instances share."""
    new = object.__new__(type(e))
    for name in e.__dataclass_fields__:
        _set_field(new, name, updates[name] if name in updates else getattr(e, name))
    return new


def walk_expr(e: Node):
    """Yield every node of a tree, parents after children."""
    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        stack.append((node, True))
        for name, many in reversed(CHILD_FIELDS[type(node)]):
            v = getattr(node, name)
            if v is not None:
                stack.extend([(x, False) for x in reversed(v if many else (v,))])


def map_expressions(m: Model, fn) -> Model:
    """Apply fn bottom-up to every node of the model (see ``map_expr``)."""
    return map_expr(m, fn)


def element_count(m: Model) -> int:
    """Number of features and statements in the model, recursively."""
    return sum(map(_count, m.elements))


def _count(e: ModelElement) -> int:
    if isinstance(e, Class):
        return 1 + sum(map(_count, e.features))
    if isinstance(e, (ConstraintZone, ForAll)):
        return 1 + sum(map(_count, e.body))
    if isinstance(e, If):
        return 1 + sum(map(_count, e.then_body + (e.else_body or ())))
    return 1
