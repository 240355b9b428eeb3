"""The pivot intermediate representation for constraint models.

Every node is an immutable instance of a class with ``__slots__``, whose
constructor and copy are generated from its field annotations at import;
equality and hash read its compared fields as one tuple.  Passes never
mutate a tree, they build new ones, sharing every subtree they leave
unchanged (``rebuild``).  Three value classes outside the IR,
``passes.PassConfig``, ``oracle.Assignment`` and ``oracle.SolutionSet``,
share the nodes' frozen base ``_Frozen`` and ``_compared``, with
constructors of their own.
Source locations and name bindings ride along on nodes but are excluded
from equality, so ``a == b`` is structural identity: same names, same
order, same shapes.

One table, ``CHILD_FIELDS``, names the fields of every node class that
hold other nodes, from the model down to the expressions; ``map_expr``
and ``walk_expr`` walk any node through it.

The element hierarchy:

    Model
      Classifier ............ Enumeration | Class
      ModelFeature .......... Variable | Constant | ConstraintZone | Statement
      Statement ............. ExpressionConstraint | GlobalCtr | ForAll | If

``ConstraintZone`` is the in-tree form of a named group of statements; the
frontend attaches one per ``constraint <name> { ... }`` block and passes
keep the grouping so the structured backend can emit one block per zone.

Expressions form a separate tree (values, occurrences, boolean / set /
algebraic operators and functions).  ``VarOccurrence`` is the single occurrence
node for variables, constants, loop iterators and enumeration literals;
``resolve`` distinguishes them by attaching a ``Binding``.

Sums, products, conjunctions and disjunctions are n-ary: an ``AlgChain``
holds a run of ``+``/``-`` or a run of ``*``, a ``BoolChain`` a run of
``and`` or of ``or``, and each stands for the left-deep binary nodes that
spell the same text.  A chain's first operand is never a chain of its own
group (``(a + b) + c`` is the chain a, b, c).  Only brackets, calls,
prefixes and capped runs of the binary operators left nest, so the
parser's ``MAX_NESTING`` bounds the depth of every parsed expression.
"""

from __future__ import annotations

import operator

from .errors import Loc

__all__ = [
    "AlgBinaryOp", "AlgChain", "AlgFunction", "AlgUnaryOp", "Binding", "Bindings",
    "BoolBinaryOp", "BoolChain", "BoolUnaryOp", "BoolValue", "Class", "Classifier", "Constant",
    "ConstraintZone", "Domain", "Enumeration", "Expression",
    "ExpressionConstraint", "ExprDomain", "ForAll", "GlobalCtr", "If",
    "IntervalDomain", "IntValue", "Model", "ModelElement",
    "ModelFeature", "Node", "ObjectOccurrence", "RealValue", "SetBinaryOp",
    "SetDomain", "SetFunction", "SetValue", "Statement", "TypedElement", "TypeKind", "VarOccurrence",
    "Variable", "BOOLEAN", "INTEGER", "REAL", "SET_OF_INT", "enum_kind",
    "set_of_enum", "object_kind", "ALG_FUNCTIONS", "BOOL_BINARY_OPS",
    "CHILD_FIELDS", "COMPARISON_OPS", "SET_BINARY_OPS", "chain", "chain_ops", "chain_terms",
    "element_bodies", "element_count", "map_expr", "model_equals", "rebuild", "walk_expr",
]


# --------------------------------------------------------------------------
# Slotted immutable classes

# A class made by ``@_slotted`` annotates its fields, with their defaults,
# in constructor order, and gets one slot per field.  Its ``__init__`` and
# ``_copy`` come from ``_generate_methods``, once every class is made; its
# ``__eq__`` and ``__hash__`` from ``_compared``.  On nodes, ``loc`` and
# ``binding`` ride along: keyword-only, None by default, and left out of
# equality, hash and repr.
_RIDERS = ("loc", "binding")


class _Frozen:
    __slots__ = ()
    _fields = ()  # every field of the class, in declaration order

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __repr__(self) -> str:
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields if f not in _RIDERS)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):  # pickle and copy.deepcopy; their default sets slots by setattr
        return _restore, (type(self), {f: getattr(self, f) for f in self._fields})


def _restore(cls: type, fields: dict) -> _Frozen:
    return cls(**fields)


def _compared(fields: tuple[str, ...]):
    """``__eq__`` and ``__hash__`` over the tuple of fields: equal only to
    an instance of the same class, and hashed as that tuple."""
    get = operator.attrgetter(*fields)
    if len(fields) > 1:
        def __eq__(self, other):
            return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented

        def __hash__(self):
            return hash(get(self))
    else:  # attrgetter of one name returns the value, not a 1-tuple
        def __eq__(self, other):
            return (get(self),) == (get(other),) if other.__class__ is self.__class__ else NotImplemented

        def __hash__(self):
            return hash((get(self),))
    return __eq__, __hash__


# The constructor and copy of one class, as the body of a factory that
# takes the class and its slots' setters: compiled code, since they run
# once per node built.  The setters bypass the refusing __setattr__.
_METHODS = """(cls, {setters}):
    def __init__(self, {params}):
        {init}
    def _copy(self, u):
        n = new(cls)
        {copy}
        return n
    return __init__, _copy
"""
_SLOTTED: list[tuple[type, str]] = []  # (class, its factory body) awaiting methods

# Per node class (and per other class ``_slotted`` makes), (field name,
# holds a tuple) for every field that holds IR nodes: ``X``, ``X | None``,
# ``tuple[X, ...]`` or ``tuple[X, ...] | None`` for a node class X.
# ``_slotted`` reads each field's shape from its annotation string, so the
# node class a field holds is defined above the class that holds it.
# Recursive walks iterate this table in their own body: one frame per
# tree level.
CHILD_FIELDS: dict[type, tuple[tuple[str, bool], ...]] = {}


def _holds_nodes(annotation: str) -> bool | None:
    """Whether a field annotated so holds a tuple of nodes (True) or one
    node (False); None when it holds no node."""
    t = annotation.removesuffix(" | None")
    many = t.startswith("tuple[") and t.endswith(", ...]")
    elem = globals().get(t[6:-6] if many else t)
    return many if isinstance(elem, type) and issubclass(elem, Node) else None


def _slotted(cls: type) -> type:
    """cls re-created with a slot for each field it annotates."""
    annotations = cls.__dict__.get("__annotations__", {})
    own = tuple(annotations)
    body = {k: v for k, v in cls.__dict__.items() if k not in own and k not in ("__dict__", "__weakref__")}
    body["__slots__"] = own + body.get("__slots__", ())
    fields = body["_fields"] = cls._fields + own
    compared = tuple(f for f in fields if f not in _RIDERS)
    params = [f"{f}={cls.__dict__[f]!r}" if f in cls.__dict__ else f for f in compared]
    riders = [f"{f}=None" for f in fields if f in _RIDERS]
    body["__eq__"], body["__hash__"] = _compared(compared)
    methods = _METHODS.format(
        setters=", ".join(f"s_{f}" for f in fields),
        params=", ".join(params + ["*"] + riders if riders else params),
        init="; ".join(f"s_{f}(self, {f})" for f in fields),
        copy="; ".join(f"s_{f}(n, u['{f}'] if '{f}' in u else self.{f})" for f in fields),
    )
    new = type(cls.__name__, cls.__bases__, body)
    _SLOTTED.append((new, methods))
    shapes = ((f, _holds_nodes(a)) for f, a in annotations.items())
    CHILD_FIELDS[new] = tuple((f, many) for f, many in shapes if many is not None)
    return new


def _generate_methods() -> None:
    """Compile the methods of every class ``_slotted`` made, in one source
    string with one factory per distinct body, and give each class its own."""
    names: dict[str, str] = {}
    for _, methods in _SLOTTED:
        names.setdefault(methods, f"_f{len(names)}")
    namespace = {"new": object.__new__}
    source = "".join(f"def {name}{methods}" for methods, name in names.items())
    exec(compile(source, "<ir methods>", "exec"), namespace)
    for cls, methods in _SLOTTED:
        setters = [getattr(cls, f).__set__ for f in cls._fields]
        for fn in namespace[names[methods]](cls, *setters):
            fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
            setattr(cls, fn.__name__, fn)
    _SLOTTED.clear()


# --------------------------------------------------------------------------
# Inference results

@_slotted
class TypeKind(_Frozen):
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


# The named kinds, interned: one TypeKind per (kind, name), so that sema
# can compare the kinds it infers by identity.  Value equality still holds
# for kinds made with TypeKind(...) directly.
_NAMED_KINDS: dict[tuple[str, str], TypeKind] = {}


def _named_kind(kind: str, name: str) -> TypeKind:
    k = _NAMED_KINDS.get((kind, name))
    if k is None:  # setdefault: two threads that meet a new name get one kind
        k = _NAMED_KINDS.setdefault((kind, name), TypeKind(kind, name))
    return k


def enum_kind(name: str) -> TypeKind:
    return _named_kind("enum", name)


def set_of_enum(name: str) -> TypeKind:
    return _named_kind("set_of_enum", name)


def object_kind(name: str) -> TypeKind:
    return _named_kind("object", name)


# --------------------------------------------------------------------------
# Bindings attached by name resolution

@_slotted
class Binding(_Frozen):
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

class Node(_Frozen):
    __slots__ = ("loc",)
    _fields = ("loc",)
    loc: Loc | None


class ModelElement(Node):
    __slots__ = ()


class Classifier(ModelElement):
    __slots__ = ()


class ModelFeature(ModelElement):
    __slots__ = ()


class TypedElement(ModelFeature):
    __slots__ = ()


class Statement(ModelFeature):
    __slots__ = ()


class Expression(Node):
    __slots__ = ()


class Domain(Node):
    __slots__ = ()


CHILD_FIELDS.update(dict.fromkeys(  # the abstract node classes have no fields of their own
    (Node, ModelElement, Classifier, ModelFeature, TypedElement, Statement, Expression, Domain), ()
))


# --------------------------------------------------------------------------
# Classifiers

@_slotted
class Enumeration(Classifier):
    name: str
    literals: tuple[str, ...]


@_slotted
class Class(Classifier):
    name: str
    features: tuple[ModelFeature, ...] = ()
    is_main: bool = False


# --------------------------------------------------------------------------
# Features

@_slotted
class Variable(TypedElement):
    name: str
    type_name: str  # "int" | "real" | "bool" | enum name | class name
    is_set: bool = False
    dims: tuple[Expression, ...] = ()
    domain: Domain | None = None


@_slotted
class Constant(TypedElement):
    name: str
    type_name: str
    value: Expression = None  # type: ignore[assignment]
    is_set: bool = False
    dims: tuple[Expression, ...] = ()


@_slotted
class ConstraintZone(ModelFeature):
    """A named group of statements (``constraint <name> { ... }``)."""

    name: str
    body: tuple[Statement, ...] = ()


# --------------------------------------------------------------------------
# Statements

@_slotted
class ExpressionConstraint(Statement):
    expr: Expression


@_slotted
class GlobalCtr(Statement):
    ctr_name: str
    params: tuple[Expression, ...] = ()


@_slotted
class ForAll(Statement):
    iter_var: str
    lower: Expression = None  # type: ignore[assignment]
    upper: Expression = None  # type: ignore[assignment]
    body: tuple[Statement, ...] = ()


@_slotted
class If(Statement):
    cond: Expression
    then_body: tuple[Statement, ...] = ()
    else_body: tuple[Statement, ...] | None = None


# --------------------------------------------------------------------------
# Domains

@_slotted
class IntervalDomain(Domain):
    lo: Expression
    hi: Expression


@_slotted
class SetDomain(Domain):
    members: tuple[Expression, ...]


@_slotted
class ExprDomain(Domain):
    expr: Expression


# --------------------------------------------------------------------------
# Expressions

@_slotted
class IntValue(Expression):
    v: int


@_slotted
class RealValue(Expression):
    v: float


@_slotted
class BoolValue(Expression):
    value: bool


@_slotted
class VarOccurrence(Expression):
    name: str
    indexes: tuple[Expression, ...] = ()
    binding: Binding | None = None


@_slotted
class ObjectOccurrence(Expression):
    """Navigation path to an object attribute, e.g. ``a[i].b[j].c``."""

    path: tuple[VarOccurrence, ...]


BOOL_BINARY_OPS = ("iff", "implies", "=", "!=", "<=", ">=", "<", ">")
COMPARISON_OPS = ("=", "!=", "<=", ">=", "<", ">")


@_slotted
class BoolUnaryOp(Expression):
    op: str  # "not"
    operand: Expression = None  # type: ignore[assignment]


@_slotted
class BoolBinaryOp(Expression):
    op: str
    left: Expression = None  # type: ignore[assignment]
    right: Expression = None  # type: ignore[assignment]


@_slotted
class BoolChain(Expression):
    """terms[0] op terms[1] op ... for op "and" or "or", at least two terms."""

    op: str
    terms: tuple[Expression, ...] = ()


@_slotted
class SetValue(Expression):
    elems: tuple[Expression, ...] = ()


@_slotted
class SetFunction(Expression):
    fn: str  # "card"
    arg: Expression = None  # type: ignore[assignment]


SET_BINARY_OPS = ("intersect", "union", "diff")


@_slotted
class SetBinaryOp(Expression):
    op: str
    left: Expression = None  # type: ignore[assignment]
    right: Expression = None  # type: ignore[assignment]


ALG_FUNCTIONS = ("abs", "min", "max", "sin", "cos", "tan", "exp", "log", "sqrt")


@_slotted
class AlgFunction(Expression):
    fn: str
    args: tuple[Expression, ...] = ()


@_slotted
class AlgUnaryOp(Expression):
    op: str  # "neg" | "plus"
    operand: Expression = None  # type: ignore[assignment]


@_slotted
class AlgBinaryOp(Expression):
    op: str  # "/" | "^"
    left: Expression = None  # type: ignore[assignment]
    right: Expression = None  # type: ignore[assignment]


@_slotted
class AlgChain(Expression):
    """terms[0] ops[0] terms[1] ops[1] ... : a run of "+" and "-", or of
    "*", of at least two terms; ``ops`` comes from ``chain_ops``."""

    ops: tuple[str, ...]
    terms: tuple[Expression, ...] = ()


_OPS: dict[tuple[str, ...], tuple[str, ...]] = {}


def chain_ops(ops) -> tuple[str, ...]:
    """The one tuple of the operators ops, shared by every chain that has them."""
    ops = tuple(ops)
    return _OPS.setdefault(ops, ops)


_GROUPS = {"+": "+", "-": "+", "*": "*", "and": "and", "or": "or"}  # the operators a chain mixes


def chain_terms(e: Expression, op: str) -> tuple[tuple, tuple]:
    """(terms, operators) that e lends a chain of op when it comes first:
    its own if it is a chain of op's group, else e alone."""
    t = type(e)
    if t is AlgChain and _GROUPS[e.ops[0]] == _GROUPS[op]:
        return e.terms, e.ops
    if t is BoolChain and e.op == op:
        return e.terms, (op,) * (len(e.terms) - 1)
    return (e,), ()


def chain(op: str, terms) -> Expression:
    """terms[0] op terms[1] op ... as one chain node, or the one term; the
    first term lends its terms as ``chain_terms`` says, so the node is the
    one the parser makes of the same text."""
    if len(terms) == 1:
        return terms[0]
    first, ops = chain_terms(terms[0], op)
    if op == "and" or op == "or":
        return BoolChain(op, first + tuple(terms[1:]))
    return AlgChain(chain_ops(ops + (op,) * (len(terms) - 1)), first + tuple(terms[1:]))


# --------------------------------------------------------------------------
# Model root

@_slotted
class Model(Node):
    __slots__ = ("__weakref__",)  # sema remembers resolved models weakly
    name: str
    elements: tuple[ModelElement, ...] = ()

    def classes(self) -> dict[str, Class]:
        return {e.name: e for e in self.elements if isinstance(e, Class)}

    def enumerations(self) -> dict[str, Enumeration]:
        return {e.name: e for e in self.elements if isinstance(e, Enumeration)}


_generate_methods()  # the classes above can make instances from here on

BOOLEAN = TypeKind("boolean")
INTEGER = TypeKind("integer")
REAL = TypeKind("real")
SET_OF_INT = TypeKind("set_of_int")


def model_equals(a: Model, b: Model) -> bool:
    """Structural equality; locations and bindings are ignored by design."""
    return a == b


# --------------------------------------------------------------------------
# Tree helpers

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
        if many:  # a loop, not a comprehension: one frame per tree level
            nv = []
            for x in v:
                nv.append(map_expr(x, fn))
            nv = tuple(nv)
            if any(map(operator.is_not, nv, v)):
                updates[name] = nv
        else:
            nv = map_expr(v, fn)
            if nv is not v:
                updates[name] = nv
    return fn(rebuild(e, updates) if updates else e)


def rebuild(e: Node, updates: dict) -> Node:
    """A new node of e's class with the fields named in updates replaced
    and every other field, bindings and locations included, copied: one
    call of the copy generated for the class."""
    return e._copy(updates)


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


_BODIES = {Class: ("features",), ConstraintZone: ("body",), ForAll: ("body",),
           If: ("then_body", "else_body")}  # the fields that hold elements


def element_bodies(m: Model):
    """(body, the set of its elements' classes) for each tuple of elements
    in m, the model's own first; a body is read element by element only if
    it holds a class, zone, loop or conditional.  No expression is walked."""
    todo = [m.elements]
    while todo:
        body = todo.pop()
        types = set(map(type, body))
        yield body, types
        if not types.isdisjoint(_BODIES):
            for e in body:
                todo.extend(getattr(e, f) or () for f in _BODIES.get(type(e), ()))


def element_count(m: Model) -> int:
    """Number of features and statements in the model, recursively."""
    return sum(len(body) for body, _ in element_bodies(m))
