"""Name resolution, type inference and model validation.

``resolve`` rebinds every occurrence to its declaration and returns a new
model; it is idempotent, and returns its own output as is.  ``infer_type``
computes the unique TypeKind of a resolved (or resolvable) expression.
``validate`` returns diagnostics and never raises.

Typing rules beyond the obvious ones:
  * integer promotes to real in mixed arithmetic;
  * boolean coerces to integer where a number is expected (so sums of 0/1
    indicator variables type-check);
  * ``/`` always yields real, even on two integers;
  * interval values type as integer sets.
"""

from __future__ import annotations

import dataclasses
import weakref

from . import ir
from .errors import (
    CompileError,
    Diagnostic,
    DuplicateNameError,
    Loc,
    TypeMismatchError,
    UnresolvedNameError,
)

_SCALAR_BUILTINS = {"int": ir.INTEGER, "real": ir.REAL, "bool": ir.BOOLEAN}


class Scope:
    """Layered name environment: top-level declarations, optionally the
    features of one class, plus a stack of loop iterators."""

    def __init__(self, model: ir.Model):
        self.model = model
        self.top: dict[str, ir.ModelElement] = {}
        self.literals: dict[str, tuple[str, int]] = {}
        self.features: dict[str, ir.ModelElement] | None = None
        self.owner: str | None = None
        self.iters: tuple[str, ...] = ()
        mains = 0
        for e in model.elements:
            if isinstance(e, (ir.Enumeration, ir.Class, ir.Variable, ir.Constant,
                              ir.Predicate, ir.Function, ir.Record)):
                if e.name in self.top:
                    raise DuplicateNameError(e.name, e.loc)
                self.top[e.name] = e
            if isinstance(e, ir.Enumeration):
                # literals share one namespace (bare references must be
                # unambiguous) but top-level declarations shadow them
                for pos, lit in enumerate(e.literals, start=1):
                    if lit in self.literals:
                        raise DuplicateNameError(lit, e.loc)
                    self.literals[lit] = (e.name, pos)
            if isinstance(e, ir.Class):
                mains += e.is_main
        if mains > 1:
            raise DuplicateNameError("main", model.loc)

    def _clone(self) -> "Scope":
        child = object.__new__(Scope)
        child.model = self.model
        child.top = self.top
        child.literals = self.literals
        child.features = self.features
        child.owner = self.owner
        child.iters = self.iters
        return child

    def in_class(self, cls: ir.Class) -> "Scope":
        child = self._clone()
        child.features = {
            f.name: f for f in cls.features if isinstance(f, (ir.Variable, ir.Constant))
        }
        child.owner = cls.name
        child.iters = ()
        return child

    def with_params(self, params) -> "Scope":
        child = self._clone()
        child.features = {p.name: p for p in params}
        child.owner = None
        child.iters = ()
        return child

    def with_iter(self, name: str) -> "Scope":
        child = self._clone()
        child.iters = self.iters + (name,)
        return child

    def lookup(self, name: str):
        """Return (kind, declaration-or-info); iterators shadow everything."""
        if name in self.iters:
            return "iterator", None
        if self.features is not None and name in self.features:
            decl = self.features[name]
            kind = "constant" if isinstance(decl, ir.Constant) else "variable"
            return kind, decl
        if name in self.top:
            decl = self.top[name]
            if isinstance(decl, ir.Variable):
                return "variable", decl
            if isinstance(decl, ir.Constant):
                return "constant", decl
            if isinstance(decl, ir.Enumeration):
                return "enum", decl
            if isinstance(decl, ir.Class):
                return "class", decl
            if isinstance(decl, ir.Predicate):
                return "predicate", decl
            if isinstance(decl, ir.Function):
                return "function", decl
            return "record", decl
        if name in self.literals:
            return "enum_literal", self.literals[name]
        raise UnresolvedNameError(name)

    def class_named(self, name: str) -> ir.Class | None:
        decl = self.top.get(name)
        return decl if isinstance(decl, ir.Class) else None

    def enum_named(self, name: str) -> ir.Enumeration | None:
        decl = self.top.get(name)
        return decl if isinstance(decl, ir.Enumeration) else None


# --------------------------------------------------------------------------
# Resolution

# Models known to be resolved, keyed by id; the weak values drop an entry
# when its model dies, and the identity check below ignores reused ids.
_RESOLVED: weakref.WeakValueDictionary[int, ir.Model] = weakref.WeakValueDictionary()


def mark_resolved(model: ir.Model) -> ir.Model:
    """Declare every occurrence in model bound; ``resolve`` returns it as is."""
    _RESOLVED[id(model)] = model
    return model


def resolve(model: ir.Model) -> ir.Model:
    """Bind every name reference to its declaration (returns a new model).

    Raises UnresolvedNameError or DuplicateNameError.  Idempotent: its own
    output, or a model passed to ``mark_resolved``, comes back as is.  The
    test is identity, not ``==`` (blind to bindings) or ``hash`` (a whole
    walk), so a structural copy is resolved afresh.
    """
    if _RESOLVED.get(id(model)) is model:
        return model
    scope = Scope(model)
    elements = tuple(_resolve_element(e, scope) for e in model.elements)
    return mark_resolved(dataclasses.replace(model, elements=elements))


def _resolve_element(e: ir.ModelElement, scope: Scope) -> ir.ModelElement:
    if isinstance(e, ir.Variable):
        return dataclasses.replace(
            e,
            dims=tuple(_resolve_expr(d, scope) for d in e.dims),
            domain=_resolve_domain(e.domain, scope),
        )
    if isinstance(e, ir.Constant):
        return dataclasses.replace(
            e,
            dims=tuple(_resolve_expr(d, scope) for d in e.dims),
            value=_resolve_expr(e.value, scope),
        )
    if isinstance(e, ir.Class):
        inner = scope.in_class(e)
        return dataclasses.replace(
            e, features=tuple(_resolve_element(f, inner) for f in e.features)
        )
    if isinstance(e, ir.ConstraintZone):
        return dataclasses.replace(
            e, body=tuple(_resolve_stmt(s, scope) for s in e.body)
        )
    if isinstance(e, ir.Statement):
        return _resolve_stmt(e, scope)
    if isinstance(e, ir.Predicate):
        inner = scope.with_params(e.params)
        return dataclasses.replace(
            e, body=tuple(_resolve_element(f, inner) for f in e.body)
        )
    if isinstance(e, ir.Function):
        inner = scope.with_params(e.params)
        body = _resolve_stmt(e.body, inner) if e.body is not None else None
        return dataclasses.replace(e, body=body)
    if isinstance(e, ir.Record):
        return dataclasses.replace(
            e, components=tuple(_resolve_element(f, scope) for f in e.components)
        )
    return e


def _resolve_domain(d: ir.Domain | None, scope: Scope) -> ir.Domain | None:
    if d is None:
        return None
    if isinstance(d, ir.IntervalDomain):
        return ir.IntervalDomain(
            _resolve_expr(d.lo, scope), _resolve_expr(d.hi, scope), loc=d.loc
        )
    if isinstance(d, ir.SetDomain):
        return ir.SetDomain(tuple(_resolve_expr(m, scope) for m in d.members), loc=d.loc)
    return ir.ExprDomain(_resolve_expr(d.expr, scope), loc=d.loc)


def _resolve_stmt(s: ir.Statement, scope: Scope) -> ir.Statement:
    if isinstance(s, ir.ExpressionConstraint):
        return ir.ExpressionConstraint(_resolve_expr(s.expr, scope), loc=s.loc)
    if isinstance(s, ir.GlobalCtr):
        return ir.GlobalCtr(
            s.ctr_name, tuple(_resolve_expr(p, scope) for p in s.params), loc=s.loc
        )
    if isinstance(s, ir.ForAll):
        inner = scope.with_iter(s.iter_var)
        return ir.ForAll(
            s.iter_var,
            _resolve_expr(s.lower, scope),
            _resolve_expr(s.upper, scope),
            tuple(_resolve_stmt(b, inner) for b in s.body),
            loc=s.loc,
        )
    if isinstance(s, ir.If):
        else_body = None
        if s.else_body is not None:
            else_body = tuple(_resolve_stmt(b, scope) for b in s.else_body)
        return ir.If(
            _resolve_expr(s.cond, scope),
            tuple(_resolve_stmt(b, scope) for b in s.then_body),
            else_body,
            loc=s.loc,
        )
    raise TypeError(f"unknown statement {s!r}")


def _binding_for(name: str, scope: Scope, loc) -> ir.Binding:
    try:
        kind, decl = scope.lookup(name)
    except UnresolvedNameError:
        raise UnresolvedNameError(name, loc) from None
    if kind == "enum_literal":
        enum_name, pos = decl
        return ir.Binding("enum_literal", name, enum_name=enum_name, position=pos)
    if kind == "iterator":
        return ir.Binding("iterator", name)
    if kind in ("variable", "constant"):
        return ir.Binding(kind, name, owner=scope.owner if scope.features and name in scope.features else None)
    raise UnresolvedNameError(
        name, loc, f"'{name}' names a {kind}, not a value"
    )


def _resolve_expr(e: ir.Expression, scope: Scope) -> ir.Expression:
    if isinstance(e, ir.VarOccurrence):
        binding = _binding_for(e.name, scope, e.loc)
        indexes = tuple(_resolve_expr(i, scope) for i in e.indexes)
        return ir.VarOccurrence(e.name, indexes, binding=binding, loc=e.loc)
    if isinstance(e, ir.ObjectOccurrence):
        return _resolve_path(e, scope)
    if isinstance(e, (ir.FunctionCall, ir.PredicateCall)):
        try:
            kind, _decl = scope.lookup(e.name)
        except UnresolvedNameError:
            raise UnresolvedNameError(e.name, e.loc) from None
        want = "function" if isinstance(e, ir.FunctionCall) else "predicate"
        if kind != want:
            raise UnresolvedNameError(e.name, e.loc, f"'{e.name}' is not a {want}")
        return dataclasses.replace(
            e, args=tuple(_resolve_expr(a, scope) for a in e.args)
        )
    # structural recursion for operator/value nodes; compare by identity,
    # not ==, because bindings are excluded from equality
    updates = {}
    for name, many in ir.CHILD_FIELDS[type(e)]:
        v = getattr(e, name)
        if many:
            nv = tuple(_resolve_expr(x, scope) for x in v)
            if any(a is not b for a, b in zip(nv, v)):
                updates[name] = nv
        elif v is not None:
            nv = _resolve_expr(v, scope)
            if nv is not v:
                updates[name] = nv
    return dataclasses.replace(e, **updates) if updates else e


def _resolve_path(e: ir.ObjectOccurrence, scope: Scope) -> ir.ObjectOccurrence:
    steps = []
    head = e.path[0]
    binding = _binding_for(head.name, scope, head.loc)
    steps.append(
        ir.VarOccurrence(
            head.name,
            tuple(_resolve_expr(i, scope) for i in head.indexes),
            binding=binding,
            loc=head.loc,
        )
    )
    kind, decl = scope.lookup(head.name)
    current = scope.class_named(decl.type_name) if kind in ("variable", "constant") else None
    for step in e.path[1:]:
        if current is None:
            raise UnresolvedNameError(
                step.name, step.loc, f"cannot navigate into '{steps[-1].name}'"
            )
        feature = next(
            (f for f in current.features
             if isinstance(f, (ir.Variable, ir.Constant)) and f.name == step.name),
            None,
        )
        if feature is None:
            raise UnresolvedNameError(
                step.name, step.loc, f"class '{current.name}' has no attribute '{step.name}'"
            )
        k = "constant" if isinstance(feature, ir.Constant) else "variable"
        steps.append(
            ir.VarOccurrence(
                step.name,
                tuple(_resolve_expr(i, scope) for i in step.indexes),
                binding=ir.Binding(k, step.name, owner=current.name),
                loc=step.loc,
            )
        )
        current = scope.class_named(feature.type_name)
    return ir.ObjectOccurrence(tuple(steps), loc=e.loc)


# --------------------------------------------------------------------------
# Type inference

def scalar_kind(type_name: str, scope: Scope, loc=None) -> ir.TypeKind:
    if type_name in _SCALAR_BUILTINS:
        return _SCALAR_BUILTINS[type_name]
    if scope.enum_named(type_name) is not None:
        return ir.enum_kind(type_name)
    if scope.class_named(type_name) is not None:
        return ir.object_kind(type_name)
    raise UnresolvedNameError(type_name, loc, f"unknown type '{type_name}'")


def decl_kind(decl: ir.TypedElement, scope: Scope) -> ir.TypeKind:
    base = scalar_kind(decl.type_name, scope, decl.loc)
    if not decl.is_set:
        return base
    if base == ir.INTEGER:
        return ir.SET_OF_INT
    if base.kind == "enum":
        return ir.set_of_enum(base.name)
    raise TypeMismatchError(
        f"'{decl.name}': sets of {base} are not supported",
        expected="int or enumeration element type",
        found=str(base),
        loc=decl.loc,
    )


def _as_number(k: ir.TypeKind, e: ir.Expression) -> ir.TypeKind:
    if k == ir.BOOLEAN:
        return ir.INTEGER  # 0/1 coercion
    if k in (ir.INTEGER, ir.REAL):
        return k
    raise TypeMismatchError(
        "numeric operand expected", expected="integer or real", found=str(k), loc=e.loc
    )


def _require(k: ir.TypeKind, want: ir.TypeKind, e: ir.Expression, what: str):
    if k != want:
        raise TypeMismatchError(
            f"{what} must be {want}", expected=str(want), found=str(k), loc=e.loc
        )


def infer_type(e: ir.Expression, scope: Scope) -> ir.TypeKind:
    """Return the unique TypeKind of e, or raise TypeMismatchError."""
    if isinstance(e, ir.IntValue):
        return ir.INTEGER
    if isinstance(e, ir.RealValue):
        return ir.REAL
    if isinstance(e, ir.BoolValue):
        return ir.BOOLEAN
    if isinstance(e, ir.IntervalValue):
        return ir.SET_OF_INT
    if isinstance(e, ir.VarOccurrence):
        return _infer_occurrence(e, scope)
    if isinstance(e, ir.ObjectOccurrence):
        return _infer_path(e, scope)
    if isinstance(e, ir.BoolUnaryOp):
        _require(infer_type(e.operand, scope), ir.BOOLEAN, e.operand, "'not' operand")
        return ir.BOOLEAN
    if isinstance(e, ir.BoolBinaryOp):
        return _infer_bool_binary(e, scope)
    if isinstance(e, ir.SetValue):
        return _infer_set_value(e, scope)
    if isinstance(e, ir.SetFunction):
        k = infer_type(e.arg, scope)
        if not k.is_set:
            raise TypeMismatchError(
                "card expects a set", expected="set", found=str(k), loc=e.loc
            )
        return ir.INTEGER
    if isinstance(e, ir.SetBinaryOp):
        lk = infer_type(e.left, scope)
        rk = infer_type(e.right, scope)
        if not lk.is_set or lk != rk:
            raise TypeMismatchError(
                f"'{e.op}' expects two sets of the same element type",
                expected=str(lk), found=str(rk), loc=e.loc,
            )
        return lk
    if isinstance(e, ir.AlgUnaryOp):
        return _as_number(infer_type(e.operand, scope), e.operand)
    if isinstance(e, ir.AlgBinaryOp):
        lk = _as_number(infer_type(e.left, scope), e.left)
        rk = _as_number(infer_type(e.right, scope), e.right)
        if e.op == "/":
            return ir.REAL
        return ir.REAL if ir.REAL in (lk, rk) else ir.INTEGER
    if isinstance(e, ir.AlgFunction):
        return _infer_alg_function(e, scope)
    if isinstance(e, ir.FunctionCall):
        kind, decl = scope.lookup(e.name)
        if len(e.args) != len(decl.params):
            raise TypeMismatchError(
                f"'{e.name}' expects {len(decl.params)} arguments, got {len(e.args)}",
                loc=e.loc,
            )
        for a in e.args:
            infer_type(a, scope)
        return scalar_kind(decl.result_type, scope, e.loc)
    if isinstance(e, ir.PredicateCall):
        kind, decl = scope.lookup(e.name)
        if len(e.args) != len(decl.params):
            raise TypeMismatchError(
                f"'{e.name}' expects {len(decl.params)} arguments, got {len(e.args)}",
                loc=e.loc,
            )
        for a in e.args:
            infer_type(a, scope)
        return ir.BOOLEAN
    raise TypeError(f"unknown expression {e!r}")


def _infer_occurrence(e: ir.VarOccurrence, scope: Scope) -> ir.TypeKind:
    kind, decl = scope.lookup(e.name)
    if kind == "iterator":
        if e.indexes:
            raise TypeMismatchError(
                f"loop iterator '{e.name}' cannot be indexed", loc=e.loc
            )
        return ir.INTEGER
    if kind == "enum_literal":
        if e.indexes:
            raise TypeMismatchError(f"literal '{e.name}' cannot be indexed", loc=e.loc)
        return ir.enum_kind(decl[0])
    if kind in ("variable", "constant"):
        if len(e.indexes) != len(decl.dims):
            raise TypeMismatchError(
                f"'{e.name}' has {len(decl.dims)} dimension(s), "
                f"referenced with {len(e.indexes)} index(es)",
                loc=e.loc,
            )
        for i in e.indexes:
            _require(_as_number(infer_type(i, scope), i), ir.INTEGER, i, "array index")
        return decl_kind(decl, scope)
    raise TypeMismatchError(f"'{e.name}' ({kind}) is not a value", loc=e.loc)


def _infer_path(e: ir.ObjectOccurrence, scope: Scope) -> ir.TypeKind:
    if not e.path:
        raise TypeMismatchError("empty navigation path", loc=e.loc)
    kind = _infer_occurrence(e.path[0], scope)
    for step in e.path[1:]:
        if kind.kind != "object":
            raise TypeMismatchError(
                f"cannot navigate '.{step.name}' from a {kind}", loc=step.loc
            )
        cls = scope.class_named(kind.name)
        feature = next(
            (f for f in cls.features
             if isinstance(f, (ir.Variable, ir.Constant)) and f.name == step.name),
            None,
        )
        if feature is None:
            raise UnresolvedNameError(
                step.name, step.loc, f"class '{cls.name}' has no attribute '{step.name}'"
            )
        if len(step.indexes) != len(feature.dims):
            raise TypeMismatchError(
                f"'{step.name}' has {len(feature.dims)} dimension(s), "
                f"referenced with {len(step.indexes)} index(es)",
                loc=step.loc,
            )
        for i in step.indexes:
            _require(_as_number(infer_type(i, scope), i), ir.INTEGER, i, "array index")
        kind = decl_kind(feature, scope)
    return kind


def _infer_bool_binary(e: ir.BoolBinaryOp, scope: Scope) -> ir.TypeKind:
    if e.op in ("iff", "implies", "and", "or"):
        _require(infer_type(e.left, scope), ir.BOOLEAN, e.left, f"'{e.op}' operand")
        _require(infer_type(e.right, scope), ir.BOOLEAN, e.right, f"'{e.op}' operand")
        return ir.BOOLEAN
    lk = infer_type(e.left, scope)
    rk = infer_type(e.right, scope)
    if e.op in ("=", "!="):
        if lk.is_set and lk == rk:
            return ir.BOOLEAN
        if lk.kind == "enum" and lk == rk:
            return ir.BOOLEAN
    if lk.is_numeric and rk.is_numeric:
        return ir.BOOLEAN
    raise TypeMismatchError(
        f"'{e.op}' cannot compare {lk} with {rk}",
        expected=str(lk), found=str(rk), loc=e.loc,
    )


def _infer_set_value(e: ir.SetValue, scope: Scope) -> ir.TypeKind:
    if not e.elems:
        return ir.SET_OF_INT
    kinds = [infer_type(x, scope) for x in e.elems]
    if all(k.is_numeric for k in kinds):
        for k, x in zip(kinds, e.elems):
            _require(_as_number(k, x), ir.INTEGER, x, "set element")
        return ir.SET_OF_INT
    first = kinds[0]
    if first.kind == "enum" and all(k == first for k in kinds):
        return ir.set_of_enum(first.name)
    raise TypeMismatchError(
        "set elements must all be integers or literals of one enumeration",
        loc=e.loc,
    )


def _infer_alg_function(e: ir.AlgFunction, scope: Scope) -> ir.TypeKind:
    if e.fn not in ir.ALG_FUNCTIONS:
        raise TypeMismatchError(f"unknown function '{e.fn}'", loc=e.loc)
    if e.fn in ("min", "max"):
        if len(e.args) < 2:
            raise TypeMismatchError(f"'{e.fn}' expects at least 2 arguments", loc=e.loc)
    elif len(e.args) != 1:
        raise TypeMismatchError(f"'{e.fn}' expects exactly 1 argument", loc=e.loc)
    kinds = [_as_number(infer_type(a, scope), a) for a in e.args]
    if e.fn in ("abs", "min", "max"):
        return ir.REAL if ir.REAL in kinds else ir.INTEGER
    return ir.REAL


# --------------------------------------------------------------------------
# Groundness

def is_ground(e: ir.Expression, scope: Scope) -> bool:
    """True when e contains no variable or iterator occurrences.  Constant
    and enum-literal occurrences are ground (their values are fixed)."""
    for node in ir.walk_expr(e):
        if isinstance(node, ir.ObjectOccurrence):
            return False
        if isinstance(node, ir.VarOccurrence):
            try:
                kind, _ = scope.lookup(node.name)
            except UnresolvedNameError:
                return False
            if kind in ("variable", "iterator"):
                return False
    return True


# --------------------------------------------------------------------------
# Validation

def _diag(message: str, node: ir.Node | None) -> Diagnostic:
    loc = getattr(node, "loc", None) or Loc()
    return Diagnostic("error", message, max(loc.line, 1), max(loc.col, 1), loc.file)


def validate(model: ir.Model) -> list[Diagnostic]:
    """Check every structural and typing invariant; returns diagnostics."""
    try:
        scope = Scope(model)
    except (DuplicateNameError, UnresolvedNameError) as exc:
        return [_diag(str(exc), None)]
    diags: list[Diagnostic] = []

    def check_expr(e: ir.Expression, sc: Scope, want: ir.TypeKind | None, what: str):
        try:
            k = infer_type(e, sc)
        except CompileError as exc:
            diags.append(_diag(str(exc), e))
            return None
        if want is not None and k != want:
            if want == ir.INTEGER and k == ir.BOOLEAN:
                return k  # coercible
            diags.append(_diag(f"{what} must be {want}, found {k}", e))
        return k

    def check_domain(d: ir.Domain | None, sc: Scope, owner: ir.Node):
        if d is None:
            return
        if isinstance(d, ir.IntervalDomain):
            for side in (d.lo, d.hi):
                k = check_expr(side, sc, None, "domain bound")
                if k is not None and k not in (ir.INTEGER, ir.REAL, ir.BOOLEAN):
                    diags.append(_diag(f"domain bound must be numeric, found {k}", side))
        elif isinstance(d, ir.SetDomain):
            for m in d.members:
                check_expr(m, sc, None, "domain member")
                if not is_ground(m, sc):
                    diags.append(_diag("domain members must be ground", m))
        elif isinstance(d, ir.ExprDomain):
            k = check_expr(d.expr, sc, None, "domain expression")
            if k is not None and not k.is_set:
                diags.append(_diag(f"domain expression must be a set, found {k}", d.expr))

    def check_typed(decl: ir.TypedElement, sc: Scope):
        try:
            base = scalar_kind(decl.type_name, sc, decl.loc)
        except CompileError as exc:
            diags.append(_diag(str(exc), decl))
            return
        for dim in decl.dims:
            check_expr(dim, sc, ir.INTEGER, "array dimension")
        if isinstance(decl, ir.Variable):
            if base.kind == "object":
                if decl.is_set:
                    diags.append(_diag(f"'{decl.name}': object variables cannot be sets", decl))
                if decl.domain is not None:
                    diags.append(_diag(f"'{decl.name}': object variables take no domain", decl))
            elif decl.is_set and base not in (ir.INTEGER,) and base.kind != "enum":
                diags.append(_diag(f"'{decl.name}': sets of {base} are not supported", decl))
            check_domain(decl.domain, sc, decl)
        if isinstance(decl, ir.Constant):
            if not is_ground(decl.value, sc):
                diags.append(_diag(f"constant '{decl.name}' must have a ground value", decl))
            k = check_expr(decl.value, sc, None, "constant value")
            if k is not None and not decl.is_set and not decl.dims:
                ok = (
                    k == base
                    or (base == ir.REAL and k in (ir.INTEGER, ir.BOOLEAN))
                    or (base == ir.INTEGER and k == ir.BOOLEAN)
                )
                if not ok:
                    diags.append(
                        _diag(f"constant '{decl.name}' declared {base} but valued {k}", decl)
                    )

    def check_stmt(s: ir.Statement, sc: Scope):
        if isinstance(s, ir.ExpressionConstraint):
            check_expr(s.expr, sc, ir.BOOLEAN, "constraint expression")
        elif isinstance(s, ir.GlobalCtr):
            if not s.ctr_name:
                diags.append(_diag("global constraint must be named", s))
            for p in s.params:
                k = check_expr(p, sc, None, "global constraint parameter")
                if (
                    s.ctr_name == "alldifferent"
                    and k is not None
                    and k not in (ir.INTEGER, ir.BOOLEAN)
                ):
                    diags.append(_diag(f"alldifferent parameter must be integer, found {k}", p))
        elif isinstance(s, ir.ForAll):
            check_expr(s.lower, sc, ir.INTEGER, "loop bound")
            check_expr(s.upper, sc, ir.INTEGER, "loop bound")
            inner = sc.with_iter(s.iter_var)
            for b in s.body:
                check_stmt(b, inner)
        elif isinstance(s, ir.If):
            check_expr(s.cond, sc, ir.BOOLEAN, "condition")
            for b in s.then_body:
                check_stmt(b, sc)
            for b in s.else_body or ():
                check_stmt(b, sc)

    for e in model.elements:
        if isinstance(e, (ir.Variable, ir.Constant)):
            check_typed(e, scope)
        elif isinstance(e, ir.Class):
            names = set()
            for f in e.features:
                if isinstance(f, (ir.Variable, ir.Constant, ir.ConstraintZone, ir.Record)):
                    if f.name in names:
                        diags.append(_diag(f"duplicate feature '{f.name}' in class '{e.name}'", f))
                    names.add(f.name)
            inner = scope.in_class(e)
            for f in e.features:
                if isinstance(f, (ir.Variable, ir.Constant)):
                    check_typed(f, inner)
                elif isinstance(f, ir.ConstraintZone):
                    for s in f.body:
                        check_stmt(s, inner)
                elif isinstance(f, ir.Statement):
                    check_stmt(f, inner)
        elif isinstance(e, ir.ConstraintZone):
            for s in e.body:
                check_stmt(s, scope)
        elif isinstance(e, ir.Statement):
            check_stmt(e, scope)
        elif isinstance(e, ir.Record):
            if not e.components:
                diags.append(_diag(f"record '{e.name}' must have components", e))
    return diags
