"""Name resolution, type inference and model validation, in one walk.

``resolve`` walks a model once.  At each name occurrence it looks the name
up once and binds the occurrence to its declaration; at each node it
computes the node's TypeKind from its children's kinds, and it records
the model's diagnostics on the way.  It raises on the first name that does
not resolve, so an unresolved name wins over any type error, and it
returns a new model; it is idempotent, and returns its own output as is.
``validate`` returns the diagnostics that walk recorded for a model
``resolve`` returned, and runs the same walk on any other model; it never
raises.  ``infer_type`` walks one expression and raises its first type
error.

Typing rules beyond the obvious ones:
  * integer promotes to real in mixed arithmetic;
  * boolean coerces to integer where a number is expected (so sums of 0/1
    indicator variables type-check);
  * ``/`` always yields real, even on two integers;
  * interval values type as integer sets.
"""

from __future__ import annotations

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
_LITERAL_KINDS = {
    ir.IntValue: ir.INTEGER, ir.RealValue: ir.REAL, ir.BoolValue: ir.BOOLEAN,
    ir.IntervalValue: ir.SET_OF_INT,
}
_LOGICAL_OPS = ("iff", "implies", "and", "or")


class Scope:
    """Layered name environment: top-level declarations, optionally the
    features of one class, plus a stack of loop iterators."""

    def __init__(self, model: ir.Model):
        self.top: dict[str, ir.ModelElement] = {}
        self.literals: dict[str, tuple[str, int]] = {}
        self.features: dict[str, ir.ModelElement] | None = None
        self.owner: str | None = None
        self.iters: tuple[str, ...] = ()
        mains = 0
        for e in model.elements:
            if isinstance(e, (ir.Enumeration, ir.Class, ir.Variable, ir.Constant)):
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
            return "class", decl
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
# Entry points

# Models known to be resolved, keyed by id, each with the diagnostics its
# walk recorded (None for a model passed to ``mark_resolved``).  The weak
# reference's callback drops an entry when its model dies, and the
# identity check in ``_known`` ignores reused ids.
_RESOLVED: dict[int, tuple[weakref.ref, list[Diagnostic] | None]] = {}


def _remember(model: ir.Model, diags: list[Diagnostic] | None) -> ir.Model:
    key = id(model)
    _RESOLVED[key] = (weakref.ref(model, lambda _ref: _RESOLVED.pop(key, None)), diags)
    return model


def _known(model: ir.Model):
    """The (reference, diagnostics) entry of a model known to be resolved."""
    entry = _RESOLVED.get(id(model))
    return entry if entry is not None and entry[0]() is model else None


def mark_resolved(model: ir.Model) -> ir.Model:
    """Declare every occurrence in model bound; ``resolve`` returns it as is."""
    return _remember(model, None)


def resolve(model: ir.Model) -> ir.Model:
    """Bind every name reference to its declaration (returns a new model).

    Raises UnresolvedNameError or DuplicateNameError.  Idempotent: its own
    output, or a model passed to ``mark_resolved``, comes back as is.  The
    test is identity, not ``==`` (blind to bindings) or ``hash`` (a whole
    walk), so a structural copy is resolved afresh.
    """
    if _known(model) is not None:
        return model
    walk = _Walk(Scope(model))
    model = ir.rebuild(model, {"elements": walk.elements(model.elements)})
    return _remember(model, walk.diags)


def validate(model: ir.Model) -> list[Diagnostic]:
    """Check every structural and typing invariant; returns diagnostics.

    A model ``resolve`` returned gets the diagnostics its walk recorded.
    Any other model is walked here; a name in it that does not resolve
    ends the walk and is the one diagnostic."""
    entry = _known(model)
    if entry is not None and entry[1] is not None:
        return list(entry[1])
    try:
        walk = _Walk(Scope(model))
        walk.elements(model.elements)
    except (DuplicateNameError, UnresolvedNameError) as exc:
        return [_diag(exc.message, exc)]
    return walk.diags


def infer_type(e: ir.Expression, scope: Scope) -> ir.TypeKind:
    """Return the unique TypeKind of e, or raise its first type error
    (TypeMismatchError) or its first unresolved name."""
    walk = _Walk(scope)
    _, kind = walk.top(e)
    if walk.error is not None:
        raise walk.error
    return kind


def is_ground(e: ir.Expression, scope: Scope) -> bool:
    """True when e contains no variable or iterator occurrences.  Constant
    and enum-literal occurrences are ground (their values are fixed)."""
    walk = _Walk(scope)
    try:
        walk.top(e)
    except UnresolvedNameError:
        return False
    return walk.ground


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


def _diag(message: str, node: ir.Node | CompileError | None) -> Diagnostic:
    loc = getattr(node, "loc", None) or Loc()
    return Diagnostic("error", message, max(loc.line, 1), max(loc.col, 1), loc.file)


# --------------------------------------------------------------------------
# The walk

class _Walk:
    """Binds each name occurrence and types each node in one visit.

    ``error`` holds the first type error of the top-level expression being
    walked: the walk goes on binding after it, because an unresolved name
    must still raise, but records nothing more for that expression.
    ``ground`` tells whether that expression has read no variable and no
    iterator."""

    def __init__(self, scope: Scope):
        self.scope = scope
        self.diags: list[Diagnostic] = []
        self.error: CompileError | None = None
        self.ground = True

    def _note(self, message: str, node: ir.Node | None):
        self.diags.append(_diag(message, node))

    def _fail(self, message: str, node: ir.Node, expected: str = "", found: str = ""):
        if self.error is None:
            self.error = TypeMismatchError(message, expected, found, node.loc)

    # -- elements, statements and domains ---------------------------------

    def elements(self, elements) -> tuple:
        return tuple([self.element(e) for e in elements])

    def element(self, e: ir.ModelElement) -> ir.ModelElement:
        if isinstance(e, (ir.Variable, ir.Constant)):
            return self.typed(e)
        if isinstance(e, ir.ConstraintZone):
            return ir.rebuild(e, {"body": self.stmts(e.body)})
        if isinstance(e, ir.Statement):
            return self.stmt(e)
        if isinstance(e, ir.Class):
            names = set()
            for f in e.features:
                if isinstance(f, (ir.Variable, ir.Constant, ir.ConstraintZone)):
                    if f.name in names:
                        self._note(f"duplicate feature '{f.name}' in class '{e.name}'", f)
                    names.add(f.name)
            outer, self.scope = self.scope, self.scope.in_class(e)
            features = self.elements(e.features)
            self.scope = outer
            return ir.rebuild(e, {"features": features})
        return e

    def typed(self, d: ir.TypedElement) -> ir.TypedElement:
        diags = self.diags
        try:
            base = scalar_kind(d.type_name, self.scope, d.loc)
        except CompileError as exc:
            self._note(exc.message, d)
            self.diags, base = [], None  # bind the rest, report nothing more for d
        dims = tuple([self.check(x, ir.INTEGER, "array dimension")[0] for x in d.dims])
        if isinstance(d, ir.Variable):
            if base is None:
                pass
            elif base.kind == "object":
                if d.is_set:
                    self._note(f"'{d.name}': object variables cannot be sets", d)
                if d.domain is not None:
                    self._note(f"'{d.name}': object variables take no domain", d)
            elif d.is_set and base != ir.INTEGER and base.kind != "enum":
                self._note(f"'{d.name}': sets of {base} are not supported", d)
            update = {"dims": dims, "domain": self.domain(d.domain)}
        else:
            value, k = self.top(d.value)
            if not self.ground:
                self._note(f"constant '{d.name}' must have a ground value", d)
            value, k = self.settle(value, k)
            if k is not None and not d.is_set and not d.dims and not (
                k == base
                or (base == ir.REAL and k in (ir.INTEGER, ir.BOOLEAN))
                or (base == ir.INTEGER and k == ir.BOOLEAN)
            ):
                self._note(f"constant '{d.name}' declared {base} but valued {k}", d)
            update = {"dims": dims, "value": value}
        self.diags = diags
        return ir.rebuild(d, update)

    def domain(self, d: ir.Domain | None) -> ir.Domain | None:
        if d is None:
            return None
        if isinstance(d, ir.IntervalDomain):
            sides = []
            for side in (d.lo, d.hi):
                side, k = self.check(side, None, "domain bound")
                if k is not None and not k.is_numeric:
                    self._note(f"domain bound must be numeric, found {k}", side)
                sides.append(side)
            return ir.rebuild(d, {"lo": sides[0], "hi": sides[1]})
        if isinstance(d, ir.SetDomain):
            members = []
            for m in d.members:
                m, _ = self.check(m, None, "domain member")
                if not self.ground:
                    self._note("domain members must be ground", m)
                members.append(m)
            return ir.rebuild(d, {"members": tuple(members)})
        expr, k = self.check(d.expr, None, "domain expression")
        if k is not None and not k.is_set:
            self._note(f"domain expression must be a set, found {k}", expr)
        return ir.rebuild(d, {"expr": expr})

    def stmts(self, body) -> tuple:
        return tuple([self.stmt(s) for s in body])

    def stmt(self, s: ir.Statement) -> ir.Statement:
        if isinstance(s, ir.ExpressionConstraint):
            expr, _ = self.check(s.expr, ir.BOOLEAN, "constraint expression")
            return ir.rebuild(s, {"expr": expr})
        if isinstance(s, ir.GlobalCtr):
            if not s.ctr_name:
                self._note("global constraint must be named", s)
            params = []
            for p in s.params:
                p, k = self.check(p, None, "global constraint parameter")
                if s.ctr_name == "alldifferent" and k is not None and k not in (
                    ir.INTEGER, ir.BOOLEAN
                ):
                    self._note(f"alldifferent parameter must be integer, found {k}", p)
                params.append(p)
            return ir.rebuild(s, {"params": tuple(params)})
        if isinstance(s, ir.ForAll):
            lower, _ = self.check(s.lower, ir.INTEGER, "loop bound")
            upper, _ = self.check(s.upper, ir.INTEGER, "loop bound")
            outer, self.scope = self.scope, self.scope.with_iter(s.iter_var)
            body = self.stmts(s.body)
            self.scope = outer
            return ir.rebuild(s, {"lower": lower, "upper": upper, "body": body})
        if isinstance(s, ir.If):
            cond, _ = self.check(s.cond, ir.BOOLEAN, "condition")
            then_body = self.stmts(s.then_body)
            else_body = None if s.else_body is None else self.stmts(s.else_body)
            return ir.rebuild(s, {"cond": cond, "then_body": then_body, "else_body": else_body})
        raise TypeError(f"unknown statement {s!r}")

    # -- top-level expressions ---------------------------------------------

    def top(self, e: ir.Expression):
        """Walk one top-level expression afresh: (e bound, its kind)."""
        self.error, self.ground = None, True
        return self.expr(e)

    def settle(self, e: ir.Expression, k, want: ir.TypeKind | None = None, what: str = ""):
        """Record e's first type error, or a kind other than want (boolean
        passes for integer); returns (e, k) with k None after an error."""
        if self.error is not None:  # at the node whose check failed
            self._note(self.error.message, self.error if self.error.loc else e)
            return e, None
        if want is not None and k != want and not (want == ir.INTEGER and k == ir.BOOLEAN):
            self._note(f"{what} must be {want}, found {k}", e)
        return e, k

    def check(self, e: ir.Expression, want: ir.TypeKind | None, what: str):
        return self.settle(*self.top(e), want, what)

    # -- expressions ----------------------------------------------------------

    def number(self, k, e: ir.Expression):
        """k as an arithmetic operand: boolean counts as integer."""
        if k in (ir.INTEGER, ir.REAL):
            return k
        if k == ir.BOOLEAN:
            return ir.INTEGER
        if k is not None:
            self._fail("numeric operand expected", e, "integer or real", str(k))
        return None

    def require(self, k, want: ir.TypeKind, e: ir.Expression, what: str):
        if k is not None and k != want:
            self._fail(f"{what} must be {want}", e, str(want), str(k))

    def expr(self, e: ir.Expression):
        """Return (e with every name bound, e's TypeKind).  A check on a
        child runs as soon as that child is typed; after a type error the
        kind is None and only the first error is kept."""
        t = type(e)
        if t is ir.VarOccurrence:
            return self.occurrence(e, *self.bind(e))
        kind = _LITERAL_KINDS.get(t)
        if kind is not None:
            return e, kind
        if t is ir.AlgBinaryOp:
            left, lk = self.expr(e.left)
            lk = self.number(lk, left)
            right, rk = self.expr(e.right)
            rk = self.number(rk, right)
            e = ir.rebuild(e, {"left": left, "right": right})
            if lk is None or rk is None:
                return e, None
            return e, ir.REAL if e.op == "/" or ir.REAL in (lk, rk) else ir.INTEGER
        if t is ir.BoolBinaryOp:
            logical = e.op in _LOGICAL_OPS
            left, lk = self.expr(e.left)
            if logical:
                self.require(lk, ir.BOOLEAN, left, f"'{e.op}' operand")
            right, rk = self.expr(e.right)
            e = ir.rebuild(e, {"left": left, "right": right})
            if logical:
                self.require(rk, ir.BOOLEAN, right, f"'{e.op}' operand")
                return e, ir.BOOLEAN
            if lk is None or rk is None:
                return e, None
            if (lk.is_numeric and rk.is_numeric) or (
                e.op in ("=", "!=") and lk == rk and (lk.is_set or lk.kind == "enum")
            ):
                return e, ir.BOOLEAN
            self._fail(f"'{e.op}' cannot compare {lk} with {rk}", e, str(lk), str(rk))
            return e, None
        if t is ir.ObjectOccurrence:
            return self.path(e)
        if t is ir.AlgUnaryOp:
            operand, k = self.expr(e.operand)
            return ir.rebuild(e, {"operand": operand}), self.number(k, operand)
        if t is ir.BoolUnaryOp:
            operand, k = self.expr(e.operand)
            self.require(k, ir.BOOLEAN, operand, "'not' operand")
            return ir.rebuild(e, {"operand": operand}), ir.BOOLEAN
        if t is ir.SetFunction:
            arg, k = self.expr(e.arg)
            if k is not None and not k.is_set:
                self._fail("card expects a set", e, "set", str(k))
            return ir.rebuild(e, {"arg": arg}), ir.INTEGER
        if t is ir.SetBinaryOp:
            left, lk = self.expr(e.left)
            right, rk = self.expr(e.right)
            e = ir.rebuild(e, {"left": left, "right": right})
            if lk is None or rk is None:
                return e, None
            if not lk.is_set or lk != rk:
                self._fail(
                    f"'{e.op}' expects two sets of the same element type", e, str(lk), str(rk)
                )
                return e, None
            return e, lk
        if t is ir.SetValue:
            elems, kinds = [], []
            for x in e.elems:
                x, k = self.expr(x)
                elems.append(x)
                kinds.append(k)
            e = ir.rebuild(e, {"elems": tuple(elems)})
            if not kinds:
                return e, ir.SET_OF_INT
            if any(k is None for k in kinds):
                return e, None
            if all(k.is_numeric for k in kinds):
                for k, x in zip(kinds, elems):
                    self.require(self.number(k, x), ir.INTEGER, x, "set element")
                return e, ir.SET_OF_INT
            first = kinds[0]
            if first.kind == "enum" and all(k == first for k in kinds):
                return e, ir.set_of_enum(first.name)
            self._fail("set elements must all be integers or literals of one enumeration", e)
            return e, None
        if t is ir.AlgFunction:
            if e.fn not in ir.ALG_FUNCTIONS:
                self._fail(f"unknown function '{e.fn}'", e)
            elif e.fn in ("min", "max"):
                if len(e.args) < 2:
                    self._fail(f"'{e.fn}' expects at least 2 arguments", e)
            elif len(e.args) != 1:
                self._fail(f"'{e.fn}' expects exactly 1 argument", e)
            args, kinds = [], []
            for a in e.args:
                a, k = self.expr(a)
                args.append(a)
                kinds.append(self.number(k, a))
            e = ir.rebuild(e, {"args": tuple(args)})
            if e.fn in ("abs", "min", "max"):
                return e, ir.REAL if ir.REAL in kinds else ir.INTEGER
            return e, ir.REAL
        raise TypeError(f"unknown expression {e!r}")

    def bind(self, e: ir.VarOccurrence):
        """Look e's name up, once: its Binding and its declaration (None for
        an iterator or an enum literal)."""
        scope = self.scope
        try:
            kind, decl = scope.lookup(e.name)
        except UnresolvedNameError:
            raise UnresolvedNameError(e.name, e.loc) from None
        if kind == "variable" or kind == "constant":
            owner = scope.owner if scope.features and e.name in scope.features else None
            return ir.Binding(kind, e.name, owner=owner), decl
        if kind == "iterator":
            return ir.Binding("iterator", e.name), None
        if kind == "enum_literal":
            return ir.Binding(kind, e.name, *decl), None
        raise UnresolvedNameError(e.name, e.loc, f"'{e.name}' names a {kind}, not a value")

    def occurrence(self, e: ir.VarOccurrence, binding: ir.Binding, decl):
        """Bind and type one occurrence or path step: the checks on e come
        before its indexes, and e's kind after them."""
        kind = binding.kind
        if kind == "variable" or kind == "iterator":
            self.ground = False
        if decl is None:
            if e.indexes:
                what = "loop iterator" if kind == "iterator" else "literal"
                self._fail(f"{what} '{e.name}' cannot be indexed", e)
        elif len(e.indexes) != len(decl.dims):
            self._fail(
                f"'{e.name}' has {len(decl.dims)} dimension(s), "
                f"referenced with {len(e.indexes)} index(es)",
                e,
            )
        indexes = []
        for i in e.indexes:
            i, k = self.expr(i)
            self.require(self.number(k, i), ir.INTEGER, i, "array index")
            indexes.append(i)
        e = ir.rebuild(e, {"indexes": tuple(indexes), "binding": binding})
        if kind == "iterator":
            return e, ir.INTEGER
        if kind == "enum_literal":
            return e, ir.enum_kind(binding.enum_name)
        try:
            return e, decl_kind(decl, self.scope)
        except CompileError as exc:  # the declaration's type is unknown or unsupported
            self.error = self.error or exc
            return e, None

    def path(self, e: ir.ObjectOccurrence):
        """Bind and type a navigation path: each step's attribute is found
        in the class of the step before it."""
        self.ground = False
        if not e.path:
            self._fail("empty navigation path", e)
            return e, None
        head = e.path[0]
        binding, decl = self.bind(head)
        step, kind = self.occurrence(head, binding, decl)
        steps = [step]
        cls = self.scope.class_named(decl.type_name) if decl is not None else None
        for step in e.path[1:]:
            if cls is None:
                raise UnresolvedNameError(
                    step.name, step.loc, f"cannot navigate into '{steps[-1].name}'"
                )
            feature = next(
                (f for f in cls.features
                 if isinstance(f, (ir.Variable, ir.Constant)) and f.name == step.name),
                None,
            )
            if feature is None:
                raise UnresolvedNameError(
                    step.name, step.loc, f"class '{cls.name}' has no attribute '{step.name}'"
                )
            k = "constant" if isinstance(feature, ir.Constant) else "variable"
            step, kind = self.occurrence(step, ir.Binding(k, step.name, owner=cls.name), feature)
            steps.append(step)
            cls = self.scope.class_named(feature.type_name)
        return ir.rebuild(e, {"path": tuple(steps)}), kind
