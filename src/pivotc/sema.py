"""Name resolution, type inference and model validation, in one walk.

``resolve`` walks a model once.  At each name occurrence it binds the
occurrence to its declaration; at each node it computes the node's
TypeKind from its children's kinds, and it records the model's
diagnostics on the way.  It raises on the first name that does not
resolve, so an unresolved name wins over any type error, and it returns
a new model, in which each node of the input that is not a literal is
built once, with its bound children; it is idempotent, and returns its
own output as is.  The walk looks each name up once per scope, types
each declaration once and indexes each class's attributes once, in
caches that die with it (see ``_Walk``): an occurrence costs a dict
lookup, whatever its declaration.
``validate`` returns the diagnostics that walk recorded for a model
``resolve`` returned, and runs the same walk on any other model; it never
raises.  ``infer_type`` walks one expression and raises its first type
error.

Typing rules beyond the obvious ones:
  * integer promotes to real in mixed arithmetic;
  * boolean coerces to integer where a number is expected (so sums of 0/1
    indicator variables type-check);
  * ``/`` always yields real, even on two integers.
"""

from __future__ import annotations

import weakref

from . import ir
from .errors import (
    CompileError,
    Diagnostic,
    DuplicateNameError,
    Loc,
    UnresolvedNameError,
)

_SCALAR_BUILTINS = {"int": ir.INTEGER, "real": ir.REAL, "bool": ir.BOOLEAN}
_LITERAL_KINDS = {ir.IntValue: ir.INTEGER, ir.RealValue: ir.REAL, ir.BoolValue: ir.BOOLEAN}


class Scope:
    """Layered name environment: top-level declarations and optionally
    the features of one class.  Loop iterators are not in it: the walk
    that resolves a model keeps the iterators in scope (``_Walk.iters``)."""

    def __init__(self, model: ir.Model):
        self.top: dict[str, ir.ModelElement] = {}
        self.literals: dict[str, tuple[str, int]] = {}
        self.features: dict[str, ir.ModelElement] | None = None
        self.owner: str | None = None
        main = None
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
            if isinstance(e, ir.Class) and e.is_main:
                if main is not None:
                    raise DuplicateNameError("main", e.loc)
                main = e

    def in_class(self, cls: ir.Class) -> "Scope":
        child = object.__new__(Scope)
        child.top, child.literals, child.owner = self.top, self.literals, cls.name
        child.features = {
            f.name: f for f in cls.features if isinstance(f, (ir.Variable, ir.Constant))
        }
        return child

    def lookup(self, name: str):
        """Return (kind, declaration-or-info) of a name that is not an
        iterator: iterators shadow everything, so callers test them first."""
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
    (CompileError) or its first unresolved name."""
    walk = _Walk(scope)
    _, kind = walk.top(e)
    if walk.error is not None:
        raise walk.error
    return kind


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
    if base is ir.INTEGER:
        return ir.SET_OF_INT
    if base.kind == "enum":
        return ir.set_of_enum(base.name)
    raise CompileError(f"'{decl.name}': sets of {base} are not supported", decl.loc)


def _with_operands(e: ir.Expression, operands: list) -> ir.Expression:
    """e with its terms, or its left and right operand, replaced."""
    if type(e) is ir.AlgChain or type(e) is ir.BoolChain:
        return ir.rebuild(e, {"terms": tuple(operands)})
    return ir.rebuild(e, {"left": operands[0], "right": operands[1]})


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
    iterator.  ``iters`` holds the enclosing loops' iterators, innermost
    last; a class body is never inside a loop.

    Three caches, each dropped with the walk, make an occurrence cost a
    dict lookup: ``names`` holds what each name of the current class (or
    of the top level) binds to, ``kinds`` each declaration's TypeKind (or
    the error that it has none), computed once, when the walk first needs
    it, and ``attributes`` each class's attributes by name, for
    navigation steps.  Kinds are interned (``ir.enum_kind`` and the
    like), so the walk compares them by identity."""

    def __init__(self, scope: Scope):
        self.scope = scope
        self.diags: list[Diagnostic] = []
        self.error: CompileError | None = None
        self.ground = True
        self.iters: list[str] = []
        self.binding = ir.Bindings()
        self.names: dict[str, tuple] = {}  # name -> (Binding, declaration, kind)
        self.kinds: dict[int, ir.TypeKind | CompileError] = {}  # by id of the declaration
        self.attributes: dict[str, dict[str, tuple]] = {}  # class -> name -> (.., class)

    def _note(self, message: str, node: ir.Node | None):
        self.diags.append(_diag(message, node))

    def _fail(self, message: str, node: ir.Node):
        if self.error is None:
            self.error = CompileError(message, node.loc)

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
            outer = self.scope, self.names
            self.scope, self.names = self.scope.in_class(e), {}
            features = self.elements(e.features)
            self.scope, self.names = outer
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
        if base is None or not d.is_set or base is ir.INTEGER or base.kind == "enum":
            pass
        elif base.kind == "object":
            self._note(f"'{d.name}': object variables cannot be sets", d)
        else:
            self._note(f"'{d.name}': sets of {base} are not supported", d)
        if isinstance(d, ir.Variable):
            if base is not None and base.kind == "object" and d.domain is not None:
                self._note(f"'{d.name}': object variables take no domain", d)
            update = {"dims": dims, "domain": self.domain(d.domain)}
        else:
            value, k = self.top(d.value)
            if not self.ground:
                self._note(f"constant '{d.name}' must have a ground value", d)
            value, k = self.settle(value, k)
            if k is not None and not d.is_set and not d.dims and not (
                k is base
                or (base is ir.REAL and (k is ir.INTEGER or k is ir.BOOLEAN))
                or (base is ir.INTEGER and k is ir.BOOLEAN)
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
            params = []
            for p in s.params:
                p, k = self.check(p, None, "global constraint parameter")
                if (s.ctr_name == "alldifferent" and k is not None
                        and k is not ir.INTEGER and k is not ir.BOOLEAN):
                    self._note(f"alldifferent parameter must be integer, found {k}", p)
                params.append(p)
            return ir.rebuild(s, {"params": tuple(params)})
        if isinstance(s, ir.ForAll):
            lower, _ = self.check(s.lower, ir.INTEGER, "loop bound")
            upper, _ = self.check(s.upper, ir.INTEGER, "loop bound")
            self.iters.append(s.iter_var)
            body = self.stmts(s.body)
            self.iters.pop()
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
            if self.error not in self.kinds.values():  # a declaration's error is noted there
                self._note(self.error.message, self.error if self.error.loc else e)
            return e, None
        if want is not None and k is not want and not (want is ir.INTEGER and k is ir.BOOLEAN):
            self._note(f"{what} must be {want}, found {k}", e)
        return e, k

    def check(self, e: ir.Expression, want: ir.TypeKind | None, what: str):
        return self.settle(*self.top(e), want, what)

    # -- expressions ----------------------------------------------------------

    def number(self, k, e: ir.Expression):
        """k as an arithmetic operand: boolean counts as integer."""
        if k is ir.INTEGER or k is ir.REAL:
            return k
        if k is ir.BOOLEAN:
            return ir.INTEGER
        if k is not None:
            self._fail("numeric operand expected", e)
        return None

    def require(self, k, want: ir.TypeKind, e: ir.Expression, what: str):
        if k is not None and k is not want:
            self._fail(f"{what} must be {want}", e)

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
        if t is ir.AlgChain or t is ir.AlgBinaryOp:
            operands, kind = [], ir.REAL if t is ir.AlgBinaryOp and e.op == "/" else ir.INTEGER
            for x in e.terms if t is ir.AlgChain else (e.left, e.right):
                x, k = self.expr(x)
                operands.append(x)
                k = self.number(k, x)
                kind = None if k is None or kind is None else ir.REAL if k is ir.REAL else kind
            return _with_operands(e, operands), kind
        if t is ir.BoolChain or t is ir.BoolBinaryOp and (e.op == "iff" or e.op == "implies"):
            operands, what = [], f"'{e.op}' operand"
            for x in e.terms if t is ir.BoolChain else (e.left, e.right):
                x, k = self.expr(x)
                operands.append(x)
                self.require(k, ir.BOOLEAN, x, what)
            return _with_operands(e, operands), ir.BOOLEAN
        if t is ir.BoolBinaryOp:  # a comparison
            left, lk = self.expr(e.left)
            right, rk = self.expr(e.right)
            e = ir.rebuild(e, {"left": left, "right": right})
            if lk is None or rk is None:
                return e, None
            if (lk.is_numeric and rk.is_numeric) or (
                e.op in ("=", "!=") and lk is rk and (lk.is_set or lk.kind == "enum")
            ):
                return e, ir.BOOLEAN
            self._fail(f"'{e.op}' cannot compare {lk} with {rk}", e)
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
                self._fail("card expects a set", e)
            return ir.rebuild(e, {"arg": arg}), ir.INTEGER
        if t is ir.SetBinaryOp:
            left, lk = self.expr(e.left)
            right, rk = self.expr(e.right)
            e = ir.rebuild(e, {"left": left, "right": right})
            if lk is None or rk is None:
                return e, None
            if not lk.is_set or lk is not rk:
                self._fail(f"'{e.op}' expects two sets of the same element type", e)
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
            if None in kinds:
                return e, None
            if all(k.is_numeric for k in kinds):
                for k, x in zip(kinds, elems):
                    self.require(self.number(k, x), ir.INTEGER, x, "set element")
                return e, ir.SET_OF_INT
            first = kinds[0]
            if first.kind == "enum" and all(k is first for k in kinds):
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
            args, real = [], False
            for a in e.args:
                a, k = self.expr(a)
                args.append(a)
                real = self.number(k, a) is ir.REAL or real
            e = ir.rebuild(e, {"args": tuple(args)})
            if e.fn in ("abs", "min", "max"):
                return e, ir.REAL if real else ir.INTEGER
            return e, ir.REAL
        raise TypeError(f"unknown expression {e!r}")

    def bind(self, e: ir.VarOccurrence):
        """What e's name refers to, looked up once per name and scope: its
        Binding, its declaration (None for an iterator or an enum
        literal) and its kind (or the error that it has none)."""
        name = e.name
        if name in self.iters:
            return self.binding("iterator", name), None, ir.INTEGER
        entry = self.names.get(name)
        if entry is None:
            entry = self.names[name] = self.lookup(e)
        return entry

    def lookup(self, e: ir.VarOccurrence):
        scope = self.scope
        try:
            kind, decl = scope.lookup(e.name)
        except UnresolvedNameError:
            raise UnresolvedNameError(e.name, e.loc) from None
        if kind == "variable" or kind == "constant":
            owner = scope.owner if scope.features and e.name in scope.features else None
            return self.binding(kind, e.name, owner=owner), decl, self.kind_of(decl)
        if kind == "enum_literal":
            return self.binding(kind, e.name, *decl), None, ir.enum_kind(decl[0])
        raise UnresolvedNameError(e.name, e.loc, f"'{e.name}' names a {kind}, not a value")

    def kind_of(self, decl: ir.TypedElement):
        """decl's TypeKind, or the CompileError that its type is unknown or
        unsupported: computed once per declaration."""
        k = self.kinds.get(id(decl))
        if k is None:
            try:
                k = decl_kind(decl, self.scope)
            except CompileError as exc:
                k = exc
            self.kinds[id(decl)] = k
        return k

    def occurrence(self, e: ir.VarOccurrence, binding: ir.Binding, decl, declared):
        """Bind and type one occurrence or path step, whose name ``bind``
        (or ``attributes_of``) resolved to binding, decl and the declared
        kind (or the error that there is none): the checks on e come
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
        if type(declared) is ir.TypeKind:
            return e, declared
        self.error = self.error or declared  # the declaration's type is unknown or unsupported
        return e, None

    def path(self, e: ir.ObjectOccurrence):
        """Bind and type a navigation path: each step's attribute is found
        in the class of the step before it."""
        self.ground = False
        head = e.path[0]
        binding, decl, declared = self.bind(head)
        step, kind = self.occurrence(head, binding, decl, declared)
        steps = [step]
        cls = self.scope.class_named(decl.type_name) if decl is not None else None
        for step in e.path[1:]:
            if cls is None:
                raise UnresolvedNameError(
                    step.name, step.loc, f"cannot navigate into '{steps[-1].name}'"
                )
            entry = self.attributes_of(cls).get(step.name)
            if entry is None:
                raise UnresolvedNameError(
                    step.name, step.loc, f"class '{cls.name}' has no attribute '{step.name}'"
                )
            step, kind = self.occurrence(step, *entry[:3])
            steps.append(step)
            cls = entry[3]
        return ir.rebuild(e, {"path": tuple(steps)}), kind

    def attributes_of(self, cls: ir.Class) -> dict[str, tuple]:
        """Each attribute of cls by name (the first, if a name repeats):
        its Binding, itself, its kind and its class, if any."""
        found = self.attributes.get(cls.name)
        if found is None:
            found = self.attributes[cls.name] = {}
            for f in cls.features:
                if isinstance(f, (ir.Variable, ir.Constant)) and f.name not in found:
                    k = "constant" if isinstance(f, ir.Constant) else "variable"
                    found[f.name] = (
                        self.binding(k, f.name, owner=cls.name), f, self.kind_of(f),
                        self.scope.class_named(f.type_name),
                    )
        return found
