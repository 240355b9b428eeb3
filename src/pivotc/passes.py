"""Rewriting passes over pivot models.

Each pass is a pure function Model -> Model: inputs are never mutated.
Passes take and return resolved models: each binds what it creates and
marks its output (``sema.mark_resolved``), so the next ``resolve`` is
free.  Unresolved input is resolved on entry.
``run_pipeline`` chains passes and collects one report per pass.

Passes:
  * object_flatten  - remove classes; object attributes become prefixed
    top-level declarations, arrays of objects linearize into one dimension
    and class constraint zones are wrapped in fresh loops over instances;
  * enum_remove     - map enumeration literals to their 1-based positions
    and retype enum variables over integer ranges;
  * alldiff_rewrite - replace alldifferent constraints by pairwise
    disequalities, a sum relaxation, or a boolean assignment matrix;
  * loop_unroll     - expand loops and ground conditionals;
  * fold_constants  - evaluate every ground subexpression (rationals for
    exactness), inline constants, and apply +0/*1 style identities.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import ir, sema
from .errors import (
    CompileError,
    CyclicCompositionError,
    DivisionByZeroError,
    DomainAssumptionError,
    HeterogeneousDomainsError,
    NameCollisionError,
    NonGroundBoundError,
    NonGroundConditionError,
    NonVariableParamError,
    NotAlldifferentError,
    PreconditionError,
)

PASS_IDS = ("objectFlatten", "enumRemove", "alldiffRewrite", "loopUnroll", "foldConstants")
ALLDIFF_MODES = ("disequalities", "relaxation", "boolean")


@dataclass(frozen=True)
class PassConfig:
    passes: tuple[str, ...] = ()
    alldiff_mode: str = "disequalities"

    def __post_init__(self):
        object.__setattr__(self, "passes", tuple(self.passes))
        for p in self.passes:
            if p not in PASS_IDS:
                raise ValueError(f"unknown pass '{p}'")
        if len(set(self.passes)) != len(self.passes):
            raise ValueError("duplicate pass in pipeline")
        if self.alldiff_mode not in ALLDIFF_MODES:
            raise ValueError(f"unknown alldifferent mode '{self.alldiff_mode}'")

    @property
    def unroll(self) -> bool:
        return "loopUnroll" in self.passes


@dataclass(frozen=True)
class PassReport:
    pass_id: str
    elements_before: int
    elements_after: int
    rewrites_applied: int

    def __str__(self) -> str:
        return (
            f"{self.pass_id}: elements {self.elements_before} -> "
            f"{self.elements_after}, rewrites {self.rewrites_applied}"
        )


# --------------------------------------------------------------------------
# Ground evaluation and constant folding

_MISSING = object()


def _num(v):
    return int(v) if isinstance(v, bool) else v


def _arith(op: str, a, b, loc):
    a, b = _num(a), _num(b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise DivisionByZeroError("division by zero", loc)
        if isinstance(a, float) or isinstance(b, float):
            return a / b
        return Fraction(a) / Fraction(b)
    if op == "^":
        if isinstance(a, float) or isinstance(b, float):
            return float(a) ** float(b)
        if isinstance(b, Fraction):
            if b.denominator != 1:
                return float(a) ** float(b)
            b = b.numerator
        try:
            return Fraction(a) ** b if isinstance(a, Fraction) or b < 0 else a ** b
        except ZeroDivisionError:
            raise DivisionByZeroError("zero raised to a negative power", loc) from None
    raise ValueError(op)


def _materialize(v, loc) -> ir.Expression | None:
    if isinstance(v, bool):
        return ir.BoolValue(v, loc=loc)
    if isinstance(v, int):
        return ir.IntValue(v, loc=loc)
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return ir.IntValue(v.numerator, loc=loc)
        return None  # keep non-integral rationals symbolic to stay exact
    if isinstance(v, float):
        return ir.RealValue(v, loc=loc)
    if isinstance(v, frozenset):
        return ir.SetValue(tuple(ir.IntValue(x, loc=loc) for x in sorted(v)), loc=loc)
    return None


_INT_ZERO = ir.IntValue(0)
_INT_ONE = ir.IntValue(1)

_COMPARE = {
    "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b, ">": lambda a, b: a > b,
}
_LOGIC = {
    "iff": lambda a, b: a == b, "implies": lambda a, b: (not a) or b,
    "and": lambda a, b: a and b, "or": lambda a, b: a or b,
}


class _Folder:
    """Bottom-up ground evaluation; counts the rewrites it makes.

    ``_fold_node`` sees a node whose children this folder has already
    folded and computes the node's value from theirs, never from the
    subtree below them.  A folded node is ground when it is a literal, an
    inlined-constant occurrence, or a ground node no literal holds exactly
    (a non-integral rational), whose value ``_exact`` keeps by identity.
    Rationals stay exact; enum literals, variables, iterators and
    navigation paths are opaque."""

    def __init__(self, env: dict):
        self.env = env
        self.count = 0
        self._exact: dict[int, tuple[ir.Expression, Fraction]] = {}  # node kept alive

    def fold(self, e: ir.Expression) -> ir.Expression:
        return ir.map_expr(e, self._fold_node)

    def ground_value(self, e: ir.Expression):
        """Fold e; its value, or _MISSING."""
        return self.value(self.fold(e))

    def value(self, e: ir.Expression):
        """The value of a node this folder returned, or _MISSING."""
        t = type(e)
        if t is ir.IntValue or t is ir.RealValue:
            return e.v
        if t is ir.BoolValue:
            return e.value
        if t is ir.VarOccurrence:
            b = e.binding
            if not e.indexes and b is not None and b.kind == "constant" and b.owner is None:
                return self.env.get(e.name, _MISSING)
            return _MISSING
        if t is ir.SetValue:
            members = []
            for m in e.elems:
                v = _num(self.value(m))
                if not isinstance(v, int):
                    return _MISSING
                members.append(v)
            return frozenset(members)
        hit = self._exact.get(id(e))
        return _MISSING if hit is None else hit[1]

    def _eval(self, e: ir.Expression):
        """The value of e from its folded children's values, or _MISSING."""
        value = self.value
        t = type(e)
        if t is ir.AlgBinaryOp:
            a = value(e.left)
            if a is _MISSING:
                return a
            b = value(e.right)
            if b is _MISSING:
                return b
            return _arith(e.op, a, b, e.loc)
        if t is ir.BoolBinaryOp:
            a = value(e.left)
            if a is _MISSING:
                return a
            b = value(e.right)
            if b is _MISSING:
                return b
            if e.op in _LOGIC:
                if not (isinstance(a, bool) and isinstance(b, bool)):
                    return _MISSING
                return _LOGIC[e.op](a, b)
            if isinstance(a, frozenset) != isinstance(b, frozenset):
                return _MISSING
            if isinstance(a, frozenset) and e.op not in ("=", "!="):
                return _MISSING
            return _COMPARE[e.op](_num(a), _num(b))
        if t is ir.AlgUnaryOp:
            v = value(e.operand)
            if v is _MISSING:
                return v
            return -_num(v) if e.op == "neg" else _num(v)
        if t is ir.AlgFunction:
            vals = []
            for a in e.args:
                v = value(a)
                if v is _MISSING:
                    return v
                vals.append(_num(v))
            if e.fn == "abs":
                return abs(vals[0])
            if e.fn == "min":
                return min(vals)
            if e.fn == "max":
                return max(vals)
            return getattr(math, e.fn)(float(vals[0]))
        if t is ir.BoolUnaryOp:
            v = value(e.operand)
            return not v if isinstance(v, bool) else _MISSING
        if t is ir.SetFunction:
            v = value(e.arg)
            return len(v) if isinstance(v, frozenset) else _MISSING
        if t is ir.SetBinaryOp:
            a = value(e.left)
            if not isinstance(a, frozenset):
                return _MISSING
            b = value(e.right)
            if not isinstance(b, frozenset):
                return _MISSING
            if e.op == "intersect":
                return a & b
            if e.op == "union":
                return a | b
            return a - b
        if t is ir.IntervalValue:
            if e.lo != int(e.lo) and math.ceil(e.lo) > math.floor(e.hi):
                return frozenset()
            return frozenset(range(math.ceil(e.lo), math.floor(e.hi) + 1))
        return value(e)

    def _fold_node(self, e: ir.Expression) -> ir.Expression:
        t = type(e)
        if t is ir.IntValue or t is ir.RealValue or t is ir.BoolValue:
            return e
        try:
            v = self._eval(e)
        except (ValueError, OverflowError):
            v = _MISSING  # domain error: leave the node symbolic
        if v is _MISSING:
            return self._identities(e)
        node = _materialize(v, e.loc)
        if node is None:  # ground, but no literal holds the value exactly
            out = self._identities(e)
            self._exact[id(out)] = (out, v)
            return out
        if node == e:
            return e
        self.count += 1
        return node

    def _identities(self, e: ir.Expression) -> ir.Expression:
        if isinstance(e, ir.AlgBinaryOp):
            if e.op == "+":
                if e.left == _INT_ZERO:
                    self.count += 1
                    return e.right
                if e.right == _INT_ZERO:
                    self.count += 1
                    return e.left
            elif e.op == "-" and e.right == _INT_ZERO:
                self.count += 1
                return e.left
            elif e.op == "*":
                if e.left == _INT_ONE:
                    self.count += 1
                    return e.right
                if e.right == _INT_ONE:
                    self.count += 1
                    return e.left
            elif e.op == "/" and e.right == _INT_ONE:
                self.count += 1
                return e.left
        return e


def const_env(model: ir.Model) -> dict:
    """Values of all evaluable constants (exact rationals for division)."""
    consts = [e for e in model.elements if isinstance(e, ir.Constant) and not e.dims]
    env: dict = {}
    for _ in range(len(consts) + 1):
        progress = False
        for c in consts:
            if c.name in env:
                continue
            v = _Folder(env).ground_value(c.value)
            if v is not _MISSING:
                env[c.name] = v
                progress = True
        if not progress:
            break
    return env


def _fold_constants_counted(model: ir.Model) -> tuple[ir.Model, int]:
    model = sema.resolve(model)
    folder = _Folder(const_env(model))
    out = ir.map_expressions(model, folder._fold_node)
    return sema.mark_resolved(out), folder.count


def fold_constants(model: ir.Model) -> ir.Model:
    return _fold_constants_counted(model)[0]


def _value_int(e: ir.Expression, env: dict) -> int | None:
    return _as_int(_Folder(env).ground_value(e))


def _as_int(v) -> int | None:
    """The integer a ground value stands for, or None."""
    if v is _MISSING:
        return None
    v = _num(v)
    if isinstance(v, Fraction):
        if v.denominator != 1:
            return None
        return v.numerator
    if isinstance(v, float):
        return int(v) if v == int(v) else None
    return v if isinstance(v, int) else None


# --------------------------------------------------------------------------
# Object flattening

def _composition_cycle_check(classes: dict[str, ir.Class]):
    state: dict[str, int] = {}  # 0 visiting, 1 done
    for name in classes:
        _visit_composition(classes, state, name, None)


def _visit_composition(classes, state, name: str, parent: str | None):
    # not a closure: a recursive closure is a reference cycle, which would
    # keep the classes alive until the cyclic collector runs
    if state.get(name) == 1:
        return
    if state.get(name) == 0:
        raise CyclicCompositionError(parent or name, name)
    state[name] = 0
    for f in classes[name].features:
        if isinstance(f, ir.Variable) and f.type_name in classes:
            _visit_composition(classes, state, f.type_name, name)
    state[name] = 1


def _linear_index(pairs: list[tuple[ir.Expression, ir.Expression]]) -> ir.Expression:
    """Row-major fold: index i within nested arrays of sizes d becomes
    d2*(i1-1)+i2 and so on (1-based)."""
    linear = pairs[0][0]
    for idx, size in pairs[1:]:
        linear = ir.AlgBinaryOp(
            "+",
            ir.AlgBinaryOp("*", size, ir.AlgBinaryOp("-", linear, ir.IntValue(1))),
            idx,
        )
    return linear


def _composed_dim(sizes: list[ir.Expression]) -> ir.Expression:
    acc = sizes[0]
    for s in sizes[1:]:
        acc = ir.AlgBinaryOp("*", s, acc)
    return acc


def _names_in(stmts, names: set[str] | None = None) -> set[str]:
    """Every name the statements read, and every loop iterator they bind."""
    names = set() if names is None else names
    for s in stmts:
        inner = ()
        if isinstance(s, ir.ForAll):
            names.add(s.iter_var)
            exprs, inner = (s.lower, s.upper), s.body
        elif isinstance(s, ir.If):
            exprs, inner = (s.cond,), s.then_body + (s.else_body or ())
        else:
            exprs = ir._statement_exprs(s)
        for x in exprs:
            names.update(n.name for n in ir.walk_expr(x) if isinstance(n, ir.VarOccurrence))
        _names_in(inner, names)
    return names


class _Flattener:
    """Rewrites a resolved model into one without classes, in one walk.

    Each occurrence it renames is bound as it is built (``Binding(kind,
    flat_name)``, or "iterator" for the fresh instance loops), and an
    untouched subtree comes back as is, bindings included.  ``run`` marks
    the output resolved unless a flat name could change what a kept
    occurrence means there (see ``_rebind_needed``).

    A loop whose iterator is named like a name the walk places in its body
    (a flat name, a moved size, an instance iterator) would capture it, so
    such a loop is renamed (``renames``), and its body rewritten again."""

    def __init__(self, model: ir.Model):
        self.model = model
        self.classes = model.classes()
        self.scope = sema.Scope(model)
        # attributes by name per class; the first one wins a repeated name
        self.attrs: dict[str, dict[str, ir.TypedElement]] = {}
        for name, cls in self.classes.items():
            attrs = self.attrs[name] = {}
            for f in cls.features:
                if isinstance(f, (ir.Variable, ir.Constant)):
                    attrs.setdefault(f.name, f)
        self.objects = {
            e.name
            for e in model.elements
            if isinstance(e, ir.Variable) and e.type_name in self.classes
        }
        self.taken = {
            e.name
            for e in model.elements
            if isinstance(e, (ir.Variable, ir.Constant, ir.Enumeration))
        }
        self.created = 0
        # for _rebind_needed: every loop of the output, the names read by
        # sizes placed away from where they were bound (linear indexes,
        # instance loops), and whether every kept occurrence still names a
        # declaration of the output (an object, or a class attribute, does not)
        self.loops: set[str] = set()
        self.moved_names: set[str] = set()
        self.exact = True
        # per moved size, by id: the size itself (so the id stays its own)
        # and the names it reads
        self.size_names: dict[int, tuple[ir.Expression, set[str]]] = {}
        # names placed in the loop body being rewritten, and the loop
        # iterators renamed so far (old name -> new name)
        self.placed: set[str] = set()
        self.renames: dict[str, str] = {}

    # -- expression rewriting ------------------------------------------
    def _flat_ref(self, prefix: list[str], ctx_pairs, steps, loc, cls) -> ir.VarOccurrence:
        """steps: list of (name, rewritten indexes, decl).  Returns the flat
        occurrence for a navigation that starts at an attribute of cls, the
        class of the instance at prefix, or (cls None) at a top-level
        object variable."""
        flat_name = "_".join(prefix + [name for name, _, _ in steps])
        self.placed.add(flat_name)
        _name, indexes, last_decl = steps[-1]
        # constants are shared by all instances: prefix only; without
        # enclosing arrays anywhere a variable is only renamed
        if isinstance(last_decl, ir.Constant):
            kind = "constant"
        else:
            kind = "variable"
            if ctx_pairs or any(decl.dims for _n, _i, decl in steps[:-1]):
                pairs = list(ctx_pairs)
                self.placed.update(it.name for it, _size in ctx_pairs)
                # a class attribute's dims read the flat names of the
                # instance that declares it
                owner, at = cls, prefix
                for name, idx, decl in steps:
                    sizes = decl.dims
                    if owner is not None:
                        sizes = [self._rewrite_expr(d, at, [], owner) for d in sizes]
                    pairs.extend(zip(idx, sizes))
                    owner, at = self.classes.get(decl.type_name), at + [name]
                for _idx, size in pairs[1:]:
                    self._moving(size)
                indexes = (_linear_index(pairs),) if pairs else ()
        return ir.VarOccurrence(flat_name, indexes, binding=ir.Binding(kind, flat_name), loc=loc)

    def _moving(self, size: ir.Expression):
        """Note the names size reads: it is placed under other loops than
        where it was bound."""
        entry = self.size_names.get(id(size))
        if entry is None:
            names = set()
            for node in ir.walk_expr(size):
                if isinstance(node, ir.VarOccurrence):
                    names.add(node.name)
                    b = node.binding
                    if b is None or b.owner is not None or node.name in self.objects:
                        self.exact = False
            self.moved_names |= names
            entry = self.size_names[id(size)] = (size, names)
        self.placed |= entry[1]

    def _rewrite_expr(self, e: ir.Expression, prefix, ctx_pairs, cls) -> ir.Expression:
        """e for the instance of cls at prefix (cls None: top level)."""
        if isinstance(e, ir.VarOccurrence):
            indexes = e.indexes
            if indexes:
                indexes = tuple([self._rewrite_expr(i, prefix, ctx_pairs, cls) for i in indexes])
            b = e.binding
            if b is None:
                self.exact = False
            elif b.kind == "iterator" and e.name in self.renames:
                name = self.renames[e.name]
                return ir.VarOccurrence(name, indexes, binding=ir.Binding("iterator", name), loc=e.loc)
            elif cls is not None and b.owner == cls.name and b.kind in ("variable", "constant"):
                decl = self.attrs[cls.name].get(e.name)
                if decl is not None and decl.type_name not in self.classes:
                    return self._flat_ref(prefix, ctx_pairs, [(e.name, indexes, decl)], e.loc, cls)
                self.exact = False
            elif e.name in self.objects and b.kind == "variable" and b.owner is None:
                self.exact = False
            if any(map(operator.is_not, indexes, e.indexes)):
                return ir.VarOccurrence(e.name, indexes, binding=b, loc=e.loc)
            return e
        if isinstance(e, ir.ObjectOccurrence):
            return self._rewrite_path(e, prefix, ctx_pairs, cls)
        updates = {}
        for name, many in ir.CHILD_FIELDS[type(e)]:
            v = getattr(e, name)
            if many:
                nv = tuple([self._rewrite_expr(x, prefix, ctx_pairs, cls) for x in v])
                if any(map(operator.is_not, nv, v)):
                    updates[name] = nv
            elif v is not None:
                nv = self._rewrite_expr(v, prefix, ctx_pairs, cls)
                if nv is not v:
                    updates[name] = nv
        return ir.rebuild(e, updates) if updates else e

    def _rewrite_path(self, e: ir.ObjectOccurrence, prefix, ctx_pairs, cls):
        head = e.path[0]
        if cls is not None and head.binding.owner == cls.name:
            decl = self.attrs[cls.name].get(head.name)
            base_prefix, base_ctx, base_cls = prefix, ctx_pairs, cls
        else:
            _kind, decl = self.scope.lookup(head.name)
            base_prefix, base_ctx, base_cls = [], [], None
        steps = []
        for step in e.path:
            if step is not head:
                attrs = self.attrs.get(decl.type_name) if decl is not None else None
                decl = attrs.get(step.name) if attrs is not None else None
            indexes = tuple([self._rewrite_expr(i, prefix, ctx_pairs, cls) for i in step.indexes])
            steps.append((step.name, indexes, decl))
        if decl is None or decl.type_name in self.classes:
            self.exact = False
        return self._flat_ref(base_prefix, base_ctx, steps, e.loc, base_cls)

    def _rewrite_stmt(self, s: ir.Statement, prefix, ctx_pairs, cls):
        rw = lambda x: self._rewrite_expr(x, prefix, ctx_pairs, cls)
        if isinstance(s, ir.ExpressionConstraint):
            return ir.ExpressionConstraint(rw(s.expr), loc=s.loc)
        if isinstance(s, ir.GlobalCtr):
            return ir.GlobalCtr(s.ctr_name, tuple(rw(p) for p in s.params), loc=s.loc)
        if isinstance(s, ir.ForAll):
            lower, upper = rw(s.lower), rw(s.upper)
            outer_placed, outer_renames = self.placed, self.renames
            self.placed = set()
            if s.iter_var in outer_renames:  # this loop hides the renamed one
                self.renames = {k: v for k, v in outer_renames.items() if k != s.iter_var}
            iter_var = s.iter_var
            body = tuple(self._rewrite_stmt(b, prefix, ctx_pairs, cls) for b in s.body)
            if iter_var in self.placed:
                used = _names_in(body) | self.taken
                n = 1
                while f"{s.iter_var}_{n}" in used:
                    n += 1
                iter_var = f"{s.iter_var}_{n}"
                self.renames = {**self.renames, s.iter_var: iter_var}
                body = tuple(self._rewrite_stmt(b, prefix, ctx_pairs, cls) for b in s.body)
            self.loops.add(iter_var)
            outer_placed |= self.placed
            self.placed, self.renames = outer_placed, outer_renames
            return ir.ForAll(iter_var, lower, upper, body, loc=s.loc)
        if isinstance(s, ir.If):
            else_body = None
            if s.else_body is not None:
                else_body = tuple(self._rewrite_stmt(b, prefix, ctx_pairs, cls) for b in s.else_body)
            return ir.If(
                rw(s.cond),
                tuple(self._rewrite_stmt(b, prefix, ctx_pairs, cls) for b in s.then_body),
                else_body,
                loc=s.loc,
            )
        raise TypeError(f"unknown statement {s!r}")

    # -- feature flattening --------------------------------------------
    def _instance_pairs(self, enclosing: list[ir.Expression], body_names: set[str]):
        """(fresh iterator occurrence, size) per enclosing array; the
        iterators avoid body_names and every name taken so far."""
        names: list[str] = []
        n = 1
        while len(names) < len(enclosing):
            cand = f"I{n}"
            n += 1
            if cand in body_names or cand in self.taken or cand in names:
                continue
            names.append(cand)
        self.loops.update(names)
        for size in enclosing:
            self._moving(size)
        return [
            (ir.VarOccurrence(name, binding=ir.Binding("iterator", name)), size)
            for name, size in zip(names, enclosing)
        ]

    def _claim(self, name: str):
        if name in self.taken:
            raise NameCollisionError(name)
        self.taken.add(name)

    def flatten_class_feature(self, f: ir.ModelFeature, prefix: list[str],
                              enclosing: list[ir.Expression], cls: ir.Class):
        """Flatten one feature of cls reached through the object-variable
        path named by prefix with the given enclosing array sizes."""
        out: list[ir.ModelFeature] = []
        if isinstance(f, ir.Variable) and f.type_name in self.classes:
            inner = self.classes[f.type_name]
            sizes = [self._rewrite_expr(d, prefix, [], cls) for d in f.dims]
            for g in inner.features:
                out.extend(
                    self.flatten_class_feature(g, prefix + [f.name], enclosing + sizes, inner)
                )
            return out
        if isinstance(f, (ir.Variable, ir.Constant)):
            flat_name = "_".join(prefix + [f.name]) if prefix else f.name
            if prefix:
                self._claim(flat_name)
            dims = tuple(self._rewrite_expr(d, prefix, [], cls) for d in f.dims)
            if isinstance(f, ir.Constant):
                value = self._rewrite_expr(f.value, prefix, [], cls)
                out.append(dataclasses.replace(f, name=flat_name, dims=dims, value=value))
            else:
                if enclosing:
                    dims = (_composed_dim(enclosing + list(dims)),)
                domain = self._rewrite_domain(f.domain, prefix, cls)
                out.append(dataclasses.replace(f, name=flat_name, dims=dims, domain=domain))
            self.created += 1
            return out
        if isinstance(f, ir.ConstraintZone):
            zone_name = "_".join(prefix + [f.name]) if prefix else f.name
            ctx_pairs = []
            if enclosing:
                ctx_pairs = self._instance_pairs(enclosing, _names_in(f.body))
            body = tuple(self._rewrite_stmt(s, prefix, ctx_pairs, cls) for s in f.body)
            for it, size in reversed(ctx_pairs):
                body = (ir.ForAll(it.name, ir.IntValue(1), size, body, loc=f.loc),)
            out.append(ir.ConstraintZone(zone_name, body, loc=f.loc))
            return out
        if isinstance(f, ir.Statement):
            ctx_pairs = self._instance_pairs(enclosing, set()) if enclosing else []
            stmt = self._rewrite_stmt(f, prefix, ctx_pairs, cls)
            for it, size in reversed(ctx_pairs):
                stmt = ir.ForAll(it.name, ir.IntValue(1), size, (stmt,), loc=f.loc)
            out.append(stmt)
            return out
        return [f]

    def _rewrite_domain(self, d: ir.Domain | None, prefix, cls):
        if d is None:
            return None
        rw = lambda x: self._rewrite_expr(x, prefix, [], cls)
        if isinstance(d, ir.IntervalDomain):
            return ir.IntervalDomain(rw(d.lo), rw(d.hi), loc=d.loc)
        if isinstance(d, ir.SetDomain):
            return ir.SetDomain(tuple(rw(m) for m in d.members), loc=d.loc)
        return ir.ExprDomain(rw(d.expr), loc=d.loc)

    def _rebind_needed(self, out_scope: sema.Scope) -> bool:
        """True when a fresh resolve of the output might bind an occurrence
        otherwise than the walk did: a flat top-level name that hides an
        enum literal or is hidden by a loop, a moved size read under a loop
        of the same name, or a kept occurrence the output does not declare."""
        new_top = out_scope.top.keys() - self.scope.top.keys()
        return (
            not self.exact
            or not new_top.isdisjoint(self.scope.literals)
            or not new_top.isdisjoint(self.loops)
            or not self.loops.isdisjoint(self.moved_names)
        )

    def run(self) -> ir.Model:
        out: list[ir.ModelElement] = []
        for e in self.model.elements:
            if isinstance(e, ir.Class):
                if e.is_main:
                    for f in e.features:
                        out.extend(self.flatten_class_feature(f, [], [], e))
                continue
            if isinstance(e, ir.Variable) and e.type_name in self.classes:
                inner = self.classes[e.type_name]
                for g in inner.features:
                    out.extend(
                        self.flatten_class_feature(g, [e.name], list(e.dims), inner)
                    )
                continue
            if isinstance(e, ir.ConstraintZone):
                out.append(
                    ir.ConstraintZone(
                        e.name,
                        tuple(self._rewrite_stmt(s, [], [], None) for s in e.body),
                        loc=e.loc,
                    )
                )
                continue
            if isinstance(e, ir.Statement):
                out.append(self._rewrite_stmt(e, [], [], None))
                continue
            # a top-level declaration can only navigate from a top-level object
            if self.objects and isinstance(e, (ir.Variable, ir.Constant)) and any(
                isinstance(node, ir.VarOccurrence) and node.name in self.objects
                for x in ir.iter_expressions(e)
                for node in ir.walk_expr(x)
            ):
                self.exact = False
            out.append(e)
        model = dataclasses.replace(self.model, elements=tuple(out))
        # a flat name that clashes with a top-level one raises here
        if self._rebind_needed(sema.Scope(model)):
            return sema.resolve(model)
        return sema.mark_resolved(model)


def _object_flatten_counted(model: ir.Model) -> tuple[ir.Model, int]:
    model = sema.resolve(model)
    classes = model.classes()
    if not classes:
        return model, 0
    _composition_cycle_check(classes)
    flattener = _Flattener(model)
    return flattener.run(), flattener.created


def object_flatten(model: ir.Model) -> ir.Model:
    return _object_flatten_counted(model)[0]


# --------------------------------------------------------------------------
# Enumeration removal

def _ensure_class_free(model: ir.Model, pass_id: str):
    if model.classes():
        raise PreconditionError(pass_id, "model still contains classes")


def _enum_remove_counted(model: ir.Model) -> tuple[ir.Model, int]:
    model = sema.resolve(model)
    _ensure_class_free(model, "enumRemove")
    enums = model.enumerations()
    if not enums:
        return model, 0
    count = 0

    def literal_to_int(e: ir.Expression) -> ir.Expression:
        nonlocal count
        if (
            isinstance(e, ir.VarOccurrence)
            and e.binding is not None
            and e.binding.kind == "enum_literal"
        ):
            count += 1
            return ir.IntValue(e.binding.position, loc=e.loc)
        return e

    mapped = ir.map_expressions(model, literal_to_int)
    elements: list[ir.ModelElement] = []
    for e in mapped.elements:
        if isinstance(e, ir.Enumeration):
            count += 1
            continue
        if isinstance(e, (ir.Variable, ir.Constant)) and e.type_name in enums:
            n = len(enums[e.type_name].literals)
            count += 1
            if isinstance(e, ir.Variable):
                domain = e.domain
                if domain is None:
                    domain = ir.IntervalDomain(ir.IntValue(1), ir.IntValue(n))
                e = dataclasses.replace(e, type_name="int", domain=domain)
            else:
                e = dataclasses.replace(e, type_name="int")
        elements.append(e)
    out = dataclasses.replace(mapped, elements=tuple(elements))
    return sema.mark_resolved(out), count


def enum_remove(model: ir.Model) -> ir.Model:
    return _enum_remove_counted(model)[0]


# --------------------------------------------------------------------------
# Alldifferent rewrites

def alldiff_to_disequalities(c: ir.GlobalCtr) -> list[ir.Statement]:
    """alldifferent(x1..xn) -> the n(n-1)/2 pairwise disequalities."""
    if not isinstance(c, ir.GlobalCtr) or c.ctr_name != "alldifferent":
        raise NotAlldifferentError("expected an alldifferent constraint")
    out: list[ir.Statement] = []
    n = len(c.params)
    for i in range(n):
        for j in range(i + 1, n):
            out.append(
                ir.ExpressionConstraint(
                    ir.BoolBinaryOp("!=", c.params[i], c.params[j], loc=c.loc), loc=c.loc
                )
            )
    return out


def _param_interval(p: ir.Expression, scope: sema.Scope, env: dict):
    """(lo, hi) of the declared domain behind a variable occurrence."""
    if not isinstance(p, ir.VarOccurrence):
        return None
    try:
        kind, decl = scope.lookup(p.name)
    except CompileError:
        return None
    if kind != "variable" or not isinstance(decl.domain, ir.IntervalDomain):
        return None
    lo = _value_int(decl.domain.lo, env)
    hi = _value_int(decl.domain.hi, env)
    if lo is None or hi is None:
        return None
    return lo, hi


def _sum_of(terms: list[ir.Expression]) -> ir.Expression:
    acc = terms[0]
    for t in terms[1:]:
        acc = ir.AlgBinaryOp("+", acc, t)
    return acc


def _alldiff_to_relaxation(c: ir.GlobalCtr, scope: sema.Scope, env: dict) -> ir.Statement:
    if not isinstance(c, ir.GlobalCtr) or c.ctr_name != "alldifferent":
        raise NotAlldifferentError("expected an alldifferent constraint")
    n = len(c.params)
    for p in c.params:
        iv = _param_interval(p, scope, env)
        if iv != (1, n):
            raise DomainAssumptionError(
                f"relaxation requires every parameter domain to be 1..{n}", c.loc
            )
    total = ir.IntValue(n * (n + 1) // 2)
    return ir.ExpressionConstraint(
        ir.BoolBinaryOp("=", _sum_of(list(c.params)), total, loc=c.loc), loc=c.loc
    )


def alldiff_to_relaxation(c: ir.GlobalCtr, model: ir.Model) -> ir.Statement:
    model = sema.resolve(model)
    return _alldiff_to_relaxation(c, sema.Scope(model), const_env(model))


def _fresh_bool_matrix_name(taken: set[str]) -> str:
    if "b" not in taken:
        return "b"
    n = 2
    while f"b{n}" in taken:
        n += 1
    return f"b{n}"


def _alldiff_to_boolean(
    c: ir.GlobalCtr, scope: sema.Scope, env: dict, taken: set[str]
) -> list[ir.ModelFeature]:
    if not isinstance(c, ir.GlobalCtr) or c.ctr_name != "alldifferent":
        raise NotAlldifferentError("expected an alldifferent constraint")
    n = len(c.params)
    intervals = []
    for p in c.params:
        if not isinstance(p, ir.VarOccurrence) or (
            p.binding is not None and p.binding.kind != "variable"
        ):
            raise NonVariableParamError(
                "boolean reformulation requires plain variable parameters", c.loc
            )
        iv = _param_interval(p, scope, env)
        if iv is None:
            raise NonVariableParamError(
                f"cannot determine the domain of parameter '{p.name}'", c.loc
            )
        intervals.append(iv)
    if len(set(intervals)) != 1:
        raise HeterogeneousDomainsError(
            "boolean reformulation requires one common parameter domain", c.loc
        )
    lo, m = intervals[0]
    if lo != 1 or m < n:
        raise DomainAssumptionError(
            f"boolean reformulation requires a common domain 1..m with m >= {n}", c.loc
        )
    name = _fresh_bool_matrix_name(taken)
    taken.add(name)
    b = ir.Variable(name, "bool", dims=(ir.IntValue(n), ir.IntValue(m)), loc=c.loc)

    def cell(i: int, j: int) -> ir.Expression:
        b = ir.Binding("variable", name)
        return ir.VarOccurrence(name, (ir.IntValue(i), ir.IntValue(j)), binding=b)

    features: list[ir.ModelFeature] = [b]
    for i in range(1, n + 1):  # one value per variable
        row = _sum_of([cell(i, j) for j in range(1, m + 1)])
        features.append(ir.ExpressionConstraint(ir.BoolBinaryOp("=", row, ir.IntValue(1)), loc=c.loc))
    col_op = "=" if m == n else "<="
    for j in range(1, m + 1):  # each value used once (at most once when m > n)
        col = _sum_of([cell(i, j) for i in range(1, n + 1)])
        features.append(
            ir.ExpressionConstraint(ir.BoolBinaryOp(col_op, col, ir.IntValue(1)), loc=c.loc)
        )
    for i, p in enumerate(c.params, start=1):  # channel b back to the parameters
        value = _sum_of(
            [ir.AlgBinaryOp("*", ir.IntValue(j), cell(i, j)) for j in range(1, m + 1)]
        )
        features.append(
            ir.ExpressionConstraint(ir.BoolBinaryOp("=", p, value), loc=c.loc)
        )
    return features


def alldiff_to_boolean(c: ir.GlobalCtr, model: ir.Model) -> list[ir.ModelFeature]:
    model = sema.resolve(model)
    taken = {e.name for e in model.elements if hasattr(e, "name")}
    return _alldiff_to_boolean(c, sema.Scope(model), const_env(model), taken)


def _alldiff_rewrite_counted(model: ir.Model, mode: str) -> tuple[ir.Model, int]:
    if mode not in ALLDIFF_MODES:
        raise ValueError(f"unknown alldifferent mode '{mode}'")
    model = sema.resolve(model)
    _ensure_class_free(model, "alldiffRewrite")
    scope = sema.Scope(model)
    env = const_env(model)
    taken = {e.name for e in model.elements if hasattr(e, "name")}
    count = 0

    def rewrite_stmts(stmts, nested: bool):
        nonlocal count
        out: list[ir.Statement] = []
        hoisted: list[ir.Variable] = []
        for s in stmts:
            if isinstance(s, ir.GlobalCtr) and s.ctr_name == "alldifferent":
                count += 1
                if mode == "disequalities":
                    out.extend(alldiff_to_disequalities(s))
                elif mode == "relaxation":
                    out.append(_alldiff_to_relaxation(s, scope, env))
                else:
                    if nested:
                        raise PreconditionError(
                            "alldiffRewrite",
                            "boolean mode cannot rewrite alldifferent inside forall/if "
                            "(the matrix would be shared between iterations)",
                        )
                    features = _alldiff_to_boolean(s, scope, env, taken)
                    hoisted.extend(f for f in features if isinstance(f, ir.Variable))
                    out.extend(f for f in features if isinstance(f, ir.Statement))
            elif isinstance(s, ir.ForAll):
                body, inner_hoisted = rewrite_stmts(s.body, True)
                hoisted.extend(inner_hoisted)
                out.append(dataclasses.replace(s, body=tuple(body)))
            elif isinstance(s, ir.If):
                then_body, h1 = rewrite_stmts(s.then_body, True)
                hoisted.extend(h1)
                else_body = None
                if s.else_body is not None:
                    eb, h2 = rewrite_stmts(s.else_body, True)
                    hoisted.extend(h2)
                    else_body = tuple(eb)
                out.append(dataclasses.replace(s, then_body=tuple(then_body), else_body=else_body))
            else:
                out.append(s)
        return out, hoisted

    elements: list[ir.ModelElement] = []
    for e in model.elements:
        if isinstance(e, ir.ConstraintZone):
            body, hoisted = rewrite_stmts(e.body, False)
            elements.extend(hoisted)
            elements.append(ir.ConstraintZone(e.name, tuple(body), loc=e.loc))
        elif isinstance(e, ir.Statement):
            stmts, hoisted = rewrite_stmts([e], False)
            elements.extend(hoisted)
            elements.extend(stmts)
        else:
            elements.append(e)
    out = dataclasses.replace(model, elements=tuple(elements))
    return sema.mark_resolved(out), count


def alldiff_rewrite(model: ir.Model, mode: str = "disequalities") -> ir.Model:
    return _alldiff_rewrite_counted(model, mode)[0]


# --------------------------------------------------------------------------
# Loop unrolling

def _loop_unroll_counted(model: ir.Model) -> tuple[ir.Model, int]:
    model = sema.resolve(model)
    _ensure_class_free(model, "loopUnroll")
    folder = _Folder(const_env(model))
    fold = folder._fold_node
    count = 0
    # Per template node (kept alive by the model, so ids are stable): the
    # iterator names its subtree may read, known after its first instance.
    reads: dict[int, tuple[str, ...]] = {}
    leaf_reads: dict[int, int] = {}  # per leaf statement: how many names it reads
    # (template node, values of the names it reads, None if unbound) -> its
    # instance.  A subtree that reads every name its leaf reads is built
    # once per leaf instance anyway, so storing it would only cost memory.
    memo: dict[tuple, ir.Expression] = {}
    literals: dict[int, ir.IntValue] = {}  # iterator value -> its one node

    def instantiate(e: ir.Expression, iters: dict, leaf_n: int) -> ir.Expression:
        """Substitute the values of the enclosing iterators (``iters``:
        name -> int) into template e and fold, bottom-up."""
        if (
            type(e) is ir.VarOccurrence
            and not e.indexes
            and (e.binding is None or e.binding.kind == "iterator")
        ):
            reads[id(e)] = (e.name,)
            v = iters.get(e.name)
            if v is None:
                return e
            node = literals.get(v)
            if node is None:
                literals[v] = node = ir.IntValue(v)
            return node
        names = reads.get(id(e))
        key = None
        if names is not None and len(names) < leaf_n:
            key = (id(e), tuple(map(iters.get, names)))
            hit = memo.get(key)
            if hit is not None:
                return hit
        updates = {}
        fields = ir.CHILD_FIELDS[type(e)]
        for name, many in fields:
            v = getattr(e, name)
            if many:
                nv = tuple([instantiate(x, iters, leaf_n) for x in v])
                if any(map(operator.is_not, nv, v)):
                    updates[name] = nv
            elif v is not None:
                nv = instantiate(v, iters, leaf_n)
                if nv is not v:
                    updates[name] = nv
        out = fold(ir.rebuild(e, updates) if updates else e)
        if key is not None:
            memo[key] = out
        elif names is None:
            below: set[str] = set()
            for name, many in fields:
                v = getattr(e, name)
                for x in v if many else (v,):
                    if x is not None:
                        below.update(reads[id(x)])
            reads[id(e)] = tuple(below)
        return out

    def instantiate_leaf(exprs, s: ir.Statement, iters: dict) -> list[ir.Expression]:
        leaf_n = leaf_reads.get(id(s), 0)
        out = [instantiate(x, iters, leaf_n) for x in exprs]
        if id(s) not in leaf_reads:
            leaf_reads[id(s)] = len({name for x in exprs for name in reads[id(x)]})
        return out

    def bound_value(e: ir.Expression, loop: ir.ForAll, iters: dict) -> int:
        v = _as_int(folder.value(instantiate(e, iters, 0)))
        if v is None:
            raise NonGroundBoundError(
                f"loop over '{loop.iter_var}' has a non-ground bound", loop.loc
            )
        return v

    def unroll_stmts(stmts, iters: dict) -> list[ir.Statement]:
        """iters: enclosing iterator -> value; inner loops shadow outer ones."""
        nonlocal count
        out: list[ir.Statement] = []
        for s in stmts:
            if isinstance(s, ir.ForAll):
                count += 1
                lo = bound_value(s.lower, s, iters)
                hi = bound_value(s.upper, s, iters)
                for v in range(lo, hi + 1):
                    out.extend(unroll_stmts(s.body, {**iters, s.iter_var: v}))
            elif isinstance(s, ir.If):
                count += 1
                cond = instantiate(s.cond, iters, 0)
                if not isinstance(cond, ir.BoolValue):
                    raise NonGroundConditionError(
                        "conditional with a non-ground condition cannot be unrolled", s.loc
                    )
                branch = s.then_body if cond.value else (s.else_body or ())
                out.extend(unroll_stmts(branch, iters))
            elif isinstance(s, ir.ExpressionConstraint):
                (expr,) = instantiate_leaf((s.expr,), s, iters)
                out.append(ir.ExpressionConstraint(expr, loc=s.loc))
            elif isinstance(s, ir.GlobalCtr):
                params = instantiate_leaf(s.params, s, iters)
                out.append(ir.GlobalCtr(s.ctr_name, tuple(params), loc=s.loc))
            else:
                raise TypeError(f"unknown statement {s!r}")
        return out

    elements: list[ir.ModelElement] = []
    for e in model.elements:
        if isinstance(e, ir.ConstraintZone):
            elements.append(ir.ConstraintZone(e.name, tuple(unroll_stmts(e.body, {})), loc=e.loc))
        elif isinstance(e, ir.Statement):
            elements.extend(unroll_stmts([e], {}))
        else:
            elements.append(e)
    out = dataclasses.replace(model, elements=tuple(elements))
    return sema.mark_resolved(out), count


def loop_unroll(model: ir.Model) -> ir.Model:
    return _loop_unroll_counted(model)[0]


# --------------------------------------------------------------------------
# Pipeline

def run_pipeline(model: ir.Model, cfg: PassConfig) -> tuple[ir.Model, list[PassReport]]:
    """Apply cfg.passes in order; pass errors abort and carry the reports
    collected so far on the exception's ``reports`` attribute."""
    model = sema.resolve(model)
    reports: list[PassReport] = []
    for pass_id in cfg.passes:
        before = ir.element_count(model)
        try:
            if pass_id == "objectFlatten":
                model, n = _object_flatten_counted(model)
            elif pass_id == "enumRemove":
                model, n = _enum_remove_counted(model)
            elif pass_id == "alldiffRewrite":
                model, n = _alldiff_rewrite_counted(model, cfg.alldiff_mode)
            elif pass_id == "loopUnroll":
                model, n = _loop_unroll_counted(model)
            else:
                model, n = _fold_constants_counted(model)
        except CompileError as exc:
            exc.reports = reports  # type: ignore[attr-defined]
            raise
        reports.append(PassReport(pass_id, before, ir.element_count(model), n))
    return model, reports
