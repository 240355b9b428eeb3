"""Rewriting passes over pivot models.

Each pass is a pure function Model -> Model: inputs are never mutated.
Passes take and return resolved models: each binds what it creates and
marks its output (``sema.mark_resolved``), so the next ``resolve`` is
free.  Unresolved input is resolved on entry.
``PASSES``, at the end, says what each pass needs absent and removes;
``run_pipeline`` refuses a pass list that cannot reach its target before
any pass runs, then collects one report per pass.

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

import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple

from . import ir, sema
from .errors import CompileError

ALLDIFF_MODES = ("disequalities", "relaxation", "boolean")


def _refuse(self, name, value=None):
    """__setattr__ and __delattr__ of the immutable classes with __slots__."""
    raise AttributeError(f"cannot assign to field '{name}'")


class PassConfig:
    """A checked pipeline: pass ids in order, and the alldifferent mode."""

    __slots__ = ("passes", "alldiff_mode")
    __setattr__ = __delattr__ = _refuse

    def __init__(self, passes: tuple[str, ...] = (), alldiff_mode: str = "disequalities"):
        if isinstance(passes, str):
            raise ValueError(f"pass list is the string '{passes}', not a sequence of pass ids")
        passes = tuple(passes)
        for p in passes:
            if p not in PASS_IDS:
                raise ValueError(f"unknown pass '{p}'")
        if len(set(passes)) != len(passes):
            raise ValueError("duplicate pass in pipeline")
        if alldiff_mode not in ALLDIFF_MODES:
            raise ValueError(f"unknown alldifferent mode '{alldiff_mode}'")
        object.__setattr__(self, "passes", passes)
        object.__setattr__(self, "alldiff_mode", alldiff_mode)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.passes, self.alldiff_mode) == (other.passes, other.alldiff_mode)

    def __hash__(self) -> int:
        return hash((self.passes, self.alldiff_mode))

    def __repr__(self) -> str:
        return f"PassConfig(passes={self.passes!r}, alldiff_mode={self.alldiff_mode!r})"

    def __reduce__(self):
        return PassConfig, (self.passes, self.alldiff_mode)


class PassReport(NamedTuple):
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
        return _div(a, b, loc)
    if op == "^":
        return _pow(a, b, loc)
    raise ValueError(op)


# Exact / and ^, shared with the oracle's generated search
def _div(a, b, loc=None):
    if b == 0:
        raise CompileError("division by zero", loc)
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a) / Fraction(b)


def _pow(a, b, loc=None):
    if isinstance(a, float) or isinstance(b, float):
        return float(a) ** float(b)
    if isinstance(b, Fraction):
        if b.denominator != 1:
            return float(a) ** float(b)
        b = b.numerator
    try:
        return Fraction(a) ** b if isinstance(a, Fraction) or b < 0 else a ** b
    except ZeroDivisionError:
        raise CompileError("zero raised to a negative power", loc) from None


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
        # inf and nan would print as names; the fold stays symbolic
        return ir.RealValue(v, loc=loc) if math.isfinite(v) else None
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
            a_set, b_set = isinstance(a, frozenset), isinstance(b, frozenset)
            if a_set != b_set or a_set and e.op != "-":
                return _MISSING  # arithmetic on a set stays symbolic; set difference folds
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
            if v is _MISSING or isinstance(v, frozenset):
                return _MISSING
            return -_num(v) if e.op == "neg" else _num(v)
        if t is ir.AlgFunction:
            vals = []
            for a in e.args:
                v = value(a)
                if v is _MISSING or isinstance(v, frozenset):
                    return _MISSING
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
        return value(e)

    def _fold_node(self, e: ir.Node) -> ir.Node:
        # map_expressions hands over statements, domains, features and the model too
        if not isinstance(e, ir.Expression):
            return e
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
            if isinstance(v, Fraction):  # inf, nan or a complex power is no value
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
    folder = _Folder(const_env(model))
    out = ir.map_expressions(model, folder._fold_node)
    return sema.mark_resolved(out), folder.count


def fold_constants(model: ir.Model) -> ir.Model:
    return run_pipeline(model, PassConfig(("foldConstants",)))[0]


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
        raise CompileError(f"cyclic composition between classes '{parent or name}' and '{name}'")
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


def _names_in(stmts) -> set[str]:
    """Every name the statements read, and every loop iterator they bind."""
    names = set()
    for s in stmts:
        for n in ir.walk_expr(s):
            if isinstance(n, ir.VarOccurrence):
                names.add(n.name)
            elif isinstance(n, ir.ForAll):
                names.add(n.iter_var)
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
        self.binding = ir.Bindings()

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
                        sizes = [self._rewrite(d, at, [], owner) for d in sizes]
                    pairs.extend(zip(idx, sizes))
                    owner, at = self.classes.get(decl.type_name), at + [name]
                for _idx, size in pairs[1:]:
                    self._moving(size)
                indexes = (_linear_index(pairs),) if pairs else ()
        return ir.VarOccurrence(flat_name, indexes, binding=self.binding(kind, flat_name), loc=loc)

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

    def _rewrite(self, e: ir.Node, prefix, ctx_pairs, cls) -> ir.Node:
        """e for the instance of cls at prefix (cls None: top level)."""
        t = type(e)
        if t is ir.VarOccurrence:
            indexes = e.indexes
            if indexes:
                indexes = tuple([self._rewrite(i, prefix, ctx_pairs, cls) for i in indexes])
            b = e.binding
            if b is None:
                self.exact = False
            elif b.kind == "iterator" and e.name in self.renames:
                name = self.renames[e.name]
                return ir.VarOccurrence(name, indexes, binding=self.binding("iterator", name), loc=e.loc)
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
        if t is ir.ObjectOccurrence:
            return self._rewrite_path(e, prefix, ctx_pairs, cls)
        if t is ir.ForAll:
            return self._rewrite_loop(e, prefix, ctx_pairs, cls)
        updates = {}
        for name, many in ir.CHILD_FIELDS[t]:
            v = getattr(e, name)
            if v is None:
                continue
            if many:
                nv = tuple([self._rewrite(x, prefix, ctx_pairs, cls) for x in v])
                if any(map(operator.is_not, nv, v)):
                    updates[name] = nv
            else:
                nv = self._rewrite(v, prefix, ctx_pairs, cls)
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
            indexes = tuple([self._rewrite(i, prefix, ctx_pairs, cls) for i in step.indexes])
            steps.append((step.name, indexes, decl))
        if decl is None or decl.type_name in self.classes:
            self.exact = False
        return self._flat_ref(base_prefix, base_ctx, steps, e.loc, base_cls)

    def _rewrite_loop(self, s: ir.ForAll, prefix, ctx_pairs, cls) -> ir.ForAll:
        """s, renamed when its iterator would capture a name placed in its body."""
        lower = self._rewrite(s.lower, prefix, ctx_pairs, cls)
        upper = self._rewrite(s.upper, prefix, ctx_pairs, cls)
        outer_placed, outer_renames = self.placed, self.renames
        self.placed = set()
        if s.iter_var in outer_renames:  # this loop hides the renamed one
            self.renames = {k: v for k, v in outer_renames.items() if k != s.iter_var}
        iter_var = s.iter_var
        body = tuple(self._rewrite(b, prefix, ctx_pairs, cls) for b in s.body)
        if iter_var in self.placed:
            used = _names_in(body) | self.taken
            n = 1
            while f"{s.iter_var}_{n}" in used:
                n += 1
            iter_var = f"{s.iter_var}_{n}"
            self.renames = {**self.renames, s.iter_var: iter_var}
            body = tuple(self._rewrite(b, prefix, ctx_pairs, cls) for b in s.body)
        self.loops.add(iter_var)
        outer_placed |= self.placed
        self.placed, self.renames = outer_placed, outer_renames
        return ir.ForAll(iter_var, lower, upper, body, loc=s.loc)

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
            (ir.VarOccurrence(name, binding=self.binding("iterator", name)), size)
            for name, size in zip(names, enclosing)
        ]

    def _claim(self, name: str):
        if name in self.taken:
            raise CompileError(f"flattened name '{name}' collides with an existing declaration")
        self.taken.add(name)

    def flatten_class_feature(self, f: ir.ModelFeature, prefix: list[str],
                              enclosing: list[ir.Expression], cls: ir.Class):
        """Flatten one feature of cls reached through the object-variable
        path named by prefix with the given enclosing array sizes."""
        out: list[ir.ModelFeature] = []
        if isinstance(f, ir.Variable) and f.type_name in self.classes:
            inner = self.classes[f.type_name]
            sizes = [self._rewrite(d, prefix, [], cls) for d in f.dims]
            for g in inner.features:
                out.extend(
                    self.flatten_class_feature(g, prefix + [f.name], enclosing + sizes, inner)
                )
            return out
        if isinstance(f, (ir.Variable, ir.Constant)):
            flat_name = "_".join(prefix + [f.name]) if prefix else f.name
            if prefix:
                self._claim(flat_name)
            g = self._rewrite(f, prefix, [], cls)
            updates = {"name": flat_name}
            if enclosing and isinstance(g, ir.Variable):
                updates["dims"] = (_composed_dim(enclosing + list(g.dims)),)
            out.append(ir.rebuild(g, updates))
            self.created += 1
            return out
        if isinstance(f, (ir.ConstraintZone, ir.Statement)):  # a statement: a body of one
            stmts = f.body if isinstance(f, ir.ConstraintZone) else (f,)
            ctx_pairs = self._instance_pairs(enclosing, _names_in(stmts)) if enclosing else []
            body = tuple(self._rewrite(s, prefix, ctx_pairs, cls) for s in stmts)
            for it, size in reversed(ctx_pairs):
                body = (ir.ForAll(it.name, ir.IntValue(1), size, body, loc=f.loc),)
            if isinstance(f, ir.ConstraintZone):
                zone_name = "_".join(prefix + [f.name]) if prefix else f.name
                body = (ir.ConstraintZone(zone_name, body, loc=f.loc),)
            return list(body)
        return [f]

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
            if isinstance(e, (ir.ConstraintZone, ir.Statement)):
                out.append(self._rewrite(e, [], [], None))
                continue
            # a top-level declaration can only navigate from a top-level object
            if self.objects and isinstance(e, (ir.Variable, ir.Constant)) and any(
                isinstance(node, ir.VarOccurrence) and node.name in self.objects
                for node in ir.walk_expr(e)
            ):
                self.exact = False
            out.append(e)
        model = ir.rebuild(self.model, {"elements": tuple(out)})
        # a flat name that clashes with a top-level one raises here
        if self._rebind_needed(sema.Scope(model)):
            return sema.resolve(model)
        return sema.mark_resolved(model)


def _object_flatten_counted(model: ir.Model) -> tuple[ir.Model, int]:
    classes = model.classes()
    if not classes:
        return model, 0
    _composition_cycle_check(classes)
    flattener = _Flattener(model)
    return flattener.run(), flattener.created


def object_flatten(model: ir.Model) -> ir.Model:
    return run_pipeline(model, PassConfig(("objectFlatten",)))[0]


# --------------------------------------------------------------------------
# Enumeration removal

def _enum_remove_counted(model: ir.Model) -> tuple[ir.Model, int]:
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
                e = ir.rebuild(e, {"type_name": "int", "domain": domain})
            else:
                e = ir.rebuild(e, {"type_name": "int"})
        elements.append(e)
    out = ir.rebuild(mapped, {"elements": tuple(elements)})
    return sema.mark_resolved(out), count


def enum_remove(model: ir.Model) -> ir.Model:
    return run_pipeline(model, PassConfig(("enumRemove",)))[0]


# --------------------------------------------------------------------------
# Alldifferent rewrites

def alldiff_to_disequalities(c: ir.GlobalCtr) -> list[ir.Statement]:
    """alldifferent(x1..xn) -> the n(n-1)/2 pairwise disequalities."""
    if not isinstance(c, ir.GlobalCtr) or c.ctr_name != "alldifferent":
        raise CompileError("expected an alldifferent constraint")
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
        raise CompileError("expected an alldifferent constraint")
    n = len(c.params)
    for p in c.params:
        iv = _param_interval(p, scope, env)
        if iv != (1, n):
            raise CompileError(f"relaxation requires every parameter domain to be 1..{n}", c.loc)
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
        raise CompileError("expected an alldifferent constraint")
    n = len(c.params)
    intervals = []
    for p in c.params:
        if not isinstance(p, ir.VarOccurrence) or (
            p.binding is not None and p.binding.kind != "variable"
        ):
            raise CompileError("boolean reformulation requires plain variable parameters", c.loc)
        iv = _param_interval(p, scope, env)
        if iv is None:
            raise CompileError(f"cannot determine the domain of parameter '{p.name}'", c.loc)
        intervals.append(iv)
    if len(set(intervals)) != 1:
        raise CompileError("boolean reformulation requires one common parameter domain", c.loc)
    lo, m = intervals[0]
    if lo != 1 or m < n:
        raise CompileError(
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


class _AlldiffRewriter:
    """Rewrites the alldifferent constraints of statement lists and counts
    them.  Not a recursive closure: a closure that calls itself is a
    reference cycle, which would keep the model alive until the cyclic
    collector runs."""

    def __init__(self, mode: str, scope: sema.Scope, env: dict, taken: set[str]):
        self.mode, self.scope, self.env, self.taken = mode, scope, env, taken
        self.count = 0

    def stmts(self, stmts, nested: bool) -> tuple[list[ir.Statement], list[ir.Variable]]:
        out: list[ir.Statement] = []
        hoisted: list[ir.Variable] = []
        for s in stmts:
            if isinstance(s, ir.GlobalCtr) and s.ctr_name == "alldifferent":
                self.count += 1
                if self.mode == "disequalities":
                    out.extend(alldiff_to_disequalities(s))
                elif self.mode == "relaxation":
                    out.append(_alldiff_to_relaxation(s, self.scope, self.env))
                else:
                    if nested:
                        raise CompileError(
                            "alldiffRewrite: boolean mode cannot rewrite alldifferent inside "
                            "forall/if (the matrix would be shared between iterations)"
                        )
                    features = _alldiff_to_boolean(s, self.scope, self.env, self.taken)
                    hoisted.extend(f for f in features if isinstance(f, ir.Variable))
                    out.extend(f for f in features if isinstance(f, ir.Statement))
            elif isinstance(s, (ir.ForAll, ir.If)):
                updates = {}
                for name in ("body",) if isinstance(s, ir.ForAll) else ("then_body", "else_body"):
                    body = getattr(s, name)
                    if body is not None:
                        body, inner_hoisted = self.stmts(body, True)
                        hoisted.extend(inner_hoisted)
                        updates[name] = tuple(body)
                out.append(ir.rebuild(s, updates))
            else:
                out.append(s)
        return out, hoisted


def _rewrite_bodies(model: ir.Model, rewrite) -> ir.Model:
    """model with rewrite(statements) -> (statements, hoisted elements)
    applied to each zone body and each top-level statement; the hoisted
    elements go just before what they came from."""
    elements: list[ir.ModelElement] = []
    for e in model.elements:
        if isinstance(e, ir.ConstraintZone):
            body, hoisted = rewrite(e.body)
            elements.extend(hoisted)
            elements.append(ir.ConstraintZone(e.name, tuple(body), loc=e.loc))
        elif isinstance(e, ir.Statement):
            stmts, hoisted = rewrite([e])
            elements.extend(hoisted)
            elements.extend(stmts)
        else:
            elements.append(e)
    return sema.mark_resolved(ir.rebuild(model, {"elements": tuple(elements)}))


def _alldiff_rewrite_counted(model: ir.Model, mode: str) -> tuple[ir.Model, int]:
    taken = {e.name for e in model.elements if hasattr(e, "name")}
    rewriter = _AlldiffRewriter(mode, sema.Scope(model), const_env(model), taken)
    return _rewrite_bodies(model, lambda stmts: rewriter.stmts(stmts, False)), rewriter.count


def alldiff_rewrite(model: ir.Model, mode: str = "disequalities") -> ir.Model:
    return run_pipeline(model, PassConfig(("alldiffRewrite",), mode))[0]


# --------------------------------------------------------------------------
# Loop unrolling

class _Unroller:
    """Expands the loops and grounds the conditionals of statement lists,
    and counts the loops and conditionals.  Each leaf statement, loop bound
    and condition is compiled, when first met, into a plan: one closure per
    template node that builds and folds its instance from the values in
    ``iters``.  A subtree that reads no iterator is built once (where an
    instance reaches it if that raises), one that reads fewer iterators than
    enclose it once per tuple of the values it reads.  A node goes to the
    folder only if it is no literal and has no child, or a child that can
    become a value (holds no variable or object occurrence) and, if another
    child holds one, is an AlgBinaryOp; the folder returns any other as is.
    A loop whose body holds only constraints fetches their plans once.
    Plans never refer to themselves: a reference cycle would keep the model
    alive until the cyclic collector runs."""

    __slots__ = ("folder", "count", "iters", "literals", "plans")

    def __init__(self, env: dict):
        self.folder = _Folder(env)
        self.count = 0
        self.iters: dict[str, int] = {}  # enclosing iterator -> its value
        self.literals: dict[int, ir.IntValue] = {}  # iterator value -> its one node
        # id(template) -> its plans; the model keeps templates alive, so ids are stable
        self.plans: dict[int, list[Callable]] = {}

    def plan(self, template: ir.Node, exprs) -> list[Callable]:
        """The plans of the expressions of template: a leaf statement, a
        bound or a condition.  Each returns its expression's instance."""
        runs = self.plans.get(id(template))
        if runs is None:
            runs = self.plans[id(template)] = [_call(self._compile(e)[0]) for e in exprs]
        return runs

    def _compile(self, e: ir.Expression):
        """(e's instance if it reads no iterator and builds, else its plan;
        the iterators e reads; whether e holds a variable or object
        occurrence)."""
        t, iters = type(e), self.iters
        b = e.binding if t is ir.VarOccurrence else None
        if b is not None and b.kind == "iterator" and not e.indexes and e.name in iters:
            literals, name = self.literals, e.name
            return (lambda: literals[iters[name]]), frozenset((name,)), False
        fields, reads = [], frozenset()
        changed = lazy = held = valued = False  # valued: a child can become a value
        for name, many in ir.CHILD_FIELDS[t]:
            v = getattr(e, name)
            if v:  # neither None nor an empty tuple
                plans = []
                for x in v if many else (v,):
                    plan, r, h = self._compile(x)
                    plans.append(plan)
                    reads |= r
                    changed, lazy = changed or plan is not x, lazy or callable(plan)
                    held, valued = held or h, valued or not h
                fields.append((name, many, plans))
        literal = t is ir.IntValue or t is ir.RealValue or t is ir.BoolValue
        # with a child that holds a variable, only the x + 0 style identities
        # of an AlgBinaryOp can apply
        fold = self.folder._fold_node
        if literal or held and (not valued or t is not ir.AlgBinaryOp):
            fold = None
        held = held or t is ir.ObjectOccurrence or b is not None and b.kind == "variable"
        if not lazy:
            try:
                node = e._copy({n: tuple(p) if m else p[0] for n, m, p in fields}) if changed else e
                return (node if fold is None else fold(node)), reads, held
            except CompileError:
                pass  # raised again where an instance reaches it, in evaluation order
        fields = [(name, many, [_call(p) for p in plans]) for name, many, plans in fields]
        memo = {} if 0 < len(reads) < len(iters) else None  # e reads some, not all, iterators
        if memo is None and (t is ir.BoolBinaryOp or t is ir.SetBinaryOp or t is ir.AlgBinaryOp):
            # the most common instance: built by its constructor, with no updates dict
            (_, _, (left,)), (_, _, (right,)) = fields
            op, loc = e.op, e.loc
            if fold is None:
                return (lambda: t(op, left(), right(), loc=loc)), reads, held
            return (lambda: fold(t(op, left(), right(), loc=loc))), reads, held
        key = operator.itemgetter(*reads) if memo is not None else None

        def run():
            if memo is not None:
                k = key(iters)
                hit = memo.get(k)
                if hit is not None:
                    return hit
            node = e
            if fields:
                u = {}
                for name, many, runs in fields:  # not a comprehension: one frame per level
                    u[name] = tuple([r() for r in runs]) if many else runs[0]()
                node = e._copy(u)
            if fold is not None:
                node = fold(node)
            if memo is not None:
                memo[k] = node
            return node

        return run, reads, held

    def bound(self, e: ir.Expression, loop: ir.ForAll) -> int:
        v = _as_int(self.folder.value(self.plan(e, (e,))[0]()))
        if v is None:
            raise CompileError(f"loop over '{loop.iter_var}' has a non-ground bound", loop.loc)
        return v

    def stmts(self, stmts, out: list) -> list[ir.Statement]:
        """out, with the instances of stmts under the values in iters
        appended; an inner loop shadows an outer one of the same name."""
        iters = self.iters
        for s in stmts:
            t = type(s)
            if t is ir.ExpressionConstraint:
                out.append(ir.ExpressionConstraint(self.plan(s, (s.expr,))[0](), loc=s.loc))
            elif t is ir.GlobalCtr:
                params = tuple([run() for run in self.plan(s, s.params)])
                out.append(ir.GlobalCtr(s.ctr_name, params, loc=s.loc))
            elif t is ir.ForAll:
                self.count += 1
                lo, hi = self.bound(s.lower, s), self.bound(s.upper, s)
                outer = iters.get(s.iter_var)
                body = s.body
                # a body of constraints only fetches their plans once, at the first value
                flat = all(type(b) is ir.ExpressionConstraint for b in body)
                runs = None
                for v in range(lo, hi + 1):
                    if v not in self.literals:
                        self.literals[v] = ir.IntValue(v)
                    iters[s.iter_var] = v
                    if not flat:
                        self.stmts(body, out)
                        continue
                    if runs is None:
                        runs = [(self.plan(b, (b.expr,))[0], b.loc) for b in body]
                    for run, loc in runs:
                        out.append(ir.ExpressionConstraint(run(), loc=loc))
                iters.pop(s.iter_var, None)
                if outer is not None:  # the value it shadowed
                    iters[s.iter_var] = outer
            elif t is ir.If:
                self.count += 1
                cond = self.plan(s.cond, (s.cond,))[0]()
                if not isinstance(cond, ir.BoolValue):
                    raise CompileError(
                        "conditional with a non-ground condition cannot be unrolled", s.loc
                    )
                self.stmts(s.then_body if cond.value else (s.else_body or ()), out)
        return out


def _call(plan) -> Callable:
    """plan, or for an instance built already, a call that returns it."""
    return plan if callable(plan) else lambda: plan


def _loop_unroll_counted(model: ir.Model) -> tuple[ir.Model, int]:
    unroller = _Unroller(const_env(model))
    return _rewrite_bodies(model, lambda stmts: (unroller.stmts(stmts, []), ())), unroller.count


def loop_unroll(model: ir.Model) -> ir.Model:
    return run_pipeline(model, PassConfig(("loopUnroll",)))[0]


# --------------------------------------------------------------------------
# Pass table and pipeline

# The model features a pass or a target can need absent
FEATURES = ("classes", "enumerations", "alldifferent", "loops", "conditionals")


class PassRow(NamedTuple):
    run: Callable  # (resolved model, alldiff mode) -> (model, rewrites applied)
    needs_absent: tuple[str, ...] = ()
    removes: tuple[str, ...] = ()
    adds: tuple[tuple[str, str], ...] = ()  # (feature it may add, while the model has this one)


PASSES = {
    # the zones of arrays of objects end up in loops over the instances
    "objectFlatten": PassRow(lambda m, _: _object_flatten_counted(m), (),
                             ("classes", "object arrays"), (("loops", "object arrays"),)),
    "enumRemove": PassRow(lambda m, _: _enum_remove_counted(m), ("classes",), ("enumerations",)),
    "alldiffRewrite": PassRow(_alldiff_rewrite_counted, ("classes",), ("alldifferent",)),
    "loopUnroll": PassRow(
        lambda m, _: _loop_unroll_counted(m), ("classes",), ("loops", "conditionals")
    ),
    "foldConstants": PassRow(lambda m, _: _fold_constants_counted(m)),
}
PASS_IDS = tuple(PASSES)
TARGETS = {"flat": FEATURES, "clp": ("classes", "enumerations"), "pivot": ()}  # needs absent
_REMOVER = {f: pass_id for pass_id, row in PASSES.items() for f in row.removes}
_FEATURE_OF = {
    ir.Class: "classes", ir.Enumeration: "enumerations", ir.ForAll: "loops", ir.If: "conditionals",
}


def model_features(model: ir.Model) -> set[str]:
    """The FEATURES model has, and "object arrays" if a variable of a
    class type has dims; no expression is walked."""
    found, arrays = set(), set()
    for e in ir.walk_elements(model):
        t = type(e)
        if t in _FEATURE_OF:
            found.add(_FEATURE_OF[t])
        elif t is ir.GlobalCtr and e.ctr_name == "alldifferent":
            found.add("alldifferent")
        elif t is ir.Variable and e.dims:
            arrays.add(e.type_name)
    if not arrays.isdisjoint(model.classes()):
        found.add("object arrays")
    return found


def check_pipeline(features, passes, target: str = "pivot"):
    """Run passes over a model's FEATURES as the table says; where a pass,
    or after the last one the target, meets a feature it needs absent,
    raise a CompileError naming the pass to add or move.  A remover never
    runs before a pass that adds its feature back: objectFlatten adds loops
    only while an array of objects is present, and loopUnroll needs classes
    absent."""
    have = set(features)
    for at, pass_id in enumerate(passes):
        row = PASSES[pass_id]
        _refuse_present(pass_id, row.needs_absent, have, passes[at + 1:], f" before {pass_id}")
        have.update([f for f, when in row.adds if when in have])
        have.difference_update(row.removes)
    _refuse_present(f"target {target}", TARGETS[target], have, (), "")


def _refuse_present(who: str, needs_absent, have: set, later, where: str):
    present = [f for f in needs_absent if f in have]
    if present:
        hints = dict.fromkeys(  # loops and conditionals share their remover
            f"{'move' if _REMOVER[f] in later else 'add'} {_REMOVER[f]}{where}" for f in present
        )
        raise CompileError(f"{who}: model still contains {', '.join(present)}; {'; '.join(hints)}")


def run_pipeline(model: ir.Model, cfg: PassConfig,
                 target: str = "pivot") -> tuple[ir.Model, list[PassReport]]:
    """Apply cfg.passes in order and collect one report per pass.  A pass
    list that cannot bring the model to target raises before any pass runs."""
    model = sema.resolve(model)
    check_pipeline(model_features(model), cfg.passes, target)
    reports: list[PassReport] = []
    after = ir.element_count(model)
    for pass_id in cfg.passes:
        model, n = PASSES[pass_id].run(model, cfg.alldiff_mode)
        before, after = after, ir.element_count(model)
        reports.append(PassReport(pass_id, before, after, n))
    return model, reports
