"""Rewriting passes over pivot models.

Each pass is a pure function Model -> Model: inputs are never mutated.
Passes take and return resolved models: each binds every node it builds,
and ``run_pipeline``, the one entry, resolves its input and marks each
pass's new output resolved (``sema.mark_resolved``), so no pass resolves
again.
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
    disequalities, a sum relaxation, or a boolean assignment matrix
    (``alldiff.py``);
  * loop_unroll     - expand loops and ground conditionals (``unroll.py``);
  * fold_constants  - evaluate every ground subexpression (rationals for
    exactness), inline constants, and apply +0/*1 style identities.

The code of alldiffRewrite and loopUnroll lives in its own module, which
the pass's ``PASSES`` row imports the first time the pass runs: a command
that runs neither, such as ``compile --target clp``, does not compile
them.  alldiffRewrite returns a model without alldifferent as it is,
before its module loads, as objectFlatten and enumRemove do for a model
without classes or enumerations.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Callable, NamedTuple

from . import ir, sema
from .errors import CompileError, UnresolvedNameError

ALLDIFF_MODES = ("disequalities", "relaxation", "boolean")


class PassConfig(ir._Frozen):
    """A checked pipeline: pass ids in order, and the alldifferent mode."""

    __slots__ = _fields = ("passes", "alldiff_mode")
    __eq__, __hash__ = ir._compared(_fields)

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


class Fraction:
    """fractions.Fraction's stand-in until a value needs an exact rational,
    since fractions imports decimal.  No value is an instance of it (values
    enter the folder as int, float and bool literals); a call imports the
    real class, binds it in its place and returns its instance."""

    def __new__(cls, *args):
        global Fraction
        from fractions import Fraction
        return Fraction(*args)


def _num(v):
    return int(v) if isinstance(v, bool) else v


# Exact / and ^, shared with the oracle's generated search
def _div(a, b, loc=None):
    if b == 0:
        raise CompileError("division by zero", loc)
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a) / Fraction(b)


# The largest exact power _pow computes, in estimated bits: about 1 ms at
# this size, 30-55 ms at ten times it.  Folded integers stop at 4,300
# digits (about 14,300 bits) anyway.
_MAX_POWER_BITS = 100_000


class _HugePower(OverflowError):
    """An exact power _pow refuses for its estimated size."""

    def __init__(self, fraction: bool):
        super().__init__(f"a power too large to compute exactly (over {_MAX_POWER_BITS} bits)")
        self.fraction = fraction  # whether the power is a fraction, not an integer


def _pow(a, b, loc=None):
    if type(b) is Fraction and b.denominator == 1:
        b = b.numerator
    try:
        if isinstance(a, float) or isinstance(b, float) or type(b) is Fraction:
            v = float(a) ** float(b)
            if isinstance(v, complex):
                raise ValueError("a negative number raised to a fractional power is not real")
            return v
        fraction = type(a) is Fraction or b < 0
        if type(a) is int or type(a) is Fraction:  # bases 0, 1 and -1 have 1 bit: exempt
            bits = max(a.numerator.bit_length(), a.denominator.bit_length())
            if abs(b) * (bits - 1) > _MAX_POWER_BITS:
                raise _HugePower(fraction)
        return Fraction(a) ** b if fraction else a ** b
    except ZeroDivisionError:
        raise CompileError("zero raised to a negative power", loc) from None


_LOGIC = {
    "iff": lambda a, b: a == b, "implies": lambda a, b: (not a) or b,
    "and": lambda a, b: a and b, "or": lambda a, b: a or b,
}
_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "=": operator.eq, "!=": operator.ne, "<=": operator.le, ">=": operator.ge,
    "<": operator.lt, ">": operator.gt,
}


def _step(op: str, a, b, loc=None):
    """The value of a op b for the values of the two operands of a binary
    node or a chain step, or _MISSING: the one evaluator of a binary
    operator.  A set folds only with a set, under -, = or !=."""
    if op in _LOGIC:
        return _LOGIC[op](a, b) if isinstance(a, bool) and isinstance(b, bool) else _MISSING
    a_set, b_set = isinstance(a, frozenset), isinstance(b, frozenset)
    if a_set or b_set:
        return _OPS[op](a, b) if a_set and b_set and op in ("-", "=", "!=") else _MISSING
    a, b = _num(a), _num(b)
    if op == "/" or op == "^":
        return (_div if op == "/" else _pow)(a, b, loc)
    return _OPS[op](a, b)


_SMALL_INT = 1 << 64  # str() writes any int within this bound

# The most cells flat lowering names for one array, and the most instances
# loopUnroll builds for one loop nest (a loop's trip count times those of
# the loops around it).  Each is refused before it is built: a flat
# constraint costs about 10 us and 0.5 KB at its peak, so the limit stands
# for about 50 s and 2.5 GB, 8 times golfers w40 g20's largest nest
# (624,000 instances).
MAX_INSTANCES = 5_000_000


def _writable(v: int) -> bool:
    """Whether str() writes int v: it refuses one of over
    sys.get_int_max_str_digits() digits, 4,300 unless set otherwise."""
    if -_SMALL_INT < v < _SMALL_INT:
        return True
    limit = sys.get_int_max_str_digits()
    return not limit or abs(v) < 10 ** limit


def _materialize(v, loc) -> ir.Expression | None:
    if isinstance(v, bool):
        return ir.BoolValue(v, loc=loc)
    if type(v) is Fraction:
        if v.denominator != 1:
            return None  # keep non-integral rationals symbolic to stay exact
        v = v.numerator
    if isinstance(v, int):  # no literal holds an int str() refuses
        return ir.IntValue(v, loc=loc) if _writable(v) else None
    if isinstance(v, float):
        # inf and nan would print as names; the fold stays symbolic
        return ir.RealValue(v, loc=loc) if math.isfinite(v) else None
    return ir.SetValue(tuple(ir.IntValue(x, loc=loc) for x in sorted(v)), loc=loc)  # a frozenset


_INT_ONE = ir.IntValue(1)


class _Folder:
    """Bottom-up ground evaluation; counts the rewrites it makes.

    ``_fold_node`` sees a node whose children this folder has already
    folded and computes the node's value from theirs, never from the
    subtree below them.  A folded node is ground when it is a literal, an
    inlined-constant occurrence, or a ground node no literal holds exactly
    (a non-integral rational), whose value ``_exact`` keeps by identity.
    Rationals stay exact; enum literals, variables, iterators and
    navigation paths are opaque.  A ground node without a value, or with
    one no literal holds, stays symbolic; ``why`` says what the first such
    node's value is: "not a real number" (a math domain error), "beyond the
    float range" (a range error, inf or nan) or an integer str() refuses.
    Lowering records through ``_lost`` a kept rational that str() refuses."""

    def __init__(self, env: dict):
        self.env = env
        self.count = 0
        self._exact: dict[int, tuple[ir.Expression, Fraction]] = {}  # node kept alive
        self.why: str | None = None

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

    def _lost(self, cause):
        """_MISSING, for a ground node left symbolic: its evaluation raised
        cause, or its value cause has no literal (a Fraction: no text that
        str() writes).  The first sets why; a power too large to compute
        gets the reason its value would get."""
        if self.why is None:
            limit = sys.get_int_max_str_digits()
            huge = type(cause) is _HugePower
            self.why = ("not a real number" if isinstance(cause, ValueError)  # a math domain error
                        else f"an integer of over {limit} digits"
                        if isinstance(cause, int) or huge and not cause.fraction
                        else f"a fraction whose numerator or denominator has over {limit} digits"
                        if huge or isinstance(cause, Fraction) else "beyond the float range")
        return _MISSING

    def _eval(self, e: ir.Expression):
        """The value of e from its folded children's values, or _MISSING."""
        value = self.value
        t = type(e)
        if t is ir.AlgBinaryOp or t is ir.BoolBinaryOp:
            a = value(e.left)
            if a is _MISSING:
                return a
            b = value(e.right)
            if b is _MISSING:
                return b
            return _step(e.op, a, b, e.loc)
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
        # map_expr hands over statements, domains, features and the model too
        if not isinstance(e, ir.Expression):
            return e
        t = type(e)
        if t is ir.IntValue or t is ir.RealValue or t is ir.BoolValue:
            return e
        if t is ir.AlgChain or t is ir.BoolChain:
            node, v, count = self._chain(e)
            self.count += count
            if type(v) is Fraction:  # ground, but no literal holds the value exactly
                self._exact[id(node)] = (node, v)
            return node
        try:
            v = self._eval(e)
        except (ValueError, OverflowError) as exc:  # the node stays symbolic
            v = self._lost(exc)
        if v is _MISSING:
            return self._identities(e)
        node = _materialize(v, e.loc)
        if node is None:  # ground, but no literal holds the value
            out = self._identities(e)
            if type(v) is Fraction:  # exactly: the value is kept
                self._exact[id(out)] = (out, v)
            else:
                self._lost(v)
            return out
        if node == e:
            return e
        self.count += 1
        return node

    def _identities(self, e: ir.Expression) -> ir.Expression:
        if type(e) is ir.AlgBinaryOp and e.op == "/" and e.right == _INT_ONE:
            self.count += 1
            return e.left
        return e

    def _chain(self, e: ir.Expression):
        """Fold the folded terms of chain e as the left-deep binary nodes e
        stands for, each from the one before it: the ground prefix folds, in
        order, and x + 0, 0 + x, x - 0, x * 1 and 1 * x each drop an
        operand.  Returns (the node they fold to, its value, the rewrites).
        A chain of e's group that comes to lead the result is spliced in.
        The caller counts the rewrites and records the value."""
        terms, value = e.terms, self.value
        alg = type(e) is ir.AlgChain
        ops = e.ops if alg else (e.op,) * (len(terms) - 1)
        first = terms[0]
        val = value(first)
        # the terms and operators of the node the nodes so far fold to
        if type(first) is type(e):
            acc, acc_ops = map(list, ir.chain_terms(first, ops[0]))
        else:
            acc, acc_ops = [first], []
        changed = len(acc) > 1
        count = 0
        for op, t in zip(ops, terms[1:]):
            b = value(t)
            if val is _MISSING or b is _MISSING:
                v = _MISSING
            else:
                try:
                    v = _step(op, val, b)
                except (ValueError, OverflowError) as exc:  # that node stays symbolic
                    v = self._lost(exc)
                node = None if v is _MISSING else _materialize(v, e.loc)
                if node is not None:
                    count += 1
                    acc, acc_ops, changed = [node], [], True
                    val = value(node)
                    continue
                if v is not _MISSING and type(v) is not Fraction:  # no literal holds it
                    self._lost(v)
            # the identities 0 + x, 1 * x (left) and x + 0, x - 0, x * 1 (right)
            drop = None
            if alg:
                unit = 1 if op == "*" else 0
                if op != "-" and len(acc) == 1 and type(acc[0]) is ir.IntValue and acc[0].v == unit:
                    drop = "left"
                elif type(t) is ir.IntValue and t.v == unit:
                    drop = "right"
            if drop is None:
                acc.append(t)
                acc_ops.append(op)
            else:
                count += 1
                changed = True
                if drop == "left":
                    acc, acc_ops = map(list, ir.chain_terms(t, op))
                    val = value(t)
            # a ground node no literal holds keeps its value only if rational
            if type(v) is Fraction:
                val = v
            elif drop is None:
                val = _MISSING
        if len(acc) == 1:
            return acc[0], val, count
        if not changed:
            return e, val, count
        if alg:
            return ir.AlgChain(ir.chain_ops(acc_ops), tuple(acc), loc=e.loc), val, count
        return ir.BoolChain(e.op, tuple(acc), loc=e.loc), val, count


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


def _fold_constants_counted(model: ir.Model, _mode) -> tuple[ir.Model, int]:
    folder = _Folder(const_env(model))
    return ir.map_expr(model, folder._fold_node), folder.count


def fold_constants(model: ir.Model) -> ir.Model:
    return run_pipeline(model, PassConfig(("foldConstants",)))[0]


def _value_int(e: ir.Expression, env: dict) -> int | None:
    return _as_int(_Folder(env).ground_value(e))


def _as_int(v) -> int | None:
    """The integer a ground value stands for, or None."""
    if v is _MISSING:
        return None
    v = _num(v)
    if type(v) is Fraction:
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
        linear = ir.chain("+", [ir.chain("*", [size, ir.chain("-", [linear, ir.IntValue(1)])]), idx])
    return linear


def _composed_dim(sizes: list[ir.Expression]) -> ir.Expression:
    """The product of sizes, each new one on the left: s3 * (s2 * s1)."""
    acc = sizes[0]
    for s in sizes[1:]:
        acc = ir.chain("*", [s, acc])
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
    untouched subtree comes back as is, bindings included: the output is
    resolved.  What would make a kept binding wrong is refused: a flat
    name equal to an enumeration literal (it would hide the literal) and
    an object read as a value (the output declares no object).

    A loop whose iterator is named like a name the walk places in its body
    (a flat name, a moved size, an instance iterator) would capture it, so
    such a loop is renamed (``renames``), and its body rewritten again.
    Fresh iterators avoid ``taken``: the top-level declarations, the main
    class's attributes and the enumeration literals."""

    def __init__(self, model: ir.Model):
        self.model = model
        self.classes = model.classes()
        self.scope = sema.Scope(model)
        self.taken = {
            e.name
            for e in model.elements
            if isinstance(e, (ir.Variable, ir.Constant, ir.Enumeration))
        } | self.scope.literals.keys()
        # attributes by name per class; the first one wins a repeated name
        self.attrs: dict[str, dict[str, ir.TypedElement]] = {}
        for name, cls in self.classes.items():
            attrs = self.attrs[name] = {}
            for f in cls.features:
                if isinstance(f, (ir.Variable, ir.Constant)):
                    attrs.setdefault(f.name, f)
                    if cls.is_main and f.type_name not in self.classes:  # a flat name as is
                        self.taken.add(f.name)
        self.objects = {
            e.name
            for e in model.elements
            if isinstance(e, ir.Variable) and e.type_name in self.classes
        }
        self.created = 0
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
            entry = self.size_names[id(size)] = (size, _names_in((size,)))
        self.placed |= entry[1]

    def _rewrite(self, e: ir.Node, prefix, ctx_pairs, cls) -> ir.Node:
        """e for the instance of cls at prefix (cls None: top level)."""
        t = type(e)
        if t is ir.VarOccurrence:
            indexes = e.indexes
            if indexes:
                indexes = tuple([self._rewrite(i, prefix, ctx_pairs, cls) for i in indexes])
            b = e.binding
            if b.kind == "iterator" and e.name in self.renames:
                name = self.renames[e.name]
                return ir.VarOccurrence(name, indexes, binding=self.binding("iterator", name), loc=e.loc)
            if cls is not None and b.owner == cls.name:  # an attribute of cls
                decl = self.attrs[cls.name][e.name]
                if decl.type_name in self.classes:
                    raise _object_as_value(e.name, e.loc)
                return self._flat_ref(prefix, ctx_pairs, [(e.name, indexes, decl)], e.loc, cls)
            if b.kind == "variable" and b.owner is None and e.name in self.objects:
                raise _object_as_value(e.name, e.loc)
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
            if many:  # a loop, not a comprehension: one frame per tree level
                nv = []
                for x in v:
                    nv.append(self._rewrite(x, prefix, ctx_pairs, cls))
                nv = tuple(nv)
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
        if decl.type_name in self.classes:
            raise _object_as_value(e.path[-1].name, e.loc)
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
        return [
            (ir.VarOccurrence(name, binding=self.binding("iterator", name)), size)
            for name, size in zip(names, enclosing)
        ]

    def _claim(self, name: str, loc):
        if name in self.taken:
            raise CompileError(
                f"flattened name '{name}' collides with an existing declaration", loc
            )
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
            flat_name = "_".join(prefix + [f.name])
            if flat_name in self.scope.literals:
                raise CompileError(
                    f"flattened name '{flat_name}' equals an enumeration literal", f.loc
                )
            if prefix:
                self._claim(flat_name, f.loc)
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

    def run(self) -> ir.Model:
        out: list[ir.ModelElement] = []
        for e in self.model.elements:
            if isinstance(e, ir.Class):
                if e.is_main:
                    for f in e.features:
                        out.extend(self.flatten_class_feature(f, [], [], e))
            elif isinstance(e, ir.Variable) and e.type_name in self.classes:
                inner = self.classes[e.type_name]
                dims = [self._rewrite(d, [], [], None) for d in e.dims]
                for g in inner.features:
                    out.extend(self.flatten_class_feature(g, [e.name], dims, inner))
            else:
                out.append(self._rewrite(e, [], [], None))
        model = ir.rebuild(self.model, {"elements": tuple(out)})
        sema.Scope(model)  # a main-class feature that clashes with a top-level name raises
        return model


def _object_as_value(name: str, loc) -> UnresolvedNameError:
    """An object read as a value: only input that skipped ``validate`` has one."""
    return UnresolvedNameError(name, loc, f"'{name}' names an object, not a value")


def _object_flatten_counted(model: ir.Model, _mode) -> tuple[ir.Model, int]:
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

def _enum_remove_counted(model: ir.Model, _mode) -> tuple[ir.Model, int]:
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

    mapped = ir.map_expr(model, literal_to_int)
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
    return ir.rebuild(mapped, {"elements": tuple(elements)}), count


def enum_remove(model: ir.Model) -> ir.Model:
    return run_pipeline(model, PassConfig(("enumRemove",)))[0]


# --------------------------------------------------------------------------
# alldiffRewrite and loopUnroll: their code is in alldiff.py and unroll.py

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
    return ir.rebuild(model, {"elements": tuple(elements)})


def _alldiff_rewrite_counted(model: ir.Model, mode: str) -> tuple[ir.Model, int]:
    if "alldifferent" not in model_features(model):  # as is, before alldiff.py loads
        return model, 0
    from .alldiff import rewrite_counted

    return rewrite_counted(model, mode)


def alldiff_rewrite(model: ir.Model, mode: str = "disequalities") -> ir.Model:
    return run_pipeline(model, PassConfig(("alldiffRewrite",), mode))[0]


def _loop_unroll_counted(model: ir.Model, _mode) -> tuple[ir.Model, int]:
    from .unroll import unroll_counted

    return unroll_counted(model)


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
    "objectFlatten": PassRow(_object_flatten_counted, (), ("classes", "object arrays"),
                             (("loops", "object arrays"),)),
    "enumRemove": PassRow(_enum_remove_counted, ("classes",), ("enumerations",)),
    "alldiffRewrite": PassRow(_alldiff_rewrite_counted, ("classes",), ("alldifferent",)),
    "loopUnroll": PassRow(_loop_unroll_counted, ("classes",), ("loops", "conditionals")),
    "foldConstants": PassRow(_fold_constants_counted),
}
PASS_IDS = tuple(PASSES)
TARGETS = {"flat": FEATURES, "clp": ("classes", "enumerations"), "pivot": ()}  # needs absent
_REMOVER = {f: pass_id for pass_id, row in PASSES.items() for f in row.removes}
_FEATURE_OF = {
    ir.Class: "classes", ir.Enumeration: "enumerations", ir.ForAll: "loops", ir.If: "conditionals",
}


def model_features(model: ir.Model) -> set[str]:
    """The FEATURES model has, and "object arrays" if a variable of a
    class type has dims; read body by body, no expression is walked."""
    found, arrays = set(), set()
    for body, types in ir.element_bodies(model):
        found.update([_FEATURE_OF[t] for t in types & _FEATURE_OF.keys()])
        if ir.GlobalCtr in types and any(
            type(e) is ir.GlobalCtr and e.ctr_name == "alldifferent" for e in body
        ):
            found.add("alldifferent")
        if ir.Variable in types:
            arrays.update([e.type_name for e in body if type(e) is ir.Variable and e.dims])
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


def run_pipeline(model: ir.Model, cfg: PassConfig, target: str = "pivot",
                 last: Callable | None = None) -> tuple[ir.Model, list[PassReport]]:
    """Apply cfg.passes in order and collect one report per pass.  A pass
    list that cannot bring the model to target raises before any pass runs.
    The model is resolved on entry, and each pass's new output marked
    resolved here: a pass binds every node it builds.  An unchanged output
    keeps its mark, and with it the diagnostics ``validate`` recorded.
    last, if given, stands in for the last pass, and its output, whose
    names need not resolve (flat cells), comes back unmarked."""
    model = sema.resolve(model)
    check_pipeline(model_features(model), cfg.passes, target)
    reports: list[PassReport] = []
    after = ir.element_count(model) if cfg.passes else 0
    for pass_id in cfg.passes:
        run = last if last is not None and pass_id == cfg.passes[-1] else PASSES[pass_id].run
        out, n = run(model, cfg.alldiff_mode)
        model = out if out is model or run is last else sema.mark_resolved(out)
        before, after = after, ir.element_count(model)
        reports.append(PassReport(pass_id, before, after, n))
    return model, reports
