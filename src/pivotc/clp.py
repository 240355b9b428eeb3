"""Structured CLP backend: one predicate per model, loops preserved.

The output shape is a single clause:

    name(L):-
     S $= 3,
     ...
     intsets(NAME,Count,Lo,Hi),
     L = NAME,
     % zoneName
     (for(I,Lo,Hi),param(...) do ... ),
     label_sets(L).

Arrays are lists in the target, so indexed accesses go through fresh
auxiliary variables and nth/3 goals (``V1 is <index>, nth(V2,V1,NAME)``).
Every for-loop declares in its param list the outside names its body
renders, the names a declared index size brings in included.  Requires a
class-free, enum-free model over integer, boolean and integer-set
variables; ``emit_clp`` enters through ``passes.run_pipeline`` with no
passes, which resolves the model and refuses the rest of the pass table's
features.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import ir, passes
from .errors import CompileError

_SPELLING = {
    "=": "$=", "!=": "$\\=", "<=": "$=<", ">=": "$>=", "<": "$<", ">": "$>",
    "and": "and", "or": "or", "implies": "=>", "iff": "<=>",
}
_SET_SPELLING = {"intersect": "/\\", "union": "\\/", "diff": "\\"}
_ATOM_RE = re.compile(r"^[a-z][A-Za-z0-9_]*$")
_SIMPLE_TERM_RE = re.compile(r"^[A-Z][A-Za-z0-9_]*$|^-?[0-9]+$")

# term precedences for minimal parenthesization
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


class ClpEmitOptions(NamedTuple):
    predicate_name: str | None = None  # default: model name, first letter lowered
    label_sets: bool = True


def _upper(name: str) -> str:
    return name.upper()


class _Emitter:
    def __init__(self, model: ir.Model, opts: ClpEmitOptions):
        self.model = model
        self.opts = opts
        self.variables = [e for e in model.elements if isinstance(e, ir.Variable)]
        self.constants = [e for e in model.elements if isinstance(e, ir.Constant)]
        self.dims = {d.name: d.dims for d in self.variables + self.constants}
        self.names: set[str] = set()  # rendered since the innermost loop began
        self._check_supported()
        self.spelled: dict[str, str] = {}  # clp name -> the declaration that has it
        for d in model.elements:
            if isinstance(d, (ir.Variable, ir.Constant)):
                first = self.spelled.setdefault(_upper(d.name), d.name)
                if first != d.name:
                    raise CompileError(
                        f"declarations '{first}' and '{d.name}' share the clp name "
                        f"'{_upper(d.name)}'"
                    )
        if "L" in self.spelled:
            raise CompileError(
                f"declaration '{self.spelled['L']}' and the clause head share the clp name 'L'"
            )
        # auxiliaries avoid every clp name, each loop iterator's included
        self.reserved = set(self.spelled) | {"L"} | {
            _upper(s.iter_var)
            for body, types in ir.element_bodies(model) if ir.ForAll in types
            for s in body if type(s) is ir.ForAll
        }
        self.fresh_counter = 0

    def _check_supported(self):
        for v in self.variables:
            if v.type_name == "real":
                raise CompileError(
                    f"real variable '{v.name}' is not supported by the clp target "
                    "(finite domains only)"
                )
            if v.type_name not in ("int", "bool"):
                raise CompileError(f"variable '{v.name}' has unsupported type '{v.type_name}'")

    def fresh(self) -> str:
        while True:
            self.fresh_counter += 1
            name = f"V{self.fresh_counter}"
            if name not in self.reserved:
                return name

    # ---- terms ----------------------------------------------------------
    def term(self, e: ir.Expression, pre: list[str], prec: int = 0) -> str:
        """Render e as a target term, appending any needed aux goals to pre."""
        if isinstance(e, ir.IntValue):
            return str(e.v) if e.v >= 0 or prec == 0 else f"({e.v})"
        if isinstance(e, ir.RealValue):
            return repr(e.v) if e.v >= 0 or prec == 0 else f"({e.v!r})"
        if isinstance(e, ir.BoolValue):
            return "1" if e.value else "0"
        if isinstance(e, ir.VarOccurrence):
            return self._occurrence_term(e, pre)
        if isinstance(e, (ir.AlgChain, ir.AlgBinaryOp)):  # a chain as its left-deep terms
            terms, ops = (e.terms, e.ops) if type(e) is ir.AlgChain else ((e.left, e.right), (e.op,))
            p = _PREC[ops[0]]
            text = self.term(terms[0], pre, p)
            for op, x in zip(ops, terms[1:]):
                text += op + self.term(x, pre, p + 1)
            return f"({text})" if p < prec else text
        if isinstance(e, ir.AlgUnaryOp):
            inner = self.term(e.operand, pre, 4)
            return f"-{inner}" if e.op == "neg" else inner
        if isinstance(e, ir.AlgFunction):
            args = ",".join(self.term(a, pre) for a in e.args)
            return f"{e.fn}({args})"
        if isinstance(e, ir.SetFunction):
            arg = self.term(e.arg, pre)
            v = self.fresh()
            pre.append(f"#({arg}, {v})")
            return v
        if isinstance(e, ir.SetBinaryOp):
            left = self.term(e.left, pre, 4)
            right = self.term(e.right, pre, 4)
            text = f"{left} {_SET_SPELLING[e.op]} {right}"
            return f"({text})" if prec > 0 else text
        if isinstance(e, ir.SetValue):
            return "[" + ",".join(self.term(x, pre) for x in e.elems) + "]"
        if isinstance(e, ir.BoolUnaryOp):
            return f"neg({self.term(e.operand, pre)})"
        if isinstance(e, (ir.BoolChain, ir.BoolBinaryOp)):  # bracketed as left-deep terms
            terms = e.terms if type(e) is ir.BoolChain else (e.left, e.right)
            text = self.term(terms[0], pre)
            for x in terms[1:]:
                text = f"({text} {_SPELLING[e.op]} {self.term(x, pre)})"
            return text
        raise CompileError(f"expression {type(e).__name__} is not supported by the clp target")

    def _occurrence_term(self, e: ir.VarOccurrence, pre: list[str]) -> str:
        self.names.add(e.name)
        name = _upper(e.name)
        if not e.indexes:
            return name
        index = self._linear_index_term(e.indexes, self.dims[e.name], pre)
        if not _SIMPLE_TERM_RE.match(index):
            v = self.fresh()
            pre.append(f"{v} is {index}")
            index = v
        elem = self.fresh()
        pre.append(f"nth({elem},{index},{name})")
        return elem

    def _linear_index_term(self, indexes, dims, pre) -> str:
        if len(indexes) == 1:
            return self.term(indexes[0], pre)
        # row-major linearization over the declared sizes
        linear = self.term(indexes[0], pre)
        for idx, size in zip(indexes[1:], dims[1:]):
            size_t = self.term(size, pre, 3)
            idx_t = self.term(idx, pre, 2)
            linear = f"{size_t}*({linear}-1)+{idx_t}"
        return linear

    # ---- statements ------------------------------------------------------
    def constraint_goals(self, expr: ir.Expression) -> list[str]:
        if isinstance(expr, ir.BoolChain) and expr.op == "and":  # one goal list per conjunct
            goals: list[str] = []
            for x in expr.terms:
                goals += self.constraint_goals(x)
            return goals
        pre: list[str] = []
        if isinstance(expr, ir.BoolBinaryOp) and expr.op in ir.COMPARISON_OPS:
            left = self.term(expr.left, pre)
            right = self.term(expr.right, pre)
            return pre + [f"{left} {_SPELLING[expr.op]} {right}"]
        if isinstance(expr, ir.BoolValue):
            return pre + (["true"] if expr.value else ["fail"])
        if isinstance(expr, ir.VarOccurrence):
            term = self._occurrence_term(expr, pre)
            return pre + [f"{term} $= 1"]
        if isinstance(expr, (ir.BoolUnaryOp, ir.BoolBinaryOp, ir.BoolChain)):
            goal = self.term(expr, pre)
            return pre + [goal]
        raise CompileError(
            f"constraint expression {type(expr).__name__} is not supported by the clp target"
        )

    def stmt_goals(self, s: ir.Statement, level: int, iters: tuple[str, ...]) -> list[str]:
        pad = " " * level
        if isinstance(s, ir.ExpressionConstraint):
            return [pad + g for g in self.constraint_goals(s.expr)]
        if isinstance(s, ir.GlobalCtr):
            pre: list[str] = []
            terms = [self.term(p, pre) for p in s.params]
            if s.ctr_name == "alldifferent":
                goal = f"alldifferent([{','.join(terms)}])"
            else:
                goal = f"{s.ctr_name}({','.join(terms)})"
            return [pad + g for g in pre + [goal]]
        if isinstance(s, ir.ForAll):
            return self.loop_goals(s, level, iters)
        if isinstance(s, ir.If):
            pre: list[str] = []
            cond = self.term(s.cond, pre)
            block = [f"{pad}( {cond} ->"]
            block.append(",\n".join(self.body_goals(s.then_body, level + 1, iters)))
            block.append(f"{pad};")
            block.append(",\n".join(self.body_goals(s.else_body or (), level + 1, iters)))
            block.append(f"{pad})")
            return [pad + g for g in pre] + ["\n".join(block)]
        raise CompileError(f"statement {type(s).__name__} is not supported by the clp target")

    def body_goals(self, body, level: int, iters: tuple[str, ...]) -> list[str]:
        goals: list[str] = []
        for b in body:
            goals.extend(self.stmt_goals(b, level, iters))
        if not goals:
            goals = [" " * level + "true"]
        return goals

    def loop_goals(self, s: ir.ForAll, level: int, iters: tuple[str, ...]) -> list[str]:
        """The loop's block; its params are the outside names its body
        renders, which the enclosing loop's body renders too."""
        pad = " " * level
        clp = _upper(s.iter_var)
        other = (f"declaration '{self.spelled[clp]}'" if clp in self.spelled
                 else "the clause head" if clp == "L"
                 else next((f"the enclosing loop iterator '{i}'"
                            for i in iters if _upper(i) == clp), None))
        if other is not None:
            raise CompileError(
                f"loop iterator '{s.iter_var}' and {other} share the clp name '{clp}'"
            )
        pre: list[str] = []
        lo = self.term(s.lower, pre)
        hi = self.term(s.upper, pre)
        outer, self.names = self.names, set()
        inner = self.body_goals(s.body, level + 1, iters + (s.iter_var,))
        used, self.names = self.names, outer
        outer |= used
        params = [_upper(v.name) for v in self.variables if v.name in used]
        params += [_upper(c.name) for c in self.constants if c.name in used]
        params += [_upper(name) for name in iters if name in used]
        param = f",param({','.join(params)})" if params else ""
        head = f"{pad}(for({_upper(s.iter_var)},{lo},{hi}){param} do"
        return [pad + g for g in pre] + [head + "\n" + ",\n".join(inner) + "\n" + pad + ")"]

    # ---- declarations ----------------------------------------------------
    def _count_term(self, v: ir.Variable, pre: list[str]) -> str:
        dims = [self.term(d, pre, 3) for d in v.dims]
        return "*".join(dims)

    def decl_goals(self) -> list[str]:
        goals: list[str] = []
        for v in self.variables:
            name = _upper(v.name)
            pre: list[str] = []
            if v.is_set:
                if not isinstance(v.domain, ir.IntervalDomain):
                    raise CompileError(f"set variable '{v.name}' needs an interval universe")
                lo = self.term(v.domain.lo, pre)
                hi = self.term(v.domain.hi, pre)
                if v.dims:
                    goals += pre + [f"intsets({name},{self._count_term(v, pre)},{lo},{hi})"]
                else:
                    goals += pre + [f"intset({name},{lo},{hi})"]
                continue
            domain = self._domain_text(v, pre)
            length = [f"length({name},{self._count_term(v, pre)})"] if v.dims else []
            goals += pre + length + [f"{name} :: {domain}"]
        return goals

    def _domain_text(self, v: ir.Variable, pre: list[str]) -> str:
        if v.type_name == "bool":
            return "0..1"
        if isinstance(v.domain, ir.IntervalDomain):
            lo = self.term(v.domain.lo, pre)
            hi = self.term(v.domain.hi, pre)
            return f"{lo}..{hi}"
        if isinstance(v.domain, ir.SetDomain):
            members = ",".join(self.term(m, pre) for m in v.domain.members)
            return f"[{members}]"
        raise CompileError(f"variable '{v.name}' needs a finite domain for the clp target")

    def decision_binding(self) -> list[str]:
        arrays = [_upper(v.name) for v in self.variables if v.dims]
        scalars = [_upper(v.name) for v in self.variables if not v.dims]
        parts = arrays + (["[" + ",".join(scalars) + "]"] if scalars else [])
        if len(parts) == 1:
            return [f"L = {parts[0]}"]
        goals = []
        acc = parts[0]
        for i, part in enumerate(parts[1:]):
            target = "L" if i == len(parts) - 2 else self.fresh()
            goals.append(f"append({acc},{part},{target})")
            acc = target
        return goals

    # ---- whole clause ------------------------------------------------------
    def emit(self) -> str:
        name = self.opts.predicate_name
        if name is None:
            name = self.model.name[:1].lower() + self.model.name[1:]
        if not _ATOM_RE.match(name):
            raise CompileError(f"'{name}' is not a valid predicate name")

        sections: list[list[str]] = []
        const_goals = []
        for c in self.constants:
            pre: list[str] = []
            value = self.term(c.value, pre)
            const_goals.extend(pre)
            const_goals.append(f"{_upper(c.name)} $= {value}")
        if const_goals:
            sections.append(const_goals)
        if self.variables:
            sections.append(self.decl_goals() + self.decision_binding())
        for e in self.model.elements:
            if isinstance(e, ir.ConstraintZone):
                sections.append([f"% {e.name}"] + self.body_goals(e.body, 1, ()))
            elif isinstance(e, ir.Statement):
                sections.append(self.stmt_goals(e, 1, ()))
        if self.opts.label_sets:
            sections.append(["label_sets(L)"])

        lines = []
        for section in sections or [["true"]]:  # an empty clause still needs a goal
            lines.append("")  # a blank line before each section
            for g in section:
                lines.append((g if g[0] == " " else " " + g) + ("" if g[0] == "%" else ","))
        lines[0] = f"{name}(L):-"
        return "\n".join(lines)[:-1] + ".\n"  # the last goal ends the clause


def emit_clp(model: ir.Model, opts: ClpEmitOptions | None = None) -> str:
    """Emit a structured CLP clause for a class-free, enum-free model."""
    model = passes.run_pipeline(model, passes.PassConfig(), "clp")[0]
    return _Emitter(model, opts or ClpEmitOptions()).emit()
