"""Frontend for the object-oriented source language.

A source unit is a model file plus an optional data file.  Both accept the
same top-level declarations; data-file elements come first in the model.

Grammar sketch (see README for the full table):

    unit       := ["model" ID ";"] topDecl*
    topDecl    := enumDecl | constDecl | varDecl | classDecl | zone
    enumDecl   := "enum" ID ":=" "{" ID ("," ID)* "}" ";"
    constDecl  := ("int"|"real"|"bool") ID ":=" expr ";"
    classDecl  := ["main"] "class" ID "{" feature* "}"
    feature    := varDecl | constDecl | zone
    varDecl    := typeRef ["set"] ID ["[" expr ("," expr)* "]"] ["in" domain] ";"
    domain     := "{" expr ("," expr)* "}" | expr [".." expr]
    zone       := "constraint" ID "{" stmt* "}"
    stmt       := forall | ifStmt | globalCtr | expr ";"

Operator precedence, loosest to tightest: iff, implies, or, and, not,
comparisons, union/diff, intersect, additive, multiplicative, ^ (right
associative), unary -/+ (an exponent may be signed, so ``-x^2`` reads as
``-(x^2)``), then indexing / navigation / calls.  The binary operators
from iff to multiplicative share one precedence-climbing loop over
``BINARY_OPS``; every one of those levels is left-associative.  A run of
``+``/``-``, of ``*``, of ``and`` or of ``or`` builds one n-ary chain
(``ir.AlgChain``, ``ir.BoolChain``), which also takes in a bracketed chain
of its own group on its left.  Every other operator after the first of a
run at one level nests its left operand, and opens one nesting level, as
a bracket, a call, a prefix or an exponent does.  So ``MAX_NESTING``
bounds the depth of every expression, and only operands recurse: the
deepest input stays within Python's default recursion limit.

The lexer splits each line with one regex call and hands the parser two
parallel lists, built by C-level calls with no Python code per token: the
token texts, and the Loc of each token, made once and shared by every
node that starts at that token.  The parser keeps only the position and
the text of the current token, and tells a token's kind from its text.
"""

from __future__ import annotations

import math
import re
from itertools import accumulate, repeat
from typing import NamedTuple

from . import ir
from .errors import Diagnostic, Loc, ParseError

KEYWORDS = frozenset(
    "enum int real bool class main constraint forall if else in set "
    "not and or iff implies card intersect union diff true false".split()
)

_OPERATORS = (":=", "..", "<=", ">=", "!=", "=", "<", ">", "+", "-", "*", "/",
              "^", "(", ")", "{", "}", "[", "]", ";", ",", ".")

# Binding power and node type of each binary operator, loosest first.
# 'not' (NOT_BP) binds between 'and' and the comparisons; '^' (POWER_BP)
# and the unary signs bind tighter than every entry and are parsed apart.
BINARY_OPS = {
    "iff": (1, ir.BoolBinaryOp),
    "implies": (2, ir.BoolBinaryOp),
    "or": (3, ir.BoolChain),
    "and": (4, ir.BoolChain),
    **{op: (6, ir.BoolBinaryOp) for op in ir.COMPARISON_OPS},
    "union": (7, ir.SetBinaryOp),
    "diff": (7, ir.SetBinaryOp),
    "intersect": (8, ir.SetBinaryOp),
    "+": (9, ir.AlgChain),
    "-": (9, ir.AlgChain),
    "*": (10, ir.AlgChain),
    "/": (10, ir.AlgBinaryOp),
}
NOT_BP = 5
POWER_BP = 11

MAX_DIAGNOSTICS = 20
MAX_NESTING = 64

GLOBAL_CONSTRAINT_NAMES = frozenset({"alldifferent"})


class SourceUnit(NamedTuple):
    model_text: str
    data_text: str | None = None
    model_file: str = "<model>"
    data_file: str = "<data>"


# Builds a Loc from a tuple of its fields without the Python-level __new__
# that checks arguments.
_new_tuple = tuple.__new__


class _Abort(Exception):
    """Internal: too many diagnostics or an unrecoverable state."""


class _SyntaxIssue(Exception):
    def __init__(self, message: str, loc: Loc):
        self.message = message
        self.loc = loc
        super().__init__(message)


def _finite(text: str, loc: Loc) -> float:
    """The value of the real literal text; one beyond the float range has
    no value, so it is refused."""
    v = float(text)
    if math.isinf(v):
        raise _SyntaxIssue(f"real literal '{text}' is out of range", loc)
    return v


def _integer(text: str, loc: Loc) -> int:
    """The value of integer literal text, unless int() refuses its length."""
    try:
        return int(text)
    except ValueError:
        raise _SyntaxIssue(f"integer literal of {len(text)} digits is out of range", loc) from None


def _is_name(text: str) -> bool:
    """Whether the token text is an identifier: every token that passes
    ``isidentifier`` is an ID or a keyword."""
    return text.isidentifier() and text not in KEYWORDS


# Every token of a line, each in the one group, so that ``split`` returns
# [gap, token, gap, ..., token, gap].  A real needs a digit after its '.'
# or its exponent sign ("1.e5" is 1 . e5, "2e+" is 2 e +); operators are
# tried longest first.  A gap holds blanks and the characters that start
# no token.
_TOKEN_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*"
    r"|[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)?"
    r"|" + "|".join(re.escape(op) for op in _OPERATORS) + r")"
)
_BLANKS_RE = re.compile(r"[ \t\r]*")


def _lex(text: str, file: str, diags: list[Diagnostic]) -> tuple[list[str], list[Loc]]:
    """The text and the Loc of every token, then of EOF, whose text is the
    only empty one.  Each line is split by one regex call, and its
    columns are running sums of the part lengths: no Python code runs
    per token.  A comment runs from '//' (which no token contains) to the
    end of its line."""
    texts: list[str] = []
    locs: list[Loc] = []
    line_no = 0
    for line in text.split("\n"):
        line_no += 1
        cut = line.find("//")
        if cut >= 0:
            line = line[:cut]
        parts = _TOKEN_RE.split(line)
        # cols[2i] is where gap i starts, cols[2i + 1] where token i does
        cols = list(accumulate(map(len, parts), initial=1))
        if not _BLANKS_RE.fullmatch("".join(parts[::2])):
            _bad_characters(parts[::2], cols[::2], line_no, file, diags)
        texts += parts[1::2]
        locs += map(_new_tuple, repeat(Loc), zip(repeat(line_no), cols[1:-2:2], repeat(file)))
    # EOF ends the last line, or starts where a comment ending the text does
    texts.append("")
    locs.append(Loc(line_no, len(line) + 1, file))
    return texts, locs


def _bad_characters(gaps, cols, line_no: int, file: str, diags: list[Diagnostic]):
    for gap, col in zip(gaps, cols):
        for offset, ch in enumerate(gap):
            if ch not in " \t\r":
                if len(diags) < MAX_DIAGNOSTICS:
                    diags.append(Diagnostic(
                        "error", f"unexpected character {ch!r}", line_no, col + offset, file
                    ))
                if len(diags) >= MAX_DIAGNOSTICS:
                    raise _Abort()


class _Parser:
    """Recursive descent over declarations and statements, precedence
    climbing over binary operators, on the lexer's parallel lists: the
    parser holds the position and the text of the current token, and
    reads a token's Loc only where a node or a diagnostic starts there.
    An operator or keyword token is known by its text alone: no
    identifier spells a keyword, and numbers and EOF spell no operator."""

    def __init__(self, texts: list[str], locs: list[Loc], diags: list[Diagnostic]):
        self.texts = texts
        self.locs = locs
        self.last = len(texts) - 1  # the position of EOF
        self.pos = 0
        self.text = texts[0]  # the current token's text, texts[pos]
        self.diags = diags
        self.depth = 0

    # ---- token plumbing ----
    def peek(self, off: int = 1) -> str:
        return self.texts[min(self.pos + off, self.last)]

    def here(self) -> Loc:
        return self.locs[self.pos]

    def advance(self) -> str:
        """Consume the current token, unless it is EOF; returns its text."""
        text = self.text
        if self.pos < self.last:
            self.pos += 1
            self.text = self.texts[self.pos]
        return text

    def accept(self, text: str) -> bool:
        if self.text == text:
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Loc:
        """Consume the token text, which is not EOF's; returns its Loc."""
        if self.text == text:
            pos = self.pos
            self.pos = pos + 1
            self.text = self.texts[pos + 1]
            return self.locs[pos]
        raise self._expected(text)

    def expect_id(self) -> str:
        if _is_name(self.text):
            return self.advance()
        raise self._expected("id")

    def _expected(self, want: str) -> _SyntaxIssue:
        got = self.text or "end of input"
        return _SyntaxIssue(f"expected '{want}', found '{got}'", self.here())

    def error(self, issue: _SyntaxIssue):
        if len(self.diags) < MAX_DIAGNOSTICS:
            loc = issue.loc
            self.diags.append(Diagnostic("error", issue.message, loc.line, loc.col, loc.file))
        if len(self.diags) >= MAX_DIAGNOSTICS:
            raise _Abort()

    def sync_decl(self):
        """Skip to a plausible declaration boundary after an error."""
        while self.text:
            if self.advance() in (";", "}"):
                return
            if self.text in ("class", "enum", "constraint", "main"):
                return

    def sync_stmt(self):
        while self.text:
            if self.text == "}":
                return
            if self.advance() == ";":
                return

    # ---- declarations ----
    def parse_unit(self) -> list[ir.ModelElement]:
        elements: list[ir.ModelElement] = []
        while self.text:
            try:
                elements.extend(self.parse_top_decl())
            except _SyntaxIssue as issue:
                self.error(issue)
                self.sync_decl()
        return elements

    def parse_top_decl(self) -> list[ir.ModelElement]:
        t = self.text
        if t == "enum":
            return [self.parse_enum()]
        if t in ("main", "class"):
            return [self.parse_class()]
        if t == "constraint":
            return [self.parse_zone()]
        if _is_name(t) or t in ("int", "real", "bool"):
            return [self.parse_typed_decl()]
        raise _SyntaxIssue(f"expected a declaration, found '{t}'", self.here())

    def parse_enum(self) -> ir.Enumeration:
        loc = self.expect("enum")
        name = self.expect_id()
        self.expect(":=")
        self.expect("{")
        literals = [self.expect_id()]
        while self.accept(","):
            literals.append(self.expect_id())
        self.expect("}")
        self.expect(";")
        return ir.Enumeration(name, tuple(literals), loc=loc)

    def parse_class(self) -> ir.Class:
        is_main = self.accept("main")
        loc = self.expect("class")
        name = self.expect_id()
        self.expect("{")
        features: list[ir.ModelFeature] = []
        while self.text != "}" and self.text:
            try:
                if self.text == "constraint":
                    features.append(self.parse_zone())
                else:
                    features.append(self.parse_typed_decl())
            except _SyntaxIssue as issue:
                self.error(issue)
                self.sync_stmt()
        self.expect("}")
        return ir.Class(name, tuple(features), is_main, loc=loc)

    def parse_typed_decl(self) -> ir.ModelFeature:
        loc = self.here()
        if self.text in ("int", "real", "bool"):
            type_name = self.advance()
        else:
            type_name = self.expect_id()
        is_set = self.accept("set")
        name = self.expect_id()
        if self.text == ":=":
            if is_set:
                raise _SyntaxIssue("constants cannot be sets", self.here())
            if type_name not in ("int", "real", "bool"):
                raise _SyntaxIssue("constants must be int, real or bool", loc)
            self.advance()
            value = self.parse_expression()
            self.expect(";")
            return ir.Constant(name, type_name, value, loc=loc)
        dims: list[ir.Expression] = []
        if self.accept("["):
            dims.append(self.parse_expression())
            while self.accept(","):
                dims.append(self.parse_expression())
            self.expect("]")
        domain = None
        if self.accept("in"):
            domain = self.parse_domain()
        self.expect(";")
        return ir.Variable(name, type_name, is_set, tuple(dims), domain, loc=loc)

    def parse_domain(self) -> ir.Domain:
        loc = self.here()
        if self.accept("{"):
            members = [self.parse_expression()]
            while self.accept(","):
                members.append(self.parse_expression())
            self.expect("}")
            return ir.SetDomain(tuple(members), loc=loc)
        lo = self.parse_expression()
        if self.accept(".."):
            hi = self.parse_expression()
            return ir.IntervalDomain(lo, hi, loc=loc)
        return ir.ExprDomain(lo, loc=loc)

    def parse_zone(self) -> ir.ConstraintZone:
        loc = self.expect("constraint")
        name = self.expect_id()
        self.expect("{")
        body = self.parse_stmt_list()
        self.expect("}")
        return ir.ConstraintZone(name, tuple(body), loc=loc)

    # ---- statements ----
    def parse_stmt_list(self) -> list[ir.Statement]:
        body: list[ir.Statement] = []
        while self.text != "}" and self.text:
            try:
                body.append(self.parse_stmt())
            except _SyntaxIssue as issue:
                self.error(issue)
                self.sync_stmt()
        return body

    def parse_stmt(self) -> ir.Statement:
        loc = self.here()
        if self.depth >= MAX_NESTING:
            raise _SyntaxIssue("statements nested too deeply", loc)
        text = self.text
        if text == "forall":
            return self.parse_forall()
        if text == "if":
            return self.parse_if()
        if text in GLOBAL_CONSTRAINT_NAMES and self.peek() == "(":
            return self.parse_global()
        expr = self.parse_expression()
        self.expect(";")
        return ir.ExpressionConstraint(expr, loc=loc)

    def parse_forall(self) -> ir.ForAll:
        loc = self.expect("forall")
        self.expect("(")
        iter_var = self.expect_id()
        self.expect("in")
        lower = self.parse_expression()
        self.expect("..")
        upper = self.parse_expression()
        self.expect(")")
        self.depth += 1
        try:
            if self.accept("{"):
                body = self.parse_stmt_list()
                self.expect("}")
            else:
                body = [self.parse_stmt()]
        finally:
            self.depth -= 1
        return ir.ForAll(iter_var, lower, upper, tuple(body), loc=loc)

    def parse_if(self) -> ir.If:
        loc = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        self.depth += 1
        try:
            self.expect("{")
            then_body = self.parse_stmt_list()
            self.expect("}")
            else_body = None
            if self.accept("else"):
                self.expect("{")
                else_body = tuple(self.parse_stmt_list())
                self.expect("}")
        finally:
            self.depth -= 1
        return ir.If(cond, tuple(then_body), else_body, loc=loc)

    def parse_global(self) -> ir.GlobalCtr:
        loc = self.here()
        name = self.advance()
        self.expect("(")
        params = self.parse_list()
        self.expect(")")
        self.expect(";")
        return ir.GlobalCtr(name, tuple(params), loc=loc)

    # ---- expressions ----
    def parse_expression(self, min_bp: int = 1) -> ir.Expression:
        """Parse the operators of BINARY_OPS that bind at least min_bp.  An
        expression of one operand, as most indexes and arguments are,
        returns that operand before any stack is made; the nesting levels
        a longer one opens close with it."""
        lhs = self.parse_operand(min_bp)
        op = BINARY_OPS.get(self.text)
        if op is None or op[0] < min_bp:
            return lhs
        depth = self.depth
        try:
            return self.climb(lhs, op, min_bp)
        finally:
            self.depth = depth

    def climb(self, lhs: ir.Expression, op: tuple, min_bp: int) -> ir.Expression:
        """lhs and the operators from op on, by precedence climbing with an
        explicit stack: an operator waits on the stack only while a tighter
        one follows its right operand; once that operand is complete, the
        operator and every pending one that binds at least as tightly as
        the next are applied, so every level is left-associative.  A chain
        stays open (``_Open``) while its run goes on.  The loop adds no call
        per operator; only operands recurse."""
        # (left operand, binding power, node type, text, Loc, levels its
        # run opened) of each operator still waiting for its right operand
        pending: list[tuple] = []
        lhs_bp = run = 0  # the binding power lhs was built at (0: an operand), and its run's levels
        while True:
            bp, node_type = op
            pos = self.pos
            text, loc = self.text, self.locs[pos]
            if lhs_bp != bp:  # lhs's run, if any, ends: its left operand nests no deeper
                self.depth -= run
                run = 0
            elif type(lhs) is not _Open or node_type is not lhs.node_type:  # lhs nests
                if self.depth >= MAX_NESTING:
                    raise _SyntaxIssue("expression nested too deeply", loc)
                self.depth += 1
                run += 1
            self.pos = pos + 1  # an operator is never EOF, the last token
            self.text = self.texts[pos + 1]
            # a right operand binds tighter than its operator
            rhs = self.parse_operand(bp + 1)
            op = BINARY_OPS.get(self.text)
            next_bp = op[0] if op is not None and op[0] >= min_bp else 0  # 0: the end
            if next_bp > bp:  # the next operator takes rhs
                pending.append((lhs, bp, node_type, text, loc, run))
                lhs, lhs_bp, run = rhs, 0, 0
                continue
            if type(lhs) is _Open and lhs.bp == bp and lhs.node_type is node_type:  # the run goes on
                lhs.terms.append(rhs)
                lhs.ops.append(text)
                lhs.loc = loc
            else:
                lhs = _apply(lhs, bp, node_type, text, loc, rhs)
            lhs_bp = bp
            while pending and pending[-1][1] >= next_bp:
                self.depth -= run
                left, lhs_bp, node_type, text, loc, run = pending.pop()
                lhs = _apply(left, lhs_bp, node_type, text, loc, lhs)
            if not next_bp:
                return lhs.close() if type(lhs) is _Open else lhs

    def parse_operand(self, min_bp: int) -> ir.Expression:
        """One operand of the binary operators that bind at least min_bp:
        'not' (only where NOT_BP >= min_bp), a sign, or a primary followed
        by its indexes, navigation and exponent.  Every primary, the
        leaves included, is made here, so a name or number returns from
        this one call."""
        text = self.text
        pos = self.pos
        loc = self.locs[pos]
        # a name or a number is never EOF, the last token: pos + 1 exists
        if text.isidentifier() and text not in KEYWORDS and self.texts[pos + 1] != "(":
            self.pos = pos + 1
            self.text = follow = self.texts[pos + 1]
            if follow == "[" or follow == ".":
                node = self.parse_path(text, loc)
            else:
                node = ir.VarOccurrence(text, loc=loc)
        else:
            if text.isdigit():
                self.pos = pos + 1
                self.text = self.texts[pos + 1]
                node = ir.IntValue(_integer(text, loc), loc=loc)
            elif _is_name(text):
                if text not in ir.ALG_FUNCTIONS:
                    raise _SyntaxIssue(f"unknown function '{text}'", loc)
                self.advance()
                self.advance()
                args = self.nested(loc, self.parse_list)
                self.expect(")")
                node = ir.AlgFunction(text, tuple(args), loc=loc)
            elif text[:1].isdigit():
                self.advance()
                node = ir.RealValue(_finite(text, loc), loc=loc)
            elif text == "true" or text == "false":
                self.advance()
                node = ir.BoolValue(text == "true", loc=loc)
            elif text == "not" and min_bp <= NOT_BP:
                self.advance()
                operand = self.nested(loc, self.parse_expression, NOT_BP)
                return ir.BoolUnaryOp("not", operand, loc=loc)
            elif text == "-" or text == "+":
                return self.parse_signed(text, loc)
            elif text == "(":
                self.advance()
                node = self.nested(loc, self.parse_expression)
                self.expect(")")
            elif text == "{":
                self.advance()
                elems = self.nested(loc, self.parse_list) if self.text != "}" else []
                self.expect("}")
                node = ir.SetValue(tuple(elems), loc=loc)
            elif text == "card":
                self.advance()
                self.expect("(")
                arg = self.nested(loc, self.parse_expression)
                self.expect(")")
                node = ir.SetFunction("card", arg, loc=loc)
            else:
                raise _SyntaxIssue(f"expected an expression, found '{text or 'end of input'}'", loc)
            if self.text == "[" or self.text == ".":
                raise _SyntaxIssue("only variables can be indexed or navigated", self.here())
        if self.text == "^":
            op_loc = self.here()
            self.advance()
            right = self.nested(op_loc, self.parse_operand, POWER_BP)  # right-assoc; may be signed
            return ir.AlgBinaryOp("^", node, right, loc=op_loc)
        return node

    def parse_signed(self, sign: str, loc: Loc) -> ir.Expression:
        """The operand after the sign, the current token, at loc."""
        self.advance()
        negative = sign == "-"
        # a sign directly on a numeric literal folds into the literal,
        # unless '^' follows (the sign binds below the power: -2^2 = -(2^2))
        lit = self.text
        if lit[:1].isdigit() and self.peek() != "^":
            lit_loc = self.here()
            self.advance()
            if lit.isdigit():
                v = _integer(lit, lit_loc)
                return ir.IntValue(-v if negative else v, loc=loc)
            v = _finite(lit, lit_loc)
            return ir.RealValue(-v if negative else v, loc=loc)
        operand = self.nested(loc, self.parse_operand, POWER_BP)
        return ir.AlgUnaryOp("neg" if negative else "plus", operand, loc=loc)

    def parse_path(self, name: str, loc: Loc) -> ir.Expression:
        """The occurrence of name, at loc, with the indexes and navigation
        steps that follow it; the current token is '[' or '.'."""
        indexes = self.parse_indexes() if self.text == "[" else ()
        node = ir.VarOccurrence(name, indexes, loc=loc)
        if self.text != ".":
            return node
        steps = [node]
        while self.accept("."):
            step_loc = self.here()
            step = self.expect_id()
            indexes = self.parse_indexes() if self.text == "[" else ()
            steps.append(ir.VarOccurrence(step, indexes, loc=step_loc))
        return ir.ObjectOccurrence(tuple(steps), loc=loc)

    def parse_indexes(self) -> tuple[ir.Expression, ...]:
        indexes = self.nested(self.expect("["), self.parse_list)
        self.expect("]")
        return tuple(indexes)

    def parse_list(self) -> list[ir.Expression]:
        """One or more comma-separated expressions."""
        items = [self.parse_expression()]
        while self.accept(","):
            items.append(self.parse_expression())
        return items

    def nested(self, loc: Loc, parse, *args):
        """parse(*args) one nesting level deeper; every bracket, call and
        prefix operator of an expression goes through here, so that input
        nested past MAX_NESTING is a diagnostic at loc, not a
        RecursionError."""
        if self.depth >= MAX_NESTING:
            raise _SyntaxIssue("expression nested too deeply", loc)
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1


class _Open:
    """A chain whose run goes on: its terms and operators so far, and the
    Loc of its last operator, which the chain node takes."""

    __slots__ = ("bp", "node_type", "terms", "ops", "loc")

    def __init__(self, bp: int, node_type: type, terms: list, ops: list, loc: Loc):
        self.bp, self.node_type, self.terms, self.ops, self.loc = bp, node_type, terms, ops, loc

    def close(self) -> ir.Expression:
        if self.node_type is ir.AlgChain:
            return ir.AlgChain(ir.chain_ops(self.ops), tuple(self.terms), loc=self.loc)
        return ir.BoolChain(self.ops[0], tuple(self.terms), loc=self.loc)


def _apply(left, bp: int, node_type: type, text: str, loc: Loc, right) -> ir.Expression:
    """left text right at binding power bp: left's open chain extended, a
    new chain, which takes in the terms of a left chain of its own group,
    or a binary node."""
    if type(right) is _Open:
        right = right.close()
    if type(left) is _Open:
        if left.bp == bp and left.node_type is node_type:
            left.ops.append(text)
            left.terms.append(right)
            left.loc = loc
            return left
        left = left.close()
    if node_type is not ir.AlgChain and node_type is not ir.BoolChain:
        return node_type(text, left, right, loc=loc)
    if type(left) is not node_type:
        return _Open(bp, node_type, [left, right], [text], loc)
    terms, ops = ir.chain_terms(left, text)
    return _Open(bp, node_type, [*terms, right], [*ops, text], loc)


def _parse_decls(text: str, file: str, diags: list[Diagnostic], allow_header: bool):
    parser = _Parser(*_lex(text, file, diags), diags)
    header_name = None
    if (
        allow_header
        and parser.text == "model"
        and _is_name(parser.peek())
        and parser.peek(2) == ";"
    ):
        parser.advance()
        header_name = parser.advance()
        parser.advance()
    return parser.parse_unit(), header_name


def parse(src: SourceUnit) -> ir.Model:
    """Parse a source unit into an unresolved model.

    Raises ParseError carrying positioned diagnostics (at most 20).
    """
    diags: list[Diagnostic] = []
    elements: list[ir.ModelElement] = []
    header_name = None
    try:
        if src.data_text is not None:
            data_elements, _ = _parse_decls(src.data_text, src.data_file, diags, False)
            elements.extend(data_elements)
        model_elements, header_name = _parse_decls(src.model_text, src.model_file, diags, True)
        elements.extend(model_elements)
    except _Abort:
        raise ParseError(diags) from None
    if diags:
        raise ParseError(diags)
    name = header_name
    if name is None:
        mains = [e for e in elements if isinstance(e, ir.Class) and e.is_main]
        if mains:
            name = mains[0].name
        else:
            classes = [e for e in elements if isinstance(e, ir.Class)]
            name = classes[0].name if classes else "model"
    return ir.Model(name, tuple(elements))


def parse_expression(text: str, file: str = "<expr>") -> ir.Expression:
    """Parse a standalone expression with the model grammar's precedence."""
    diags: list[Diagnostic] = []
    try:
        parser = _Parser(*_lex(text, file, diags), diags)
        expr = parser.parse_expression()
        if parser.text:
            raise _SyntaxIssue(f"unexpected trailing input '{parser.text}'", parser.here())
    except _SyntaxIssue as issue:
        diags.append(Diagnostic("error", issue.message, issue.loc.line, issue.loc.col, file))
        raise ParseError(diags) from None
    except _Abort:
        raise ParseError(diags) from None
    if diags:
        raise ParseError(diags)
    return expr
