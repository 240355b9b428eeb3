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
``BINARY_OPS``; every one of those levels is left-associative.  Only
operands recurse (brackets, prefixes, '^', calls), so parentheses and
prefixes up to the nesting cap stay within Python's default recursion
limit.
"""

from __future__ import annotations

import math
import re
import sys
from typing import NamedTuple

from . import ir
from .errors import Diagnostic, Loc, ParseError

sys.setrecursionlimit(max(sys.getrecursionlimit(), 10000))

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
    "or": (3, ir.BoolBinaryOp),
    "and": (4, ir.BoolBinaryOp),
    **{op: (6, ir.BoolBinaryOp) for op in ir.COMPARISON_OPS},
    "union": (7, ir.SetBinaryOp),
    "diff": (7, ir.SetBinaryOp),
    "intersect": (8, ir.SetBinaryOp),
    "+": (9, ir.AlgBinaryOp),
    "-": (9, ir.AlgBinaryOp),
    "*": (10, ir.AlgBinaryOp),
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


class Token(NamedTuple):
    kind: str  # ID | INT | REAL | KW | OP | EOF
    text: str
    line: int
    col: int


# Builds a NamedTuple (Token, Loc) from a tuple of all its fields, without
# the Python-level __new__ that checks arguments: the parser makes one Loc
# per node.
_new_tuple = tuple.__new__


class _Abort(Exception):
    """Internal: too many diagnostics or an unrecoverable state."""


class _SyntaxIssue(Exception):
    def __init__(self, message: str, token: Token):
        self.message = message
        self.token = token
        super().__init__(message)


def _finite(tok: Token) -> float:
    """The value of the real literal tok; one beyond the float range has
    no value, so it is refused."""
    v = float(tok.text)
    if math.isinf(v):
        raise _SyntaxIssue(f"real literal '{tok.text}' is out of range", tok)
    return v


# One match per token, after any blanks.  A real needs a digit after its
# '.' or its exponent sign ("1.e5" is 1 . e5, "2e+" is 2 e +); operators
# are tried longest first; any other non-blank character is BAD.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(?P<NL>\n)|(?P<COMMENT>//[^\n]*)"
    r"|(?P<ID>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<REAL>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))"
    r"|(?P<INT>[0-9]+)"
    r"|(?P<OP>" + "|".join(re.escape(op) for op in _OPERATORS) + r")"
    r"|(?P<BAD>[^ \t\r\n]))"
)


def _lex(text: str, file: str, diags: list[Diagnostic]) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new_token = _new_tuple  # bound locally: read once per token
    line, line_start = 1, 0
    kind = None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "NL":
            line += 1
            line_start = start + 1
        elif kind == "COMMENT":
            comment_col = start - line_start + 1
        elif kind == "BAD":
            if len(diags) < MAX_DIAGNOSTICS:
                diags.append(Diagnostic(
                    "error", f"unexpected character {text[start]!r}",
                    line, start - line_start + 1, file,
                ))
            if len(diags) >= MAX_DIAGNOSTICS:
                raise _Abort()
        else:
            word = m.group(kind)
            if kind == "ID" and word in KEYWORDS:
                kind = "KW"
            append(new_token(Token, (kind, word, line, start - line_start + 1)))
    # a comment running to the end of the text leaves the column where it starts
    col = comment_col if kind == "COMMENT" else len(text) - line_start + 1
    append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    """Recursive descent over declarations and statements, precedence
    climbing over binary operators.  An operator or keyword token is known
    by its text alone: no identifier spells a keyword, and numbers and EOF
    spell no operator."""

    def __init__(self, tokens: list[Token], file: str, diags: list[Diagnostic]):
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.tok = tokens[0]  # the current token, tokens[pos]
        self.diags = diags
        self.depth = 0

    # ---- token plumbing ----
    def peek(self, off: int = 1) -> Token:
        return self.tokens[min(self.pos + off, len(self.tokens) - 1)]

    def advance(self) -> Token:
        t = self.tok
        if t.kind != "EOF":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return t

    def accept(self, text: str) -> Token | None:
        if self.tok.text == text:
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        if self.tok.text == text:
            return self.advance()
        raise self._expected(text)

    def expect_id(self) -> Token:
        if self.tok.kind == "ID":
            return self.advance()
        raise self._expected("id")

    def _expected(self, want: str) -> _SyntaxIssue:
        got = self.tok.text or "end of input"
        return _SyntaxIssue(f"expected '{want}', found '{got}'", self.tok)

    def loc(self, tok: Token) -> Loc:
        return _new_tuple(Loc, (tok.line, tok.col, self.file))

    def error(self, issue: _SyntaxIssue):
        if len(self.diags) < MAX_DIAGNOSTICS:
            self.diags.append(
                Diagnostic("error", issue.message, issue.token.line, issue.token.col, self.file)
            )
        if len(self.diags) >= MAX_DIAGNOSTICS:
            raise _Abort()

    def sync_decl(self):
        """Skip to a plausible declaration boundary after an error."""
        while self.tok.kind != "EOF":
            t = self.advance()
            if t.text in (";", "}"):
                return
            if self.tok.text in ("class", "enum", "constraint", "main"):
                return

    def sync_stmt(self):
        while self.tok.kind != "EOF":
            if self.tok.text == "}":
                return
            if self.advance().text == ";":
                return

    # ---- declarations ----
    def parse_unit(self) -> list[ir.ModelElement]:
        elements: list[ir.ModelElement] = []
        while self.tok.kind != "EOF":
            try:
                elements.extend(self.parse_top_decl())
            except _SyntaxIssue as issue:
                self.error(issue)
                self.sync_decl()
        return elements

    def parse_top_decl(self) -> list[ir.ModelElement]:
        t = self.tok
        if t.text == "enum":
            return [self.parse_enum()]
        if t.text in ("main", "class"):
            return [self.parse_class()]
        if t.text == "constraint":
            return [self.parse_zone()]
        if t.kind == "ID" or t.text in ("int", "real", "bool"):
            return [self.parse_typed_decl()]
        raise _SyntaxIssue(f"expected a declaration, found '{t.text}'", t)

    def parse_enum(self) -> ir.Enumeration:
        start = self.expect("enum")
        name = self.expect_id().text
        self.expect(":=")
        self.expect("{")
        literals = [self.expect_id().text]
        while self.accept(","):
            literals.append(self.expect_id().text)
        self.expect("}")
        self.expect(";")
        return ir.Enumeration(name, tuple(literals), loc=self.loc(start))

    def parse_class(self) -> ir.Class:
        is_main = self.accept("main") is not None
        start = self.expect("class")
        name = self.expect_id().text
        self.expect("{")
        features: list[ir.ModelFeature] = []
        while self.tok.text != "}" and self.tok.kind != "EOF":
            try:
                if self.tok.text == "constraint":
                    features.append(self.parse_zone())
                else:
                    features.append(self.parse_typed_decl())
            except _SyntaxIssue as issue:
                self.error(issue)
                self.sync_stmt()
        self.expect("}")
        return ir.Class(name, tuple(features), is_main, loc=self.loc(start))

    def parse_typed_decl(self) -> ir.ModelFeature:
        start = self.tok
        if start.text in ("int", "real", "bool"):
            type_name = self.advance().text
        else:
            type_name = self.expect_id().text
        is_set = self.accept("set") is not None
        name = self.expect_id().text
        if self.tok.text == ":=":
            if is_set:
                raise _SyntaxIssue("constants cannot be sets", self.tok)
            if type_name not in ("int", "real", "bool"):
                raise _SyntaxIssue("constants must be int, real or bool", start)
            self.advance()
            value = self.parse_expression()
            self.expect(";")
            return ir.Constant(name, type_name, value, loc=self.loc(start))
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
        return ir.Variable(name, type_name, is_set, tuple(dims), domain, loc=self.loc(start))

    def parse_domain(self) -> ir.Domain:
        start = self.tok
        if self.accept("{"):
            members = [self.parse_expression()]
            while self.accept(","):
                members.append(self.parse_expression())
            self.expect("}")
            return ir.SetDomain(tuple(members), loc=self.loc(start))
        lo = self.parse_expression()
        if self.accept(".."):
            hi = self.parse_expression()
            return ir.IntervalDomain(lo, hi, loc=self.loc(start))
        return ir.ExprDomain(lo, loc=self.loc(start))

    def parse_zone(self) -> ir.ConstraintZone:
        start = self.expect("constraint")
        name = self.expect_id().text
        self.expect("{")
        body = self.parse_stmt_list()
        self.expect("}")
        return ir.ConstraintZone(name, tuple(body), loc=self.loc(start))

    # ---- statements ----
    def parse_stmt_list(self) -> list[ir.Statement]:
        body: list[ir.Statement] = []
        while self.tok.text != "}" and self.tok.kind != "EOF":
            try:
                body.append(self.parse_stmt())
            except _SyntaxIssue as issue:
                self.error(issue)
                self.sync_stmt()
        return body

    def parse_stmt(self) -> ir.Statement:
        start = self.tok
        if self.depth >= MAX_NESTING:
            raise _SyntaxIssue("statements nested too deeply", start)
        if start.text == "forall":
            return self.parse_forall()
        if start.text == "if":
            return self.parse_if()
        if (
            start.kind == "ID"
            and start.text in GLOBAL_CONSTRAINT_NAMES
            and self.peek().text == "("
        ):
            return self.parse_global()
        expr = self.parse_expression()
        self.expect(";")
        return ir.ExpressionConstraint(expr, loc=self.loc(start))

    def parse_forall(self) -> ir.ForAll:
        start = self.expect("forall")
        self.expect("(")
        iter_var = self.expect_id().text
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
        return ir.ForAll(iter_var, lower, upper, tuple(body), loc=self.loc(start))

    def parse_if(self) -> ir.If:
        start = self.expect("if")
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
        return ir.If(cond, tuple(then_body), else_body, loc=self.loc(start))

    def parse_global(self) -> ir.GlobalCtr:
        start = self.expect_id()
        self.expect("(")
        params = self.parse_list()
        self.expect(")")
        self.expect(";")
        return ir.GlobalCtr(start.text, tuple(params), loc=self.loc(start))

    # ---- expressions ----
    def parse_expression(self, min_bp: int = 1) -> ir.Expression:
        """Parse the operators of BINARY_OPS that bind at least min_bp, by
        precedence climbing with an explicit stack: before an operator is
        pushed, the pending ones that bind at least as tightly take their
        right operands, so every level is left-associative.  The loop adds
        no call per operator; only operands recurse."""
        operands = [self.parse_operand(min_bp)]
        pending: list[tuple[int, type, Token]] = []
        while True:
            tok = self.tok
            op = BINARY_OPS.get(tok.text)
            bp = op[0] if op is not None and op[0] >= min_bp else 0  # 0: the end
            while pending and pending[-1][0] >= bp:
                _bp, node_type, op_tok = pending.pop()
                right = operands.pop()
                operands[-1] = node_type(op_tok.text, operands[-1], right, loc=self.loc(op_tok))
            if not bp:
                return operands[0]
            self.advance()
            pending.append((bp, op[1], tok))
            # a right operand binds tighter than its operator
            operands.append(self.parse_operand(bp + 1))

    def parse_operand(self, min_bp: int) -> ir.Expression:
        """One operand of the binary operators that bind at least min_bp:
        'not' (only where NOT_BP >= min_bp), a sign, or a primary followed
        by its indexes, navigation and exponent.  Every primary, the
        leaves included, is made here, so a name or number returns from
        this one call."""
        tok = self.tok
        kind, text = tok.kind, tok.text
        loc = _new_tuple(Loc, (tok.line, tok.col, self.file))
        if kind == "ID" and self.tokens[self.pos + 1].text != "(":  # EOF, not an ID, is last
            self.advance()
            node = ir.VarOccurrence(text, loc=loc)
        elif kind == "INT":
            self.advance()
            node = ir.IntValue(int(text), loc=loc)
        elif kind == "ID":
            if text not in ir.ALG_FUNCTIONS:
                raise _SyntaxIssue(f"unknown function '{text}'", tok)
            self.advance()
            self.advance()
            args = self.nested(tok, self.parse_list)
            self.expect(")")
            node = ir.AlgFunction(text, tuple(args), loc=loc)
        elif kind == "REAL":
            self.advance()
            node = ir.RealValue(_finite(tok), loc=loc)
        elif text == "true" or text == "false":
            self.advance()
            node = ir.BoolValue(text == "true", loc=loc)
        elif text == "not" and min_bp <= NOT_BP:
            self.advance()
            operand = self.nested(tok, self.parse_expression, NOT_BP)
            return ir.BoolUnaryOp("not", operand, loc=loc)
        elif text == "-" or text == "+":
            return self.parse_signed(tok, loc)
        elif text == "(":
            self.advance()
            node = self.nested(tok, self.parse_expression)
            self.expect(")")
        elif text == "{":
            self.advance()
            elems = self.nested(tok, self.parse_list) if self.tok.text != "}" else []
            self.expect("}")
            node = ir.SetValue(tuple(elems), loc=loc)
        elif text == "card":
            self.advance()
            self.expect("(")
            arg = self.nested(tok, self.parse_expression)
            self.expect(")")
            node = ir.SetFunction("card", arg, loc=loc)
        else:
            raise _SyntaxIssue(f"expected an expression, found '{text or 'end of input'}'", tok)
        tok = self.tok
        if tok.text == "[" or tok.text == ".":
            node = self.parse_suffixes(node, tok)
            tok = self.tok
        if tok.text == "^":
            self.advance()
            right = self.parse_operand(POWER_BP)  # right-assoc; exponent may be signed
            return ir.AlgBinaryOp("^", node, right, loc=self.loc(tok))
        return node

    def parse_signed(self, tok: Token, loc: Loc) -> ir.Expression:
        """The operand after the sign tok, the current token."""
        self.advance()
        negative = tok.text == "-"
        # a sign directly on a numeric literal folds into the literal,
        # unless '^' follows (the sign binds below the power: -2^2 = -(2^2))
        lit = self.tok
        if (lit.kind == "INT" or lit.kind == "REAL") and self.peek().text != "^":
            self.advance()
            if lit.kind == "INT":
                v = int(lit.text)
                return ir.IntValue(-v if negative else v, loc=loc)
            v = _finite(lit)
            return ir.RealValue(-v if negative else v, loc=loc)
        operand = self.nested(tok, self.parse_operand, POWER_BP)
        return ir.AlgUnaryOp("neg" if negative else "plus", operand, loc=loc)

    def parse_suffixes(self, node: ir.Expression, tok: Token) -> ir.Expression:
        """Indexes and navigation after node; tok, the current token, is
        '[' or '.'."""
        if not isinstance(node, ir.VarOccurrence):
            raise _SyntaxIssue("only variables can be indexed or navigated", tok)
        if tok.text == "[":
            node = ir.VarOccurrence(node.name, tuple(self.parse_indexes()), loc=node.loc)
        if self.tok.text != ".":
            return node
        steps = [node]
        while self.accept("."):
            name_tok = self.expect_id()
            indexes: tuple[ir.Expression, ...] = ()
            if self.tok.text == "[":
                indexes = tuple(self.parse_indexes())
            steps.append(ir.VarOccurrence(name_tok.text, indexes, loc=self.loc(name_tok)))
        return ir.ObjectOccurrence(tuple(steps), loc=steps[0].loc)

    def parse_indexes(self) -> list[ir.Expression]:
        indexes = self.nested(self.expect("["), self.parse_list)
        self.expect("]")
        return indexes

    def parse_list(self) -> list[ir.Expression]:
        """One or more comma-separated expressions."""
        items = [self.parse_expression()]
        while self.accept(","):
            items.append(self.parse_expression())
        return items

    def nested(self, tok: Token, parse, *args):
        """parse(*args) one nesting level deeper; every bracket, call and
        prefix operator of an expression goes through here, so that input
        nested past MAX_NESTING is a diagnostic at tok, not a
        RecursionError."""
        if self.depth >= MAX_NESTING:
            raise _SyntaxIssue("expression nested too deeply", tok)
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1


def _parse_decls(text: str, file: str, diags: list[Diagnostic], allow_header: bool):
    tokens = _lex(text, file, diags)
    parser = _Parser(tokens, file, diags)
    header_name = None
    if (
        allow_header
        and parser.tok.kind == "ID"
        and parser.tok.text == "model"
        and parser.peek().kind == "ID"
        and parser.peek(2).text == ";"
    ):
        parser.advance()
        header_name = parser.advance().text
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
        tokens = _lex(text, file, diags)
        parser = _Parser(tokens, file, diags)
        expr = parser.parse_expression()
        if parser.tok.kind != "EOF":
            raise _SyntaxIssue(f"unexpected trailing input '{parser.tok.text}'", parser.tok)
    except _SyntaxIssue as issue:
        diags.append(Diagnostic("error", issue.message, issue.token.line, issue.token.col, file))
        raise ParseError(diags) from None
    except _Abort:
        raise ParseError(diags) from None
    if diags:
        raise ParseError(diags)
    return expr
