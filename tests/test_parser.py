import random
import sys

import pytest

from conftest import ALL_FIXTURES, load_unit
from helpers import gen_model, wide_source
from pivotc import ir
from pivotc.errors import ParseError
from pivotc.parser import SourceUnit, parse, parse_expression
from pivotc.printer import print_expression, print_pivot


def test_golfers_model_shape(golfers):
    enums = [e for e in golfers.elements if isinstance(e, ir.Enumeration)]
    consts = [e for e in golfers.elements if isinstance(e, ir.Constant)]
    classes = [e for e in golfers.elements if isinstance(e, ir.Class)]
    assert len(enums) == 1
    assert enums[0].literals == tuple("abcdefghi")
    assert [(c.name, c.value) for c in consts] == [
        ("s", ir.IntValue(3)), ("w", ir.IntValue(4)), ("g", ir.IntValue(3)),
    ]
    assert [c.name for c in classes] == ["SocialGolfers", "Group", "Week"]
    assert [c.is_main for c in classes] == [True, False, False]

    group = classes[1]
    players = group.features[0]
    assert isinstance(players, ir.Variable)
    assert players.is_set and players.type_name == "Name" and not players.dims
    zone = group.features[1]
    assert isinstance(zone, ir.ConstraintZone) and zone.name == "groupSize"
    (ctr,) = zone.body
    assert ctr == ir.ExpressionConstraint(
        ir.BoolBinaryOp(
            "=", ir.SetFunction("card", ir.VarOccurrence("players")), ir.VarOccurrence("s")
        )
    )


def test_data_declarations_precede_classes(golfers):
    kinds = [type(e).__name__ for e in golfers.elements]
    assert kinds == ["Enumeration", "Constant", "Constant", "Constant", "Class", "Class", "Class"]


def test_empty_main_class():
    m = parse(SourceUnit("main class M { }"))
    assert m.name == "M"
    assert m.elements == (ir.Class("M", (), True),)


def test_forall_inside_class():
    m = parse(SourceUnit(
        "main class M { int x[3] in 1..3; constraint c {"
        " forall(i in 1..3) { x[i] = i; } } }"
    ))
    zone = m.elements[0].features[1]
    (loop,) = zone.body
    assert isinstance(loop, ir.ForAll)
    assert loop.iter_var == "i"
    assert loop.lower == ir.IntValue(1) and loop.upper == ir.IntValue(3)
    assert loop.body == (
        ir.ExpressionConstraint(
            ir.BoolBinaryOp("=", ir.VarOccurrence("x", (ir.VarOccurrence("i"),)), ir.VarOccurrence("i"))
        ),
    )


def test_model_header_names_model():
    m = parse(SourceUnit("model Widget;\nint x in 1..2;"))
    assert m.name == "Widget"


def test_expression_card_intersect():
    e = parse_expression("card(a intersect b) <= 1")
    assert e == ir.BoolBinaryOp(
        "<=",
        ir.SetFunction(
            "card", ir.SetBinaryOp("intersect", ir.VarOccurrence("a"), ir.VarOccurrence("b"))
        ),
        ir.IntValue(1),
    )


def test_expression_precedence_mul_over_add():
    assert parse_expression("1+2*3") == ir.AlgChain(
        ("+",), (ir.IntValue(1), ir.AlgChain(("*",), (ir.IntValue(2), ir.IntValue(3))))
    )


def test_runs_of_one_group_make_one_chain():
    one, two, three, four = map(ir.IntValue, (1, 2, 3, 4))
    assert parse_expression("1 - 2 + 3 - 4") == ir.AlgChain(("-", "+", "-"), (one, two, three, four))
    # a bracketed chain of the group on the left is taken in, as the
    # left-deep text reads; on the right it stays an operand
    assert parse_expression("(1 - 2) + 3") == parse_expression("1 - 2 + 3")
    assert parse_expression("1 - (2 + 3)") == ir.AlgChain(
        ("-",), (one, ir.AlgChain(("+",), (two, three)))
    )
    assert parse_expression("(1 * 2) * 3 / 4 * 1") == ir.AlgChain(("*",), (
        ir.AlgBinaryOp("/", ir.AlgChain(("*", "*"), (one, two, three)), four), one,
    ))
    p, q, r = map(ir.VarOccurrence, "pqr")
    assert parse_expression("(p and q) and r or p") == ir.BoolChain(
        "or", (ir.BoolChain("and", (p, q, r)), p)
    )
    assert parse_expression("(p or q) and r") == ir.BoolChain("and", (ir.BoolChain("or", (p, q)), r))
    # the operator tuples are shared
    assert parse_expression("1 - 2 + 3").ops is parse_expression("p - q + r").ops


def test_unary_minus_binds_below_power():
    # checked against the fully parenthesized forms as the oracle
    assert parse_expression("-x^2") == parse_expression("-(x^2)")
    assert parse_expression("-x^2") != parse_expression("(-x)^2")
    assert parse_expression("-x^2") == ir.AlgUnaryOp(
        "neg", ir.AlgBinaryOp("^", ir.VarOccurrence("x"), ir.IntValue(2))
    )
    assert parse_expression("2^-3") == ir.AlgBinaryOp("^", ir.IntValue(2), ir.IntValue(-3))


def test_power_right_associative():
    assert parse_expression("2^3^2") == ir.AlgBinaryOp(
        "^", ir.IntValue(2), ir.AlgBinaryOp("^", ir.IntValue(3), ir.IntValue(2))
    )


def test_negative_literal_folds_at_parse():
    assert parse_expression("-3") == ir.IntValue(-3)
    assert parse_expression("1 - -3") == ir.AlgChain(("-",), (ir.IntValue(1), ir.IntValue(-3)))
    assert parse_expression("-(3)") == ir.AlgUnaryOp("neg", ir.IntValue(3))


def test_navigation_path():
    e = parse_expression("weekSched[w1].groupSched[g1].players")
    assert isinstance(e, ir.ObjectOccurrence)
    assert [s.name for s in e.path] == ["weekSched", "groupSched", "players"]
    assert e.path[0].indexes == (ir.VarOccurrence("w1"),)
    assert e.path[2].indexes == ()


def test_set_literal_and_bool_ops():
    e = parse_expression("not (x = 1) and true")
    assert isinstance(e, ir.BoolChain) and e.op == "and"
    assert isinstance(e.terms[0], ir.BoolUnaryOp)
    s = parse_expression("{1,2,3} union {4}")
    assert isinstance(s, ir.SetBinaryOp) and s.op == "union"


def test_comments_ignored():
    m = parse(SourceUnit("// leading comment\nmain class M { } // trailing"))
    assert m.elements == (ir.Class("M", (), True),)


def test_listing_line_numbers_rejected():
    with pytest.raises(ParseError):
        parse(SourceUnit("1. enum Name := {a,b};"))


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as info:
        parse(SourceUnit("main class M {\n  int x in ;\n}", model_file="m.som"))
    d = info.value.diagnostics[0]
    assert d.severity == "error"
    assert d.file == "m.som"
    assert d.line == 2
    assert d.column >= 1


def test_at_most_20_diagnostics():
    bad = "int x in ;\n" * 50
    with pytest.raises(ParseError) as info:
        parse(SourceUnit(bad))
    assert len(info.value.diagnostics) <= 20


def test_unknown_function_rejected():
    with pytest.raises(ParseError):
        parse_expression("frobnicate(1,2)")


def test_determinism_same_text_same_model():
    unit = SourceUnit("main class M { int x in 1..3; constraint c { x = 1; } }")
    assert parse(unit) == parse(unit)


def test_parse_expression_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expression("1 + 2 )")


def test_constants_inside_classes_allowed():
    m = parse(SourceUnit("main class M { int k := 3; int x in 1..k; }"))
    feats = m.elements[0].features
    assert isinstance(feats[0], ir.Constant)


def test_deep_nesting_reports_instead_of_crashing():
    text = "(" * 500 + "1" + ")" * 500
    with pytest.raises(ParseError):
        parse_expression(text)


@pytest.mark.parametrize("opener,closer", [
    ("{", "}"),
    ("abs(", ")"),
    ("min(1, ", ")"),
    ("card(", ")"),
    ("x[", "]"),
])
def test_deep_brackets_and_calls_report_instead_of_crashing(opener, closer):
    text = opener * 2500 + "1" + closer * 2500
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(ParseError) as info:
            parse_expression(text)
    finally:
        sys.setrecursionlimit(limit)
    assert [d.message for d in info.value.diagnostics] == ["expression nested too deeply"]


def test_real_literals():
    assert parse_expression("0.5") == ir.RealValue(0.5)
    assert parse_expression("1.5e3") == ir.RealValue(1500.0)
    assert parse_expression("-0.5") == ir.RealValue(-0.5)


def test_domain_forms():
    m = parse(SourceUnit(
        "model D;\nint a in 1..3;\nint b in {1,3,5};\nint set c in 1..4;\n"
    ))
    a, b, c = m.elements
    assert isinstance(a.domain, ir.IntervalDomain)
    assert isinstance(b.domain, ir.SetDomain)
    assert isinstance(c.domain, ir.IntervalDomain) and c.is_set


# (message, line, column) of every diagnostic, as the character-by-character
# lexer and the one-function-per-level parser reported them
DEEP = 65
PINNED_DIAGNOSTICS = {
    # each operator after the first of a run that stays binary nests one
    # level, so the 66th '/' is too deep, while a sum goes on as one chain
    "long_division_run": (
        "int x;\nconstraint c { x = x" + " / 2" * 66 + " + 1" * 100 + "; }\n",
        [("expression nested too deeply", 2, 282)],
    ),
    "stray_char_after_tab": (
        "model M;\nint x in 1..3;\n\t@ constraint c { x = 1; }\n",
        [("unexpected character '@'", 3, 2)],
    ),
    # the end-of-input column is where a final comment starts
    "comment_at_eof": (
        "model M;\nint x in 1..3 // no semicolon",
        [("expected ';', found 'end of input'", 2, 15)],
    ),
    "comment_at_eof_after_a_statement": (
        "constraint c { x = 1; // open",
        [("expected '}', found 'end of input'", 1, 23)],
    ),
    "comment_on_the_last_line": (
        "constraint c { x = 1;\n   // open",
        [("expected '}', found 'end of input'", 2, 4)],
    ),
    "blanks_before_eof": (
        "constraint c { x = 1;   ",
        [("expected '}', found 'end of input'", 1, 25)],
    ),
    "bad_characters_between_tokens": (
        "int x\tin 1..3; @ int y; # ! :\t@@",
        [("unexpected character '@'", 1, 16), ("unexpected character '#'", 1, 25),
         ("unexpected character '!'", 1, 27), ("unexpected character ':'", 1, 29),
         ("unexpected character '@'", 1, 31), ("unexpected character '@'", 1, 32)],
    ),
    "non_ascii_letter": (
        "int é;",
        [("unexpected character 'é'", 1, 5), ("expected 'id', found ';'", 1, 6)],
    ),
    "real_without_fraction_digits": (
        "int x;\nconstraint c { x = 1.e5; }\n",
        [("only variables can be indexed or navigated", 2, 21)],
    ),
    "exponent_without_digits": (
        "int x;\nconstraint c { x = 2e+; }\n",
        [("expected ';', found 'e'", 2, 21)],
    ),
    "range_in_expression": (
        "int x;\nconstraint c { x = 1..3; }\n",
        [("expected ';', found '..'", 2, 21)],
    ),
    "navigation_from_literal": (
        "int x;\nconstraint c { x = 3.x; }\n",
        [("only variables can be indexed or navigated", 2, 21)],
    ),
    "deep_parentheses": (
        "int x;\nconstraint c { x = " + "(" * DEEP + "1" + ")" * DEEP + "; }\n",
        [("expression nested too deeply", 2, 84)],
    ),
    "deep_not_chain": (
        "bool b;\nconstraint c { " + "not " * DEEP + "b; }\n",
        [("expression nested too deeply", 2, 272)],
    ),
    "deep_minus_chain": (
        "int x;\nconstraint c { x = " + "- " * DEEP + "x; }\n",
        [("expression nested too deeply", 2, 148)],
    ),
    # card( and each set literal count one level: the 24th '(' is too deep
    "deep_sets_then_parentheses": (
        "int x;\nconstraint c { x = card("
        + "{" * 40 + "(" * 30 + "1" + ")" * 30 + "}" * 40 + "); }\n",
        [("expression nested too deeply", 2, 88)]
        + [("expected a declaration, found '}'", 2, col) for col in range(127, 146)],
    ),
    "deep_statements": (
        "int x;\nconstraint c {\n" + "forall(i in 1..2)\n" * DEEP + "x = 1;\n}\n",
        [("statements nested too deeply", 67, 1)],
    ),
    "constant_set": (
        "int set k := 1;\n",
        [("constants cannot be sets", 1, 11)],
    ),
    "not_after_comparison": (
        "bool a;\nbool b;\nconstraint c { a = not b; }\n",
        [("expected an expression, found 'not'", 3, 20)],
    ),
    "dangling_navigation": (
        "int x[2];\nconstraint c { x[1].; }\n",
        [("expected 'id', found ';'", 2, 21)],
    ),
    "unknown_function": (
        "int x;\nconstraint c { frob(x, 1) = 2; }\n",
        [("unknown function 'frob'", 2, 16)],
    ),
    "signed_literal_before_power": (
        "int x;\nconstraint c { x = -2 ^ ; }\n",
        [("expected an expression, found ';'", 2, 25)],
    ),
    "doubled_operator_then_eof": (
        "int x;\nconstraint c { x = = 1; }\nconstraint d { x = (1 + ",
        [
            ("expected an expression, found '='", 2, 20),
            ("expected an expression, found 'end of input'", 3, 25),
            ("expected '}', found 'end of input'", 3, 25),
        ],
    ),
    # the lexer stops at the twentieth diagnostic
    "many_bad_characters": (
        "int x;\n" + "@ $ " * 13 + "\n",
        [(f"unexpected character '{'@$'[k % 2]}'", 2, 1 + 2 * k) for k in range(20)],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIAGNOSTICS))
def test_pinned_diagnostics(name):
    text, expected = PINNED_DIAGNOSTICS[name]
    with pytest.raises(ParseError) as info:
        parse(SourceUnit(text))
    assert [(d.message, d.line, d.column) for d in info.value.diagnostics] == expected


@pytest.mark.parametrize("text,expected", [
    ("1 + 2 )", [("unexpected trailing input ')'", 1, 7)]),
    ("1 + frob(2)", [("unknown function 'frob'", 1, 5)]),
    ("", [("expected an expression, found 'end of input'", 1, 1)]),
    # a character that starts no token fails an expression that parses
    ("x @", [("unexpected character '@'", 1, 3)]),
    ("@" * 25, [("unexpected character '@'", 1, col) for col in range(1, 21)]),
])
def test_pinned_expression_diagnostics(text, expected):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert [(d.message, d.line, d.column) for d in info.value.diagnostics] == expected


def test_binary_runs_count_against_the_nesting_cap():
    half = " / 2" * 65  # 64 levels: the first operator opens none
    assert isinstance(parse_expression("x" + half), ir.AlgBinaryOp)
    # a run's levels close with it: the second run starts afresh
    parse_expression(f"x{half} = x{half}")
    four = " / 2" * 4  # in 61 brackets: 3 levels more
    parse_expression("(" * 61 + f"x{four} = x{four}" + ")" * 61)
    for text in ("x" + half + " / 2", "(" * 61 + f"x{four} / 2" + ")" * 61, " < ".join(["a"] * 67)):
        with pytest.raises(ParseError) as info:
            parse_expression(text)
        assert [d.message for d in info.value.diagnostics] == ["expression nested too deeply"]
    # chains nest nothing, however long
    assert len(parse_expression(" - ".join(["x"] * 20_000) + " * 2 * 3").terms) == 20_000


def test_deepest_nesting_within_default_recursion_limit():
    # parenthesized levels that each pass through every binding power parse
    # without the raised process-wide recursion limit, up to the cap of 64
    # (an exponent counts one level while it is parsed, so none is open here)
    def nested(depth):
        level = "a iff b implies c or d and e = f union g intersect h + k * m ^ 2 * ("
        return "bool a;\nconstraint c { " + level * depth + "1" + ")" * depth + "; }\n"

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        model = parse(SourceUnit(nested(64)))
        with pytest.raises(ParseError) as info:
            parse(SourceUnit(nested(65)))
    finally:
        sys.setrecursionlimit(limit)
    assert len(model.elements) == 2
    assert info.value.diagnostics[0].message == "expression nested too deeply"


def test_operand_locations():
    # every operand form, each node at the (line, col) of its first token
    # (a binary operator at its operator, a chain at its last operator, a
    # folded sign at the sign)
    m = parse(SourceUnit(
        "int v in 1..n;\n"
        "constraint c { not b or x = 7 + a[1] + o.f + abs(x) + x^2 + -2^2 + -3; }\n",
        model_file="m.som",
    ))
    domain = m.elements[0].domain
    assert [(type(n).__name__, n.loc.line, n.loc.col) for n in (domain, domain.lo, domain.hi)] == [
        ("IntervalDomain", 1, 10), ("IntValue", 1, 10), ("VarOccurrence", 1, 13),
    ]
    (stmt,) = m.elements[1].body
    assert [(type(n).__name__, print_expression(n), n.loc.line, n.loc.col)
            for n in ir.walk_expr(stmt.expr)] == [
        ("VarOccurrence", "b", 2, 20),
        ("BoolUnaryOp", "not b", 2, 16),
        ("VarOccurrence", "x", 2, 25),
        ("IntValue", "7", 2, 29),
        ("IntValue", "1", 2, 35),
        ("VarOccurrence", "a[1]", 2, 33),
        ("VarOccurrence", "o", 2, 40),
        ("VarOccurrence", "f", 2, 42),
        ("ObjectOccurrence", "o.f", 2, 40),
        ("VarOccurrence", "x", 2, 50),
        ("AlgFunction", "abs(x)", 2, 46),
        ("VarOccurrence", "x", 2, 55),
        ("IntValue", "2", 2, 57),
        ("AlgBinaryOp", "x ^ 2", 2, 56),
        ("IntValue", "2", 2, 62),
        ("IntValue", "2", 2, 64),
        ("AlgBinaryOp", "2 ^ 2", 2, 63),
        ("AlgUnaryOp", "-2 ^ 2", 2, 61),
        ("IntValue", "-3", 2, 68),
        ("AlgChain", "7 + a[1] + o.f + abs(x) + x ^ 2 + -2 ^ 2 + -3", 2, 66),
        ("BoolBinaryOp", "x = 7 + a[1] + o.f + abs(x) + x ^ 2 + -2 ^ 2 + -3", 2, 27),
        ("BoolChain", "not b or x = 7 + a[1] + o.f + abs(x) + x ^ 2 + -2 ^ 2 + -3", 2, 22),
    ]
    with pytest.raises(ParseError) as info:
        parse(SourceUnit("int x;\nconstraint c { x = 1 + frob(x); }\n", model_file="m.som"))
    assert [str(d) for d in info.value.diagnostics] == [
        "m.som:2:24: error: unknown function 'frob'"
    ]


# --------------------------------------------------------------------------
# Every node's Loc, checked against the source text without the lexer: the
# line loc.line, from column loc.col on, starts with the node's first token.

_DIGITS = tuple("0123456789")


def _leading(node) -> tuple[str, ...]:
    """The texts the first token of node's whole span may have."""
    if isinstance(node, (ir.AlgBinaryOp, ir.BoolBinaryOp, ir.SetBinaryOp)):
        return _leading(node.left)
    if isinstance(node, (ir.AlgChain, ir.BoolChain)):
        return _leading(node.terms[0])
    return _first_tokens(node)


def _first_tokens(node) -> tuple[str, ...]:
    """The texts the token at node.loc may have."""
    t = type(node)
    if t is ir.VarOccurrence:
        return (node.name,)
    if t is ir.ObjectOccurrence:
        return (node.path[0].name,)
    if t in (ir.IntValue, ir.RealValue):  # a sign folded into the literal starts it
        return ("-",) if node.v < 0 else ("+",) + _DIGITS
    if t is ir.BoolValue:
        return ("true" if node.value else "false",)
    if t in (ir.AlgBinaryOp, ir.BoolBinaryOp, ir.SetBinaryOp, ir.BoolChain):
        return (node.op,)
    if t is ir.AlgChain:  # at its last operator
        return (node.ops[-1],)
    if t is ir.AlgUnaryOp:
        return ("-" if node.op == "neg" else "+",)
    fixed = {ir.BoolUnaryOp: "not", ir.SetValue: "{", ir.SetFunction: "card", ir.ForAll: "forall",
             ir.If: "if", ir.ConstraintZone: "constraint", ir.Class: "class", ir.Enumeration: "enum",
             ir.SetDomain: "{"}
    if t in fixed:
        return (fixed[t],)
    if t is ir.AlgFunction:
        return (node.fn,)
    if t is ir.GlobalCtr:
        return (node.ctr_name,)
    if t in (ir.Variable, ir.Constant):
        return (node.type_name,)
    # a statement or a domain starts where its first expression does, or at
    # the brackets around it
    return ("(",) + _leading({ir.ExpressionConstraint: lambda n: n.expr,
                              ir.IntervalDomain: lambda n: n.lo,
                              ir.ExprDomain: lambda n: n.expr}[t](node))


def _check_locations(model: ir.Model, texts: dict[str, str]) -> int:
    lines = {file: text.split("\n") for file, text in texts.items()}
    checked = 0
    for node in ir.walk_expr(model):
        if node.loc is None:
            continue
        rest = lines[node.loc.file][node.loc.line - 1][node.loc.col - 1:]
        assert rest.startswith(_first_tokens(node)), (node, node.loc, rest)
        checked += 1
    return checked


def _unit_texts(unit: SourceUnit) -> dict[str, str]:
    texts = {unit.model_file: unit.model_text}
    if unit.data_text is not None:
        texts[unit.data_file] = unit.data_text
    return texts


@pytest.mark.parametrize("model_name,data_name", ALL_FIXTURES + [("wide_classes.som", None)])
def test_every_fixture_node_starts_at_its_loc(model_name, data_name):
    unit = load_unit(model_name, data_name)
    assert _check_locations(parse(unit), _unit_texts(unit)) > 30


def test_every_generated_node_starts_at_its_loc():
    rng = random.Random(11)
    for _ in range(40):
        unit = SourceUnit(print_pivot(gen_model(rng)))
        _check_locations(parse(unit), _unit_texts(unit))
    unit = SourceUnit(wide_source(rng), model_file="wide.som")
    assert _check_locations(parse(unit), _unit_texts(unit)) > 500


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_locations_with_tabs_and_line_ends(newline):
    text = newline.join([
        "model M;", "\tint x in 1..3;", "int y in\t1..3;",
        "constraint c {", "\tx\t<= y; // a comment", "}", "",
    ])
    m = parse(SourceUnit(text))
    x, y, zone = m.elements
    assert [x.loc[:2], y.domain.loc[:2], zone.loc[:2]] == [(2, 2), (3, 10), (4, 1)]
    (stmt,) = zone.body
    assert [(n.loc.line, n.loc.col) for n in (stmt, stmt.expr, stmt.expr.right)] == [
        (5, 2), (5, 4), (5, 7)
    ]
    assert _check_locations(m, {"<model>": text}) == 13


def test_lexer_token_boundaries():
    # a real needs a digit after its '.' or its exponent sign (the pinned
    # diagnostics hold 1.e5 and 2e+); with one, the literal is whole
    assert parse_expression("2e+3") == ir.RealValue(2000.0)
    assert parse_expression("2.5e-1") == ir.RealValue(0.25)
    # a keyword is a whole word: identifiers may start with one
    m = parse(SourceUnit("int intx in 1..3;\nint inside in 1..3;\nconstraint c { intx <= inside; }\n"))
    assert [e.name for e in m.elements] == ["intx", "inside", "c"]
    assert m.elements[2].body[0].expr == ir.BoolBinaryOp(
        "<=", ir.VarOccurrence("intx"), ir.VarOccurrence("inside")
    )
