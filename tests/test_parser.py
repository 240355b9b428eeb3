import sys

import pytest

from pivotc import ir
from pivotc.errors import ParseError
from pivotc.parser import SourceUnit, parse, parse_expression


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
    assert parse_expression("1+2*3") == ir.AlgBinaryOp(
        "+", ir.IntValue(1), ir.AlgBinaryOp("*", ir.IntValue(2), ir.IntValue(3))
    )


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
    assert parse_expression("1 - -3") == ir.AlgBinaryOp("-", ir.IntValue(1), ir.IntValue(-3))
    assert parse_expression("-(3)") == ir.AlgUnaryOp("neg", ir.IntValue(3))


def test_navigation_path():
    e = parse_expression("weekSched[w1].groupSched[g1].players")
    assert isinstance(e, ir.ObjectOccurrence)
    assert [s.name for s in e.path] == ["weekSched", "groupSched", "players"]
    assert e.path[0].indexes == (ir.VarOccurrence("w1"),)
    assert e.path[2].indexes == ()


def test_set_literal_and_bool_ops():
    e = parse_expression("not (x = 1) and true")
    assert isinstance(e, ir.BoolBinaryOp) and e.op == "and"
    assert isinstance(e.left, ir.BoolUnaryOp)
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
    "stray_char_after_tab": (
        "model M;\nint x in 1..3;\n\t@ constraint c { x = 1; }\n",
        [("unexpected character '@'", 3, 2)],
    ),
    # the end-of-input column is where a final comment starts
    "comment_at_eof": (
        "model M;\nint x in 1..3 // no semicolon",
        [("expected ';', found 'end of input'", 2, 15)],
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
    # set literals deepen without a check of their own
    "deep_sets_then_parentheses": (
        "int x;\nconstraint c { x = card("
        + "{" * 40 + "(" * 30 + "1" + ")" * 30 + "}" * 40 + "); }\n",
        [("expression nested too deeply", 2, 89)]
        + [("expected a declaration, found '}'", 2, col) for col in range(127, 146)],
    ),
    "deep_statements": (
        "int x;\nconstraint c {\n" + "forall(i in 1..2)\n" * DEEP + "x = 1;\n}\n",
        [("statements nested too deeply", 67, 1)],
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
])
def test_pinned_expression_diagnostics(text, expected):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert [(d.message, d.line, d.column) for d in info.value.diagnostics] == expected


def test_deepest_nesting_within_default_recursion_limit():
    # parenthesized levels that each pass through every binding power parse
    # without the raised process-wide recursion limit, up to the cap of 64
    def nested(depth):
        level = "a iff b implies c or d and e = f union g intersect h + k * m ^ ("
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
