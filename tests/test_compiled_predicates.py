"""The compiled WHERE against a small reference evaluator.

``compile_predicate`` is the only predicate evaluator the engine has, so
it is checked here against an oracle written from the query model's
rules: existential semantics over fan-out values, equality that never
equates an OID with an int or a bool with an int, orderings that are
false on None and on incomparable types, SQL LIKE, and AND/OR/NOT.
"""

import re
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.query.algebra import compile_predicate
from repro.query.ast import And, Comparison, Const, Not, Or, Path

# -- the oracle ----------------------------------------------------------------


def oracle_equal(candidate, literal):
    if isinstance(candidate, OID) or isinstance(literal, OID):
        return (
            isinstance(candidate, OID)
            and isinstance(literal, OID)
            and candidate.value == literal.value
        )
    if isinstance(candidate, bool) or isinstance(literal, bool):
        return isinstance(candidate, bool) and isinstance(literal, bool) and candidate == literal
    return candidate == literal


def oracle_like(candidate, pattern):
    if not isinstance(candidate, str) or not isinstance(pattern, str):
        return False
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
    )
    return re.fullmatch(regex, candidate, re.DOTALL) is not None


def oracle_compare(op, candidate, literal):
    if op in ("=", "contains"):
        return oracle_equal(candidate, literal)
    if op == "!=":
        return not oracle_equal(candidate, literal)
    if op == "in":
        return any(oracle_equal(candidate, item) for item in literal)
    if op == "like":
        return oracle_like(candidate, literal)
    if candidate is None or literal is None:
        return False
    try:
        return {
            "<": candidate < literal,
            "<=": candidate <= literal,
            ">": candidate > literal,
            ">=": candidate >= literal,
        }[op]
    except TypeError:
        return False


def oracle_values(state, steps, objects):
    """Every terminal value of a path, fanning out over lists and
    following OIDs (dangling ones contribute nothing)."""
    value = state.values.get(steps[0])
    elements = value if isinstance(value, list) else [value]
    if len(steps) == 1:
        return elements
    out = []
    for element in elements:
        if isinstance(element, OID) and element.value in objects:
            out.extend(oracle_values(objects[element.value], steps[1:], objects))
    return out


def oracle(expr, state, objects):
    if isinstance(expr, Comparison):
        return any(
            oracle_compare(expr.op, value, expr.const.value)
            for value in oracle_values(state, expr.path.steps, objects)
        )
    if isinstance(expr, And):
        return all(oracle(op, state, objects) for op in expr.operands)
    if isinstance(expr, Or):
        return any(oracle(op, state, objects) for op in expr.operands)
    assert isinstance(expr, Not)
    return not oracle(expr.operand, state, objects)


# -- generated rows and expressions --------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.0, 2.5, -1.5]),
    st.sampled_from(["", "a", "ab", "ba", "abc", "a%b", "x_y"]),
    st.builds(OID, st.integers(1, 4)),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3))
literals = st.one_of(scalars, st.sampled_from(["a%", "%b", "_b", "%", "a_c", "%a%"]))
PATHS = [("x",), ("y",), ("ref", "x"), ("refs", "y"), ("ref", "refs", "x")]


@st.composite
def rows(draw):
    """A row (OID 1) and its neighbours (OIDs 2-4; 5 dangles)."""
    objects = {}
    for number in range(1, 5):
        objects[number] = ObjectState(
            OID(number),
            "T",
            {
                "x": draw(values),
                "y": draw(values),
                "ref": OID(draw(st.integers(1, 5))),
                "refs": [OID(n) for n in draw(st.lists(st.integers(1, 5), max_size=3))],
            },
        )
    return objects


def comparison(op, path, literal):
    if op == "in":
        literal = literal if isinstance(literal, list) else [literal]
    return Comparison(op, Path(path), Const(literal))


comparisons = st.builds(
    comparison,
    st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "like", "in", "contains"]),
    st.sampled_from(PATHS),
    st.one_of(literals, st.lists(scalars, max_size=3)),
)
expressions = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.builds(And, st.lists(inner, min_size=2, max_size=3)),
        st.builds(Or, st.lists(inner, min_size=2, max_size=3)),
        st.builds(Not, inner),
    ),
    max_leaves=6,
)


def kernel_over(objects):
    return SimpleNamespace(
        deref=lambda oid: objects.get(oid.value), send=None, adt_eval=None
    )


class TestCompiledPredicate:
    @given(expr=expressions, objects=rows())
    @settings(max_examples=250, deadline=None)
    def test_matches_the_oracle(self, expr, objects):
        predicate = compile_predicate(expr)
        state = objects[1]
        assert bool(predicate(state, kernel_over(objects))) == oracle(expr, state, objects)

    @given(op=st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "like", "contains"]),
           candidate=values, literal=literals)
    @settings(max_examples=400, deadline=None)
    def test_single_attribute_comparisons(self, op, candidate, literal):
        state = ObjectState(OID(1), "T", {"x": candidate})
        expr = Comparison(op, Path(("x",)), Const(literal))
        assert bool(compile_predicate(expr)(state, kernel_over({}))) == oracle(
            expr, state, {}
        )

    def test_typing_rules(self):
        def matches(op, candidate, literal):
            state = ObjectState(OID(1), "T", {"x": candidate})
            expr = Comparison(op, Path(("x",)), Const(literal))
            return compile_predicate(expr)(state, kernel_over({}))

        assert not matches("=", OID(3), 3)
        assert not matches("=", 3, OID(3))
        assert matches("=", OID(3), OID(3))
        assert not matches("=", True, 1)
        assert not matches("=", 1, True)
        assert matches("=", 1, 1.0)
        assert not matches("<", None, 5)
        assert not matches(">", 5, None)
        assert not matches("<", "abc", 5)  # TypeError -> false
        assert not matches("<", OID(1), 5)
        assert matches("!=", None, 5)
        assert matches("=", None, None)
        assert matches("in", "b", ["a", "b"])
        assert not matches("in", 1, [True])
        assert matches("like", "a.c", "a_c")
        assert not matches("like", "abc", "a")
        assert not matches("like", 5, "5%")

    def test_existential_fan_out(self):
        objects = {
            1: ObjectState(OID(1), "T", {"refs": [OID(2), OID(3), OID(9)], "xs": [1, 5]}),
            2: ObjectState(OID(2), "T", {"x": 10}),
            3: ObjectState(OID(3), "T", {"x": 20}),
        }
        kernel = kernel_over(objects)

        def holds(op, path, literal):
            expr = Comparison(op, Path(path), Const(literal))
            return compile_predicate(expr)(objects[1], kernel)

        assert holds("=", ("refs", "x"), 20)
        assert holds(">", ("xs",), 4)
        assert holds("contains", ("xs",), 5)
        assert not holds(">", ("refs", "x"), 20)
        assert holds("!=", ("xs",), 1)  # some element differs
        assert not holds("=", ("missing", "x"), None)
