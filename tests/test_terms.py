import pytest

from fta import (
    ArityMismatchError,
    InvalidPositionError,
    Node,
    Position,
    PositionSet,
    ROOT,
    Signature,
    StateLeaf,
    TermSyntaxError,
    UnknownSymbolError,
    Var,
    depth,
    ind_positions,
    independent,
    is_prefix_closed,
    is_prefix_determined,
    node_count,
    parse_term,
    positions,
    render_term,
    replace_at,
    substitute,
    subterm_at,
    variables,
)

from conftest import P, PS, SAMPLE_TERM

ALL_POSITIONS = PS(
    "ε", "1", "2", "1.1", "1.1.1", "1.1.2", "2.1", "2.1.1", "2.1.1.1",
    "2.1.1.2", "2.1.1.2.1", "2.1.1.2.2", "2.2", "2.2.1", "2.2.1.1", "2.2.1.2",
)


class TestSignature:
    def test_constants_in_declaration_order(self, sig):
        assert sig.constants == ("0", "1")
        assert sig.arity("f1") == 2
        assert sig.arity("nope") is None

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Signature((("a", 0), ("a", 1)))

    def test_rejects_variable_shaped_names(self):
        with pytest.raises(ValueError):
            Signature((("x1", 0),))

    def test_requires_a_constant(self):
        with pytest.raises(ValueError):
            Signature((("g", 1),))


class TestParseRender:
    def test_sample_round_trip(self, sig, term):
        assert render_term(term) == SAMPLE_TERM
        assert parse_term(render_term(term), sig) == term

    def test_single_constant(self, sig):
        assert parse_term("0", sig) == Node("0")

    def test_variable_and_unary(self, sig):
        assert render_term(Var(1)) == "x1"
        assert render_term(Node("g", (Var(2),))) == "g(x2)"
        assert parse_term("  g ( x2 )  ", sig) == Node("g", (Var(2),))

    def test_comments_and_whitespace(self, sig):
        text = "f1( x1,  # first argument\n    0 )  # done"
        assert parse_term(text, sig) == Node("f1", (Var(1), Node("0")))

    def test_arity_mismatch_reports_offset(self, sig):
        with pytest.raises(ArityMismatchError) as exc:
            parse_term("f1(x1)", sig)
        assert exc.value.offset == 0

    def test_unknown_symbol(self, sig):
        with pytest.raises(UnknownSymbolError) as exc:
            parse_term("f1(x1,h(x2))", sig)
        assert exc.value.offset == 6

    def test_x0_is_not_a_variable(self, sig):
        with pytest.raises(UnknownSymbolError):
            parse_term("x0", sig)

    def test_trailing_garbage(self, sig):
        with pytest.raises(TermSyntaxError):
            parse_term("x1 x2", sig)

    def test_constant_with_arguments(self, sig):
        with pytest.raises(ArityMismatchError):
            parse_term("0(x1)", sig)

    def test_state_leaves_only_when_allowed(self, sig):
        with pytest.raises(TermSyntaxError):
            parse_term("f1(x1,@q0)", sig)
        t = parse_term("f1(x1,@q0)", sig, allow_state_leaves=True)
        assert t == Node("f1", (Var(1), StateLeaf("q0")))
        assert render_term(t) == "f1(x1,@q0)"


def test_deep_chain_without_recursion_limit(sig):
    levels = 3000
    text = "g(" * levels + "f1(x1,x2)" + ")" * levels
    t = parse_term(text, sig)
    assert render_term(t) == text
    assert depth(t) == levels + 1
    deepest = Position([1] * levels + [2])
    assert subterm_at(replace_at(t, deepest, Var(3)), deepest) == Var(3)
    assert variables(substitute(t, {2: Var(3)})) == {1, 3}
    same = parse_term(text, sig)
    assert t == same and hash(t) == hash(same)
    assert t != parse_term(text.replace("x2", "x3"), sig)
    assert repr(t).endswith(f"{text}>")


class TestPosition:
    def test_parse_root_spellings(self):
        assert P("") == ROOT
        assert P("e") == ROOT
        assert P("ε") == ROOT
        assert str(ROOT) == "ε"

    def test_parse_render(self):
        assert str(P("2.1.1")) == "2.1.1"
        assert P("2.1.1").indices == (2, 1, 1)

    def test_bad_positions(self):
        for text in ("0", "1.0", "a", "1..2", "-1"):
            with pytest.raises(InvalidPositionError):
                Position.parse(text)

    def test_prefix_relation(self):
        assert ROOT.is_prefix_of(P("1.1"))
        assert P("1").is_prefix_of(P("1.1"))
        assert not P("1.1").is_prefix_of(P("1"))
        assert P("1").is_prefix_of(P("1"))

    def test_parent_and_suffix(self):
        assert P("2.1").parent() == P("2")
        with pytest.raises(InvalidPositionError):
            ROOT.parent()
        assert P("2.1.1").suffix_after(P("2")) == P("1.1")


class TestPositionSet:
    def test_iteration_is_length_then_lexicographic(self):
        ps = PositionSet(PS("2.1", "1", "ε", "1.1", "2", "1.2"))
        assert [str(p) for p in ps] == ["ε", "1", "2", "1.1", "1.2", "2.1"]

    def test_equality_and_membership(self):
        a = PositionSet(PS("1", "2"))
        assert a == PS("1", "2") == PositionSet(PS("2", "1"))
        assert a != PositionSet(PS("2", "3"))
        assert P("1") in a and P("3") not in a


class TestPositions:
    def test_sample_positions_exact(self, term):
        assert positions(term) == ALL_POSITIONS
        assert len(positions(term)) == 16 == node_count(term)

    def test_leaf_and_unary(self, sig):
        assert positions(Var(1)) == {ROOT}
        assert positions(Node("g", (Var(1),))) == PS("ε", "1")

    def test_prefix_closed(self, term):
        assert is_prefix_closed(positions(term))


class TestSubterm:
    def test_sample_subterms(self, sig, term):
        assert subterm_at(term, P("1")) == parse_term("g(f1(x1,x2))", sig)
        assert subterm_at(term, P("2.1")) == parse_term("g(f1(x3,f1(x4,x3)))", sig)
        assert subterm_at(term, ROOT) == term

    def test_invalid_position(self, term):
        with pytest.raises(InvalidPositionError):
            subterm_at(term, P("3"))
        with pytest.raises(InvalidPositionError):
            subterm_at(term, P("1.1.1.1"))

    def test_replace_at(self, sig, term):
        swapped = replace_at(term, P("2.1"), Node("1"))
        assert subterm_at(swapped, P("2.1")) == Node("1")
        assert subterm_at(swapped, P("1")) == subterm_at(term, P("1"))
        assert node_count(swapped) == 16 - 6 + 1

    def test_subterm_prefix_correspondence(self, term):
        # positions below q are exactly q-prefixed positions of the whole term
        q = P("2.1")
        below = {p for p in positions(term) if q.is_prefix_of(p)}
        assert {Position(q.indices + r.indices) for r in positions(subterm_at(term, q))} == below


class TestDepthVars:
    def test_depth(self, sig, term):
        assert depth(Var(3)) == 0
        assert depth(Node("0")) == 0
        assert depth(parse_term("g(f1(x1,x2))", sig)) == 2
        assert depth(term) == 5

    def test_depth_inequality(self, term):
        for p in positions(term):
            assert depth(subterm_at(term, p)) + len(p) <= depth(term)
        assert any(
            depth(subterm_at(term, p)) + len(p) == depth(term) for p in positions(term)
        )

    def test_variables(self, sig, term):
        assert variables(term) == {1, 2, 3, 4}
        assert variables(parse_term("f1(0,1)", sig)) == frozenset()
        assert variables(subterm_at(term, P("2.1"))) == {3, 4}


class TestSubstitute:
    def test_ground_images(self, sig):
        t = parse_term("f1(x1,x2)", sig)
        out = substitute(t, {1: Node("0"), 2: Node("1")})
        assert out == parse_term("f1(0,1)", sig)

    def test_empty_binding_is_identity(self, term):
        assert substitute(term, {}) is term or substitute(term, {}) == term

    def test_simultaneous_on_repeated_variable(self, sig):
        t = parse_term("f1(x1,x1)", sig)
        out = substitute(t, {1: parse_term("g(x2)", sig)})
        assert out == parse_term("f1(g(x2),g(x2))", sig)

    def test_images_not_resubstituted(self, sig):
        t = parse_term("f1(x1,x2)", sig)
        out = substitute(t, {1: Var(2), 2: Var(1)})
        assert out == parse_term("f1(x2,x1)", sig)


class TestIndependence:
    def test_examples(self):
        assert independent(P("1"), P("2"))
        assert not independent(ROOT, P("1.1"))
        assert independent(P("2"), P("1.1.1"))

    def test_symmetric_irreflexive(self, term):
        pos = list(positions(term))
        for p in pos:
            assert not independent(p, p)
            for q in pos:
                assert independent(p, q) == independent(q, p)

    def test_ind_positions_sample(self, term):
        assert ind_positions(term, P("2")) == PS("1", "1.1", "1.1.1", "1.1.2")
        assert ind_positions(term, ROOT) == set()
        assert ind_positions(term, P("1.1.1")) == PS(
            "1.1.2", "2", "2.1", "2.1.1", "2.1.1.1", "2.1.1.2",
            "2.1.1.2.1", "2.1.1.2.2", "2.2", "2.2.1", "2.2.1.1", "2.2.1.2",
        )

    def test_ind_positions_requires_membership(self, term):
        with pytest.raises(InvalidPositionError):
            ind_positions(term, P("7"))


class TestPrefixPredicates:
    def test_prefix_closed(self):
        assert is_prefix_closed(PS("ε", "1", "2"))
        assert not is_prefix_closed(PS("1.1"))
        assert is_prefix_closed(set())

    def test_prefix_determined(self, term):
        assert is_prefix_determined(ind_positions(term, P("2")), positions(term))
        assert not is_prefix_determined(PS("ε"), PS("ε", "1"))
        assert is_prefix_determined(set(), positions(term))
        # ``qs`` need not be prefix closed, nor ``ps`` a subset of it
        assert not is_prefix_determined(PS("1"), PS("1.1"))
        assert not is_prefix_determined(PS("ε"), PS("2.2"))
        assert is_prefix_determined(PS("1", "1.1"), PS("1.1", "2"))
        assert is_prefix_determined(PS("3", "2.2.1"), PS("2.2", "1"))

    def test_every_ind_set_is_prefix_determined(self, term):
        for p in positions(term):
            assert is_prefix_determined(ind_positions(term, p), positions(term))

