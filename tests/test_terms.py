import copy
import pickle
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

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
    ind_positions,
    node_count,
    parse_term,
    positions,
    render_term,
    replace_at,
    substitute,
    subterm_at,
    variables,
)

from fta.terms import _TOKEN_RE, _tokens, compile_term

from conftest import (P, PS, SAMPLE_TERM, assert_names_and_order, depth, is_prefix,
                      prefix_closed, prefix_determined_by_definition)

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


SYNTAX_ERRORS = [
    # (text, allow_state_leaves, exception class, message, byte offset)
    ("", False, TermSyntaxError, "empty input", 0),
    ("  # only a comment\n", False, TermSyntaxError, "empty input", 0),
    ("f1(x1,", False, TermSyntaxError, "expected a term, found end of input", 6),
    ("g(x1", True, TermSyntaxError, "expected ',' or ')', found end of input", 4),
    ("f1(@, x1)", True, TermSyntaxError, "'@' must be followed by a state name", 3),
    ("g(@q0)", False, TermSyntaxError, "state leaf @q0 not allowed here", 2),
    ("g()", False, TermSyntaxError, "expected a term, found ')'", 2),
    (",", False, TermSyntaxError, "expected a term, found ','", 0),
    ("g(x1 x2)", False, TermSyntaxError, "expected ',' or ')', found 'x2'", 5),
    ("f1(x1)", False, ArityMismatchError, "f1 expects 2 arguments, got 1", 0),
    ("g(x1,x2)", False, ArityMismatchError, "g expects 1 arguments, got 2", 0),
    ("g x1", False, ArityMismatchError, "g expects 1 arguments", 0),
    ("0(x1)", False, ArityMismatchError, "0 is a constant and takes no arguments", 0),
    ("h(x1)", False, UnknownSymbolError, "unknown symbol 'h'", 0),
    ("x1 x2", False, TermSyntaxError, "unexpected trailing input 'x2'", 3),
    # a misplaced state leaf is named with its '@'
    ("g(x1 @q0)", True, TermSyntaxError, "expected ',' or ')', found '@q0'", 5),
    ("x1 @q0", True, TermSyntaxError, "unexpected trailing input '@q0'", 3),
    ("x1)", False, TermSyntaxError, "unexpected trailing input ')'", 2),
    # the whole text is tokenized first, so a lexical error wins
    ("f1(x1) $", False, TermSyntaxError, "unexpected character '$'", 7),
    # offsets count UTF-8 bytes, not characters
    ("f1(x1,é)", False, UnknownSymbolError, "unknown symbol 'é'", 6),
    ("# é²\nx1 )", False, TermSyntaxError, "unexpected trailing input ')'", 10),
    ("f1(x1, # é\n", False, TermSyntaxError, "expected a term, found end of input", 12),
    ("f2(x1,1) # ²\n€", False, TermSyntaxError, "unexpected character '€'", 14),
    # a byte that was not UTF-8 on the command line arrives as a lone
    # surrogate and counts as that byte; any other lone surrogate as three
    ("g( #\udcff", False, TermSyntaxError, "expected a term, found end of input", 5),
    ("# \ud800\n)", False, TermSyntaxError, "expected a term, found ')'", 6),
]


@pytest.mark.parametrize("text, allow, cls, message, offset", SYNTAX_ERRORS)
def test_each_syntax_error_pins_message_and_offset(sig, text, allow, cls, message, offset):
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(text, sig, allow_state_leaves=allow)
    assert type(exc.value) is cls
    assert str(exc.value) == f"{message} (byte {offset})"
    assert exc.value.offset == offset


@given(st.text(st.sampled_from("x1_zZ09(),@# \t\n\r\x0b\x0c\x1c\x85é²+"), max_size=30))
@example("f1(x1 ,\n0)")
@example("f1(x1@q,0)")
def test_split_tokens_are_the_scanned_ones(text):
    """A text of ASCII name characters, punctuation and ASCII whitespace
    is split by string methods; every text gets the scan's tokens."""
    assert _tokens(text) == [tok for tok in _TOKEN_RE.findall(text) if tok]


def test_tokenizer_classes_agree_with_str_methods_on_every_code_point():
    """The token scan's name characters are those for which
    ``str.isalnum()`` holds, and ``_``; the characters it skips between
    tokens are those for which ``str.isspace()`` holds."""
    chars = "".join(map(chr, range(sys.maxunicode + 1))).replace("#", "")  # no comment
    # each character right after an '@': a state token iff it is a name character
    names = [tok[1:] for tok in _TOKEN_RE.findall("@" + "@".join(chars)) if len(tok) == 2]
    assert names == [c for c in chars if c.isalnum() or c == "_"]
    assert "".join(_TOKEN_RE.findall(chars)) == "".join([c for c in chars if not c.isspace()])


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
        assert repr(P("2.1.1")) == "Position(2.1.1)" and repr(ROOT) == "Position(ε)"

    def test_bad_positions(self):
        for text in ("0", "1.0", "a", "1..2", "-1", "²", "1.²"):
            with pytest.raises(InvalidPositionError):
                Position.parse(text)


class TestPositionSet:
    def test_iteration_is_length_then_lexicographic(self):
        ps = PositionSet(PS("2.1", "1", "ε", "1.1", "2", "1.2"))
        assert [str(p) for p in ps] == ["ε", "1", "2", "1.1", "1.2", "2.1"]

    def test_equality_and_membership(self):
        a = PositionSet(PS("1", "2"))
        assert a == PS("1", "2") == PositionSet(PS("2", "1"))
        assert a != PositionSet(PS("2", "3"))
        assert P("1") in a and P("3") not in a

    @given(st.lists(st.lists(st.integers(1, 3), max_size=3).map(Position), max_size=12))
    def test_is_the_frozenset_of_its_items_in_order(self, xs):
        ps = PositionSet(xs)
        assert ps == frozenset(xs) and hash(ps) == hash(frozenset(xs))
        assert list(ps) == sorted(set(xs), key=lambda p: p.order_key)

    def test_repr(self):
        assert repr(PositionSet([P("2.1"), P("1"), P("ε"), P("1")])) == "{ε, 1, 2.1}"
        assert repr(PositionSet()) == "{}"

    def test_sets_made_from_node_ids(self, term):
        compiled = compile_term(term)
        for keep in (None, lambda i: i % 3 != 1, lambda i: False):
            made = compiled.position_set(keep)
            xs = [p for i, p in enumerate(compiled.positions) if keep is None or keep(i)]
            assert made == frozenset(xs) and hash(made) == hash(frozenset(xs))
            assert list(made) == sorted(xs, key=lambda p: p.order_key)
            assert repr(made) == repr(PositionSet(reversed(xs)))

    def test_attributes_cannot_be_set(self):
        ps = PositionSet(PS("2", "1"))
        for name in ("_sorted", "other"):
            with pytest.raises(AttributeError):
                setattr(ps, name, ())
        assert list(ps) == [P("1"), P("2")]

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda ps: pickle.loads(pickle.dumps(ps)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_type_order_and_immutability(self, clone):
        ps = PositionSet(PS("2.1", "1", "ε", "1.1"))
        made = clone(ps)
        assert type(made) is PositionSet and made == ps and hash(made) == hash(ps)
        assert list(made) == list(ps) == [P("ε"), P("1"), P("1.1"), P("2.1")]
        with pytest.raises(AttributeError):
            made.other = ()

    def test_set_operations_give_plain_frozensets(self):
        a, b = PositionSet(PS("1", "2")), PositionSet(PS("2", "3"))
        assert type(a | b) is type(a & b) is type(a - b) is frozenset
        assert (a | b, a & b, a - b) == (PS("1", "2", "3"), PS("2"), PS("1"))


class TestPositions:
    def test_sample_positions_exact(self, term):
        assert positions(term) == ALL_POSITIONS
        assert len(positions(term)) == 16 == node_count(term)

    def test_leaf_and_unary(self, sig):
        assert positions(Var(1)) == {ROOT}
        assert positions(Node("g", (Var(1),))) == PS("ε", "1")

    def test_prefix_closed(self, term):
        assert prefix_closed(positions(term))


class TestNames:
    def test_sample(self, term):
        assert_names_and_order(term)
        assert compile_term(term).names[-3:] == ("2.2", "2", "ε")

    def test_deep_chain(self, sig):
        levels = 3000
        assert_names_and_order(parse_term("g(" * levels + "f1(x1,x2)" + ")" * levels, sig))


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
        below = {p for p in positions(term) if is_prefix(q, p)}
        assert {Position(q.indices + r.indices) for r in positions(subterm_at(term, q))} == below


def walked(t):
    """``t`` rendered by a walk of its tree: an equal term that no parse
    made keeps no text."""
    return render_term(substitute(t, {}))


class TestKeptText:
    def test_parsed_term_keeps_its_canonical_text(self, sig):
        text = "f1( x1 , # first\n  @q0 )  # done\n"
        t = parse_term(text, sig, allow_state_leaves=True)
        assert render_term(t) == walked(t) == "f1(x1,@q0)"
        assert t.__dict__["_text"] == "f1(x1,@q0)"

    @pytest.mark.parametrize("text", ["x7", " 0 ", "@q1", "g(\n@q0)"])
    def test_leaf_and_small_terms(self, sig, text):
        t = parse_term(text, sig, allow_state_leaves=True)
        assert render_term(t) == walked(t) == "".join(text.split())

    def test_other_terms_are_walked(self, sig, term):
        assert "_text" not in subterm_at(term, P("2.1")).__dict__
        assert render_term(subterm_at(term, P("2.1"))) == "g(f1(x3,f1(x4,x3)))"
        assert render_term(replace_at(term, P("2"), Var(5))) == "f1(g(f1(x1,x2)),x5)"


class TestVariables:
    def test_variables(self, sig, term):
        assert variables(term) == {1, 2, 3, 4}
        assert variables(parse_term("f1(0,1)", sig)) == frozenset()
        assert variables(subterm_at(term, P("2.1"))) == {3, 4}

    def test_variables_at_shares_sets(self, sig):
        term = compile_term(parse_term("f1(g(g(f2(x1,x2))),f1(x1,x1))", sig))
        sets = term.variables_at
        # x1's leaves share one set; g and the f1 over x1, x1 reuse a child's
        assert sets[0] is sets[5] is sets[6] is sets[7]
        assert sets[2] is sets[3] is sets[4]
        assert sets[8] is sets[2]  # the root adds nothing to its first child


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


def independent(p, q):
    """By definition: neither position is a prefix of the other."""
    return not (is_prefix(p, q) or is_prefix(q, p))


class TestIndependence:
    def test_examples(self, term):
        compiled = compile_term(term)

        def ids_independent(p, q):
            return compiled.independent(compiled.node_at(p), compiled.node_at(q))

        assert ids_independent(P("1"), P("2"))
        assert not ids_independent(ROOT, P("1.1"))
        assert ids_independent(P("2"), P("1.1.1"))

    def test_node_at_walks_to_each_node(self, sig, term):
        compiled = compile_term(term)
        for i, p in enumerate(compiled.positions):
            assert compiled.node_at(p) == i
        for missing in ("3", "1.1.1.1", "2.1.1.2.2.1"):
            with pytest.raises(InvalidPositionError, match=f"^{missing} is not a position of"):
                compiled.node_at(P(missing))
        fresh = compile_term(parse_term(SAMPLE_TERM, sig))
        assert fresh.node_at(P("2.2.1")) == compiled.node_at(P("2.2.1"))
        assert "positions" not in vars(fresh)  # no table is built for one lookup

    def test_position_of_walks_to_each_node(self, sig, term):
        fresh = compile_term(parse_term(SAMPLE_TERM, sig))
        found = [fresh.position_of(i) for i in range(len(fresh.kinds))]
        assert "positions" not in vars(fresh)  # no table is built for the lookups
        assert found == list(compile_term(term).positions)

    def test_symmetric_irreflexive(self, term):
        compiled = compile_term(term)
        pos = compiled.positions
        for i, p in enumerate(pos):
            assert not compiled.independent(i, i)
            for j, q in enumerate(pos):
                assert compiled.independent(i, j) == compiled.independent(j, i)
                assert compiled.independent(i, j) == independent(p, q)

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
    def test_every_ind_set_is_prefix_determined(self, term):
        for p in positions(term):
            assert prefix_determined_by_definition(ind_positions(term, p), positions(term))

