import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from doxa import syntax
from doxa.oracle import enumerate_formulas
from doxa.syntax import (
    FI,
    IR,
    And,
    Atom,
    Bot,
    Box,
    Iff,
    Imp,
    LexError,
    Not,
    Or,
    ParseError,
    Top,
    W,
    atoms_of,
    children,
    measures,
    modal_depth,
    parse,
    print_formula,
    size,
    substitute,
)
from doxa.transform import w_to_ri


def test_parse_a1():
    assert parse("W p -> ~p") == Imp(W(Atom("p")), Not(Atom("p")))


def test_parse_atom():
    assert parse("p") == Atom("p")


def test_parse_a4_instance():
    got = parse("W q & W (p & q) -> W ((W r -> W (p & r)) & q)")
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    want = Imp(
        And(W(q), W(And(p, q))),
        W(And(Imp(W(r), W(And(p, r))), q)),
    )
    assert got == want


def test_parse_constants_and_box():
    assert parse("T") == Top()
    assert parse("F") == Bot()
    assert parse("B p") == Box(Atom("p"))
    assert parse("IR p") == IR(Atom("p"))
    assert parse("FI p") == FI(Atom("p"))


_p, _q, _r, _s = (Atom(name) for name in "pqrs")
_GROUPINGS = {
    "p & q & r": And(And(_p, _q), _r),
    "p & q | r": Or(And(_p, _q), _r),
    "p & q -> r": Imp(And(_p, _q), _r),
    "p & q <-> r": Iff(And(_p, _q), _r),
    "p | q & r": Or(_p, And(_q, _r)),
    "p | q | r": Or(Or(_p, _q), _r),
    "p | q -> r": Imp(Or(_p, _q), _r),
    "p | q <-> r": Iff(Or(_p, _q), _r),
    "p -> q & r": Imp(_p, And(_q, _r)),
    "p -> q | r": Imp(_p, Or(_q, _r)),
    "p -> q -> r": Imp(_p, Imp(_q, _r)),
    "p -> q <-> r": Iff(Imp(_p, _q), _r),
    "p <-> q & r": Iff(_p, And(_q, _r)),
    "p <-> q | r": Iff(_p, Or(_q, _r)),
    "p <-> q -> r": Iff(_p, Imp(_q, _r)),
    "p <-> q <-> r": Iff(_p, Iff(_q, _r)),
    "p -> q <-> r -> s": Iff(Imp(_p, _q), Imp(_r, _s)),
    "p -> q | r -> s": Imp(_p, Imp(Or(_q, _r), _s)),
}


def test_precedence():
    # unary > & > | > -> (right) > <->
    assert parse("~p & q") == And(Not(Atom("p")), Atom("q"))
    assert parse("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse("p -> q -> r") == Imp(Atom("p"), Imp(Atom("q"), Atom("r")))
    assert parse("p -> q <-> r") == Iff(Imp(Atom("p"), Atom("q")), Atom("r"))
    assert parse("p & q & r") == And(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse("~W p") == Not(W(Atom("p")))
    assert parse("W ~p") == W(Not(Atom("p")))
    # Every ordered pair of connectives, and two chains around a looser
    # one, against the README grammar; no parentheses, so printing the
    # AST must give the text back.
    for text, want in _GROUPINGS.items():
        assert parse(text) == want, text
        assert print_formula(want) == text


def test_print_examples():
    assert print_formula(W(Atom("p"))) == "W p"
    assert print_formula(Imp(W(Atom("p")), Not(Atom("p")))) == "W p -> ~p"
    assert print_formula(And(W(Atom("p")), W(Atom("q")))) == "W p & W q"


def test_lex_errors():
    with pytest.raises(LexError) as exc:
        parse("p $ q")
    assert exc.value.position == 2
    with pytest.raises(LexError):
        parse("Wp")  # reserved-prefix word, not an atom
    with pytest.raises(LexError):
        parse("IRp")
    # A non-ASCII letter is an unexpected character, not a word.
    for text, position in [("é", 0), ("pé -> pé", 1), ("p & ü", 4)]:
        with pytest.raises(LexError, match="unexpected character") as exc:
            parse(text)
        assert exc.value.position == position


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("p &")
    with pytest.raises(ParseError):
        parse("(p")
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError):
        parse("W")


@pytest.mark.parametrize(
    "text, error, message, position",
    [
        ("p $ q", LexError, "unexpected character '$'", 2),
        ("Wp", LexError, "invalid token 'Wp'", 0),
        ("IRp", LexError, "invalid token 'IRp'", 0),
        ("p &", ParseError, "expected a formula, found 'end of input'", 3),
        ("(p", ParseError, "expected ')', found 'end of input'", 2),
        ("p q", ParseError, "unexpected trailing input 'q'", 2),
        ("W", ParseError, "expected a formula, found 'end of input'", 1),
        (")", ParseError, "expected a formula, found ')'", 0),
        ("p <- q", LexError, "unexpected character '<'", 2),
        ("1p", LexError, "unexpected character '1'", 0),
        ("_p", LexError, "unexpected character '_'", 0),
        ("   ", ParseError, "empty input", 0),
    ],
)
def test_bad_input_errors(text, error, message, position):
    with pytest.raises(error) as exc:
        parse(text)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("P")
    with pytest.raises(ValueError):
        Atom("1p")
    Atom("p_1")  # fine


def test_substitute_examples():
    f = parse("W p -> ~p")
    assert substitute(f, {"p": parse("q & r")}) == parse("W (q & r) -> ~(q & r)")
    assert substitute(parse("p"), {}) == parse("p")
    assert substitute(parse("IR p & ~p"), {"p": parse("W q")}) == parse(
        "IR (W q) & ~W q"
    )


def test_children_rebuild_every_node_kind():
    p, q = Atom("p"), Atom("q")
    for leaf in (p, Top(), Bot()):
        assert children(leaf) == ()
    assert children(Imp(p, q)) == (p, q)
    for f in (Top(), Bot(), Not(p), W(p), Box(p), IR(p), FI(p), And(p, q), Or(p, q), Imp(p, q), Iff(p, q)):
        assert type(f)(*children(f)) == f


def test_substitute_is_simultaneous():
    f = parse("p & q")
    # p and q swap in one pass; sequential application would collapse them
    assert substitute(f, {"p": Atom("q"), "q": Atom("p")}) == parse("q & p")


def test_measures_examples():
    m = measures(parse("W p"))
    assert (m.modal_depth, m.atoms, m.size) == (1, frozenset({"p"}), 2)
    m = measures(parse("W ((W r -> W (p & r)) & q)"))
    assert m.modal_depth == 2
    assert m.atoms == frozenset({"p", "q", "r"})
    m = measures(parse("p & ~p"))
    assert m.modal_depth == 0


_atoms = st.sampled_from(["p", "q", "r", "s_1"])
_leaves = st.one_of(
    st.builds(Atom, _atoms), st.just(Top()), st.just(Bot())
)
formulas = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(W, kids),
        st.builds(Box, kids),
        st.builds(IR, kids),
        st.builds(FI, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Imp, kids, kids),
        st.builds(Iff, kids, kids),
    ),
    max_leaves=25,
)


@given(formulas)
def test_print_parse_roundtrip(f):
    assert parse(print_formula(f)) == f


@given(formulas)
def test_hash_is_structural(f):
    g = parse(print_formula(f))
    assert g is f and g == f and hash(g) == hash(f)
    assert len({f, g}) == 1
    assert Not(f) != W(f) and hash(Not(f)) == hash(Not(g))


@given(formulas)
def test_copies_are_the_node_itself(f):
    for copied in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert copied is f


def test_keyword_fields_and_rejected_atoms():
    p, q = Atom("p"), Atom("q")
    assert Atom(name="p") is p and And(right=q, left=p) is And(p, q)
    assert Top() is Top() and Not(p) is not W(p)
    for _ in range(2):  # an invalid name never enters the table
        with pytest.raises(ValueError, match="invalid atom name: 'W'"):
            Atom("W")
    assert (Atom, "W") not in syntax._NODES
    with pytest.raises(TypeError):
        Not()
    with pytest.raises(TypeError):
        Not(p, extra=q)


def test_every_producer_returns_the_constructed_node():
    p, q = Atom("p"), Atom("q")
    built = Imp(W(And(p, Not(q))), IR(p))
    assert parse("W (p & ~q) -> IR p") is built
    assert substitute(parse("W (r & ~q) -> IR r"), {"r": p}) is built
    assert w_to_ri(parse("W (p & ~q)")) is And(IR(And(p, Not(q))), Not(And(p, Not(q))))
    by_text = {print_formula(f): f for f in enumerate_formulas(("p", "q"), 1, 4)}
    assert by_text["W (p & q)"] is W(And(p, q)) and by_text["~~p"] is Not(Not(p))


@given(formulas)
def test_measures_bounds(f):
    m = measures(f)
    assert m.size >= 1
    assert 0 <= m.modal_depth < m.size
    assert m.atoms == atoms_of(f)


def test_print_injective_on_corpus():
    corpus = enumerate_formulas(("p", "q"), 2, 6)
    printed = [print_formula(f) for f in corpus]
    assert len(set(printed)) == len(corpus)


@given(formulas, formulas)
def test_substitute_composes_on_disjoint_maps(a, b):
    # {p -> a} then {q -> b} equals the simultaneous map when a, b avoid p, q
    if {"p", "q"} & (atoms_of(a) | atoms_of(b)):
        return
    f = parse("W (p & q) -> IR p & ~q")
    stepped = substitute(substitute(f, {"p": a}), {"q": b})
    assert stepped == substitute(f, {"p": a, "q": b})


def test_modal_depth_of_nesting():
    assert modal_depth(parse("W W W p")) == 3
    assert size(parse("W W W p")) == 4
