import json

import pytest

from doxa.oracle import enumerate_formulas, enumerate_models, frames_up_to
from doxa.semantics import (
    Frame,
    LanguageError,
    Model,
    ModelFormatError,
    UnknownStateError,
    dump_model,
    evaluate,
    evaluate_aux,
    frame_class,
    has_property,
    load_model,
    successors,
)
from doxa.syntax import Not, W, parse

# The two pointed reflexive models of the expressivity argument.
POINT = Model.of(["s"], [("s", "s")], {"p": ["s"]})
PAIR = Model.of(
    ["s1", "t1"],
    [("s1", "s1"), ("s1", "t1"), ("t1", "s1"), ("t1", "t1")],
    {"p": ["s1"]},
)

# One reflexive point versus the reflexive three-state frame breaking
# transitivity and friends.
F_POINT = Frame.of(["s"], [("s", "s")])
F_SPRAWL = Frame.of(
    ["u", "s", "t"],
    [("u", "u"), ("u", "s"), ("s", "s"), ("s", "u"), ("s", "t"), ("t", "t")],
)


def test_successors():
    assert successors(Model.of(["s"], []), "s") == frozenset()
    assert successors(PAIR, "s1") == {"s1", "t1"}
    chain = Model.of(["s", "t", "u"], [("s", "t"), ("t", "u")])
    assert successors(chain, "s") == {"t"}
    with pytest.raises(UnknownStateError):
        successors(chain, "nope")


def test_eval_dead_end():
    m = Model.of(["s"], [])
    assert evaluate(m, "s", parse("W p")) is True
    assert evaluate(m, "s", parse("W F")) is True


def test_eval_expressivity_pair():
    assert evaluate(POINT, "s", parse("B p")) is True
    assert evaluate(POINT, "s", parse("W p")) is False
    assert evaluate(PAIR, "s1", parse("B p")) is False


def test_eval_radical_ignorance():
    m = Model.of(["s", "t"], [("s", "t")], {"p": ["t"]})
    assert evaluate(m, "s", parse("IR p")) is True  # wrong about p
    assert evaluate(m, "t", parse("IR p")) is True  # wrong about ~p, vacuously


def test_eval_factive_ignorance():
    m = Model.of(["s", "t"], [("s", "s"), ("s", "t")], {"p": ["s"]})
    # p holds at s, fails at the only other successor t
    assert evaluate(m, "s", parse("FI p")) is True
    m2 = Model.of(["s", "t"], [("s", "t")], {"p": ["s", "t"]})
    assert evaluate(m2, "s", parse("FI p")) is False


def test_eval_unknown_state():
    with pytest.raises(UnknownStateError):
        evaluate(POINT, "zz", parse("p"))


def test_eval_missing_atom_is_false():
    assert evaluate(POINT, "s", parse("zz")) is False
    assert evaluate(POINT, "s", parse("W zz")) is False  # s is reflexive


def test_eval_aux():
    m = Model.of(["s", "t"], [("s", "t")], {"p": ["t"]})
    assert evaluate_aux(m, "s", parse("IR p")) == evaluate(m, "s", parse("p"))
    assert evaluate_aux(m, "s", parse("IR p <-> IR ~p")) is False
    assert evaluate_aux(m, "t", parse("p & ~~p")) == evaluate(m, "t", parse("p & ~~p"))
    with pytest.raises(LanguageError):
        evaluate_aux(m, "s", parse("W p"))
    with pytest.raises(LanguageError):
        evaluate_aux(m, "s", parse("IR (B p)"))


def test_property_table_point():
    for prop in (
        "reflexive",
        "serial",
        "transitive",
        "euclidean",
        "symmetric",
        "narcissistic",
        "partially-narcissistic",
        "partial-functional",
        "weakly-connected",
        "weakly-directed",
        "secondarily-reflexive",
    ):
        assert has_property(F_POINT, prop), prop


def test_property_table_sprawl():
    broken = (
        "transitive",
        "euclidean",
        "symmetric",
        "narcissistic",
        "partially-narcissistic",
        "partial-functional",
        "weakly-connected",
        "weakly-directed",
    )
    for prop in broken:
        assert not has_property(F_SPRAWL, prop), prop
    assert has_property(F_SPRAWL, "reflexive")
    assert has_property(F_SPRAWL, "serial")


def test_sprawl_failing_triples():
    # found by exhaustive quantification, pinned here
    r = F_SPRAWL.relation
    assert ("u", "s") in r and ("s", "t") in r and ("u", "t") not in r  # transitivity
    assert ("s", "u") in r and ("s", "t") in r and ("u", "t") not in r  # euclideanness
    assert ("s", "t") in r and ("t", "s") not in r  # symmetry


def test_empty_relation_properties():
    fr = Frame.of(["a", "b"], [])
    assert not has_property(fr, "serial")
    assert has_property(fr, "transitive")


def test_unknown_property():
    with pytest.raises(ValueError):
        has_property(F_POINT, "total")


def test_frame_class_parsing():
    assert frame_class("all").contains(F_SPRAWL)
    fc = frame_class("serial+transitive")
    assert fc.contains(F_POINT)
    assert not fc.contains(F_SPRAWL)
    with pytest.raises(ValueError):
        frame_class("shiny")


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame.of([], [])
    with pytest.raises(ValueError):
        Frame.of(["a"], [("a", "b")])
    with pytest.raises(ValueError):
        Model.of(["a"], [], {"p": ["b"]})


# --- invariants -----------------------------------------------------------


def test_wrong_false_at_every_reflexive_state_small():
    corpus = enumerate_formulas(("p",), 2, 5)
    for frame in frames_up_to(2):
        refl = [s for s in frame.states if (s, s) in frame.relation]
        if not refl:
            continue
        for model in enumerate_models(frame, ("p",)):
            for g in corpus:
                for s in refl:
                    assert evaluate(model, s, W(g)) is False


def test_definitional_gluing():
    # W g <-> ~g & B g and IR g <-> W g | W ~g, by the reference evaluator
    from doxa.syntax import IR, Box

    corpus = enumerate_formulas(("p",), 2, 5)[::7]
    for frame in frames_up_to(2):
        for model in enumerate_models(frame, ("p",)):
            for g in corpus:
                for s in frame.states:
                    assert evaluate(model, s, W(g)) == (
                        evaluate(model, s, Not(g)) and evaluate(model, s, Box(g))
                    )
                    assert evaluate(model, s, IR(g)) == (
                        evaluate(model, s, W(g)) or evaluate(model, s, W(Not(g)))
                    )


def test_reflexive_models_agree_when_atoms_agree():
    # Two pointed reflexive models agreeing on the atoms of g agree on g.
    corpus = enumerate_formulas(("p",), 2, 5)
    pointed = []
    for frame in frames_up_to(2):
        if not has_property(frame, "reflexive"):
            continue
        for model in enumerate_models(frame, ("p",)):
            for s in frame.states:
                pointed.append((model, s))
    for m1, s1 in pointed:
        for m2, s2 in pointed:
            if evaluate(m1, s1, parse("p")) != evaluate(m2, s2, parse("p")):
                continue
            for g in corpus:
                assert evaluate(m1, s1, g) == evaluate(m2, s2, g)


def test_narcissistic_collapse():
    corpus = enumerate_formulas(("p",), 1, 4, modalities=("W", "B"))
    from doxa.syntax import Box, FI

    for k in (1, 2, 3):
        states = [f"n{i}" for i in range(k)]
        frame = Frame.of(states, [(s, s) for s in states])
        assert has_property(frame, "narcissistic")
        for model in enumerate_models(frame, ("p",)):
            for s in states:
                for g in corpus:
                    assert evaluate(model, s, Box(g)) == evaluate(model, s, g)
                    assert evaluate(model, s, FI(g)) == evaluate(model, s, g)


def test_narcissistic_implies_weaker_properties():
    for frame in frames_up_to(3):
        if has_property(frame, "narcissistic"):
            for weaker in ("reflexive", "partial-functional", "partially-narcissistic"):
                assert has_property(frame, weaker)


# --- model files ----------------------------------------------------------


def test_model_roundtrip():
    text = dump_model(PAIR, designated="s1")
    model, designated = load_model(text)
    assert model == PAIR
    assert designated == "s1"


def test_model_unknown_field_rejected():
    doc = json.loads(dump_model(POINT))
    doc["color"] = "red"
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))


@pytest.mark.parametrize(
    "mutation",
    [
        lambda d: d.pop("states"),
        lambda d: d.__setitem__("states", "s"),
        lambda d: d.__setitem__("relation", [["s"]]),
        lambda d: d.__setitem__("relation", [["s", "zz"]]),
        lambda d: d.__setitem__("valuation", {"p": "s"}),
        lambda d: d.__setitem__("valuation", {"p": ["zz"]}),
        lambda d: d.__setitem__("designated", "zz"),
        lambda d: d.__setitem__("designated", 3),
        lambda d: d.__setitem__("valuation", {"W": ["s"]}),
        lambda d: d.__setitem__("valuation", {"Q": ["s"]}),
    ],
)
def test_model_bad_documents(mutation):
    doc = json.loads(dump_model(POINT))
    mutation(doc)
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))


def test_model_not_json():
    with pytest.raises(ModelFormatError):
        load_model("{states:")
