import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from doxa import transform
from doxa.hilbert import SCHEMAS
from doxa.oracle import SearchBudget, frames_up_to
from doxa.semantics import Frame, LanguageError, Model, UnknownStateError, evaluate, has_property, load_model
from doxa.syntax import IR, And, Atom, Not, W, parse, print_formula, substitute
from doxa.transform import (
    TranslationChain,
    almost_def_chain,
    check_chain,
    closure_battery,
    cone_augment,
    cone_battery,
    euclidean_closure,
    generated_submodel,
    ri_to_w,
    submodel_property_battery,
    translation_battery,
    verify_preservation,
    w_to_ri,
)


def test_w_to_ri_examples():
    assert w_to_ri(parse("W p")) == parse("IR p & ~p")
    assert w_to_ri(parse("p")) == parse("p")
    assert w_to_ri(parse("W (W p)")) == parse("IR (IR p & ~p) & ~(IR p & ~p)")
    with pytest.raises(LanguageError):
        w_to_ri(parse("B p"))
    with pytest.raises(LanguageError):
        w_to_ri(parse("FI p"))


def test_ri_to_w_examples():
    assert ri_to_w(parse("IR p")) == parse("W p | W ~p")
    assert ri_to_w(parse("p & q")) == parse("p & q")
    assert ri_to_w(parse("IR (IR p)")) == parse("W (W p | W ~p) | W ~(W p | W ~p)")
    with pytest.raises(LanguageError):
        ri_to_w(parse("W p"))
    with pytest.raises(LanguageError):
        ri_to_w(parse("B p"))


def test_each_direction_rewrites_a_node_by_its_own_rule():
    # Each direction caches its rewrites; a node rewritten by one is not
    # taken from the other's cache.
    ir, w = parse("IR p"), parse("W p")
    assert w_to_ri(ir) is ir and ri_to_w(ir) is parse("W p | W ~p")
    assert w_to_ri(w) is parse("IR p & ~p")
    with pytest.raises(LanguageError):
        ri_to_w(w)


@pytest.mark.parametrize(
    "rewrite, text, message",
    [
        (w_to_ri, "W (B p & FI q)", "B p is outside the W-language"),
        (ri_to_w, "IR (W p | B q)", "W p is outside the IR-language"),
        (ri_to_w, "IR p & ~(FI q -> W r)", "FI q is outside the IR-language"),
    ],
)
def test_rewrites_name_the_first_subformula_outside_the_language(rewrite, text, message):
    # The first in pre-order: the outer node before its arguments, left before right.
    with pytest.raises(LanguageError) as caught:
        rewrite(parse(text))
    assert str(caught.value) == message


def test_chain_finals():
    assert print_formula(almost_def_chain("4").final) == (
        "W q & W (p & q) -> W ((W r -> W (p & r)) & q)"
    )
    assert print_formula(almost_def_chain("5").final) == (
        "W q & ~W (p & q) -> W ((W r -> ~W (p & r)) & q)"
    )
    assert print_formula(almost_def_chain("B").final) == (
        "W q & ~p -> W ((W r -> ~W (p & r)) & q)"
    )
    pqr = {"phi": Atom("p"), "psi": Atom("q"), "chi": Atom("r")}
    for axiom in ("4", "5", "B"):  # the axiom as hilbert.SCHEMAS defines it
        assert almost_def_chain(axiom).final == substitute(SCHEMAS[f"A{axiom}"].template, pqr)
    with pytest.raises(ValueError):
        almost_def_chain("T")


def test_chain_lines_stay_in_the_letterless_language():
    from doxa.syntax import modalities_in

    for axiom in ("4", "5", "B"):
        chain = almost_def_chain(axiom)
        assert len(chain.lines) == 4
        assert "B" in modalities_in(chain.lines[0])
        assert modalities_in(chain.final) == {"W"}


def test_check_chain_passes():
    for axiom in ("4", "5", "B"):
        report = check_chain(almost_def_chain(axiom))
        assert report.passed
        assert len(report.steps) == 3


def test_check_chain_catches_corruption():
    chain = almost_def_chain("4")
    lines = list(chain.lines)
    # swap one W for ~W in the second line
    lines[1] = parse("W q -> (~W (p & q) -> W ((W r -> B p) & q))")
    corrupted = TranslationChain(chain.name, tuple(lines))
    report = check_chain(corrupted)
    assert not report.passed


def test_euclidean_closure_examples():
    m = Model.of(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")])
    closed = euclidean_closure(m)
    assert closed.frame.relation == m.frame.relation | {("b", "c"), ("c", "b")}
    assert has_property(closed.frame, "euclidean")

    m = Model.of(["s", "t"], [("s", "t"), ("t", "t")])
    closed = euclidean_closure(m)
    assert closed.frame.relation == m.frame.relation
    assert has_property(closed.frame, "euclidean")

    m = Model.of(["s", "t"], [])
    assert euclidean_closure(m).frame.relation == frozenset()


def test_euclidean_closure_always_euclidean_and_idempotent():
    # over every frame up to 4 states, not only secondarily reflexive ones
    for frame in frames_up_to(4):
        closed = euclidean_closure(Model(frame))
        assert has_property(closed.frame, "euclidean")
        assert euclidean_closure(closed).frame == closed.frame


def test_cone_augment_closes_the_successor_cone():
    m = Model.of(["s", "t", "u"], [("s", "t"), ("s", "u"), ("t", "t")])
    cone = {("t", "t"), ("t", "u"), ("u", "t"), ("u", "u")}
    assert cone_augment(m, "s").frame.relation == m.frame.relation | cone
    with pytest.raises(UnknownStateError):
        cone_augment(m, "zz")


def test_generated_submodel_examples():
    chain = Model.of(["s", "t", "u"], [("s", "t"), ("t", "u")], {"p": ["s", "u"]})
    sub = generated_submodel(chain, "t")
    assert sub.frame.states == ("t", "u")
    assert sub.valuation["p"] == {"u"}

    disconnected = Model.of(["s", "t", "x"], [("s", "t")], {})
    assert generated_submodel(disconnected, "s").frame.states == ("s", "t")

    total = Model.of(["a", "b"], [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")], {})
    assert generated_submodel(total, "a") == total


def test_cone_augment_examples():
    m = Model.of(
        ["s", "t", "u"],
        [("s", "t"), ("s", "u"), ("t", "t"), ("u", "u")],
    )
    out = cone_augment(m, "s")
    assert out.frame.relation == m.frame.relation | {("t", "u"), ("u", "t")}
    assert has_property(out.frame, "transitive")
    assert has_property(out.frame, "euclidean")

    m = Model.of(["s", "t"], [("s", "t"), ("t", "t")])
    assert cone_augment(m, "s").frame == m.frame

    lonely = Model.of(["s", "t"], [("t", "t")])
    assert cone_augment(lonely, "s").frame == lonely.frame


def test_verify_preservation_on_closure():
    m = Model.of(
        ["a", "b", "c"],
        [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")],
        {"p": ["b"]},
    )
    report = verify_preservation(m, euclidean_closure(m))
    assert report.ok


def test_verify_preservation_on_generated_submodel():
    m = Model.of(["s", "t", "u"], [("s", "t"), ("t", "u")], {"p": ["u"]})
    sub = generated_submodel(m, "t")
    report = verify_preservation(m, sub)
    assert report.ok


def test_verify_preservation_violation_reported():
    # closure of a model that is not secondarily reflexive may change truth
    m = Model.of(["a", "b"], [("a", "b")], {"p": []})
    closed = euclidean_closure(m)
    report = verify_preservation(m, closed)
    assert not report.ok
    assert report.state is not None and report.formula is not None
    assert evaluate(m, report.state, report.formula) != evaluate(
        closed, report.state, report.formula
    )


def test_batteries_small():
    assert closure_battery(3).passed
    assert cone_battery(3).passed
    assert submodel_property_battery(3).passed


def test_submodel_property_battery_exhaustive_four_states():
    report = submodel_property_battery(4)
    assert report.passed and report.items_checked == 215743


def test_translation_batteries():
    budget = SearchBudget(atoms=("p",), max_modal_depth=2, max_size=5)
    assert translation_battery("w2ri", 2, budget).passed
    assert translation_battery("ri2w", 2, budget).passed
    assert translation_battery("roundtrip", 2, budget).passed
    with pytest.raises(ValueError):
        translation_battery("sideways", 2, budget)


# --- failure paths of the batteries, with a broken construction or rewrite ---


def _universal(m, state=None):
    """A broken construction: the full relation on the model's states."""
    states = m.frame.states
    return Model(Frame.of(states, [(a, b) for a in states for b in states]), m.valuation)


def _named(failure, verb):
    """The formula, state and model that a battery failure names."""
    head, named = failure.split(" of ", 1)
    text, state = head.split(f" {verb} at ")
    return text, state, load_model(named)[0]


@pytest.mark.parametrize(
    "battery, construction",
    [(closure_battery, "euclidean_closure"), (cone_battery, "cone_augment")],
)
def test_preservation_battery_names_a_real_disagreement(monkeypatch, battery, construction):
    monkeypatch.setattr(transform, construction, _universal)
    report = battery(2)
    assert not report.passed
    text, state, model = _named(report.failure, "changes truth")
    f = parse(text)
    assert evaluate(model, state, f) != evaluate(_universal(model), state, f)


@pytest.mark.parametrize(
    "battery, construction, lost",
    [
        (closure_battery, "euclidean_closure", "not Euclidean"),
        (cone_battery, "cone_augment", "lost transitivity or Euclideanness"),
    ],
)
def test_preservation_battery_reports_lost_property(monkeypatch, battery, construction, lost):
    monkeypatch.setattr(transform, construction, lambda m, state=None: m)
    report = battery(2)
    assert not report.passed and report.failure.endswith(lost)
    head, named = report.failure.split(" of ", 1)
    assert head in ("closure", "augmentation")
    frame = load_model(named[: named.rindex("}") + 1])[0].frame
    assert frame in frames_up_to(2)


# Each battery with a construction that loses its property; prints the
# three failure texts as one JSON list.
_LOST_PROPERTY_SCRIPT = """
import json
from doxa import transform
from doxa.semantics import Frame, Model
transform.euclidean_closure = lambda m: m
transform.cone_augment = lambda m, state: m
failures = [transform.closure_battery(3).failure, transform.cone_battery(3).failure]
transform.generated_submodel = lambda m, state: Model(Frame(m.frame.states, frozenset()))
failures.append(transform.submodel_property_battery(3).failure)
print(json.dumps(failures))
"""


def test_lost_property_failures_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _LOST_PROPERTY_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        runs.append(json.loads(out))
    assert runs[0] == runs[1]
    closure, cone, submodel = runs[0]
    assert closure.startswith("closure of {") and closure.endswith("} not Euclidean")
    assert cone.startswith("augmentation of {") and cone.endswith(
        "} at s1 lost transitivity or Euclideanness"
    )
    assert submodel.startswith("reflexive lost by the submodel of {")
    frames = []
    for text in (closure, cone, submodel):
        model, _ = load_model(text[text.index("{") : text.rindex("}") + 1])
        assert model.valuation == {}
        frames.append(model.frame)
    # the named frames are the ones whose unchanged copy fails the check
    assert not has_property(frames[0], "euclidean") and not has_property(frames[1], "euclidean")
    assert has_property(frames[2], "reflexive")


def _unguarded_w_to_ri(f):
    """The W-to-IR rewrite without its ``& ~g`` guard: W g becomes IR g."""
    if isinstance(f, W):
        return IR(_unguarded_w_to_ri(f.arg))
    if isinstance(f, Not):
        return Not(_unguarded_w_to_ri(f.arg))
    if isinstance(f, And):
        return And(_unguarded_w_to_ri(f.left), _unguarded_w_to_ri(f.right))
    return f


def test_translation_battery_names_a_real_disagreement(monkeypatch):
    monkeypatch.setattr(transform, "w_to_ri", _unguarded_w_to_ri)
    report = translation_battery("w2ri", 2)
    assert not report.passed
    text, state, model = _named(report.failure, "differ")
    f, g = (parse(t) for t in text.split(" vs "))
    assert g == _unguarded_w_to_ri(f)
    assert evaluate(model, state, f) != evaluate(model, state, g)
