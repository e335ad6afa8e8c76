"""The frame-packed batteries against one-frame reference loops.

The references below scan every frame, item by item, with a one-frame
evaluator (the generated-submodel reference with ``has_property``).  The
packed batteries, which all run through ``oracle.run_battery``, must
give the same report (name, ``items_checked`` and failure text) under
injected faults and under column budgets that put a failure in a later
slot, a later chunk or a padded last chunk.
"""

from contextlib import contextmanager

import pytest

from doxa import oracle, transform
from doxa.oracle import BatteryReport, FrameEvaluator, SearchBudget, frames_up_to, wrong_false_at_reflexive
from doxa.semantics import ALL_FRAMES, Frame, FrameClass, Model, dump_model, frame_class, has_property
from doxa.syntax import IR, And, Atom, Not, Or, W, parse, print_formula
from doxa.transform import closure_battery, cone_battery, submodel_property_battery, translation_battery

ONE_ATOM = SearchBudget(atoms=("p",))


# --- one-frame references -----------------------------------------------------


def reference_wrong_false_at_reflexive(max_states, budget=ONE_ATOM):
    wrapped = [W(g) for g in oracle.corpus_for(budget)]
    checked = 0
    for frame in frames_up_to(max_states):
        refl = [i for i, s in enumerate(frame.states) if (s, s) in frame.relation]
        if not refl:
            continue
        ev = FrameEvaluator(frame, budget.atoms)
        state_mask = oracle._state_mask(ev.k, ev.rows)
        keep = sum(state_mask << i for i in refl)
        for wg in wrapped:
            checked += 1
            row = ev.least_row(ev.columns(wg) & keep)
            if row is not None:
                return BatteryReport(
                    "wrong-false-at-reflexive",
                    checked,
                    f"{print_formula(wg)} true at reflexive state {ev.describe(row)}",
                )
    return BatteryReport("wrong-false-at-reflexive", checked)


def reference_translation_battery(direction, max_states, budget=ONE_ATOM):
    # The rewrites are looked up on the module, so a patched one applies.
    if direction == "w2ri":
        pairs = [(f, transform.w_to_ri(f)) for f in oracle.corpus_for(budget, ("W",))]
    elif direction == "ri2w":
        pairs = [(f, transform.ri_to_w(f)) for f in oracle.corpus_for(budget, ("IR",))]
    else:
        pairs = [(f, transform.ri_to_w(transform.w_to_ri(f))) for f in oracle.corpus_for(budget, ("W",))]
    name = f"translation-{direction}"
    checked = 0
    for frame in frames_up_to(max_states):
        ev = FrameEvaluator(frame, budget.atoms)
        for f, g in pairs:
            checked += 1
            row = ev.least_row(ev.columns(f) ^ ev.columns(g))
            if row is not None:
                return BatteryReport(
                    name, checked, f"{print_formula(f)} vs {print_formula(g)} differ at {ev.describe(row)}"
                )
    return BatteryReport(name, checked)


def reference_preservation_battery(name, max_states, budget, admits, constructions, keeps, lost):
    corpus = oracle.corpus_for(budget)
    checked = 0
    for frame in frames_up_to(max_states):
        if not admits.contains(frame):
            continue
        ev = None
        for root, built in constructions(frame):
            checked += 1
            if not keeps.contains(built):
                named = dump_model(Model(frame))
                return BatteryReport(name, checked, lost.format(frame=named, root=root))
            ev = ev or FrameEvaluator(frame, budget.atoms)
            ev_built = FrameEvaluator(built, budget.atoms)
            for f in corpus:
                row = ev.least_row(ev.columns(f) ^ ev_built.columns(f))
                if row is not None:
                    return BatteryReport(name, checked, f"{print_formula(f)} changes truth at {ev.describe(row)}")
    return BatteryReport(name, checked)


def reference_submodel_property_battery(max_states):
    checked = 0
    for frame in frames_up_to(max_states):
        held = [p for p in transform._SUBMODEL_PROPERTIES if has_property(frame, p)]
        if not held:
            continue
        base = Model(frame)
        for root in frame.states:
            checked += 1
            sub = transform.generated_submodel(base, root).frame
            for p in held:
                if not has_property(sub, p):
                    failure = f"{p} lost by the submodel of {dump_model(base)} at {root}"
                    return BatteryReport("generated-submodel-properties", checked, failure)
    return BatteryReport("generated-submodel-properties", checked)


def _reference(monkeypatch, battery, *args):
    """``battery(*args)`` with the one-frame reference loop in place of
    the packed one."""
    if battery is wrong_false_at_reflexive:
        return reference_wrong_false_at_reflexive(*args)
    if battery is translation_battery:
        return reference_translation_battery(*args)
    if battery is submodel_property_battery:
        return reference_submodel_property_battery(*args)
    with monkeypatch.context() as m:
        m.setattr(transform, "_preservation_battery", reference_preservation_battery)
        return battery(*args)


# --- injected faults ----------------------------------------------------------


def _mask(frame):
    """The relation mask of a frame (see ``oracle.frame_of_mask``)."""
    k = len(frame.states)
    index = {s: i for i, s in enumerate(frame.states)}
    return sum(1 << (index[s] * k + index[t]) for s, t in frame.relation)


def _box_skipping_loops(from_state):
    """A kernel fault: the box ignores the loop ``i -> i`` at every state
    ``i >= from_state``, so W g turns true at those reflexive states."""
    box = FrameEvaluator._box

    def skipping(self, c, diags, out):
        # The skipped states join the lack column of the loops, offset 0.
        state_mask = oracle._state_mask(self.k, self.rows)
        skipped = sum(state_mask << i for i in range(from_state, self.k))
        return box(self, c, [(d, (lack or 0) | skipped if d == 0 else lack) for d, lack in diags], out)

    return skipping


def _unguarded_w_to_ri(f):
    """The W-to-IR rewrite without its ``& ~g`` guard: W g becomes IR g."""
    if isinstance(f, W):
        return IR(_unguarded_w_to_ri(f.arg))
    if isinstance(f, Not):
        return Not(_unguarded_w_to_ri(f.arg))
    if isinstance(f, And):
        return And(_unguarded_w_to_ri(f.left), _unguarded_w_to_ri(f.right))
    return f


def _with_disjunct(extra):
    """A W-to-IR rewrite that is wrong only where ``extra(g')`` holds:
    W g becomes (IR g' & ~g') | extra(g')."""

    def rewrite(f):
        if isinstance(f, W):
            inner = rewrite(f.arg)
            return Or(And(IR(inner), Not(inner)), extra(inner))
        if isinstance(f, Not):
            return Not(rewrite(f.arg))
        if isinstance(f, And):
            return And(rewrite(f.left), rewrite(f.right))
        return f

    return rewrite


# With these disjuncts the rewrites first go wrong on the frame named: the
# 3-state frame of mask 12, and (for W p) the 2-state frames of masks 6
# and 2.
_AT_3_12, _AT_2_6, _AT_2_2 = parse("W B B p & p"), parse("W B B ~p"), parse("FI (W B p & p)")

_wrong_on_a_late_frame = _with_disjunct(lambda g: _AT_3_12)
# W p, the first W item of the corpus, goes wrong on a later frame of the
# same chunk than the items after it: the earlier frame must win.
_wrong_later_for_w_p = _with_disjunct(lambda g: _AT_2_6 if g == Atom("p") else _AT_2_2)


def _edge_fault(construction, every, edge, add):
    """``construction`` with ``edge`` added (or dropped) on the built frame
    of every input frame whose mask is ``every - 1`` modulo ``every``."""

    def broken(m, *root):
        built = construction(m, *root)
        if _mask(m.frame) % every != every - 1:
            return built
        states = m.frame.states
        pair = (states[edge[0] % len(states)], states[edge[1] % len(states)])
        relation = built.frame.relation | {pair} if add else built.frame.relation - {pair}
        return Model(Frame(built.frame.states, relation), built.valuation)

    return broken


@contextmanager
def _chunk_budget(bits):
    saved, oracle._CHUNK_BITS = oracle._CHUNK_BITS, bits
    try:
        yield
    finally:
        oracle._CHUNK_BITS = saved


# Column budgets: 64 bits puts 2-state frames four to a chunk and
# 3-state frames one to a chunk, 512 puts 3-state frames eight to a
# chunk, and the default packs each size into one chunk.
BUDGETS = [64, 512, oracle._CHUNK_BITS]


def _same_report(monkeypatch, battery, *args):
    want = _reference(monkeypatch, battery, *args)
    for bits in BUDGETS:
        with _chunk_budget(bits):
            assert battery(*args) == want, bits
    return want


# --- the packed batteries equal the references --------------------------------


@pytest.mark.parametrize("direction", ["w2ri", "ri2w", "roundtrip"])
def test_translation_batteries_match_the_reference(monkeypatch, direction):
    assert _same_report(monkeypatch, translation_battery, direction, 2).passed


@pytest.mark.parametrize(
    "rewrite, direction",
    [
        (_unguarded_w_to_ri, "w2ri"),
        (_unguarded_w_to_ri, "roundtrip"),
        (_wrong_on_a_late_frame, "w2ri"),
        (_wrong_later_for_w_p, "w2ri"),
    ],
)
def test_faulty_rewrites_fail_as_the_reference_does(monkeypatch, rewrite, direction):
    monkeypatch.setattr(transform, "w_to_ri", rewrite)
    report = _same_report(monkeypatch, translation_battery, direction, 3)
    assert not report.passed


def test_reflexive_battery_matches_the_reference(monkeypatch):
    assert _same_report(monkeypatch, wrong_false_at_reflexive, 3).passed


@pytest.mark.parametrize("from_state", [0, 1, 2])
def test_box_skipping_loops_fails_as_the_reference_does(monkeypatch, from_state):
    monkeypatch.setattr(FrameEvaluator, "_box", _box_skipping_loops(from_state))
    report = _same_report(monkeypatch, wrong_false_at_reflexive, 3)
    assert not report.passed


@pytest.mark.parametrize("battery", [closure_battery, cone_battery])
def test_construction_batteries_match_the_reference(monkeypatch, battery):
    assert _same_report(monkeypatch, battery, 3).passed


@pytest.mark.parametrize(
    "battery, construction",
    [(closure_battery, "euclidean_closure"), (cone_battery, "cone_augment")],
)
@pytest.mark.parametrize("every", [3, 13, 19, 29])
@pytest.mark.parametrize("edge, add", [((0, 1), True), ((1, 1), False), ((1, 0), False)])
def test_edge_faults_fail_as_the_reference_does(monkeypatch, battery, construction, every, edge, add):
    monkeypatch.setattr(transform, construction, _edge_fault(getattr(transform, construction), every, edge, add))
    _same_report(monkeypatch, battery, 3)


# Dropping s2 -> s1 from the closure of every mask 18 mod 19 first changes
# truth at item 41; the second fault first loses Euclideanness at item 73
# (after it) or 31 (before it).  Each size is one chunk by default.
@pytest.mark.parametrize(
    "lost, checked, first",
    [((23, (0, 1), True), 41, "changes truth"), ((11, (1, 0), False), 31, "not Euclidean")],
)
def test_lost_property_is_ordered_against_earlier_items(monkeypatch, lost, checked, first):
    closure = _edge_fault(_edge_fault(transform.euclidean_closure, 19, (1, 0), False), *lost)
    monkeypatch.setattr(transform, "euclidean_closure", closure)
    report = _same_report(monkeypatch, closure_battery, 3)
    assert report.items_checked == checked and first in report.failure


def test_box_skipping_loops_breaks_the_constructions_as_the_reference_does(monkeypatch):
    monkeypatch.setattr(FrameEvaluator, "_box", _box_skipping_loops(1))
    for battery in (closure_battery, cone_battery):
        _same_report(monkeypatch, battery, 3)


def _no_contains(self, frame):
    raise AssertionError("FrameClass.contains called")


@pytest.mark.parametrize(
    "battery, construction",
    [(closure_battery, "euclidean_closure"), (cone_battery, "cone_augment")],
)
@pytest.mark.parametrize("fault", [None, (11, (1, 0), False), (23, (0, 1), True)])
def test_construction_batteries_class_built_frames_by_circuit(monkeypatch, battery, construction, fault):
    if fault:
        monkeypatch.setattr(transform, construction, _edge_fault(getattr(transform, construction), *fault))
    want = _reference(monkeypatch, battery, 3)
    monkeypatch.setattr(FrameClass, "contains", _no_contains)
    assert battery(3) == want


# --- where the failures land ----------------------------------------------------


def _slots_of(fc, max_states, atoms=("p",)):
    """(chunk number, slot, padded chunk) of each member of ``fc`` up to
    ``max_states`` states, in battery order."""
    out = []
    for k in range(1, max_states + 1):
        chunks = list(oracle._class_chunks(fc, k, 1 << (k * len(atoms))))
        for n, chunk in enumerate(chunks):
            out += [(n, t, chunk.live < chunk.slots) for t in range(chunk.live)]
    return out


def test_failures_land_in_later_slots_and_chunks(monkeypatch):
    # With 512-bit columns the faults above fail past slot 0, in a later
    # chunk, and in a padded last chunk; the differential tests run them.
    places = []
    with _chunk_budget(512):
        admitted = _slots_of(frame_class("secondarily-reflexive"), 3)
        for every, edge in [(3, (1, 1)), (19, (1, 0))]:
            with monkeypatch.context() as m:
                m.setattr(transform, "euclidean_closure", _edge_fault(transform.euclidean_closure, every, edge, False))
                report = closure_battery(3)
            assert "changes truth" in report.failure
            places.append(admitted[report.items_checked - 1])
        pairs = len(oracle.corpus_for(ONE_ATOM, ("W",)))
        with monkeypatch.context() as m:
            m.setattr(transform, "w_to_ri", _wrong_on_a_late_frame)
            report = translation_battery("w2ri", 3)
        places.append(_slots_of(ALL_FRAMES, 3)[(report.items_checked - 1) // pairs])
    # (chunk, slot, padded): slot 3 of a padded chunk, slot 5 of the
    # fourth 3-state chunk, slot 4 of the second.
    assert places == [(0, 3, True), (3, 5, False), (1, 4, False)]


# --- counts of the passing batteries -------------------------------------------


def test_passing_counts():
    assert wrong_false_at_reflexive(3).items_checked == 229578
    for direction in ("w2ri", "ri2w", "roundtrip"):
        assert translation_battery(direction, 3).items_checked == 263940
    assert closure_battery(4).items_checked == 6697
    assert cone_battery(4).items_checked == 337
    assert submodel_property_battery(3).items_checked == 1399


def test_submodel_battery_matches_the_reference(monkeypatch):
    assert _same_report(monkeypatch, submodel_property_battery, 3).passed


def test_submodel_fault_fails_as_the_reference_does(monkeypatch):
    fault = _edge_fault(transform.generated_submodel, 13, (1, 1), False)
    monkeypatch.setattr(transform, "generated_submodel", fault)
    assert not _same_report(monkeypatch, submodel_property_battery, 3).passed


@pytest.mark.parametrize("bits", BUDGETS)
def test_padding_slots_are_not_counted(bits):
    # Every slot of every chunk reports two items, the padding slots of a
    # padded last chunk too; only the live slots count.
    euclidean = frame_class("euclidean")
    with _chunk_budget(bits):
        assert any(c.live < c.slots for k in (2, 3) for c in oracle._class_chunks(euclidean, k, 1 << k))
        report = oracle.run_battery("two", euclidean, 3, ("p",), lambda chunk: ([2] * chunk.slots, None))
    assert report == BatteryReport("two", 2 * sum(map(euclidean.contains, frames_up_to(3))))


def test_submodel_battery_names_the_first_lost_property(monkeypatch):
    # Dropping s2 -> s2 from the submodels of every mask 12 mod 13 first
    # loses Euclideanness at the 413th (frame, root) case.
    fault = _edge_fault(transform.generated_submodel, 13, (1, 1), False)
    monkeypatch.setattr(transform, "generated_submodel", fault)
    frame = Model.of(["s1", "s2", "s3"], [("s1", "s1"), ("s1", "s2"), ("s2", "s1"), ("s2", "s2"), ("s3", "s2")])
    assert submodel_property_battery(3) == BatteryReport(
        "generated-submodel-properties", 413, f"euclidean lost by the submodel of {dump_model(frame)} at s1"
    )
