import random
from contextlib import contextmanager
from itertools import islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

from doxa import oracle
from doxa.oracle import (
    COUNTERMODEL,
    NO_COUNTERMODEL,
    BudgetError,
    FrameChunk,
    FrameEvaluator,
    SearchBudget,
    agree_up_to,
    atom_column,
    aux_valid_on,
    definability_gap,
    enumerate_formulas,
    enumerate_models,
    find_countermodel,
    frame_of_mask,
    frames_up_to,
    model_at,
    valid_on,
    wrong_false_at_reflexive,
)
from doxa.semantics import (
    ALL_FRAMES,
    PROPERTIES,
    VIOLATIONS,
    Frame,
    FrameClass,
    LanguageError,
    Model,
    dump_model,
    evaluate,
    evaluate_aux,
    frame_class,
    has_property,
    load_model,
)
from doxa.syntax import (
    FI,
    MODALITIES,
    IR,
    And,
    Atom,
    Bot,
    Box,
    Iff,
    Imp,
    Not,
    Or,
    Top,
    W,
    atoms_of,
    modal_depth,
    parse,
    print_formula,
    subformulas,
)

POINT = Model.of(["s"], [("s", "s")], {"p": ["s"]})
PAIR = Model.of(
    ["s1", "t1"],
    [("s1", "s1"), ("s1", "t1"), ("t1", "s1"), ("t1", "t1")],
    {"p": ["s1"]},
)


def test_enumerate_frames_counts():
    assert sum(1 for _ in frames_up_to(1)) == 2
    assert sum(1 for _ in frames_up_to(2)) == 18
    assert sum(1 for f in frames_up_to(3) if len(f.states) == 3) == 512


def test_enumerate_frames_deterministic_order():
    first = list(frames_up_to(2))
    second = list(frames_up_to(2))
    assert first == second
    assert first[0].relation == frozenset()
    assert first[1].relation == {("s1", "s1")}


def test_frames_of_five_states_follow_those_of_four():
    smaller = list(frames_up_to(4))
    frames = list(islice(frames_up_to(5), len(smaller) + 3))
    assert frames[: len(smaller)] == smaller
    assert frames[len(smaller) :] == [frame_of_mask(5, m) for m in range(3)]


def test_enumerate_models_counts():
    one = Frame.of(["a"], [])
    assert sum(1 for _ in enumerate_models(one, ["p"])) == 2
    two = Frame.of(["a", "b"], [])
    assert sum(1 for _ in enumerate_models(two, ["p", "q"])) == 16
    three = Frame.of(["a", "b", "c"], [])
    assert sum(1 for _ in enumerate_models(three, ["p", "q", "r"])) == 512


def test_valid_on_a1():
    report = valid_on(parse("W p -> ~p"))
    assert report.verdict == NO_COUNTERMODEL
    assert report.frames_examined == 530


def test_valid_on_dead_end_refutes_ad():
    report = valid_on(parse("~W F"), budget=SearchBudget(max_states=1))
    assert report.verdict == COUNTERMODEL
    model, state = report.witness
    assert model.frame.relation == frozenset()
    assert evaluate(model, state, parse("~W F")) is False


def test_valid_on_a5_euclidean():
    report = valid_on(
        parse("W q & ~W (p & q) -> W ((W r -> ~W (p & r)) & q)"),
        frame_class("euclidean"),
    )
    assert report.verdict == NO_COUNTERMODEL


def test_valid_on_missing_budget_atoms():
    with pytest.raises(BudgetError):
        valid_on(parse("W zz"), budget=SearchBudget(atoms=("p",)))


def test_find_countermodel_stronger_a4_on_transitive():
    f = parse("W q -> W ((W r -> W (p & r)) & q)")
    report = find_countermodel(f, frame_class("transitive"))
    assert report.verdict == COUNTERMODEL
    model, state = report.witness
    assert frame_class("transitive").contains(model.frame)
    assert evaluate(model, state, f) is False
    # the pinned witness from a hand check also refutes it
    hand = Model.of(
        ["s", "t", "u"],
        [("s", "t"), ("t", "u"), ("s", "u")],
        {"q": ["t", "u"], "r": ["u"], "p": []},
    )
    assert evaluate(hand, "s", f) is False


def test_find_countermodel_aq():
    f = parse("W p -> W (~W q & p)")
    report = find_countermodel(f)
    assert report.verdict == COUNTERMODEL
    model, state = report.witness
    assert evaluate(model, state, f) is False
    hand = Model.of(
        ["s", "t"], [("s", "t"), ("t", "s")], {"p": ["t"], "q": ["s"]}
    )
    assert evaluate(hand, "s", f) is False


def test_find_countermodel_tautology():
    report = find_countermodel(parse("p -> p"), budget=SearchBudget(max_states=2))
    assert report.verdict == NO_COUNTERMODEL


def test_search_is_deterministic_and_monotone():
    f = parse("W q -> W ((W r -> W (p & r)) & q)")
    small = find_countermodel(f, frame_class("transitive"), SearchBudget(max_states=3))
    again = find_countermodel(f, frame_class("transitive"), SearchBudget(max_states=3))
    larger = find_countermodel(f, frame_class("transitive"), SearchBudget(max_states=4))
    assert small.witness == again.witness == larger.witness


def test_almost_definability_bounded_fact():
    report = valid_on(parse("W q -> (B p <-> W (p & q))"))
    assert report.verdict == NO_COUNTERMODEL


# --- formula corpus --------------------------------------------------------


def test_corpus_order_and_membership():
    corpus = enumerate_formulas(("p",), 2, 3)
    texts = [print_formula(f) for f in corpus]
    assert texts[0] == "p"
    assert texts[1:3] == ["W p", "~p"]  # size 2, lexicographic
    assert "W W p" in texts and "W W W p" not in texts
    from doxa.syntax import size as fsize

    fsizes = [fsize(f) for f in corpus]
    assert fsizes == sorted(fsizes)


def test_corpus_depth_bound():
    corpus = enumerate_formulas(("p",), 1, 4)
    from doxa.syntax import modal_depth

    assert all(modal_depth(f) <= 1 for f in corpus)


def _pool_then_filter(atoms, max_modal_depth, max_size, modalities):
    """The corpus built the long way: every formula of each size up to
    ``max_size`` (and the atoms even at size 0), each size sorted by
    printed form, then the ones deeper than ``max_modal_depth`` dropped."""
    ctors = [Not] + [MODALITIES[m] for m in modalities]
    buckets = [[], [Atom(a) for a in sorted(atoms)]]
    for n in range(2, max_size + 1):
        bucket = [ctor(g) for g in buckets[n - 1] for ctor in ctors]
        bucket += [And(gl, gr) for left in range(1, n - 1) for gl in buckets[left] for gr in buckets[n - 1 - left]]
        buckets.append(sorted(bucket, key=print_formula))
    return tuple(f for bucket in buckets for f in bucket if modal_depth(f) <= max_modal_depth)


@pytest.mark.parametrize("atoms", [("p",), ("q", "p")])
@pytest.mark.parametrize("modalities", [("W",), ("IR", "W"), ("W", "B", "IR", "FI")])
def test_corpus_is_the_filtered_pool(atoms, modalities):
    for depth in range(-1, 4):
        for size in range(0, 6):
            want = _pool_then_filter(atoms, depth, size, modalities)
            assert enumerate_formulas(atoms, depth, size, modalities) == want, (depth, size)
            assert want or depth < 0


def test_corpus_with_box_modality():
    corpus = enumerate_formulas(("p",), 1, 2, modalities=("W", "B"))
    texts = [print_formula(f) for f in corpus]
    assert texts == ["p", "B p", "W p", "~p"]


# --- agreement -------------------------------------------------------------


def test_agree_up_to_w_language():
    budget = SearchBudget(max_states=3, atoms=("p",), max_modal_depth=2, max_size=7)
    report = agree_up_to(POINT, "s", PAIR, "s1", budget)
    assert report.agree and report.distinguishing is None


def test_agree_up_to_with_box_disagrees():
    budget = SearchBudget(max_states=3, atoms=("p",), max_modal_depth=2, max_size=7)
    report = agree_up_to(POINT, "s", PAIR, "s1", budget, modalities=("W", "B"))
    assert not report.agree
    assert print_formula(report.distinguishing) == "B p"


def test_agree_up_to_self():
    budget = SearchBudget(max_states=3, atoms=("p",), max_modal_depth=1, max_size=4)
    report = agree_up_to(PAIR, "t1", PAIR, "t1", budget, modalities=("W", "B"))
    assert report.agree


# --- definability ----------------------------------------------------------

F_POINT = Frame.of(["s"], [("s", "s")])
F_SPRAWL = Frame.of(
    ["u", "s", "t"],
    [("u", "u"), ("u", "s"), ("s", "s"), ("s", "u"), ("s", "t"), ("t", "t")],
)


def test_definability_gap_transitivity():
    budget = SearchBudget(max_states=3, atoms=("p",), max_modal_depth=2, max_size=7)
    report = definability_gap(F_POINT, F_SPRAWL, "transitive", budget)
    assert report.properties_differ
    assert report.separating is None


def test_definability_gap_euclidean():
    budget = SearchBudget(max_states=3, atoms=("p",), max_modal_depth=2, max_size=7)
    report = definability_gap(F_POINT, F_SPRAWL, "euclidean", budget)
    assert report.properties_differ
    assert report.separating is None


def test_definability_gap_degenerate():
    budget = SearchBudget(max_states=3, atoms=("p",), max_modal_depth=1, max_size=3)
    report = definability_gap(F_POINT, F_POINT, "transitive", budget)
    assert report.degenerate


def test_frame_validity():
    def frame_valid(text, frame):
        f = parse(text)
        return FrameEvaluator(frame, tuple(sorted(atoms_of(f)))).valid(f)

    # both witness frames are reflexive, so ~W p is frame-valid on both
    assert frame_valid("~W p", F_POINT)
    assert frame_valid("~W p", F_SPRAWL)
    assert frame_valid("W p -> ~p", F_SPRAWL)
    assert not frame_valid("p", F_POINT)


# --- auxiliary semantics ---------------------------------------------------


def test_aux_ri_equ_fails():
    report = aux_valid_on(parse("IR p <-> IR ~p"), budget=SearchBudget(max_states=1))
    assert report.verdict == COUNTERMODEL
    model, state = report.witness
    assert evaluate_aux(model, state, parse("IR p <-> IR ~p")) is False


def test_aux_ri_con_holds():
    report = aux_valid_on(parse("IR p & ~p & IR q & ~q -> IR (p & q)"))
    assert report.verdict == NO_COUNTERMODEL


@pytest.mark.parametrize("text", ["W p -> ~p", "W p", "B p | p", "FI p"])
def test_aux_search_rejects_formulas_outside_the_ir_language(text):
    # The language is checked before any frame is scanned, so a formula
    # with no countermodel raises as one with a countermodel does.
    with pytest.raises(LanguageError, match="outside the IR-only language"):
        aux_valid_on(parse(text))


# --- the bit-parallel evaluator agrees with the reference one ---------------


def test_bit_columns_cross_validated_against_reference():
    corpus = enumerate_formulas(("p", "q"), 2, 4, modalities=("W", "B", "IR", "FI"))
    for frame in frames_up_to(2):
        ev = FrameEvaluator(frame, ("p", "q"))
        for f in corpus:
            col = ev.columns(f)
            assert 0 <= col <= ev.full
            for v in range(ev.rows):
                model = model_at(frame, ("p", "q"), v)
                for i, s in enumerate(frame.states):
                    assert bool(col >> (v * ev.k + i) & 1) == evaluate(model, s, f)


def test_bit_columns_cross_validated_aux():
    corpus = enumerate_formulas(("p",), 2, 4, modalities=("IR",))
    for frame in frames_up_to(2):
        ev = FrameEvaluator(frame, ("p",), aux=True)
        for f in corpus:
            col = ev.columns(f)
            assert 0 <= col <= ev.full
            for v in range(ev.rows):
                model = model_at(frame, ("p",), v)
                for i, s in enumerate(frame.states):
                    assert bool(col >> (v * ev.k + i) & 1) == evaluate_aux(model, s, f)


def test_bit_columns_sampled_three_states():
    frames = [fr for fr in frames_up_to(3) if len(fr.states) == 3][37::97]
    corpus = enumerate_formulas(("p",), 2, 5, modalities=("W", "IR"))[::5]
    for frame in frames:
        ev = FrameEvaluator(frame, ("p",))
        for f in corpus:
            col = ev.columns(f)
            assert 0 <= col <= ev.full
            for v in range(ev.rows):
                model = model_at(frame, ("p",), v)
                for i, s in enumerate(frame.states):
                    assert bool(col >> (v * ev.k + i) & 1) == evaluate(model, s, f)


def test_wrong_false_battery():
    report = wrong_false_at_reflexive(2)
    assert report.passed


# --- the shared least-row rule against a brute-force reference scan ---------

_p, _q = Atom("p"), Atom("q")
_kids = st.sampled_from([_p, _q, Top(), Bot()])


def _formulas(*modalities):
    return st.recursive(
        _kids,
        lambda kids: st.one_of(
            *(st.builds(m, kids) for m in (Not,) + modalities),
            *(st.builds(c, kids, kids) for c in (And, Or, Imp, Iff)),
        ),
        max_leaves=8,
    )


_small_frames = st.sampled_from(tuple(frames_up_to(3)))


def _brute_least_false(frame, f, aux):
    """First (valuation, state) in enumeration order where ``f`` fails."""
    ev = evaluate_aux if aux else evaluate
    for v in range(1 << (len(frame.states) * 2)):
        model = model_at(frame, ("p", "q"), v)
        for i, s in enumerate(frame.states):
            if not ev(model, s, f):
                return v, i
    return None


def _check_least_row(frame, f, aux):
    ev = FrameEvaluator(frame, ("p", "q"), aux=aux)
    # f itself, one formula with no false row and one false everywhere
    for g in (f, Or(f, Not(f)), And(f, Not(f))):
        row = ev.least_row(ev.full ^ ev.columns(g))
        assert row == _brute_least_false(frame, g, aux)
        assert (row is None) == ev.valid(g)
        if row is not None:
            model, state = ev.witness(row)
            assert not (evaluate_aux if aux else evaluate)(model, state, g)


@settings(max_examples=150, deadline=None)
@given(_small_frames, _formulas(W, Box, IR, FI))
def test_least_row_matches_reference_scan(frame, f):
    _check_least_row(frame, f, aux=False)


@settings(max_examples=100, deadline=None)
@given(_small_frames, _formulas(IR))
def test_least_row_matches_reference_scan_aux(frame, f):
    _check_least_row(frame, f, aux=True)


@settings(max_examples=100, deadline=None)
@given(_small_frames, _formulas(W, Box, IR, FI))
def test_memo_is_keyed_on_the_formula(frame, f):
    ev = FrameEvaluator(frame, ("p", "q"))
    first, second = parse(print_formula(f)), parse(print_formula(f))
    assert first is second
    cols = ev.columns(first)
    entries = len(ev._memo)
    assert entries == len(set(subformulas(f)))
    assert ev.columns(second) == cols
    assert len(ev._memo) == entries


@settings(max_examples=60, deadline=None)
@given(_small_frames, st.lists(_formulas(W, Box, IR, FI), max_size=6), st.lists(_formulas(W, Box, IR, FI), max_size=2))
def test_each_column_drops_only_what_no_later_formula_needs(frame, fs, known):
    ev, fresh = FrameEvaluator(frame, ("p", "q")), FrameEvaluator(frame, ("p", "q"))
    for g in known:  # columns memoized before the call stay unless fs has them as subformulas
        ev.columns(g)
    before = set(ev._memo)
    cols = ev.each_column(fs, oracle.last_uses(fs))
    for n, f in enumerate(fs):
        assert next(cols) == fresh.columns(f)
        ahead = {h for g in fs[n:] for h in subformulas(g)}
        assert set(ev._memo) <= before | ahead
    assert list(cols) == [] and set(ev._memo) == before - {h for g in fs for h in subformulas(g)}


def test_atom_column_by_doubling():
    # bits past the range (atom positions beyond the valuation) give 0
    for k in range(1, 4):
        for n_atoms in range(1, 4):
            rows = 1 << (k * n_atoms)
            for pos in range(n_atoms + 2):
                want = sum(
                    1 << (v * k + i)
                    for v in range(rows)
                    for i in range(k)
                    if v >> (pos * k + i) & 1
                )
                assert atom_column(pos, k, rows) == want


def test_wrong_false_failure_names_least_row(monkeypatch):
    # A kernel whose box ignores self-loops makes W g true at reflexive
    # states.  The battery's first failure must be where a one-frame scan,
    # frame by frame, formula by formula, first meets a reflexive state
    # with W g true, at its least (valuation, state) row.
    box = FrameEvaluator._box

    def box_without_loops(self, c, diags, out):
        return box(self, c, [(d, lack) for d, lack in diags if d != 0], out)  # offset 0: the loops

    monkeypatch.setattr(FrameEvaluator, "_box", box_without_loops)
    report = wrong_false_at_reflexive(2)

    def scan():
        wrapped = [W(g) for g in oracle.corpus_for(SearchBudget(atoms=("p",)))]
        checked = 0
        for frame in frames_up_to(2):
            refl = [i for i, s in enumerate(frame.states) if (s, s) in frame.relation]
            if not refl:
                continue
            ev, k = FrameEvaluator(frame, ("p",)), len(frame.states)
            for wg in wrapped:
                checked += 1
                col = ev.columns(wg)
                for v in range(ev.rows):
                    for i in refl:
                        if col >> (v * k + i) & 1:
                            named = f"{frame.states[i]} of {dump_model(model_at(frame, ('p',), v))}"
                            return checked, f"{print_formula(wg)} true at reflexive state {named}"

    assert (report.items_checked, report.failure) == scan()
    # The first case already fails: W p, with p nowhere, on the one-state loop.
    point = Model(frame_of_mask(1, 1), {"p": frozenset()})
    assert report.items_checked == 1
    assert report.failure == f"W p true at reflexive state s1 of {dump_model(point)}"
    head, named = report.failure.split(" of ", 1)
    formula, state = parse(head.split(" true at ")[0]), head.rsplit(" ", 1)[1]
    named_model, _ = load_model(named)
    assert (state, state) in named_model.frame.relation
    assert evaluate(named_model, state, formula) is False


# --- frame classes as circuits, and the frame-packed search -----------------


def _edge_columns(k, masks):
    """x[i][j]: bit n is set iff masks[n] has the edge i -> j."""
    return [
        [sum(1 << n for n, m in enumerate(masks) if m >> (i * k + j) & 1) for j in range(k)]
        for i in range(k)
    ]


def test_class_circuits_match_the_first_order_properties():
    assert set(VIOLATIONS) == set(PROPERTIES)
    samples = [(k, range(1 << (k * k))) for k in (1, 2, 3)] + [(4, range(5, 1 << 16, 61))]
    for k, masks in samples:
        masks = list(masks)
        x, full = _edge_columns(k, masks), (1 << len(masks)) - 1
        frames = [frame_of_mask(k, m) for m in masks]
        for p in PROPERTIES:
            bits = FrameClass(frozenset([p])).members(x, full)
            assert bits == sum(1 << n for n, fr in enumerate(frames) if has_property(fr, p)), (k, p)
    # A class is the conjunction of its properties.
    x, full = _edge_columns(3, range(512)), (1 << 512) - 1
    both = frame_class("serial+transitive").members(x, full)
    assert both == frame_class("serial").members(x, full) & frame_class("transitive").members(x, full)


_SEARCH_CLASSES = tuple(
    frame_class(c)
    for c in (
        "all", "serial", "reflexive", "transitive", "euclidean", "symmetric",
        "serial+transitive", "serial+euclidean", "partial-functional",
    )
)


def _brute_search(f, fc, budget, aux):
    """The per-frame search as a reference: (verdict, frames, models,
    witness JSON, state) from frames_up_to, the class filter and the
    recursive evaluator."""
    atoms = tuple(a for a in budget.atoms if a in atoms_of(f))
    ev = evaluate_aux if aux else evaluate
    frames = models = 0
    for frame in frames_up_to(budget.max_states):
        if not fc.contains(frame):
            continue
        frames += 1
        rows = 1 << (len(frame.states) * len(atoms))
        models += rows
        for v in range(rows):
            model = model_at(frame, atoms, v)
            for s in frame.states:
                if not ev(model, s, f):
                    return COUNTERMODEL, frames, models, dump_model(model), s
    return NO_COUNTERMODEL, frames, models, None, None


def _summary(report):
    witness = report.witness
    return (
        report.verdict,
        report.frames_examined,
        report.models_examined,
        None if witness is None else dump_model(witness[0]),
        None if witness is None else witness[1],
    )


# Column budgets from a few frames per chunk to the default: small ones
# split a class into many chunks, most with a padded last one.
_chunk_bits = st.sampled_from([64, 512, 4096, oracle._CHUNK_BITS])


@contextmanager
def _chunk_budget(bits):
    saved, oracle._CHUNK_BITS = oracle._CHUNK_BITS, bits
    try:
        yield
    finally:
        oracle._CHUNK_BITS = saved


@settings(max_examples=80, deadline=None)
@given(
    _formulas(W, Box, IR, FI),
    st.sampled_from(_SEARCH_CLASSES),
    st.integers(1, 3),
    st.booleans(),
    _chunk_bits,
)
def test_search_matches_the_per_frame_scan(f, fc, states, countermodel, bits):
    budget = SearchBudget(max_states=states, atoms=("p", "q"))
    search = find_countermodel if countermodel else valid_on
    for g in (f, Or(f, Not(f))):  # the second is an exhaustive search
        with _chunk_budget(bits):
            report = search(g, fc, budget)
        assert _summary(report) == _brute_search(g, fc, budget, aux=False)


@settings(max_examples=40, deadline=None)
@given(_formulas(IR), st.sampled_from(_SEARCH_CLASSES), st.integers(1, 3), _chunk_bits)
def test_aux_search_matches_the_per_frame_scan(f, fc, states, bits):
    budget = SearchBudget(max_states=states, atoms=("p", "q"))
    for g in (f, Or(f, Not(f))):
        with _chunk_budget(bits):
            report = aux_valid_on(g, fc, budget)
        assert _summary(report) == _brute_search(g, fc, budget, aux=True)


@settings(max_examples=60, deadline=None)
@given(
    _formulas(W, Box, IR, FI),
    st.sampled_from(_SEARCH_CLASSES),
    st.integers(1, 3),
    st.booleans(),
    _chunk_bits,
)
def test_packed_columns_match_one_frame_columns(f, fc, k, aux, bits):
    atoms = ("p", "q")
    valuations = 1 << (k * len(atoms))
    with _chunk_budget(bits):
        chunks = list(oracle._class_chunks(fc, k, valuations))
    members = [m for m in range(1 << (k * k)) if fc.contains(frame_of_mask(k, m))]
    assert [c.mask(t) for c in chunks for t in range(c.live)] == members
    state = (1 << k) - 1
    for chunk in chunks:
        ev = FrameEvaluator(chunk, atoms, aux=aux)
        col, slots = ev.columns(f), chunk.slots
        for t in range(chunk.live):
            one = FrameEvaluator(frame_of_mask(k, chunk.mask(t)), atoms, aux=aux)
            want = one.columns(f)
            for v in range(valuations):
                assert (col >> ((v * slots + t) * k)) & state == (want >> (v * k)) & state


def _kernel_chunks(k):
    """Chunks of seeded random ``k``-state frames for the kernel test:
    a padded one that holds a frame with every loop and one with none,
    one where every slot has the edge ``s1 -> sk`` and one where no slot
    has ``sk -> s1``."""
    rng = random.Random(k)
    slots = 1 << (k if k >= 3 else 2 * k)
    loops = sum(1 << (i * k + i) for i in range(k))
    masks = [rng.getrandbits(k * k) for _ in range(3 * slots)]
    padded = [masks[0] | loops, masks[1] & ~loops] + masks[2 : slots * 3 // 4]
    every = [m | 1 << (k - 1) for m in masks[slots : 2 * slots]]
    none = [m & ~(1 << (k - 1) * k) for m in masks[2 * slots :]]
    return [FrameChunk.of([frame_of_mask(k, m) for m in ms], slots) for ms in (padded, every, none)]


_KERNEL_FORMULAS = [parse(t) for t in ("B p", "W p", "IR p", "FI p", "W ~W p", "IR (p & FI p)")]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_kernel_matches_the_reference_up_to_five_states(k):
    # Every bit of every slot, padding included (a padding slot holds the
    # complete frame).  p comes second below 4 states, so its column sits
    # above q's and the slots.
    atoms = ("q", "p") if k <= 3 else ("p",)
    complete = frame_of_mask(k, (1 << (k * k)) - 1)
    for chunk in _kernel_chunks(k):
        frames = [frame_of_mask(k, chunk.mask(t)) for t in range(chunk.live)]
        frames += [complete] * (chunk.slots - chunk.live)
        cases = [(f, False) for f in _KERNEL_FORMULAS] + [(parse("IR (p & ~IR p)"), True)]
        for f, aux in cases:
            ev = FrameEvaluator(chunk, atoms, aux=aux)
            col, check = ev.columns(f), evaluate_aux if aux else evaluate
            assert 0 <= col <= ev.full
            for t, frame in enumerate(frames):
                for v in range(1 << (k * len(atoms))):
                    model = model_at(frame, atoms, v)
                    for i, s in enumerate(frame.states):
                        assert bool(col >> ((v * chunk.slots + t) * k + i) & 1) == check(model, s, f)


def test_five_state_members_stream_in_mask_order():
    # Above 4 states members come in blocks of 2^16 masks; check the first
    # chunks of the first block against the first-order filter.
    for fc in (frame_class("all"), frame_class("symmetric")):
        chunks = islice(oracle._class_chunks(fc, 5, 1 << 10), 2)  # 32 frames each
        got = [c.mask(t) for c in chunks for t in range(c.live)]
        want = list(islice((m for m in range(1 << 16) if fc.contains(frame_of_mask(5, m))), len(got)))
        assert len(got) == 64 and got == want


def test_witnesses_in_later_and_padded_chunks(monkeypatch):
    # With this budget, 2-state frames over one atom come 4 to a chunk.
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 64)
    budget = SearchBudget(max_states=2, atoms=("p",))
    functional, euclidean = frame_class("partial-functional"), frame_class("euclidean")
    # partial-functional masks 0 1 2 4 | 5 6 8 9 | 10 + 3 padding slots;
    # euclidean masks 0 1 5 8 | 9 10 15 + 1 padding slot.
    assert [c.live for c in oracle._class_chunks(functional, 2, 4)] == [4, 4, 1]
    assert [c.live for c in oracle._class_chunks(euclidean, 2, 4)] == [4, 3]
    cases = [
        (functional, "B B ~W p", 6),  # slot 1 of the second chunk
        (euclidean, "B FI ~IR p", 15),  # slot 2 of the padded last chunk
        (functional, "B p | B ~p", None),  # false only on the padding
    ]
    for fc, text, mask in cases:
        f = parse(text)
        report = valid_on(f, fc, budget)
        assert _summary(report) == _brute_search(f, fc, budget, aux=False)
        if mask is None:
            assert report.verdict == NO_COUNTERMODEL
        else:
            assert report.witness[0].frame == frame_of_mask(2, mask)
    # The padding slots (complete frames) do falsify B p | B ~p.
    last = FrameEvaluator(list(oracle._class_chunks(functional, 2, 4))[-1], ("p",))
    f = parse("B p | B ~p")
    assert last.columns(f) != last.full and last.valid(f)


# --- the isomorphism-reduced search -----------------------------------------


def _relabel(k, perm, mask):
    """The mask of frame ``mask`` with each state ``i`` renamed ``perm[i]``."""
    return sum(1 << (perm[e // k] * k + perm[e % k]) for e in range(k * k) if mask >> e & 1)


_RELABEL_SAMPLES = [(k, range(1 << (k * k))) for k in (1, 2, 3)] + [(4, range(5, 1 << 16, 61))]


def test_class_circuits_are_closed_under_relabelling():
    # The reduction rests on this: a class holds a frame iff it holds
    # every frame isomorphic to it.
    for k, masks in _RELABEL_SAMPLES:
        masks = list(masks)
        full = (1 << len(masks)) - 1
        x = _edge_columns(k, masks)
        for perm in permutations(range(k)):
            y = _edge_columns(k, [_relabel(k, perm, m) for m in masks])
            for p in VIOLATIONS:
                fc = FrameClass(frozenset([p]))
                assert fc.members(x, full) == fc.members(y, full), (k, perm, p)


def test_canonical_circuit_keeps_the_least_mask_of_each_isomorphism_class():
    # One frame per isomorphism class: OEIS A000595.
    for k, classes in zip((1, 2, 3, 4), (2, 10, 104, 3044)):
        size = 1 << (k * k)
        has = [atom_column(e, 1, size) for e in range(k * k)]
        assert oracle._canonical(k, has, (1 << size) - 1).bit_count() == classes
    for k, masks in _RELABEL_SAMPLES:
        masks = list(masks)
        has = [col for row in _edge_columns(k, masks) for col in row]
        got = oracle._canonical(k, has, (1 << len(masks)) - 1)
        perms = list(permutations(range(k)))
        least = [min(_relabel(k, perm, m) for perm in perms) for m in masks]
        assert got == sum(1 << n for n, m in enumerate(masks) if least[n] == m), k
    # The first 5-state block (masks below 2^16) as the search packs it.
    # Each row of 5 edge bits is relabelled by a table; below 2^16, row 3
    # holds at most bit 15 and row 4 nothing.
    members, lack = next(oracle._class_blocks(ALL_FRAMES, 5, canonical=True))
    assert members == (1 << (1 << 16)) - 1
    got = [sum(1 << e for e, d in enumerate(lack) if d[-1 - t] == "0") for t in range(len(lack[0]))]
    least = list(range(1 << 16))
    for perm in permutations(range(5)):
        t0, t1, t2, t3 = (
            [_relabel(5, perm, bits << (5 * i)) for bits in range(32 if i < 3 else 2)] for i in range(4)
        )
        least = list(map(min, least, (a | b | c | d for d in t3 for c in t2 for b in t1 for a in t0)))
    assert got == [m for m, low in enumerate(least) if low == m]


def test_reduced_search_streams_five_state_blocks_without_canonical_frames():
    # Symmetric relations up to isomorphism: 2, 6, 20, 90, 544 (OEIS
    # A000666).  At 5 states most blocks with members hold no canonical
    # frame, yet the search counts their members.
    symmetric = frame_class("symmetric")
    for k, classes in zip(range(1, 6), (2, 6, 20, 90, 544)):
        blocks = list(oracle._class_blocks(symmetric, k, canonical=True))
        assert sum(len(lack[0]) for _, lack in blocks) == classes
    assert sum(not lack[0] for _, lack in blocks) > 0
    report = valid_on(parse("B T"), symmetric, SearchBudget(max_states=5))
    assert (report.verdict, report.frames_examined) == (NO_COUNTERMODEL, 2 + 8 + 64 + 1024 + 32768)


# The paper's axioms on the frame classes of the 4-state search table.
_PAPER_AXIOMS = (
    "W p -> ~p",
    "W p & W q -> W (p & q)",
    "~W F",
    "~W p",
    "W q & W (p & q) -> W ((W r -> W (p & r)) & q)",
    "W q & ~W (p & q) -> W ((W r -> ~W (p & r)) & q)",
    "W q & ~p -> W ((W r -> ~W (p & r)) & q)",
    "W q -> W ((W r -> W (p & r)) & q)",
    "W p -> W (~W q & p)",
    "IR p <-> IR ~p",
    "IR p & ~p & IR q & ~q -> IR (p & q)",
    "~IR F",
    "IR q & ~q & (IR (p & q) & ~(p & q)) -> IR ((IR r & ~r -> IR (p & r) & ~(p & r)) & q)"
    " & ~((IR r & ~r -> IR (p & r) & ~(p & r)) & q)",
    "W q -> (B p <-> W (p & q))",
)
_TABLE_CLASSES = (
    "all", "serial", "reflexive", "transitive", "euclidean", "symmetric",
    "serial+transitive", "serial+euclidean",
)


def _labeled_search(f, fc, budget):
    """The search over every labeled class member, chunk by chunk, as
    ``_summary`` gives it: the reference for the reduced search."""
    atoms = tuple(a for a in budget.atoms if a in atoms_of(f))
    frames = models = 0
    for k in range(1, budget.max_states + 1):
        valuations = 1 << (k * len(atoms))
        for chunk in oracle._class_chunks(fc, k, valuations):
            ev = FrameEvaluator(chunk, atoms)
            row = ev.least_row(ev.full ^ ev.columns(f))
            seen = chunk.live if row is None else row[0] % chunk.slots + 1
            frames += seen
            models += seen * valuations
            if row is not None:
                model, state = ev.witness(row)
                return COUNTERMODEL, frames, models, dump_model(model), state
    return NO_COUNTERMODEL, frames, models, None, None


def test_reduced_search_matches_the_labeled_search_at_four_states():
    budget = SearchBudget(max_states=4)
    cases = [(parse(text), frame_class(c)) for text in _PAPER_AXIOMS for c in _TABLE_CLASSES]
    # The labeled reference does not depend on the chunk size (see the
    # per-frame tests above), so it runs once.
    want = [_labeled_search(f, fc, budget) for f, fc in cases]
    assert sum(w[0] == COUNTERMODEL for w in want) == 40
    for bits in (oracle._CHUNK_BITS, 4096):
        with _chunk_budget(bits):
            got = [_summary(valid_on(f, fc, budget)) for f, fc in cases]
        assert got == want, bits


def test_canonical_witnesses_in_later_and_padded_chunks(monkeypatch):
    # 2-state frames over one atom come 4 to a chunk, and the search packs
    # the 10 canonical masks: 0 1 2 3 | 5 6 7 9 | 11 15 + 2 padding slots.
    # Masks 4, 8, 10, 12, 13 and 14 are relabellings of smaller ones.
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 64)
    budget = SearchBudget(max_states=2, atoms=("p",))
    (members, lack), = oracle._blocks(ALL_FRAMES, 2, canonical=True)
    chunks = list(oracle._pack(2, lack, 4))
    assert [[c.mask(t) for t in range(c.live)] for c in chunks] == [[0, 1, 2, 3], [5, 6, 7, 9], [11, 15]]
    cases = [
        # Slot 1 of the second chunk; the scan also visits masks 0 to 5,
        # the non-canonical 4 among them, after the 2 one-state frames.
        ("B ~W B p", 6, 2 + 7),
        # Slot 1 of the padded last chunk, after every 2-state frame.
        ("B p | B ~p | ~B ~(B p | B ~p)", 15, 2 + 16),
        # Slot 3 of the first chunk: no non-canonical mask lies below it.
        ("B B ~IR p", 3, 2 + 4),
    ]
    for text, mask, frames in cases:
        f = parse(text)
        report = valid_on(f, ALL_FRAMES, budget)
        assert _summary(report) == _brute_search(f, ALL_FRAMES, budget, aux=False)
        assert report.witness[0].frame == frame_of_mask(2, mask)
        assert (report.frames_examined, report.models_examined) == (frames, 2 * 2 + (frames - 2) * 4)
