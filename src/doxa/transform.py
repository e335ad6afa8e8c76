"""Syntactic translations and truth-preserving model constructions.

The translation chains rewrite the familiar box axioms 4, 5 and B into
the box-free language step by step; each consecutive pair of lines is
biconditionally valid, which ``check_chain`` verifies by bounded search.
The model constructions (Euclidean closure, generated submodel, cone
augmentation) come with ``verify_preservation`` so nothing is taken on
faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from . import oracle, semantics
from .oracle import SearchBudget, VerdictReport
from .semantics import ALL_FRAMES, Frame, FrameClass, LanguageError, Model, frame_class, has_property
from .syntax import (
    FI,
    IR,
    And,
    Atom,
    Bot,
    Box,
    Formula,
    Iff,
    Not,
    Or,
    Top,
    W,
    parse,
    print_formula,
)


def w_to_ri(f: Formula) -> Formula:
    """Rewrite each W g into IR g' & ~g', innermost first."""
    if isinstance(f, (Box, FI)):
        raise LanguageError(f"{f} is outside the W-language")
    if isinstance(f, (Atom, Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(w_to_ri(f.arg))
    if isinstance(f, W):
        inner = w_to_ri(f.arg)
        return And(IR(inner), Not(inner))
    if isinstance(f, IR):
        return IR(w_to_ri(f.arg))
    return type(f)(w_to_ri(f.left), w_to_ri(f.right))


def ri_to_w(f: Formula) -> Formula:
    """Rewrite each IR g into W g' | W ~g', innermost first."""
    if isinstance(f, (Box, W, FI)):
        raise LanguageError(f"{f} is outside the IR-language")
    if isinstance(f, (Atom, Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(ri_to_w(f.arg))
    if isinstance(f, IR):
        inner = ri_to_w(f.arg)
        return Or(W(inner), W(Not(inner)))
    return type(f)(ri_to_w(f.left), ri_to_w(f.right))


# ---------------------------------------------------------------------------
# Translation chains


@dataclass(frozen=True)
class TranslationChain:
    name: str
    lines: tuple[Formula, ...]

    @property
    def final(self) -> Formula:
        return self.lines[-1]


_CHAIN_LINES = {
    "4": (
        "W q -> (B p -> B (W r -> B p))",
        "W q -> (W (p & q) -> W ((W r -> B p) & q))",
        "W q -> (W (p & q) -> W ((W r -> W (p & r)) & q))",
        "W q & W (p & q) -> W ((W r -> W (p & r)) & q)",
    ),
    "5": (
        "W q -> (~B p -> B (W r -> ~B p))",
        "W q -> (~W (p & q) -> W ((W r -> ~B p) & q))",
        "W q -> (~W (p & q) -> W ((W r -> ~W (p & r)) & q))",
        "W q & ~W (p & q) -> W ((W r -> ~W (p & r)) & q)",
    ),
    "B": (
        "W q -> (~p -> B (W r -> ~B p))",
        "W q -> (~p -> W ((W r -> ~B p) & q))",
        "W q -> (~p -> W ((W r -> ~W (p & r)) & q))",
        "W q & ~p -> W ((W r -> ~W (p & r)) & q)",
    ),
}


def almost_def_chain(axiom: str) -> TranslationChain:
    """The guarded rewrite of box axiom 4, 5 or B down to the W-language.

    Line 1 states the box axiom under the guard W q; the following lines
    replace box subformulas by their guarded W-equivalents; the last line
    is the box-free axiom (A4, A5, AB).
    """
    key = str(axiom)
    if key not in _CHAIN_LINES:
        raise ValueError(f"unknown chain {axiom!r}; expected one of 4, 5, B")
    return TranslationChain(
        name=f"A{key}-chain", lines=tuple(parse(s) for s in _CHAIN_LINES[key])
    )


@dataclass
class ChainReport:
    chain: TranslationChain
    steps: list[VerdictReport]

    @property
    def passed(self) -> bool:
        return all(not s.countermodel_found for s in self.steps)


def check_chain(chain: TranslationChain, budget: SearchBudget = SearchBudget()) -> ChainReport:
    """Bounded equivalence check of each consecutive pair of chain lines."""
    steps = [
        oracle.valid_on(Iff(a, b), ALL_FRAMES, budget)
        for a, b in zip(chain.lines, chain.lines[1:])
    ]
    return ChainReport(chain, steps)


# ---------------------------------------------------------------------------
# Model constructions


def _with_relation(m: Model, relation: frozenset[tuple[str, str]]) -> Model:
    return Model(Frame(m.frame.states, relation), m.valuation)


def euclidean_closure(m: Model) -> Model:
    """Add every pair (y, z) whose ends both have an incoming edge.

    The result is always Euclidean.  Truth of W-language formulas is
    preserved when the input is secondarily reflexive; use
    ``verify_preservation`` to check a particular model.
    """
    targets = {y for _, y in m.frame.relation}
    added = {(y, z) for y in targets for z in targets}
    return _with_relation(m, m.frame.relation | added)


def generated_submodel(m: Model, state: str) -> Model:
    """Restriction to the states reachable from ``state`` (inclusive)."""
    if state not in m.frame.successor_map:
        raise semantics.UnknownStateError(state)
    reached = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        for t in m.frame.successor_map[s]:
            if t not in reached:
                reached.add(t)
                frontier.append(t)
    states = tuple(s for s in m.frame.states if s in reached)
    relation = frozenset(p for p in m.frame.relation if p[0] in reached and p[1] in reached)
    valuation = {a: v & reached for a, v in m.valuation.items()}
    return Model(Frame(states, relation), valuation)


def cone_augment(m: Model, state: str) -> Model:
    """Add all pairs within the successor cone of ``state``.

    Intended for transitive, secondarily reflexive models generated by
    ``state``; on those the result is transitive and Euclidean, which the
    batteries re-check rather than assume.
    """
    cone = m.frame.successors(state)
    added = {(y, z) for y in cone for z in cone}
    return _with_relation(m, m.frame.relation | added)


@dataclass
class PreservationReport:
    ok: bool
    state: str | None
    formula: Formula | None
    formulas_checked: int


def verify_preservation(
    m1: Model,
    m2: Model,
    budget: SearchBudget = SearchBudget(atoms=("p",)),
) -> PreservationReport:
    """Truth agreement between two models on shared states, over the corpus.

    Reports the first (state, formula) violation in corpus order if any.
    """
    states = [s for s in m1.frame.states if s in m2.frame.successor_map]
    checked = 0
    for f in oracle.corpus_for(budget):
        checked += 1
        for s in states:
            if semantics.evaluate(m1, s, f) != semantics.evaluate(m2, s, f):
                return PreservationReport(False, s, f, checked)
    return PreservationReport(True, None, None, checked)


# ---------------------------------------------------------------------------
# Exhaustive construction batteries (bit-parallel over valuations and frames)


def _preservation_battery(
    name: str, max_states: int, budget: SearchBudget, admits: FrameClass,
    constructions: Callable[[Frame], Iterable[tuple[str | None, Frame]]],
    keeps: FrameClass, lost: str,
) -> oracle.BatteryReport:
    """Over every frame in ``admits``: each ``(root, built)`` construction
    lies in ``keeps`` (else fails with ``lost``, formatted with ``root``
    and the frame's model JSON) and preserves the corpus at every state.

    The ``(frame, built)`` items of each chunk of admitted frames are
    packed slot by slot into two chunks, so a corpus formula is evaluated
    once per side and chunk; a case is one item."""
    corpus = oracle.corpus_for(budget)
    last = oracle.last_uses(corpus)
    checked = 0
    for k in range(1, max_states + 1):
        for chunk in oracle._class_chunks(admits, k, 1 << (k * len(budget.atoms))):
            items, failure = [], None
            for t in range(chunk.live):
                frame = oracle.frame_of_mask(k, chunk.mask(t))
                for root, built in constructions(frame):
                    if not keeps.contains(built):
                        failure = lost.format(frame=semantics.dump_model(Model(frame)), root=root)
                        break
                    items.append((frame, built))
                if failure is not None:
                    break
            # The items before a lost property are checked first.
            for start in range(0, len(items), chunk.slots):
                batch = items[start : start + chunk.slots]
                change = _first_change(batch, chunk.slots, corpus, last, budget.atoms)
                if change is not None:
                    slot, text = change
                    return oracle.BatteryReport(name, checked + slot + 1, text)
                checked += len(batch)
            if failure is not None:
                return oracle.BatteryReport(name, checked + 1, failure)
    return oracle.BatteryReport(name, checked)


def _first_change(
    items: list[tuple[Frame, Frame]], slots: int, corpus: tuple[Formula, ...],
    last: list[list[Formula]], atoms: tuple[str, ...],
) -> tuple[int, str] | None:
    """The first item (its slot) and corpus formula whose truth differs
    between the frame and the built frame of an item, and its text."""
    frames, built = zip(*items)
    ev = oracle.FrameEvaluator(oracle.FrameChunk.of(frames, slots), atoms)
    ev_built = oracle.FrameEvaluator(oracle.FrameChunk.of(built, slots), atoms)
    pairs = zip(ev.each_column(corpus, last), ev_built.each_column(corpus, last))
    hit = ev.first_failure(a ^ b for a, b in pairs)
    if hit is None:
        return None
    slot, n, row = hit
    return slot, f"{print_formula(corpus[n])} changes truth at {ev.describe(row)}"


def closure_battery(
    max_states: int = 4, budget: SearchBudget = SearchBudget(atoms=("p",))
) -> oracle.BatteryReport:
    """Over all secondarily reflexive models: closure is Euclidean and
    preserves the corpus at every state."""
    return _preservation_battery(
        "euclidean-closure", max_states, budget,
        frame_class("secondarily-reflexive"),
        lambda frame: [(None, euclidean_closure(Model(frame)).frame)],
        frame_class("euclidean"), "closure of {frame} not Euclidean",
    )


def _rooted_augmentations(frame: Frame) -> Iterator[tuple[str, Frame]]:
    base = Model(frame)
    for root in frame.states:
        if generated_submodel(base, root).frame == frame:
            yield root, cone_augment(base, root).frame


def cone_battery(
    max_states: int = 4, budget: SearchBudget = SearchBudget(atoms=("p",))
) -> oracle.BatteryReport:
    """Over all transitive, secondarily reflexive models generated by a root:
    cone augmentation is transitive and Euclidean and preserves the corpus."""
    return _preservation_battery(
        "cone-augment", max_states, budget,
        frame_class("transitive+secondarily-reflexive"),
        _rooted_augmentations,
        frame_class("transitive+euclidean"),
        "augmentation of {frame} at {root} lost transitivity or Euclideanness",
    )


_SUBMODEL_PROPERTIES = (
    "reflexive",
    "serial",
    "transitive",
    "euclidean",
    "symmetric",
    "secondarily-reflexive",
)


def submodel_property_battery(max_states: int = 4) -> oracle.BatteryReport:
    """Generated submodels keep each listed frame property."""
    checked = 0
    for frame in oracle.frames_up_to(max_states):
        held = [p for p in _SUBMODEL_PROPERTIES if has_property(frame, p)]
        if not held:
            continue
        base = Model(frame)
        for root in frame.states:
            sub = generated_submodel(base, root).frame
            checked += 1
            for p in held:
                if not has_property(sub, p):
                    return oracle.BatteryReport(
                        "generated-submodel-properties",
                        checked,
                        f"{p} lost by the submodel of {semantics.dump_model(base)} at {root}",
                    )
    return oracle.BatteryReport("generated-submodel-properties", checked)


def translation_battery(
    direction: str, max_states: int = 3, budget: SearchBudget = SearchBudget(atoms=("p",))
) -> oracle.BatteryReport:
    """Truth preservation of the interdefinability rewrites on the corpus.

    ``direction`` is ``w2ri``, ``ri2w`` or ``roundtrip``.
    """
    if direction == "w2ri":
        pairs = [(f, w_to_ri(f)) for f in oracle.corpus_for(budget, ("W",))]
    elif direction == "ri2w":
        pairs = [(f, ri_to_w(f)) for f in oracle.corpus_for(budget, ("IR",))]
    elif direction == "roundtrip":
        pairs = [(f, ri_to_w(w_to_ri(f))) for f in oracle.corpus_for(budget, ("W",))]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    name = f"translation-{direction}"
    flat = [h for pair in pairs for h in pair]  # f, g of each pair
    last = oracle.last_uses(flat)
    checked = 0
    for k in range(1, max_states + 1):
        for chunk in oracle._class_chunks(ALL_FRAMES, k, 1 << (k * len(budget.atoms))):
            ev = oracle.FrameEvaluator(chunk, budget.atoms)
            cols = ev.each_column(flat, last)
            hit = ev.first_failure(a ^ b for a, b in zip(cols, cols))
            if hit is not None:
                slot, n, row = hit
                f, g = pairs[n]
                return oracle.BatteryReport(
                    name,
                    checked + slot * len(pairs) + n + 1,
                    f"{print_formula(f)} vs {print_formula(g)} differ at {ev.describe(row)}",
                )
            checked += chunk.live * len(pairs)
    return oracle.BatteryReport(name, checked)
