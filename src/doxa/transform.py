"""Syntactic translations and truth-preserving model constructions.

The translation chains rewrite the familiar box axioms 4, 5 and B into
the box-free language step by step; each consecutive pair of lines is
biconditionally valid, which ``check_chain`` verifies by bounded search.
The model constructions (Euclidean closure, generated submodel, cone
augmentation) come with ``verify_preservation`` so nothing is taken on
faith.  ``w_to_ri`` and ``ri_to_w`` are one rewrite, ``_rewriter``, told
which operator to replace, by what, and which operators lie outside the
source language.  Formulas are interned (``syntax.Formula``), so each
direction keeps one cache of rewritten nodes: a subformula shared by many
formulas, as in a corpus, is rewritten once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Sequence

from . import oracle, semantics
from .oracle import FrameChunk, FrameEvaluator, SearchBudget, VerdictReport
from .semantics import ALL_FRAMES, Frame, FrameClass, LanguageError, Model, frame_class, has_property
from .syntax import FI, IR, And, Box, Formula, Iff, Not, Or, W, children, parse, print_formula


def _rewriter(op: type, outside: tuple, language: str, wrap: Callable) -> Callable[[Formula], Formula]:
    """The rewrite of each ``op g`` into ``wrap(g')``, innermost first; the
    first subformula in pre-order of an ``outside`` type is a
    ``LanguageError``.  Its cache rewrites each distinct node once."""

    @cache
    def rewrite(f: Formula) -> Formula:
        if isinstance(f, outside):
            raise LanguageError(f"{f} is outside the {language}-language")
        parts = [rewrite(g) for g in children(f)]
        if isinstance(f, op):
            return wrap(*parts)
        return type(f)(*parts) if parts else f

    return rewrite


_w_to_ri = _rewriter(W, (Box, FI), "W", lambda g: And(IR(g), Not(g)))
_ri_to_w = _rewriter(IR, (Box, W, FI), "IR", lambda g: Or(W(g), W(Not(g))))


def w_to_ri(f: Formula) -> Formula:
    """Rewrite each W g into IR g' & ~g', innermost first."""
    return _w_to_ri(f)


def ri_to_w(f: Formula) -> Formula:
    """Rewrite each IR g into W g' | W ~g', innermost first."""
    return _ri_to_w(f)


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
    constructions: Callable[[Frame], Iterable[tuple[str | None, Frame]]], count: Callable,
    keeps: FrameClass, lost: str,
) -> oracle.BatteryReport:
    """Over every frame in ``admits``: each ``(root, built)`` construction
    lies in ``keeps`` (else fails with ``lost``, formatted with ``root``
    and the frame's model JSON) and preserves the corpus at every state.

    The ``(frame, built)`` items of each chunk of admitted frames are
    packed slot by slot into two chunks, so a corpus formula is evaluated
    once per side and pack, and the ``keeps`` circuit classes the built
    frames of a pack in the same pass; a case is one item, and ``count``
    is ``run_battery``'s ``items``: the number of constructions of each
    frame."""
    corpus = oracle.corpus_for(budget)
    last = oracle.last_uses(corpus)

    def check(chunk: FrameChunk):
        frames = [oracle.frame_of_mask(chunk.k, mask) for mask in chunk.masks()]
        made = [list(constructions(frame)) for frame in frames]  # the (root, built) items of each slot
        items = [(t, n, root, built) for t, pairs in enumerate(made) for n, (root, built) in enumerate(pairs)]
        for start in range(0, len(items), chunk.slots):
            slots, ns, roots, built = zip(*items[start : start + chunk.slots])
            packed = FrameChunk.of(built, chunk.slots)
            kept = packed.masks([keeps.members(packed.edges, packed.every)])
            cut = next((i for i, bit in enumerate(kept) if not bit), len(kept))  # the first item outside keeps
            ev = FrameEvaluator(FrameChunk.of([frames[t] for t in slots], chunk.slots), budget.atoms)
            ev_built = FrameEvaluator(packed, budget.atoms)
            changes = (a ^ b for a, b in zip(ev.each_column(corpus, last), ev_built.each_column(corpus, last)))
            hit = ev.first_failure(changes, lambda n, at: f"{print_formula(corpus[n])} changes truth at {at}")
            if hit is not None and hit[0] < cut:
                return slots[hit[0]], ns[hit[0]], hit[2]
            if cut < len(kept):  # a lost property fails before its item's truth is compared
                frame = semantics.dump_model(Model(frames[slots[cut]]))
                return slots[cut], ns[cut], lost.format(frame=frame, root=roots[cut])
        return None

    return oracle.run_battery(name, admits, max_states, budget.atoms, check, count)


def closure_battery(
    max_states: int = 4, budget: SearchBudget = SearchBudget(atoms=("p",))
) -> oracle.BatteryReport:
    """Over all secondarily reflexive models: closure is Euclidean and
    preserves the corpus at every state."""
    return _preservation_battery(
        "euclidean-closure", max_states, budget,
        frame_class("secondarily-reflexive"),
        lambda frame: [(None, euclidean_closure(Model(frame)).frame)],
        lambda x, members: [(1, members)],
        frame_class("euclidean"), "closure of {frame} not Euclidean",
    )


def _rooted_augmentations(frame: Frame) -> Iterator[tuple[str, Frame]]:
    base = Model(frame)
    for root in frame.states:
        if generated_submodel(base, root).frame == frame:
            yield root, cone_augment(base, root).frame


def _generating_roots(x: Sequence[Sequence[int]], members: int) -> list[tuple[int, int]]:
    """The count of ``_rooted_augmentations``: one ``(1, bits)`` per root
    ``r``, bit ``m`` set iff member ``m`` is generated by ``r``.  Each
    round extends the paths from ``r`` by one edge, and a state reachable
    from ``r`` is reachable in ``k - 1`` edges."""
    k = len(x)
    out = []
    for r in range(k):
        reach = [members if j == r else 0 for j in range(k)]  # bit m: state j is reachable in frame m
        for _ in range(k - 1):
            reach = [reduce(or_, (reach[i] & x[i][j] for i in range(k)), reach[j]) for j in range(k)]
        out.append((1, reduce(and_, reach)))
    return out


def cone_battery(
    max_states: int = 4, budget: SearchBudget = SearchBudget(atoms=("p",))
) -> oracle.BatteryReport:
    """Over all transitive, secondarily reflexive models generated by a root:
    cone augmentation is transitive and Euclidean and preserves the corpus."""
    return _preservation_battery(
        "cone-augment", max_states, budget,
        frame_class("transitive+secondarily-reflexive"),
        _rooted_augmentations,
        _generating_roots,
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
    """Generated submodels keep each listed frame property (one equal to
    its frame does); a case is one root of a frame with any of them."""

    def check(chunk: FrameChunk):
        k, every, edges = chunk.k, chunk.every, chunk.edges
        held = [frame_class(p).members(edges, every) for p in _SUBMODEL_PROPERTIES]  # bit t*k: slot t has p
        props = chunk.masks(held)  # bit b: property b
        for t, (mask, bits) in enumerate(zip(chunk.masks(), props)):
            if not bits:
                continue
            base = Model(oracle.frame_of_mask(k, mask))
            for n, root in enumerate(base.frame.states):
                sub = generated_submodel(base, root).frame
                for b, p in enumerate(_SUBMODEL_PROPERTIES):
                    if bits >> b & 1 and sub != base.frame and not has_property(sub, p):
                        return t, n, f"{p} lost by the submodel of {semantics.dump_model(base)} at {root}"
        return None

    def items(x, members):  # each root of a frame with any of the properties
        return [(len(x), reduce(or_, (frame_class(p).members(x, members) for p in _SUBMODEL_PROPERTIES)))]

    return oracle.run_battery("generated-submodel-properties", ALL_FRAMES, max_states, (), check, items)


def translation_battery(
    direction: str, max_states: int = 3, budget: SearchBudget = SearchBudget(atoms=("p",))
) -> oracle.BatteryReport:
    """Truth preservation of the interdefinability rewrites on the corpus.

    ``direction`` is ``w2ri``, ``ri2w`` or ``roundtrip``.
    """
    rewrites = {"w2ri": w_to_ri, "ri2w": ri_to_w, "roundtrip": lambda f: ri_to_w(w_to_ri(f))}
    if direction not in rewrites:
        raise ValueError(f"unknown direction {direction!r}")
    corpus = oracle.corpus_for(budget, ("IR",) if direction == "ri2w" else ("W",))
    pairs = [(f, rewrites[direction](f)) for f in corpus]
    flat = [h for pair in pairs for h in pair]  # f, g of each pair
    last = oracle.last_uses(flat)

    def check(chunk: FrameChunk):
        ev = FrameEvaluator(chunk, budget.atoms)
        cols = ev.each_column(flat, last)
        return ev.first_failure(
            (a ^ b for a, b in zip(cols, cols)),
            lambda n, at: f"{print_formula(pairs[n][0])} vs {print_formula(pairs[n][1])} differ at {at}",
        )

    return oracle.run_battery(
        f"translation-{direction}", ALL_FRAMES, max_states, budget.atoms, check, lambda x, members: [(len(pairs), members)]
    )
