"""Bounded exhaustive search: frames, valuations, formulas, verdicts.

Frames are enumerated labeled, smallest first, in lexicographic order of
the relation bitmask; valuations likewise.  Searches therefore return
deterministic first witnesses.  A countermodel verdict is conclusive
invalidity; the absence of one is evidence only and is always reported
with its budget.

Search uses a bit-parallel evaluator: on a frame of ``k`` states, the
column of a formula is one int whose bit ``v*k + i`` is its truth at
state ``i`` under valuation index ``v``, so its lowest set bit is the
least ``(valuation, state)`` row: the witness order of every search and
battery.  Every witness is re-checked by the independent recursive
evaluator before a report is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, Sequence

from . import semantics
from .semantics import ALL_FRAMES, Frame, FrameClass, Model
from .syntax import (
    FI,
    IR,
    And,
    Atom,
    Bot,
    Box,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    Top,
    W,
    atoms_of,
    modal_depth,
    print_formula,
)

NO_COUNTERMODEL = "no-countermodel-up-to-budget"
COUNTERMODEL = "countermodel-found"


class BudgetError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBudget:
    max_states: int = 3
    atoms: tuple[str, ...] = ("p", "q", "r")
    max_modal_depth: int = 2
    max_size: int = 7

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")


@dataclass
class VerdictReport:
    query: str
    verdict: str
    witness: tuple[Model, str] | None
    frames_examined: int
    models_examined: int

    def __post_init__(self):
        assert (self.witness is not None) == (self.verdict == COUNTERMODEL)

    @property
    def countermodel_found(self) -> bool:
        return self.verdict == COUNTERMODEL


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_frames(max_states: int) -> Iterator[Frame]:
    """All labeled frames on {s1..sk} for k <= max_states; 2^(k*k) per k."""
    for k in range(1, max_states + 1):
        states = tuple(f"s{i + 1}" for i in range(k))
        pairs = [(states[i], states[j]) for i in range(k) for j in range(k)]
        for mask in range(1 << (k * k)):
            relation = frozenset(
                pairs[b] for b in range(k * k) if (mask >> b) & 1
            )
            yield Frame(states, relation)


@lru_cache(maxsize=8)
def _frames_cached(max_states: int) -> tuple[Frame, ...]:
    return tuple(enumerate_frames(max_states))


def frames_up_to(max_states: int) -> Iterator[Frame]:
    # Cache only desk-scale enumerations; stream anything larger.
    if max_states <= 4:
        return iter(_frames_cached(max_states))
    return chain(iter(_frames_cached(4)), (
        fr for fr in enumerate_frames(max_states) if len(fr.states) > 4
    ))


def enumerate_models(frame: Frame, atoms: Sequence[str]) -> Iterator[Model]:
    """All valuations of ``atoms`` over the frame; 2^(|S|*|atoms|) models."""
    k = len(frame.states)
    for v in range(1 << (k * len(atoms))):
        yield model_at(frame, tuple(atoms), v)


def model_at(frame: Frame, atoms: tuple[str, ...], index: int) -> Model:
    """The model at position ``index`` of the valuation enumeration."""
    k = len(frame.states)
    valuation = {
        a: frozenset(
            frame.states[s] for s in range(k) if (index >> (ai * k + s)) & 1
        )
        for ai, a in enumerate(atoms)
    }
    return Model(frame, valuation)


# ---------------------------------------------------------------------------
# Bit-parallel evaluation over all valuations of a frame at once


@lru_cache(maxsize=64)
def _state_mask(k: int, rows: int) -> int:
    """Bits 0, k, 2k, ..., (rows - 1)k: state 0 of every row, by doubling."""
    mask, n = 1, 1
    while n < rows:
        mask |= mask << (n * k)
        n <<= 1
    return mask


def atom_column(pos: int, k: int, rows: int) -> int:
    """Column of the atom at ``pos`` on ``k`` states: bit ``v*k + i`` is set
    iff bit ``pos*k + i`` of ``v`` is, for ``v < rows`` (a power of two).

    Each state's pattern takes O(log rows) big-int operations.  With
    ``k = 1`` it is the truth-table column of letter ``pos``.
    """
    out = 0
    for i in range(k):
        run = 1 << (pos * k + i)  # the truth at state ``i`` flips every ``run`` rows
        if 2 * run > rows:
            break
        # Row ``run`` doubled up to rows run..2run-1, then period by period.
        pattern, n = 1 << (run * k + i), 1
        while n < rows:
            if n != run:
                pattern |= pattern << (n * k)
            n <<= 1
        out |= pattern
    return out


# Frame evaluators share atom columns across frames of one size.
_atom_column = lru_cache(maxsize=4096)(atom_column)


class FrameEvaluator:
    """Truth columns over all valuations of ``atoms`` on a fixed frame.

    ``columns(f)`` is one int whose bit ``v*k + i`` is the truth of ``f``
    at state ``i`` under valuation index ``v``; ``full`` has all
    ``rows * k`` bits set.  Columns are memoized by formula (structural
    equality) for the lifetime of the evaluator, so equal subformulas
    share one entry and batteries that reuse corpus formulas across
    frames pay for each node once per frame.  With ``aux=True`` the IR
    clause is the identity clause.
    """

    def __init__(self, frame: Frame, atoms: tuple[str, ...], aux: bool = False):
        self.frame = frame
        self.atoms = atoms
        self.aux = aux
        self.k = len(frame.states)
        self.rows = 1 << (self.k * len(atoms))
        self.full = (1 << (self.rows * self.k)) - 1
        self.state_mask = _state_mask(self.k, self.rows)
        index = {s: i for i, s in enumerate(frame.states)}
        self.succ = [
            tuple(index[t] for t in frame.successor_map[s]) for s in frame.states
        ]
        self.atom_pos = {a: i for i, a in enumerate(atoms)}
        self._memo: dict[Formula, int] = {}

    def _box(self, c: int, succ: Sequence[Sequence[int]]) -> int:
        """At each state ``i``: the AND of ``c`` over the states ``succ[i]``."""
        mask = self.state_mask
        out = 0
        for i, js in enumerate(succ):
            acc = mask
            for j in js:
                acc &= c >> j
            out |= acc << i
        return out

    def columns(self, g: Formula) -> int:
        memo = self._memo
        hit = memo.get(g)
        if hit is not None:
            return hit
        full = self.full
        if isinstance(g, Atom):  # atoms missing from ``atoms`` are false everywhere
            pos = self.atom_pos.get(g.name)
            col = 0 if pos is None else _atom_column(pos, self.k, self.rows)
        elif isinstance(g, Top):
            col = full
        elif isinstance(g, Bot):
            col = 0
        elif isinstance(g, Not):
            col = full ^ self.columns(g.arg)
        elif isinstance(g, And):
            col = self.columns(g.left) & self.columns(g.right)
        elif isinstance(g, Or):
            col = self.columns(g.left) | self.columns(g.right)
        elif isinstance(g, Imp):
            col = (full ^ self.columns(g.left)) | self.columns(g.right)
        elif isinstance(g, Iff):
            col = full ^ self.columns(g.left) ^ self.columns(g.right)
        elif isinstance(g, Box):
            col = self._box(self.columns(g.arg), self.succ)
        elif isinstance(g, W):
            c = self.columns(g.arg)
            col = self._box(c, self.succ) & (full ^ c)
        elif isinstance(g, IR) and self.aux:
            col = self.columns(g.arg)
        elif isinstance(g, IR):
            c = self.columns(g.arg)
            col = self._box(c, self.succ) & (full ^ c) | self._box(full ^ c, self.succ) & c
        elif isinstance(g, FI):
            c = self.columns(g.arg)
            others = [[j for j in js if j != i] for i, js in enumerate(self.succ)]
            col = c & self._box(full ^ c, others)
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = col
        return col

    def valid(self, g: Formula) -> bool:
        """True iff ``g`` has no false row: it holds at every state and valuation."""
        return self.columns(g) == self.full

    def least_row(self, bad: int) -> tuple[int, int] | None:
        """The least ``(valuation, state index)`` row set in ``bad``, or None."""
        return divmod((bad & -bad).bit_length() - 1, self.k) if bad else None

    def witness(self, row: tuple[int, int]) -> tuple[Model, str]:
        """The pointed model of a ``(valuation, state index)`` row."""
        v, i = row
        return model_at(self.frame, self.atoms, v), self.frame.states[i]

    def describe(self, row: tuple[int, int]) -> str:
        """``<state> of <model JSON>``: a row as battery failures name it."""
        model, state = self.witness(row)
        return f"{state} of {semantics.dump_model(model)}"


def frame_validity(f: Formula, frame: Frame, aux: bool = False) -> bool:
    """True iff ``f`` holds at every state under every valuation of its atoms."""
    return FrameEvaluator(frame, tuple(sorted(atoms_of(f))), aux=aux).valid(f)


# ---------------------------------------------------------------------------
# Validity and countermodel search


def _search(
    f: Formula,
    fc: FrameClass,
    budget: SearchBudget,
    query: str,
    aux: bool = False,
) -> VerdictReport:
    needed = atoms_of(f)
    missing = needed - set(budget.atoms)
    if missing:
        raise BudgetError(f"budget atoms missing {sorted(missing)}")
    val_atoms = tuple(a for a in budget.atoms if a in needed)
    frames_examined = 0
    models_examined = 0
    for frame in frames_up_to(budget.max_states):
        if not fc.contains(frame):
            continue
        frames_examined += 1
        ev = FrameEvaluator(frame, val_atoms, aux=aux)
        models_examined += ev.rows
        row = ev.least_row(ev.full ^ ev.columns(f))
        if row is not None:
            model, state = ev.witness(row)
            check = (
                semantics.evaluate_aux if aux else semantics.evaluate
            )(model, state, f)
            if check:  # pragma: no cover - internal consistency guard
                raise RuntimeError(
                    "search produced a witness the reference evaluator rejects"
                )
            return VerdictReport(
                query, COUNTERMODEL, (model, state), frames_examined, models_examined
            )
    return VerdictReport(query, NO_COUNTERMODEL, None, frames_examined, models_examined)


def valid_on(
    f: Formula, fc: FrameClass = ALL_FRAMES, budget: SearchBudget = SearchBudget()
) -> VerdictReport:
    """Bounded validity of ``f`` on the class: first falsifying model or none."""
    query = f"validity of {print_formula(f)} on {fc.describe()} frames, up to {budget.max_states} states"
    return _search(f, fc, budget, query)


def find_countermodel(
    f: Formula, fc: FrameClass = ALL_FRAMES, budget: SearchBudget = SearchBudget()
) -> VerdictReport:
    """Same search as ``valid_on``; a countermodel is the sought outcome."""
    query = f"countermodel for {print_formula(f)} on {fc.describe()} frames, up to {budget.max_states} states"
    return _search(f, fc, budget, query)


def aux_valid_on(
    f: Formula, fc: FrameClass = ALL_FRAMES, budget: SearchBudget = SearchBudget()
) -> VerdictReport:
    """Bounded validity under the auxiliary semantics (IR read as identity)."""
    query = f"aux-validity of {print_formula(f)} on {fc.describe()} frames, up to {budget.max_states} states"
    return _search(f, fc, budget, query, aux=True)


# ---------------------------------------------------------------------------
# Formula corpus enumeration

_MODALITY_CTOR = {"W": W, "B": Box, "IR": IR, "FI": FI}


@lru_cache(maxsize=64)
def _pool(
    atoms: tuple[str, ...], max_size: int, modalities: tuple[str, ...]
) -> tuple[tuple[Formula, ...], ...]:
    """Formulas of each size 1..max_size over atoms, ~, & and the modalities.

    The corpus language is the primitive grammar of the object language
    (negation, conjunction, the chosen modalities); each size bucket is
    sorted by printed form, so enumeration order is size-lexicographic.
    """
    ctors = [Not] + [_MODALITY_CTOR[m] for m in modalities]
    buckets: list[list[Formula]] = [[]]
    buckets.append([Atom(a) for a in sorted(atoms)])
    for n in range(2, max_size + 1):
        bucket: list[Formula] = []
        for g in buckets[n - 1]:
            for ctor in ctors:
                bucket.append(ctor(g))
        for left_size in range(1, n - 1):
            right_size = n - 1 - left_size
            for gl in buckets[left_size]:
                for gr in buckets[right_size]:
                    bucket.append(And(gl, gr))
        bucket.sort(key=print_formula)
        buckets.append(bucket)
    return tuple(tuple(b) for b in buckets[1:])


def enumerate_formulas(
    atoms: Sequence[str],
    max_modal_depth: int,
    max_size: int,
    modalities: Sequence[str] = ("W",),
) -> tuple[Formula, ...]:
    """Deterministic corpus: by size, then lexicographic on printed form."""
    pool = _pool(tuple(atoms), max_size, tuple(modalities))
    return tuple(
        f for bucket in pool for f in bucket if modal_depth(f) <= max_modal_depth
    )


def corpus_for(budget: SearchBudget, modalities: Sequence[str] = ("W",)) -> tuple[Formula, ...]:
    return enumerate_formulas(
        budget.atoms, budget.max_modal_depth, budget.max_size, modalities
    )


# ---------------------------------------------------------------------------
# Pointed-model agreement and frame definability


@dataclass
class AgreementReport:
    agree: bool
    distinguishing: Formula | None
    formulas_checked: int


def agree_up_to(
    m1: Model,
    s1: str,
    m2: Model,
    s2: str,
    budget: SearchBudget,
    modalities: Sequence[str] = ("W",),
) -> AgreementReport:
    """Whether two pointed models agree on the enumerated corpus.

    Returns the first distinguishing formula (in corpus order) if any.
    """
    checked = 0
    for f in corpus_for(budget, modalities):
        checked += 1
        if semantics.evaluate(m1, s1, f) != semantics.evaluate(m2, s2, f):
            return AgreementReport(False, f, checked)
    return AgreementReport(True, None, checked)


@dataclass
class DefinabilityReport:
    property: str
    first_has: bool
    second_has: bool
    separating: Formula | None
    formulas_checked: int

    @property
    def properties_differ(self) -> bool:
        return self.first_has != self.second_has

    @property
    def degenerate(self) -> bool:
        return not self.properties_differ


def definability_gap(
    fr1: Frame, fr2: Frame, prop: str, budget: SearchBudget
) -> DefinabilityReport:
    """Evidence record for undefinability of a frame property.

    Checks that the frames differ on the property while no corpus formula
    separates them by frame validity.
    """
    first = semantics.has_property(fr1, prop)
    second = semantics.has_property(fr2, prop)
    ev1 = FrameEvaluator(fr1, budget.atoms)
    ev2 = FrameEvaluator(fr2, budget.atoms)
    separating = None
    checked = 0
    for f in corpus_for(budget):
        checked += 1
        if ev1.valid(f) != ev2.valid(f):
            separating = f
            break
    return DefinabilityReport(prop, first, second, separating, checked)


# ---------------------------------------------------------------------------
# Enumerated batteries


@dataclass
class BatteryReport:
    name: str
    items_checked: int
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None


def wrong_false_at_reflexive(
    max_states: int = 3, budget: SearchBudget = SearchBudget(atoms=("p",))
) -> BatteryReport:
    """W g is false at every reflexive state, for every corpus g and model."""
    wrapped = [W(g) for g in corpus_for(budget)]
    checked = 0
    for frame in frames_up_to(max_states):
        refl = [i for i, s in enumerate(frame.states) if (s, s) in frame.relation]
        if not refl:
            continue
        ev = FrameEvaluator(frame, budget.atoms)
        keep = sum(ev.state_mask << i for i in refl)  # disjoint bits: an OR
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


