"""Bounded exhaustive search: frames, valuations, formulas, verdicts.

Frames are enumerated labeled, smallest first, in lexicographic order of
the relation bitmask; valuations likewise.  Searches therefore return
deterministic first witnesses.  A search visits one frame per
isomorphism class, the canonical one: the mask that no relabelling of
the states makes smaller.  Frame classes and truth are invariant under
relabelling, so the least frame with a countermodel is canonical, and
the search returns the witness of a scan of every labeled frame, with
that scan's counts.  Batteries visit every labeled frame.  A
countermodel verdict is conclusive invalidity; the absence of one is
evidence only and is always reported with its budget.

Search uses a bit-parallel evaluator.  On one frame of ``k`` states the
column of a formula is one int whose bit ``v*k + i`` is its truth at
state ``i`` under valuation index ``v``, so its lowest set bit is the
least ``(valuation, state)`` row.  Searches and batteries pack a chunk
of ``F`` same-size frames into each column (bit ``(v*F + t)*k + i`` for
the frame in slot ``t``).  A search takes the least slot with a false
row, then that slot's least row: the same first witness as a
frame-by-frame scan.  A box shifts a column once per offset ``d = j - i``
between states, ``2k - 2`` times in all.  Every battery runs one loop,
``run_battery``: the least slot where any item fails, then the earliest
such item, is the first failure of a scan frame by frame, item by item,
with its count.  Class membership, and the canonical members, are
computed once per class and size, as Boolean circuits over the edge bits
of all relation masks, so a search builds a ``Frame`` only for its
witness.  Every search witness is re-checked by the independent
recursive evaluator before a report is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, permutations
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, Sequence

from . import semantics
from .semantics import ALL_FRAMES, Frame, FrameClass, Model
from .syntax import (
    FI,
    MODALITIES,
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
    children,
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
        repeated = [a for n, a in enumerate(self.atoms) if a in self.atoms[:n]]
        if repeated:
            raise ValueError(f"duplicate atom name: {repeated[0]!r}")


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


@lru_cache(maxsize=16)
def _labels(k: int) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    states = tuple(f"s{i + 1}" for i in range(k))
    return states, tuple((s, t) for s in states for t in states)


def frame_of_mask(k: int, mask: int) -> Frame:
    """The frame on ``s1..sk`` with the edge ``s(i+1) -> s(j+1)`` iff bit
    ``i*k + j`` of ``mask`` is set: frame number ``mask`` of size ``k``."""
    states, pairs = _labels(k)
    return Frame(states, frozenset(pairs[b] for b in range(k * k) if (mask >> b) & 1))


def frames_up_to(max_states: int) -> Iterator[Frame]:
    """All labeled frames on {s1..sk} for 1 <= k <= max_states, 2^(k*k)
    per k, in ascending mask order, each built as it is yielded.  Only the
    tests (their reference enumeration) and the benchmark's tracer use it."""
    for k in range(1, max_states + 1):
        for mask in range(1 << (k * k)):
            yield frame_of_mask(k, mask)


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
# Frame classes as bitsets over relation masks

# Class members are found in blocks of 2^16 consecutive relation masks:
# one block holds every frame of up to 4 states, and blocks of larger
# frames are streamed, so 5 states (2^25 masks) fits in memory.
_BLOCK_BITS = 16


def _class_blocks(
    fc: FrameClass, k: int, canonical: bool = False
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """The ``k``-state members of ``fc``, block by block, skipping blocks
    without one: the block's member bitset (bit ``m`` for the ``m``-th mask
    of the block; ``m`` is the mask's low ``_BLOCK_BITS`` bits) and, per
    edge ``e = i*k + j``, a string with one character per frame to pack,
    ``"1"`` where the frame lacks the edge, last frame first.

    Membership is the class circuit (``FrameClass.members``) over the edge
    columns ``atom_column(e, 1, 2^(k*k))``: bit ``m`` is set iff mask ``m``
    has edge ``e``.  The frames to pack are the members, or with
    ``canonical`` only those that are the least mask of their isomorphism
    class (``_canonical`` over the edge columns of the members).
    """
    width = k * k
    low = min(width, _BLOCK_BITS)
    size = 1 << low
    full = (1 << size) - 1
    low_cols = [atom_column(e, 1, size) for e in range(low)]
    for block in range(1 << (width - low)):
        cols = low_cols + [full if (block >> (e - low)) & 1 else 0 for e in range(low, width)]
        members = fc.members([cols[i * k : (i + 1) * k] for i in range(k)], full)
        if not members:
            continue
        lack = _compress((format(full ^ col, f"0{size}b") for col in cols), members, size)
        if canonical:
            n = members.bit_count()
            everyone = (1 << n) - 1
            lack = _compress(lack, _canonical(k, [everyone ^ int(e, 2) for e in lack], everyone), n)
        yield members, lack


def _compress(digits: Iterable[str], keep: int, size: int) -> tuple[str, ...]:
    """Each string of ``size`` binary digits, MSB first, cut down to the
    digits of the bits that ``keep`` sets."""
    if keep == (1 << size) - 1:
        return tuple(digits)
    if not keep:
        return tuple("" for _ in digits)
    # Character p stands for bit size - 1 - p.
    pick = itemgetter(*compress(range(size), format(keep, f"0{size}b").encode().translate(_ZERO_ONE)))
    return tuple("".join(pick(d)) for d in digits)


_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


@lru_cache(maxsize=8)
def _relabellings(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every relabelling of ``k`` states but the identity, as the pairs
    ``(e, src)``, highest ``e`` first, where bit ``e`` of a relabelled mask
    is bit ``src != e`` of the mask."""
    out = []
    for perm in permutations(range(k)):
        src = [perm[e // k] * k + perm[e % k] for e in range(k * k)]
        moved = tuple((e, src[e]) for e in reversed(range(k * k)) if src[e] != e)
        if moved:
            out.append(moved)
    return tuple(out)


def _canonical(k: int, has: Sequence[int], full: int) -> int:
    """The canonical bits of a family of ``k``-state frames: bit ``t`` of
    ``has[e]`` says whether frame ``t`` has edge ``e``, and bit ``t`` of
    the result is set iff no relabelling makes frame ``t``'s mask smaller.

    Each relabelling is compared with the mask from the top bit down: the
    first bit where they differ decides, and a frame is dropped when the
    relabelled mask has a 0 where the mask has a 1.
    """
    canon = full
    for moved in _relabellings(k):
        tied = canon  # frames still equal on the bits so far
        for e, src in moved:
            differ = tied & (has[e] ^ has[src])
            canon ^= differ & has[e]
            tied ^= differ
            if not tied:
                break
    return canon


@lru_cache(maxsize=64)
def _class_blocks_cached(
    fc: FrameClass, k: int, canonical: bool
) -> tuple[tuple[int, tuple[str, ...]], ...]:
    """``_class_blocks`` kept for frames of up to 4 states: one block each."""
    return tuple(_class_blocks(fc, k, canonical))


def _blocks(fc: FrameClass, k: int, canonical: bool = False) -> Iterable[tuple[int, tuple[str, ...]]]:
    """``_class_blocks``, from the cache up to 4 states."""
    return _class_blocks_cached(fc, k, canonical) if k <= 4 else _class_blocks(fc, k, canonical)


def _slot_bits(chars: str, k: int) -> int:
    """Bit ``t*k`` is set iff character ``t`` from the end is ``"1"``."""
    # Each character is one base-2^k digit; int() reads bases up to 36.
    return int(chars, 1 << k) if k <= 5 else int(("0" * (k - 1)).join(chars), 2)


# Bits per packed column that a search chunk aims at.  An evaluator keeps
# one column per subformula, so larger columns raise peak memory (2^21
# was no faster than 2^18 on 4-state searches); much smaller ones pay
# more interpreter overhead per frame.
_CHUNK_BITS = 1 << 18


def _pack(k: int, lack: tuple[str, ...], rows: int) -> Iterator["FrameChunk"]:
    """The frames of a block's ``lack`` strings in ascending mask order,
    packed into chunks of ``slots = 2^(k*c)`` frames each for ``rows``
    valuations: the most that fit ``_CHUNK_BITS``, and no more than the
    block has."""
    n = len(lack[0])
    slots = 1
    while slots < n and (slots << k) * rows * k <= _CHUNK_BITS:
        slots <<= k
    for start in range(0, n, slots):
        end = n - start  # frame ``start`` is character ``end - 1``
        lacks = tuple(_slot_bits(e[max(end - slots, 0) : end], k) for e in lack)
        yield FrameChunk(k, slots, min(slots, end), lacks)


def _class_chunks(fc: FrameClass, k: int, rows: int) -> Iterator["FrameChunk"]:
    """Every ``k``-state member of ``fc`` (labeled, not reduced) in
    ascending mask order, packed by ``_pack``."""
    for _, lack in _blocks(fc, k):
        yield from _pack(k, lack, rows)


# ---------------------------------------------------------------------------
# Bit-parallel evaluation over all valuations of a chunk of frames at once


def _replicate(pattern: int, width: int, count: int) -> int:
    """``count`` (a power of two) copies of a ``width``-bit pattern, by doubling."""
    n = 1
    while n < count:
        pattern |= pattern << (n * width)
        n <<= 1
    return pattern


@lru_cache(maxsize=64)
def _state_mask(k: int, rows: int) -> int:
    """Bits 0, k, 2k, ..., (rows - 1)k: state 0 of every row."""
    return _replicate(1, k, rows)


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


def last_uses(formulas: Sequence[Formula]) -> list[list[Formula]]:
    """For each of ``formulas``, its subformulas that no later formula has:
    the columns ``FrameEvaluator.each_column`` can drop after it."""
    seen: set[Formula] = set()
    last: list[list[Formula]] = [[] for _ in formulas]
    for n in range(len(formulas) - 1, -1, -1):  # the first visit is the last use
        stack = [formulas[n]]
        while stack:
            g = stack.pop()
            if g not in seen:
                seen.add(g)
                last[n].append(g)
                stack += children(g)
    return last


# Frame evaluators share atom columns across frames of one size.
_atom_column = lru_cache(maxsize=4096)(atom_column)


@dataclass(frozen=True)
class FrameChunk:
    """``live`` frames on ``s1..sk`` packed into ``slots`` slots, a power
    of ``2^k``.  Bit ``t*k`` of ``lacks[i*k + j]`` is set iff the frame in
    slot ``t`` lacks the edge ``s(i+1) -> s(j+1)``.  Slots from ``live``
    on are padding: complete frames that never give a witness."""

    k: int
    slots: int
    live: int
    lacks: tuple[int, ...]

    @staticmethod
    def of(frames: Sequence[Frame], slots: int = 1) -> "FrameChunk":
        """``frames`` of one size, each in the order of its state tuple, in
        slots ``0, 1, ...`` of ``slots``; the slots after them are padding."""
        k = len(frames[0].states)
        # One string of lack flags per frame, last frame first; a column of
        # the strings is an edge's ``_slot_bits`` digits.
        flags = [
            "".join("0" if (s, t) in fr.relation else "1" for s in fr.states for t in fr.states)
            for fr in reversed(frames)
        ]
        return FrameChunk(k, slots, len(frames), tuple(_slot_bits("".join(e), k) for e in zip(*flags)))

    @property
    def every(self) -> int:
        return _state_mask(self.k, self.slots)  # bit t*k of every slot t, padding included

    @property
    def edges(self) -> list[list[int]]:
        """Bit ``t*k`` of ``edges[i][j]`` is set iff slot ``t`` has the edge ``s(i+1) -> s(j+1)``."""
        k, every = self.k, self.every
        return [[every ^ self.lacks[i * k + j] for j in range(k)] for i in range(k)]

    def mask(self, slot: int) -> int:
        """The relation mask of the frame in ``slot`` (see ``frame_of_mask``)."""
        shift = slot * self.k
        return sum(1 << e for e, lack in enumerate(self.lacks) if not (lack >> shift) & 1)

    def masks(self, columns: Sequence[int] | None = None) -> list[int]:
        """For each live slot ``t``, the int whose bit ``e`` is bit ``t*k`` of
        ``columns[e]``, by default of the edges: ``mask(t)``.  One pass per
        column, not one chunk-wide shift per slot."""
        columns = [c for row in self.edges for c in row] if columns is None else columns
        digits = [format(c, f"0{self.slots * self.k}b")[:: -self.k][: self.live] for c in reversed(columns)]
        return [int("".join(d), 2) for d in zip(*digits)]


class FrameEvaluator:
    """Truth columns over all valuations of ``atoms`` on a frame, or on a
    chunk of same-size frames at once.

    ``columns(f)`` is one int.  With ``F = slots`` frames of ``k`` states
    and ``R`` valuations, bit ``(v*F + t)*k + i`` is the truth of ``f`` at
    state ``i`` of the frame in slot ``t`` under valuation index ``v``:
    row ``v*F + t`` is one model, and the slots act as low phantom atoms
    of the row index.  ``full`` has all ``rows * k`` bits set, ``rows =
    R*F``.  A one-frame evaluator (``F = 1``) has bit ``v*k + i``.

    The box clause ANDs one term per offset ``d = j - i`` (``diags``):
    the column shifted to bring state ``i + d`` onto state ``i``, ORed with
    a lack column whose bit ``(v*F + t)*k + i`` is set when slot ``t``
    lacks the edge ``i -> i + d`` or ``i + d`` is no state (the shift
    brings in the next or previous row there, or zeros).  An offset that
    every row lacks drops out, and one without a lack bit is a plain AND.

    The witness order (``least_row``) is: least slot with a set bit, then
    its least ``(valuation, state)``; for ``F = 1`` that is the lowest set
    bit.  The battery rule (``first_failure``) takes the least slot over
    a list of items, ties going to the earliest item.  Columns are
    memoized by formula node for the lifetime of the evaluator; nodes are
    interned, so equal subformulas are one node with one entry, and a
    battery pays for each node of its corpus once per chunk.  With
    ``aux=True`` the IR clause is the identity clause.
    """

    def __init__(self, frame: Frame | FrameChunk, atoms: tuple[str, ...], aux: bool = False):
        if isinstance(frame, FrameChunk):
            self.frame, self.chunk = None, frame
        else:
            self.frame, self.chunk = frame, FrameChunk.of([frame])
        self.atoms = atoms
        self.aux = aux
        k = self.k = self.chunk.k
        slots = self.slots = self.chunk.slots
        valuations = 1 << (k * len(atoms))
        self.rows = valuations * slots
        self.full = (1 << (self.rows * k)) - 1
        phantom = (slots.bit_length() - 1) // k
        self.atom_pos = {a: phantom + i for i, a in enumerate(atoms)}
        every, lacks = self.chunk.every, self.chunk.lacks
        self.diags = []  # (d, lack column of the offset d, or None if it has none)
        for d in range(1 - k, k):
            lack = sum((lacks[i * k + i + d] if 0 <= i + d < k else every) << i for i in range(k))
            if lack != (1 << (slots * k)) - 1:  # an offset that every row lacks drops out
                self.diags.append((d, _replicate(lack, slots * k, valuations) if lack else None))
        self._memo: dict[Formula, int] = {}

    def _box(self, c: int, diags: Sequence[tuple[int, int | None]], out: int) -> int:
        """``out`` ANDed, at each state ``i`` and for each ``(d, lack)`` of
        ``diags``, with ``c`` at state ``i + d``, true where ``lack`` is."""
        for d, lack in diags:
            shifted = c >> d if d > 0 else c << -d if d else c  # c >> 0 would copy c
            out &= shifted if lack is None else shifted | lack
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
        elif isinstance(g, Box):  # starting from full clears what << pushes past the top
            col = self._box(self.columns(g.arg), self.diags, full)
        elif isinstance(g, W):
            c = self.columns(g.arg)
            col = self._box(c, self.diags, full ^ c)
        elif isinstance(g, IR) and self.aux:
            col = self.columns(g.arg)
        elif isinstance(g, IR):
            c = self.columns(g.arg)
            n = full ^ c
            col = self._box(c, self.diags, n) | self._box(n, self.diags, c)
        elif isinstance(g, FI):
            c = self.columns(g.arg)
            col = self._box(full ^ c, [diag for diag in self.diags if diag[0]], c)  # no loops
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = col
        return col

    def each_column(self, formulas: Sequence[Formula], last: list[list[Formula]]) -> Iterator[int]:
        """``columns(f)`` for each of ``formulas`` in turn, dropping the
        columns of ``last = last_uses(formulas)`` after each, so a battery
        holds only the columns still ahead.  ``last`` is shared by every
        chunk of the battery."""
        memo = self._memo
        for f, drop in zip(formulas, last):
            yield self.columns(f)
            for g in drop:
                memo.pop(g, None)

    def valid(self, g: Formula) -> bool:
        """True iff ``g`` has no false row: it holds at every state and
        valuation of every frame (padding slots aside)."""
        return self.least_row(self.full ^ self.columns(g)) is None

    def least_row(self, bad: int) -> tuple[int, int] | None:
        """The first ``(row, state index)`` set in ``bad`` in witness order,
        or None; padding slots are skipped."""
        if not bad:
            return None
        k, slots = self.k, self.slots
        slot = 0
        if slots > 1:
            # OR the rows of all valuations onto one row per slot.
            folded, width = bad, self.rows * k
            while width > slots * k:
                width >>= 1
                folded = folded & ((1 << width) - 1) | folded >> width
            folded &= (1 << (self.chunk.live * k)) - 1
            if not folded:
                return None
            slot = ((folded & -folded).bit_length() - 1) // k
            bad = bad >> (slot * k) & _replicate((1 << k) - 1, slots * k, self.rows // slots)
        v, i = divmod((bad & -bad).bit_length() - 1, slots * k)
        return v * slots + slot, i

    def first_failure(self, bads: Iterable[int], text: Callable) -> tuple[int, int, str] | None:
        """The battery witness rule.  ``bads`` are the bad columns of a
        battery's items in order; the failure is the least slot with a set
        bit, ties going to the earliest item ``n``, as ``(slot, n, text(n,
        where))`` with ``where`` the ``describe`` of the item's first row in
        the slot, or None: where a scan frame by frame, item by item, stops."""
        best = None
        for n, bad in enumerate(bads):
            row = self.least_row(bad)
            if row is not None and (best is None or row[0] % self.slots < best[0]):
                best = row[0] % self.slots, n, row
                if best[0] == 0:
                    break
        return best and (best[0], best[1], text(best[1], self.describe(best[2])))

    def witness(self, row: tuple[int, int]) -> tuple[Model, str]:
        """The pointed model of a ``(row, state index)`` pair."""
        r, i = row
        v, slot = divmod(r, self.slots)
        frame = self.frame if self.frame is not None else frame_of_mask(self.k, self.chunk.mask(slot))
        return model_at(frame, self.atoms, v), frame.states[i]

    def describe(self, row: tuple[int, int]) -> str:
        """``<state> of <model JSON>``: a row as battery failures name it."""
        model, state = self.witness(row)
        return f"{state} of {semantics.dump_model(model)}"


# ---------------------------------------------------------------------------
# Validity and countermodel search


def _search(
    f: Formula,
    fc: FrameClass,
    budget: SearchBudget,
    query: str,
    aux: bool = False,
) -> VerdictReport:
    """The least falsifying (frame, valuation, state) of ``f`` on the
    class, evaluating only the canonical members of each size.  The
    counts are those of a scan of every labeled member: with no witness,
    all members; with one of ``k`` states, the members of fewer states
    and the ``k``-state members at or below its mask."""
    needed = atoms_of(f)
    missing = needed - set(budget.atoms)
    if missing:
        raise BudgetError(f"budget atoms missing {sorted(missing)}")
    val_atoms = tuple(a for a in budget.atoms if a in needed)
    frames_examined = 0
    models_examined = 0
    for k in range(1, budget.max_states + 1):
        valuations = 1 << (k * len(val_atoms))
        seen = 0  # labeled members of size k, as a scan of every member counts them
        for members, lack in _blocks(fc, k, canonical=True):
            for chunk in _pack(k, lack, valuations):
                ev = FrameEvaluator(chunk, val_atoms, aux=aux)
                row = ev.least_row(ev.full ^ ev.columns(f))
                if row is None:
                    continue
                # Relabelling keeps both the class and the verdict, so the
                # least member with a countermodel is canonical: the scan
                # would stop here, after the members at or below its mask.
                low = chunk.mask(row[0] % chunk.slots) & ((1 << _BLOCK_BITS) - 1)
                seen += members.bit_count() - (members >> (low + 1)).bit_count()
                model, state = ev.witness(row)
                check = (
                    semantics.evaluate_aux if aux else semantics.evaluate
                )(model, state, f)
                if check:  # pragma: no cover - internal consistency guard
                    raise RuntimeError(
                        "search produced a witness the reference evaluator rejects"
                    )
                return VerdictReport(
                    query,
                    COUNTERMODEL,
                    (model, state),
                    frames_examined + seen,
                    models_examined + seen * valuations,
                )
            seen += members.bit_count()
        frames_examined += seen
        models_examined += seen * valuations
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
    semantics.check_ir_only(f)
    query = f"aux-validity of {print_formula(f)} on {fc.describe()} frames, up to {budget.max_states} states"
    return _search(f, fc, budget, query, aux=True)


# ---------------------------------------------------------------------------
# Formula corpus enumeration

def enumerate_formulas(
    atoms: Sequence[str],
    max_modal_depth: int,
    max_size: int,
    modalities: Sequence[str] = ("W",),
) -> tuple[Formula, ...]:
    """Deterministic corpus: by size, then lexicographic on printed form."""
    return _corpus(tuple(atoms), max_modal_depth, max_size, tuple(modalities))


@lru_cache(maxsize=64)
def _corpus(
    atoms: tuple[str, ...], max_modal_depth: int, max_size: int, modalities: tuple[str, ...]
) -> tuple[Formula, ...]:
    """Formulas of each size 1..max_size over atoms, ~, & and the
    modalities, of modal depth at most max_modal_depth.

    The corpus language is the primitive grammar of the object language
    (negation, conjunction, the chosen modalities); each size bucket is
    sorted by printed form, so enumeration order is size-lexicographic.
    Each entry carries its modal depth.  A formula deeper than the bound
    is never built, as all its superformulas are deeper still, so each
    bucket is the unbounded one less its deep entries, in the same order.
    """
    if max_modal_depth < 0:
        return ()
    ctors = [(Not, 0)] + [(MODALITIES[m], 1) for m in modalities]
    buckets: list[list[tuple[Formula, int]]] = [[], [(Atom(a), 0) for a in sorted(atoms)]]
    for n in range(2, max_size + 1):
        bucket = [(ctor(g), d + up) for g, d in buckets[n - 1] for ctor, up in ctors if d + up <= max_modal_depth]
        for left_size in range(1, n - 1):
            for gl, dl in buckets[left_size]:
                for gr, dr in buckets[n - 1 - left_size]:
                    bucket.append((And(gl, gr), max(dl, dr)))
        bucket.sort(key=lambda entry: print_formula(entry[0]))
        buckets.append(bucket)
    return tuple(f for bucket in buckets for f, _ in bucket)


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


def run_battery(
    name: str, fc: FrameClass, max_states: int, atoms: tuple[str, ...], check: Callable
) -> BatteryReport:
    """The one battery loop, over the chunks of the members of ``fc``
    packed for the valuations of ``atoms``.  ``check(chunk)`` gives the
    item count of each slot and the first failure ``(slot, item index in
    the slot, text)`` or None.  The count is a scan's, frame by frame and
    item by item; padding slots are not counted."""
    checked = 0
    for k in range(1, max_states + 1):
        for chunk in _class_chunks(fc, k, 1 << (k * len(atoms))):
            counts, failure = check(chunk)
            if failure is not None:
                return BatteryReport(name, checked + sum(counts[: failure[0]]) + failure[1] + 1, failure[2])
            checked += sum(counts[: chunk.live])
    return BatteryReport(name, checked)


def wrong_false_at_reflexive(
    max_states: int = 3, budget: SearchBudget = SearchBudget(atoms=("p",))
) -> BatteryReport:
    """W g is false at every reflexive state, for every corpus g and model;
    a case is one frame with a reflexive state and one g."""
    wrapped = [W(g) for g in corpus_for(budget)]
    last = last_uses(wrapped)

    def check(chunk: FrameChunk):
        k, slots, ev = chunk.k, chunk.slots, FrameEvaluator(chunk, budget.atoms)
        loops = [row[i] for i, row in enumerate(chunk.edges)]  # the slots with the loop i -> i
        # State i counts in the rows whose slot has the loop i -> i.
        keep = sum(_replicate(has, slots * k, ev.rows // slots) << i for i, has in enumerate(loops))
        hit = ev.first_failure(
            (c & keep for c in ev.each_column(wrapped, last)),
            lambda n, at: f"{print_formula(wrapped[n])} true at reflexive state {at}",
        )
        return [len(wrapped) * has for has in chunk.masks([reduce(or_, loops)])], hit

    return run_battery("wrong-false-at-reflexive", ALL_FRAMES, max_states, budget.atoms, check)
