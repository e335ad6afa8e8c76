"""Kripke frames and models, the truth definition, frame properties.

States are opaque strings; the ordered state tuple fixes deterministic
iteration everywhere (witness reconstruction, reports).  Atoms missing
from a valuation are false at every state, so evaluation is total
without declaring an atom universe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from operator import or_
from typing import Iterable, Mapping

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
    subformulas,
)


class UnknownStateError(KeyError):
    pass


class LanguageError(ValueError):
    """Formula lies outside the sublanguage an operation is defined on."""


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Frame:
    states: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __post_init__(self):
        if not self.states:
            raise ValueError("a frame needs a nonempty state set")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state ids")
        universe = set(self.states)
        for pair in self.relation:
            if pair[0] not in universe or pair[1] not in universe:
                raise ValueError(f"relation pair {pair} outside the state set")

    @staticmethod
    def of(states: Iterable[str], relation: Iterable[tuple[str, str]]) -> "Frame":
        return Frame(tuple(states), frozenset(tuple(p) for p in relation))

    @cached_property
    def successor_map(self) -> dict[str, tuple[str, ...]]:
        return {
            s: tuple(t for t in self.states if (s, t) in self.relation)
            for s in self.states
        }

    def successors(self, state: str) -> frozenset[str]:
        if state not in self.successor_map:
            raise UnknownStateError(state)
        return frozenset(self.successor_map[state])


@dataclass(frozen=True)
class Model:
    frame: Frame
    valuation: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        universe = set(self.frame.states)
        normalized = {}
        for atom, states in self.valuation.items():
            extra = set(states) - universe
            if extra:
                raise ValueError(f"valuation of {atom!r} mentions unknown states {sorted(extra)}")
            normalized[atom] = frozenset(states)
        object.__setattr__(self, "valuation", normalized)

    @staticmethod
    def of(
        states: Iterable[str],
        relation: Iterable[tuple[str, str]],
        valuation: Mapping[str, Iterable[str]] | None = None,
    ) -> "Model":
        return Model(Frame.of(states, relation), {a: frozenset(v) for a, v in (valuation or {}).items()})

    def truth(self, atom: str, state: str) -> bool:
        return state in self.valuation.get(atom, frozenset())


def successors(model: Model, state: str) -> frozenset[str]:
    """The set of states the relation reaches from ``state``."""
    return model.frame.successors(state)


def evaluate(model: Model, state: str, f: Formula) -> bool:
    """Truth of ``f`` at ``state``: reference recursive evaluator.

    W g  holds iff g is false here and true at every successor;
    B g  iff g is true at every successor;
    IR g iff either every successor satisfies g and g fails here, or
         every successor falsifies g and g holds here;
    FI g iff g holds here and fails at every successor other than here.
    """
    if state not in model.frame.successor_map:
        raise UnknownStateError(state)
    return _ev(model, state, f)


def _ev(m: Model, s: str, f: Formula, aux: bool = False) -> bool:
    if isinstance(f, Atom):
        return m.truth(f.name, s)
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not _ev(m, s, f.arg, aux)
    if isinstance(f, And):
        return _ev(m, s, f.left, aux) and _ev(m, s, f.right, aux)
    if isinstance(f, Or):
        return _ev(m, s, f.left, aux) or _ev(m, s, f.right, aux)
    if isinstance(f, Imp):
        return (not _ev(m, s, f.left, aux)) or _ev(m, s, f.right, aux)
    if isinstance(f, Iff):
        return _ev(m, s, f.left, aux) == _ev(m, s, f.right, aux)
    succ = m.frame.successor_map[s]
    if isinstance(f, W):
        return (not _ev(m, s, f.arg, aux)) and all(_ev(m, t, f.arg, aux) for t in succ)
    if isinstance(f, Box):
        return all(_ev(m, t, f.arg, aux) for t in succ)
    if isinstance(f, IR):
        here = _ev(m, s, f.arg, aux)
        if aux:  # the auxiliary semantics reads IR g as g
            return here
        if not here and all(_ev(m, t, f.arg, aux) for t in succ):
            return True
        return here and all(not _ev(m, t, f.arg, aux) for t in succ)
    if isinstance(f, FI):
        return _ev(m, s, f.arg, aux) and all(
            not _ev(m, t, f.arg, aux) for t in succ if t != s
        )
    raise TypeError(f"not a formula: {f!r}")


def check_ir_only(f: Formula) -> None:
    """Raise ``LanguageError`` unless ``f`` lies in the IR-only language."""
    for g in subformulas(f):
        if isinstance(g, (W, Box, FI)):
            raise LanguageError(f"{g} is outside the IR-only language")


def evaluate_aux(model: Model, state: str, f: Formula) -> bool:
    """Auxiliary semantics on the IR-only language: IR g is read as g."""
    check_ir_only(f)
    if state not in model.frame.successor_map:
        raise UnknownStateError(state)
    return _ev(model, state, f, aux=True)


# ---------------------------------------------------------------------------
# Frame properties (naive exhaustive first-order checks; frames are tiny)


def _reflexive(fr: Frame) -> bool:
    return all((s, s) in fr.relation for s in fr.states)


def _serial(fr: Frame) -> bool:
    return all(fr.successor_map[s] for s in fr.states)


def _transitive(fr: Frame) -> bool:
    for x, y in fr.relation:
        for z in fr.successor_map[y]:
            if (x, z) not in fr.relation:
                return False
    return True


def _euclidean(fr: Frame) -> bool:
    for x in fr.states:
        succ = fr.successor_map[x]
        for y in succ:
            for z in succ:
                if (y, z) not in fr.relation:
                    return False
    return True


def _symmetric(fr: Frame) -> bool:
    return all((y, x) in fr.relation for x, y in fr.relation)


def _secondarily_reflexive(fr: Frame) -> bool:
    return all((y, y) in fr.relation for _, y in fr.relation)


def _narcissistic(fr: Frame) -> bool:
    return all(fr.successor_map[x] == (x,) for x in fr.states)


def _partially_narcissistic(fr: Frame) -> bool:
    return all(x == y for x, y in fr.relation)


def _partial_functional(fr: Frame) -> bool:
    return all(len(fr.successor_map[x]) <= 1 for x in fr.states)


def _weakly_connected(fr: Frame) -> bool:
    for x in fr.states:
        succ = fr.successor_map[x]
        for y in succ:
            for z in succ:
                if (y, z) not in fr.relation and y != z and (z, y) not in fr.relation:
                    return False
    return True


def _weakly_directed(fr: Frame) -> bool:
    for x in fr.states:
        succ = fr.successor_map[x]
        for y in succ:
            for z in succ:
                if not any(
                    (y, v) in fr.relation and (z, v) in fr.relation for v in fr.states
                ):
                    return False
    return True


PROPERTIES = {
    "reflexive": _reflexive,
    "serial": _serial,
    "transitive": _transitive,
    "euclidean": _euclidean,
    "symmetric": _symmetric,
    "secondarily-reflexive": _secondarily_reflexive,
    "narcissistic": _narcissistic,
    "partially-narcissistic": _partially_narcissistic,
    "partial-functional": _partial_functional,
    "weakly-connected": _weakly_connected,
    "weakly-directed": _weakly_directed,
}


def _pairs(x):
    return product(range(len(x)), repeat=2)


def _triples(x):
    return product(range(len(x)), repeat=3)


# The same properties as Boolean circuits over edge columns: ``x[i][j]``
# is an int whose bit ``m`` says whether frame ``m`` of a family has the
# edge from state ``i`` to state ``j``.  Each entry yields the violation
# terms of a property; a term may be negative (``~x`` is ``-x - 1``), which
# is harmless because only ``full & ~(OR of the terms)`` is read.
VIOLATIONS = {
    "reflexive": lambda x: (~x[a][a] for a in range(len(x))),
    "serial": lambda x: (~reduce(or_, row) for row in x),
    "transitive": lambda x: (x[a][b] & x[b][c] & ~x[a][c] for a, b, c in _triples(x)),
    "euclidean": lambda x: (x[a][b] & x[a][c] & ~x[b][c] for a, b, c in _triples(x)),
    "symmetric": lambda x: (x[a][b] & ~x[b][a] for a, b in _pairs(x)),
    "secondarily-reflexive": lambda x: (x[a][b] & ~x[b][b] for a, b in _pairs(x)),
    "narcissistic": lambda x: (~x[a][a] if a == b else x[a][b] for a, b in _pairs(x)),
    "partially-narcissistic": lambda x: (x[a][b] for a, b in _pairs(x) if a != b),
    "partial-functional": lambda x: (x[a][b] & x[a][c] for a, b, c in _triples(x) if b < c),
    "weakly-connected": lambda x: (
        x[a][b] & x[a][c] & ~x[b][c] & ~x[c][b] for a, b, c in _triples(x) if b != c
    ),
    "weakly-directed": lambda x: (
        x[a][b] & x[a][c] & ~reduce(or_, (x[b][v] & x[c][v] for v in range(len(x))))
        for a, b, c in _triples(x)
    ),
}


def has_property(frame: Frame, name: str) -> bool:
    """Decide the named first-order condition by exhaustive quantification."""
    try:
        check = PROPERTIES[name]
    except KeyError:
        raise ValueError(f"unknown frame property {name!r}") from None
    return check(frame)


@dataclass(frozen=True)
class FrameClass:
    """Conjunction of named frame properties; the empty set is all frames."""

    properties: frozenset[str] = frozenset()

    def __post_init__(self):
        unknown = set(self.properties) - set(PROPERTIES)
        if unknown:
            raise ValueError(f"unknown frame properties {sorted(unknown)}")

    def contains(self, frame: Frame) -> bool:
        return all(has_property(frame, p) for p in self.properties)

    def members(self, x: list[list[int]], full: int) -> int:
        """Membership of a family of ``k``-state frames as one bitset:
        given edge columns ``x[i][j]`` of the family (see ``VIOLATIONS``),
        bit ``m`` of the result is set iff frame ``m`` is in the class.
        ``full`` sets one bit per frame of the family."""
        bad = 0
        for p in self.properties:
            for term in VIOLATIONS[p](x):
                bad |= term
        return full & ~bad

    def describe(self) -> str:
        return "+".join(sorted(self.properties)) if self.properties else "all"


ALL_FRAMES = FrameClass()


def frame_class(expr: str) -> FrameClass:
    """Parse a class name: ``all`` or '+'-joined property names."""
    expr = expr.strip()
    if expr in ("", "all"):
        return ALL_FRAMES
    return FrameClass(frozenset(part.strip() for part in expr.split("+")))


# ---------------------------------------------------------------------------
# Model file format: a single JSON document.

_MODEL_FIELDS = {"states", "relation", "valuation", "designated"}


def load_model(text: str) -> tuple[Model, str | None]:
    """Parse the JSON model format; returns the model and optional designated state."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    unknown = set(doc) - _MODEL_FIELDS
    if unknown:
        raise ModelFormatError(f"unknown fields {sorted(unknown)}")
    for required in ("states", "relation", "valuation"):
        if required not in doc:
            raise ModelFormatError(f"missing field {required!r}")
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ModelFormatError("'states' must be an array of strings")
    relation = doc["relation"]
    pairs = []
    if not isinstance(relation, list):
        raise ModelFormatError("'relation' must be an array of pairs")
    for entry in relation:
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
            raise ModelFormatError(f"bad relation entry {entry!r}")
        pairs.append((entry[0], entry[1]))
    valuation = doc["valuation"]
    if not isinstance(valuation, dict):
        raise ModelFormatError("'valuation' must be an object")
    val = {}
    for atom, members in valuation.items():
        if not (isinstance(members, list) and all(isinstance(x, str) for x in members)):
            raise ModelFormatError(f"bad valuation entry for {atom!r}")
        val[atom] = frozenset(members)
    designated = doc.get("designated")
    if designated is not None and not isinstance(designated, str):
        raise ModelFormatError("'designated' must be a string")
    try:  # a valuation key must be an atom name: the Atom check rejects others
        model = Model.of(states, pairs, {Atom(a).name: m for a, m in val.items()})
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    if designated is not None and designated not in model.frame.states:
        raise ModelFormatError(f"designated state {designated!r} not in states")
    return model, designated


def dump_model(model: Model, designated: str | None = None) -> str:
    """Serialize in the same JSON format ``load_model`` accepts."""
    order = {s: i for i, s in enumerate(model.frame.states)}
    doc: dict = {
        "states": list(model.frame.states),
        "relation": [list(p) for p in sorted(model.frame.relation, key=lambda p: (order[p[0]], order[p[1]]))],
        "valuation": {
            atom: sorted(states, key=order.__getitem__)
            for atom, states in sorted(model.valuation.items())
        },
    }
    if designated is not None:
        doc["designated"] = designated
    return json.dumps(doc, indent=2)
