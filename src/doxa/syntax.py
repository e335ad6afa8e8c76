"""Formula language: AST, parser, printer, substitution, structural measures.

Concrete ASCII grammar, loosest to tightest binding:

    iff     := imp ('<->' iff)?                 right-associative
    imp     := or ('->' imp)?                   right-associative
    or      := and ('|' and)*                   left-associative
    and     := unary ('&' unary)*               left-associative
    unary   := ('~' | 'W' | 'B' | 'IR' | 'FI') unary | primary
    primary := atom | 'T' | 'F' | '(' iff ')'

Atoms match ``[a-z][a-zA-Z0-9_]*``.  ``W`` is the false-belief operator
("believed but false"), ``B`` the plain belief box, ``IR`` radical
ignorance, ``FI`` factive ignorance, ``T``/``F`` the constants.

The four binary levels are one table, ``CONNECTIVES``, read by the parser
(precedence climbing) and by the printer.  The lexer is one regular
expression: any other non-space character, non-ASCII letters included, is
a ``LexError``.

``children`` gives a node's immediate subformulas: every walk blind to the
node kind (substitution, measures, schema matching) reads them through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")


class FormulaError(ValueError):
    """Base class for lexical and parse errors; carries a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LexError(FormulaError):
    pass


class ParseError(FormulaError):
    pass


@dataclass(frozen=True)
class Formula:
    def __str__(self) -> str:
        return print_formula(self)

    def __hash__(self) -> int:
        # Structural and cached on the node, for formula-keyed memo tables.
        try:
            return self._hash
        except AttributeError:
            h = hash((type(self).__name__, *(getattr(self, n) for n in self.__match_args__)))
            object.__setattr__(self, "_hash", h)
            return h


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not ATOM_RE.fullmatch(self.name) or self.name in RESERVED:
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class W(Formula):
    arg: Formula


@dataclass(frozen=True)
class Box(Formula):
    arg: Formula


@dataclass(frozen=True)
class IR(Formula):
    arg: Formula


@dataclass(frozen=True)
class FI(Formula):
    arg: Formula


# The modal operators by token, for the parser, the printer and the corpus.
MODALITIES = {"W": W, "B": Box, "IR": IR, "FI": FI}
MODAL_TYPES = tuple(MODALITIES.values())
RESERVED = frozenset(MODALITIES) | {"T", "F"}
# The binary connectives by token: (constructor, binding power,
# right-associative), loosest first.  The parser and the printer read it.
CONNECTIVES = {"<->": (Iff, 1, True), "->": (Imp, 2, True), "|": (Or, 3, False), "&": (And, 4, False)}
BINARY_TYPES = tuple(ctor for ctor, _, _ in CONNECTIVES.values())

# In place of the uncached field-tuple hash the dataclass decorator adds.
for _cls in (Atom, Top, Bot, Not) + MODAL_TYPES + BINARY_TYPES:
    _cls.__hash__ = Formula.__hash__

_MODAL_TOKEN = {ctor: token for token, ctor in MODALITIES.items()}
_CONNECTIVE = {ctor: (token, bp, right) for token, (ctor, bp, right) in CONNECTIVES.items()}


# ---------------------------------------------------------------------------
# Lexer

# (kind, text, pos): kind is the symbol or reserved word itself, ATOM or EOF.
_Token = tuple[str, str, int]
# A symbol, a word or any other non-space character; finditer skips spaces.
_TOKEN_RE = re.compile(r"(<->|->|[~&|()])|([a-zA-Z][a-zA-Z0-9_]*)|(\S)")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        symbol, word, other = m.groups()
        pos = m.start()
        if symbol:
            tokens.append((symbol, symbol, pos))
        elif other:
            raise LexError(f"unexpected character {other!r}", pos)
        elif word in RESERVED:
            tokens.append((word, word, pos))
        elif "a" <= word[0] <= "z":  # the rest of ATOM_RE is the word's own pattern
            tokens.append(("ATOM", word, pos))
        else:
            raise LexError(f"invalid token {word!r}", pos)
    tokens.append(("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser: precedence climbing over CONNECTIVES, recursive descent below.


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def binary(self, min_bp: int) -> Formula:
        """The longest formula whose connectives all bind at ``min_bp`` or tighter."""
        left = self.unary()
        while True:
            entry = CONNECTIVES.get(self.tokens[self.i][0])
            if entry is None or entry[1] < min_bp:
                return left
            ctor, bp, right = entry
            self.i += 1
            left = ctor(left, self.binary(bp if right else bp + 1))

    def unary(self) -> Formula:
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if kind == "~":
            return Not(self.unary())
        if kind in MODALITIES:
            return MODALITIES[kind](self.unary())
        if kind == "ATOM":
            return Atom(text)
        if kind == "T":
            return Top()
        if kind == "F":
            return Bot()
        if kind == "(":
            inner = self.binary(1)
            kind, text, pos = self.tokens[self.i]
            if kind != ")":
                raise ParseError(f"expected ')', found {text or 'end of input'!r}", pos)
            self.i += 1
            return inner
        raise ParseError(f"expected a formula, found {text or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse concrete syntax into the unique AST under the grammar."""
    if not text.strip():
        raise ParseError("empty input", 0)
    parser = _Parser(_tokenize(text))
    result = parser.binary(1)
    kind, trailing, pos = parser.tokens[parser.i]
    if kind != "EOF":
        raise ParseError(f"unexpected trailing input {trailing!r}", pos)
    return result


# ---------------------------------------------------------------------------
# Printer


def _render(f: Formula, min_bp: int) -> str:
    """``f`` as text, in parentheses if its connective binds looser than ``min_bp``."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, (Not,) + MODAL_TYPES):
        prefix = "~" if isinstance(f, Not) else _MODAL_TOKEN[type(f)] + " "
        # Binds tighter than every connective: a binary operand is parenthesised.
        return prefix + _render(f.arg, len(CONNECTIVES) + 1)
    token, bp, right = _CONNECTIVE[type(f)]
    # The operand on the grouping side may be the same connective unparenthesised.
    left_bp, right_bp = (bp + 1, bp) if right else (bp, bp + 1)
    text = f"{_render(f.left, left_bp)} {token} {_render(f.right, right_bp)}"
    return f"({text})" if bp < min_bp else text


def print_formula(f: Formula) -> str:
    """Minimal-parentheses rendering; ``parse(print_formula(f)) == f``."""
    return _render(f, 0)


# ---------------------------------------------------------------------------
# Children, substitution and measures


def children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of ``f``, left to right: ``()`` for an
    atom or a constant, so ``type(f)(*children(f)) == f`` for every non-atom."""
    if isinstance(f, BINARY_TYPES):
        return f.left, f.right
    if isinstance(f, Not) or isinstance(f, MODAL_TYPES):
        return (f.arg,)
    return ()


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace atoms per ``mapping``; other atoms unchanged."""
    if isinstance(f, Atom):
        return mapping.get(f.name, f)
    return type(f)(*[substitute(g, mapping) for g in children(f)])


@dataclass(frozen=True)
class FormulaMeasures:
    modal_depth: int
    atoms: frozenset[str]
    size: int


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformula occurrences, root first."""
    yield f
    for g in children(f):
        yield from subformulas(g)


def atoms_of(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def modal_depth(f: Formula) -> int:
    depth = 0
    for g in children(f):
        d = modal_depth(g)
        if d > depth:
            depth = d
    return depth + 1 if isinstance(f, MODAL_TYPES) else depth


def size(f: Formula) -> int:
    return sum(1 for _ in subformulas(f))


def modalities_in(f: Formula) -> frozenset[str]:
    return frozenset(
        _MODAL_TOKEN[type(g)] for g in subformulas(f) if isinstance(g, MODAL_TYPES)
    )


def measures(f: Formula) -> FormulaMeasures:
    return FormulaMeasures(modal_depth=modal_depth(f), atoms=atoms_of(f), size=size(f))
