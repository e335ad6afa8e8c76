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
BINARY_TYPES = (And, Or, Imp, Iff)

# In place of the uncached field-tuple hash the dataclass decorator adds.
for _cls in (Atom, Top, Bot, Not) + MODAL_TYPES + BINARY_TYPES:
    _cls.__hash__ = Formula.__hash__

_MODAL_TOKEN = {ctor: token for token, ctor in MODALITIES.items()}
_BINARY_TOKEN = {And: "&", Or: "|", Imp: "->", Iff: "<->"}


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # ATOM W B IR FI T F ~ & | -> <-> ( ) EOF
    text: str
    pos: int


_SYMBOLS = ("<->", "->", "~", "&", "|", "(", ")")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token(sym, sym, i))
                i += len(sym)
                break
        else:
            if c.isalpha():
                m = re.match(r"[a-zA-Z][a-zA-Z0-9_]*", text[i:])
                word = m.group(0)
                if word in RESERVED:
                    tokens.append(_Token(word, word, i))
                elif ATOM_RE.fullmatch(word):
                    tokens.append(_Token("ATOM", word, i))
                else:
                    raise LexError(f"invalid token {word!r}", i)
                i += len(word)
            else:
                raise LexError(f"unexpected character {c!r}", i)
    tokens.append(_Token("EOF", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent following the grammar above)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.take()

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek().kind == "<->":
            self.take()
            return Iff(left, self.iff())
        return left

    def imp(self) -> Formula:
        left = self.or_()
        if self.peek().kind == "->":
            self.take()
            return Imp(left, self.imp())
        return left

    def or_(self) -> Formula:
        left = self.and_()
        while self.peek().kind == "|":
            self.take()
            left = Or(left, self.and_())
        return left

    def and_(self) -> Formula:
        left = self.unary()
        while self.peek().kind == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.take()
            return Not(self.unary())
        ctor = MODALITIES.get(tok.kind)
        if ctor is not None:
            self.take()
            return ctor(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ATOM":
            self.take()
            return Atom(tok.text)
        if tok.kind == "T":
            self.take()
            return Top()
        if tok.kind == "F":
            self.take()
            return Bot()
        if tok.kind == "(":
            self.take()
            inner = self.iff()
            self.expect(")")
            return inner
        raise ParseError(
            f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos
        )


def parse(text: str) -> Formula:
    """Parse concrete syntax into the unique AST under the grammar."""
    if not text.strip():
        raise ParseError("empty input", 0)
    parser = _Parser(_tokenize(text))
    result = parser.iff()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return result


# ---------------------------------------------------------------------------
# Printer

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4, 5, 6


def _prec(f: Formula) -> int:
    if isinstance(f, Iff):
        return _PREC_IFF
    if isinstance(f, Imp):
        return _PREC_IMP
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, (Not,) + MODAL_TYPES):
        return _PREC_UNARY
    return _PREC_ATOM


def _render(f: Formula, min_prec: int) -> str:
    prec = _prec(f)
    if isinstance(f, Atom):
        text = f.name
    elif isinstance(f, Top):
        text = "T"
    elif isinstance(f, Bot):
        text = "F"
    elif isinstance(f, Not):
        text = "~" + _render(f.arg, _PREC_UNARY)
    elif isinstance(f, MODAL_TYPES):
        text = _MODAL_TOKEN[type(f)] + " " + _render(f.arg, _PREC_UNARY)
    elif isinstance(f, (And, Or)):
        # Left-associative: the right operand needs strictly higher precedence.
        op = _BINARY_TOKEN[type(f)]
        text = _render(f.left, prec) + f" {op} " + _render(f.right, prec + 1)
    else:
        # ->, <-> are right-associative.
        op = _BINARY_TOKEN[type(f)]
        text = _render(f.left, prec + 1) + f" {op} " + _render(f.right, prec)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def print_formula(f: Formula) -> str:
    """Minimal-parentheses rendering; ``parse(print_formula(f)) == f``."""
    return _render(f, 0)


# ---------------------------------------------------------------------------
# Substitution and measures


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace atoms per ``mapping``; other atoms unchanged."""
    if isinstance(f, Atom):
        return mapping.get(f.name, f)
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(substitute(f.arg, mapping))
    if isinstance(f, MODAL_TYPES):
        return type(f)(substitute(f.arg, mapping))
    return type(f)(substitute(f.left, mapping), substitute(f.right, mapping))


@dataclass(frozen=True)
class FormulaMeasures:
    modal_depth: int
    atoms: frozenset[str]
    size: int


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformula occurrences, root first."""
    yield f
    if isinstance(f, Not) or isinstance(f, MODAL_TYPES):
        yield from subformulas(f.arg)
    elif isinstance(f, BINARY_TYPES):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def atoms_of(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Atom, Top, Bot)):
        return 0
    if isinstance(f, Not):
        return modal_depth(f.arg)
    if isinstance(f, MODAL_TYPES):
        return 1 + modal_depth(f.arg)
    return max(modal_depth(f.left), modal_depth(f.right))


def size(f: Formula) -> int:
    return sum(1 for _ in subformulas(f))


def modalities_in(f: Formula) -> frozenset[str]:
    return frozenset(
        _MODAL_TOKEN[type(g)] for g in subformulas(f) if isinstance(g, MODAL_TYPES)
    )


def measures(f: Formula) -> FormulaMeasures:
    return FormulaMeasures(modal_depth=modal_depth(f), atoms=atoms_of(f), size=size(f))
