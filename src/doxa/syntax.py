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

There is one node per structure: a constructor given the class and fields
of a node already built returns that node (hash-consing; Filliatre and
Conchon, "Type-safe modular hash-consing", 2006).  So structural equality
is identity, ``==`` and ``hash`` are ``object``'s, and every memo keyed on
formulas looks them up at C speed.  Nodes live as long as the process.
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


# Every node built, by (class, *fields): one node per structure.
_NODES: dict[tuple, Formula] = {}


# The decorator of every node class.  ``eq=False`` keeps ``object``'s
# identity ``==`` and ``hash``; ``init=False`` because ``__new__`` sets the
# fields of a new node, and a node found in the table is returned untouched.
_node = dataclass(frozen=True, eq=False, slots=True, init=False)


@_node
class Formula:
    """A formula node, one per structure (see the module docstring).
    Fields are given by position or by name; a copy or a pickle of a node
    is the node itself."""

    def __new__(cls, *args, **kwargs):
        if kwargs:
            args += tuple(kwargs.pop(name) for name in cls.__match_args__[len(args) :] if name in kwargs)
            if kwargs:
                raise TypeError(f"{cls.__name__}() got unexpected fields {sorted(kwargs)}")
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            if len(args) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__}() takes the fields {cls.__match_args__}, got {len(args)}")
            cls._validate(*args)
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, args):
                object.__setattr__(node, name, value)
            _NODES[key] = node
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    @staticmethod
    def _validate(*fields) -> None:
        """Raise on fields that make no formula, before the node is built."""

    def __str__(self) -> str:
        return print_formula(self)


@_node
class Atom(Formula):
    name: str

    @staticmethod
    def _validate(name) -> None:
        if not ATOM_RE.fullmatch(name) or name in RESERVED:
            raise ValueError(f"invalid atom name: {name!r}")


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class Not(Formula):
    arg: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class W(Formula):
    arg: Formula


@_node
class Box(Formula):
    arg: Formula


@_node
class IR(Formula):
    arg: Formula


@_node
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
