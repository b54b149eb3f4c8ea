"""Boolean feature expressions: literals, negations and conjunctions.

Grammar::

    expr   := term ('&' term)*          ('&' is left-associative)
    term   := '!'* factor               ('!' binds tighter than '&')
    factor := IDENT | '(' expr ')'
    IDENT  := IDENT_RE: a letter or '_', then letters, digits, '_' or '-'

Expressions are immutable values.  Each node derives its text and its
canonical form once, when it is built, and keeps them.  Canonical form
removes double negations and orders the two operands of every
conjunction by their canonical serialization, so equal expressions have
byte-identical canonical text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO, Union

import numpy as np

from .stats import pack_columns, unpack_columns

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_LITERAL_RE = re.compile("!?" + IDENT_RE.pattern)


class ExprError(ValueError):
    """Base class for expression errors."""


class SyntaxError_(ExprError):
    """Malformed expression text; carries the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFeatureError(ExprError):
    """Expression references a name absent from the dataset; ``member`` is
    the index of that expression in the batch being evaluated."""

    member: int | None = None


# ``text`` is the deterministic, re-parseable rendering using '!', '&' and
# parens; ``canonical`` is the canonical form.  Not and And derive both
# when they are built, from their children's, which exist already because
# every tree is built bottom-up; so no step recurses on depth.  Both live
# in the instance ``__dict__``, not in dataclass fields.  ``text`` renders
# the structure one to one, so it is an expression's identity: ``==``,
# ``hash`` and ``repr`` read it, and the dataclasses generate none of them.
# A node that is its own canonical form stores None, not itself: a node
# that referred to itself would live on until the cycle collector ran.


class _Expr:
    """Base of Prim, Not and And: identity, hash and repr from ``text``."""

    _canonical = None  # Prim: always its own canonical form

    @property
    def canonical(self) -> "FeatureExpr":
        return self if self._canonical is None else self._canonical

    def __eq__(self, other):
        if not isinstance(other, _Expr):
            return NotImplemented
        return self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return f"parse({self.text!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Prim(_Expr):
    name: str

    @property
    def text(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Expr):
    child: "FeatureExpr"

    def __post_init__(self):
        child = self.child
        text = f"!({child.text})" if isinstance(child, And) else f"!{child.text}"
        form = child.canonical
        if isinstance(form, Not):
            form = form.child
        else:
            form = None if form is child else Not(form)
        self.__dict__.update(text=text, _canonical=form)


@dataclass(frozen=True, eq=False, repr=False)
class And(_Expr):
    left: "FeatureExpr"
    right: "FeatureExpr"

    def __post_init__(self):
        # '&' is left-associative: only a right-hand conjunction needs parens
        if isinstance(self.right, And):
            text = f"{self.left.text} & ({self.right.text})"
        else:
            text = f"{self.left.text} & {self.right.text}"
        left, right = self.left.canonical, self.right.canonical
        if left.text > right.text:
            left, right = right, left
        form = None if left is self.left and right is self.right else And(left, right)
        self.__dict__.update(text=text, _canonical=form)


FeatureExpr = Union[Prim, Not, And]


# ---------------------------------------------------------------------------
# parsing

# a name, an operator, or any other visible character (an error);
# whitespace between tokens matches nothing and is skipped
_TOKEN_RE = re.compile(IDENT_RE.pattern + r"|[!&()]|(?P<bad>\S)")


def parse(text: str) -> FeatureExpr:
    """Parse expression text, raising SyntaxError_ with a character offset.

    The whole text is tokenized first, so a bad character is reported
    before any syntax error.  Groups are kept on an explicit stack, so
    nesting depth is not limited by Python's recursion limit.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise SyntaxError_(f"unexpected character {m[0]!r}", m.start())
        tokens.append((m[0], m.start()))
    tokens.append((None, len(text)))
    stack = []  # (conjunction, pending '!' count) outside each open '('
    node, negs, want_term = None, 0, True
    for value, offset in tokens:
        if want_term:
            if value == "!":
                negs += 1
                continue
            if value == "(":
                stack.append((node, negs))
                node, negs = None, 0
                continue
            if value is None:
                raise SyntaxError_("unexpected end of input", offset)
            if value in ("&", ")"):
                raise SyntaxError_(f"unexpected token {value!r}", offset)
            term = Prim(value)
        elif value == "&":
            want_term = True
            continue
        elif value == ")" and stack:
            term = node
            node, negs = stack.pop()
        elif stack:
            raise SyntaxError_("expected ')'", offset)
        elif value is None:
            return node
        else:
            raise SyntaxError_("trailing input", offset)
        for _ in range(negs):
            term = Not(term)
        node = term if node is None else And(node, term)
        negs, want_term = 0, False


# ---------------------------------------------------------------------------
# printing

def to_text(e: FeatureExpr) -> str:
    """Deterministic, re-parseable rendering using '!', '&' and parens."""
    return e.text


def canonicalize(e: FeatureExpr) -> FeatureExpr:
    """Remove double negations and sort conjunction operands; idempotent.

    The canonical form the node derived when it was built: an expression
    that is already canonical is returned as the same object.
    """
    return e.canonical


def canonical_text(e: FeatureExpr) -> str:
    return e.canonical.text


# ---------------------------------------------------------------------------
# evaluation

def evaluate_words(
    exprs: Sequence[FeatureExpr], dataset, known: Iterable[tuple[str, np.ndarray]] = ()
) -> np.ndarray:
    """(m, W) uint64 truth words of ``exprs`` over every individual, laid
    out as ``stats.pack_columns`` makes them, padding bits zero.

    Each distinct canonical subexpression is computed once, as AND / NOT
    over the words of its operands; NOT is an XOR with the all-true
    column's words, so the padding bits stay zero.  ``known`` seeds the
    memo with (canonical text, words) pairs: an expression over them reads
    no primitive column.  Members are walked in order, left operand first,
    so the first unknown name is the one a member by member, left to
    right evaluation meets first.
    """
    memo = dict(known)  # canonical text -> words
    ones = pack_columns(np.ones((dataset.n, 1), dtype=bool))[0]
    out = np.empty((len(exprs), len(ones)), dtype=np.uint64)
    for j, e in enumerate(exprs):
        # post-order: a node is pushed back as ready above its operands,
        # which are pushed unready with the left one on top
        stack = [(e, False)]
        while stack:
            node, ready = stack.pop()
            key = node.canonical.text
            if key in memo:
                continue
            if isinstance(node, Prim):
                index = dataset.name_index.get(node.name)
                if index is None:
                    err = UnknownFeatureError(f"unknown feature {node.name!r}")
                    err.member = j
                    raise err
                memo[key] = dataset.words[index]
            elif isinstance(node, Not):
                if ready:
                    memo[key] = memo[node.child.canonical.text] ^ ones
                else:
                    stack += ((node, True), (node.child, False))
            elif ready:
                memo[key] = memo[node.left.canonical.text] & memo[node.right.canonical.text]
            else:
                stack += ((node, True), (node.right, False), (node.left, False))
        out[j] = memo[e.canonical.text]
    return out


def evaluate_batch(exprs: Sequence[FeatureExpr], dataset) -> np.ndarray:
    """(n, m) bool truth matrix of ``exprs``: ``evaluate_words`` unpacked."""
    return unpack_columns(evaluate_words(exprs, dataset), dataset.n)


def evaluate(e: FeatureExpr, dataset) -> np.ndarray:
    """Truth vector of the expression over every individual (bool array)."""
    return evaluate_batch([e], dataset)[:, 0]


def literal_count(e: FeatureExpr) -> int:
    """Number of distinct leaf literals (primitive plus its immediate sign).

    A primitive leaf under an odd run of negations counts as the negative
    literal; the same primitive inside a negated conjunction counts as
    positive, because a conjunction resets the sign.  Exact duplicates
    collapse.  Canonical text has no double negation, so each literal is
    one token there: a name, or '!' right before a name ('!(' opens a
    negated conjunction, whose leaves start positive again).
    """
    return len(set(_LITERAL_RE.findall(e.canonical.text)))


# ---------------------------------------------------------------------------
# feature-set text files: one expression per line, '#' comments, blanks ignored

class FeatureFile(list):
    """The expressions of a feature file, in order; ``lines[i]`` is the
    1-based line that expression i was read from."""

    def __init__(self, numbered: Iterable[tuple[int, FeatureExpr]]):
        numbered = list(numbered)
        super().__init__(e for _, e in numbered)
        self.lines = [lineno for lineno, _ in numbered]


def _numbered_feature_lines(lines: Iterable[str]) -> Iterator[tuple[int, FeatureExpr]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            e = parse(line)
        except SyntaxError_ as err:
            err.args = (f"line {lineno}: {err}",)
            raise
        yield lineno, e


def iter_feature_lines(lines: Iterable[str]) -> Iterator[FeatureExpr]:
    """Parse each expression line; a SyntaxError_ names its 1-based line,
    and its offset counts from the start of the stripped line."""
    return (e for _, e in _numbered_feature_lines(lines))


def load_feature_file(path) -> FeatureFile:
    """Parse a feature file, with or without a UTF-8 byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return FeatureFile(_numbered_feature_lines(fh))


def dump_features(exprs: Iterable[FeatureExpr], out: TextIO) -> None:
    for e in exprs:
        out.write(to_text(e) + "\n")


def save_feature_file(exprs: Iterable[FeatureExpr], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        dump_features(exprs, fh)
