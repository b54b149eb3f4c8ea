"""Boolean feature expressions: literals, negations and conjunctions.

Grammar::

    expr   := term ('&' term)*          ('&' is left-associative)
    term   := '!'* factor               ('!' binds tighter than '&')
    factor := IDENT | '(' expr ')'
    IDENT  := IDENT_RE: a letter or '_', then letters, digits, '_' or '-'

Expressions are immutable values.  Each node derives its text, its
canonical form and its set of distinct literals once, when it is built,
and keeps them.  Canonical form removes double negations and orders the
two operands of every conjunction by their canonical serialization, so
equal expressions have byte-identical canonical text.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from .stats import row_mask, unpack_columns

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")


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
# parens; ``canonical`` is the canonical form; ``literals`` is the frozenset
# of distinct leaf literals, each a name or '!' and a name.  Not and And
# derive all three when they are built, from their children's, which
# exist already because every tree is built bottom-up; so no step recurses
# on depth.  ``_derive`` stores them as plain instance attributes, not
# dataclass fields.  A Not over a Not or an And adds no literal and shares
# its grandchild's or child's set.  ``text`` renders the structure one to
# one, so it is an expression's identity: ``==``, ``hash`` and ``repr``
# read it, and the dataclasses generate none of them.
# A node that is its own canonical form stores None, not itself: a node
# that referred to itself would live on until the cycle collector ran.


def _derive(node, text, canonical, literals) -> None:
    """Store what a node derives.  Attribute by attribute, so CPython
    keeps them in the instance's inline values and builds no dict."""
    setattr_ = object.__setattr__
    setattr_(node, "text", text)
    setattr_(node, "_canonical", canonical)
    setattr_(node, "literals", literals)


class _Expr:
    """Base of Prim, Not and And: identity, hash and repr from ``text``."""

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

    def __post_init__(self):
        _derive(self, self.name, None, frozenset((self.name,)))


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
        if isinstance(child, Prim):
            literals = frozenset(("!" + child.name,))
        elif isinstance(child, Not):
            literals = child.child.literals  # the double negation cancels
        else:
            literals = child.literals  # a conjunction resets the sign
        _derive(self, text, form, literals)


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
        literals = self.left.literals | self.right.literals
        _derive(self, text, form, literals)


FeatureExpr = Union[Prim, Not, And]


# ---------------------------------------------------------------------------
# parsing

# a name or an operator; whatever else lies between tokens is skipped
_TOKEN_RE = re.compile(f"{IDENT_RE.pattern}|[!&()]")
# the longest prefix of names, operators and whitespace: it ends at the
# first character that no token holds, which ``_TOKEN_RE`` would skip
_VALID_RE = re.compile(f"(?:{IDENT_RE.pattern}|[\\s!&()]+)*")


def parse(text: str) -> FeatureExpr:
    """Parse expression text, raising SyntaxError_ with a character offset.

    One ``match`` finds the first bad character, if any, and one
    ``findall`` tokenizes; a token's offset is found again, by a rescan of
    the text, only for the error raised.  A bad character is reported
    before any syntax error.  Groups are kept on an explicit stack, so
    nesting depth is not limited by Python's recursion limit.
    """
    return _parse(text, {})


def _error(text: str, i: int, message: str) -> SyntaxError_:
    """The error for token i."""
    offsets = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
    return SyntaxError_(message, offsets[i])


def _parse(text: str, nodes: dict) -> FeatureExpr:
    """``parse``, building each node only if ``nodes`` holds none with its
    operands: a Prim is keyed by its name, a Not by ``(id(child),)`` and an
    And by ``(id(left), id(right))``.  ``nodes`` keeps every node it holds
    alive, so no id it keys by is reused while it lives."""
    bad = _VALID_RE.match(text).end()
    if bad < len(text):
        raise SyntaxError_(f"unexpected character {text[bad]!r}", bad)
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end of the text
    last = len(tokens) - 1
    stack = []  # (conjunction, pending '!' count) outside each open '('
    node, negs, want_term = None, 0, True
    for i, value in enumerate(tokens):
        if want_term:
            if value == "!":
                negs += 1
                continue
            if value == "(":
                stack.append((node, negs))
                node, negs = None, 0
                continue
            if not value:
                raise _error(text, i, "unexpected end of input")
            if value in ("&", ")"):
                raise _error(text, i, f"unexpected token {value!r}")
            term = nodes.get(value) or nodes.setdefault(value, Prim(value))
        elif value == "&":
            want_term = True
            continue
        elif value == ")" and stack:
            term = node
            node, negs = stack.pop()
        elif stack:
            raise _error(text, i, "expected ')'")
        elif i < last:
            raise _error(text, i, "trailing input")
        else:
            return node
        for _ in range(negs):
            key = (id(term),)
            term = nodes.get(key) or nodes.setdefault(key, Not(term))
        if node is not None:
            key = (id(node), id(term))
            term = nodes.get(key) or nodes.setdefault(key, And(node, term))
        node, negs, want_term = term, 0, False


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


def negation(e: FeatureExpr) -> FeatureExpr:
    """The canonical form of ``Not(e)``, built without the double
    negation it would cancel."""
    form = e.canonical
    return form.child if isinstance(form, Not) else Not(form)


def conjunction(left: FeatureExpr, right: FeatureExpr) -> FeatureExpr:
    """The canonical form of ``And(left, right)``, built as one node: the
    operands' canonical forms, in order."""
    left, right = left.canonical, right.canonical
    return And(left, right) if left.text <= right.text else And(right, left)


# ---------------------------------------------------------------------------
# evaluation

def evaluate_words(exprs: Sequence[FeatureExpr], dataset) -> np.ndarray:
    """(m, W) uint64 truth words of ``exprs`` over every individual, laid
    out as ``stats.pack_columns`` makes them, padding bits zero.

    Each distinct canonical subexpression is computed once, as AND / NOT
    over the words of its operands; NOT is an XOR with the all-true
    column's words, so the padding bits stay zero.  Members are walked in
    order, left operand first, so the first unknown name is the one a
    member by member, left to right evaluation meets first.

    The walk plans the computation and counts each node's readers, the
    later nodes that read its words; nothing is computed until every name
    is known.  A member's words are computed straight into its output
    row, and an intermediate's are dropped after its last reader, so only
    the live ones are held.
    """
    plan = {}  # canonical text -> (node, its operands' canonical texts), operands first
    readers = {}  # canonical text -> how many planned nodes read its words
    rows = {}  # canonical text -> the output rows of the members that have it
    for j, e in enumerate(exprs):
        rows.setdefault(e.canonical.text, []).append(j)
        # post-order: a node is pushed back as ready above its operands,
        # which are pushed unready with the left one on top
        stack = [(e, False)]
        while stack:
            node, ready = stack.pop()
            key = node.canonical.text
            if key in plan:
                continue
            if isinstance(node, Prim):
                if node.name not in dataset.name_index:
                    err = UnknownFeatureError(f"unknown feature {node.name!r}")
                    err.member = j
                    raise err
                plan[key] = (node, ())
            elif ready:
                if isinstance(node, Not):
                    operands = (node.child.canonical.text,)
                else:
                    operands = (node.left.canonical.text, node.right.canonical.text)
                for o in operands:
                    readers[o] = readers.get(o, 0) + 1
                plan[key] = (node, operands)
            elif isinstance(node, Not):
                stack += ((node, True), (node.child, False))
            else:
                stack += ((node, True), (node.right, False), (node.left, False))
    ones, columns = row_mask(dataset.n), dataset.words
    out = np.empty((len(exprs), len(ones)), dtype=np.uint64)
    live = {}  # canonical text -> words, while a reader is still to come
    for key, (node, operands) in plan.items():
        members = rows.get(key, ())
        dest = out[members[0]] if members else None
        if isinstance(node, Prim):
            words = columns[dataset.name_index[node.name]]
            if dest is not None:
                dest[:] = words
        elif isinstance(node, Not):
            words = np.bitwise_xor(live[operands[0]], ones, out=dest)
        else:
            words = np.bitwise_and(live[operands[0]], live[operands[1]], out=dest)
        for j in members[1:]:  # a member listed again
            out[j] = words
        for o in operands:
            readers[o] -= 1
            if not readers[o]:
                del live[o]
        if key in readers:
            live[key] = words
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
    collapse.  The size of the set ``literals`` the node derived when it
    was built.
    """
    return len(e.literals)


# ---------------------------------------------------------------------------
# feature-set text files: one expression per line, '#' comments, blanks ignored

class FeatureFile(list):
    """The expressions of the text lines of a feature file, in order;
    ``lines[i]`` is the 1-based line that expression i was read from.  A
    SyntaxError_ names its line, and its offset counts from the start of
    the stripped line.

    The expressions share their repeated subexpressions: each distinct
    one is built once, for the whole file, which is safe because nodes
    are immutable.  uFC builds every feature from two earlier ones, so
    its files repeat a lot: the 242 lines a seed-0 ``construct --risk
    0.001`` writes on the benchmark's M dataset hold 11 998 nodes, of
    which 970 are distinct and built."""

    def __init__(self, lines: Iterable[str]):
        super().__init__()
        self.lines = []
        nodes = {}
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                self.append(_parse(line, nodes))
            except SyntaxError_ as err:
                err.args = (f"line {lineno}: {err}",)
                raise
            self.lines.append(lineno)


def utf8_error(raw: bytes) -> str:
    """``line N: ...`` naming the first byte of ``raw`` that is not UTF-8,
    for bytes that do not decode.  N is 1-based; LF, CRLF and a lone CR
    each end a line.  It is found in the bytes themselves, because the
    offset of a decoder's error is not the byte's: after a byte-order mark
    it counts from the mark's end, and a text stream decodes in chunks."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as err:
        head = raw[:err.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return f"line {line}: byte 0x{raw[err.start]:02x} is not UTF-8 ({err.reason})"


@contextmanager
def open_text(path, error: type[Exception]):
    """``path`` opened as UTF-8 text, with or without a byte-order mark; a
    byte that does not decode raises ``error`` with ``utf8_error``'s
    message."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raise error(utf8_error(fh.read())) from None


def load_feature_file(path) -> FeatureFile:
    """Parse a feature file, with or without a UTF-8 byte-order mark."""
    with open_text(path, ExprError) as fh:
        return FeatureFile(fh)


def dump_features(exprs: Iterable[FeatureExpr], out: TextIO) -> None:
    for e in exprs:
        out.write(to_text(e) + "\n")


def save_feature_file(exprs: Iterable[FeatureExpr], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        dump_features(exprs, fh)
