import gc
import io
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ref_evaluate, ref_literals

from boolfc.dataset import Dataset
from boolfc.expr import (
    And,
    FeatureFile,
    Not,
    Prim,
    SyntaxError_,
    UnknownFeatureError,
    canonical_text,
    canonicalize,
    conjunction,
    dump_features,
    evaluate,
    evaluate_batch,
    evaluate_words,
    literal_count,
    load_feature_file,
    negation,
    parse,
    save_feature_file,
    to_text,
)
from boolfc.metrics import DuplicateFeatureError, FeatureSet
from boolfc.stats import pack_columns
from boolfc.ufc import RiskMode, UfcConfig, ufc_run

# -- parsing -----------------------------------------------------------------


def test_parse_conjunction_of_literal_and_negation():
    assert parse("water & !cascade") == And(Prim("water"), Not(Prim("cascade")))


def test_parse_negated_group():
    e = parse("!(sky & building) & tree")
    assert e == And(Not(And(Prim("sky"), Prim("building"))), Prim("tree"))


def test_parse_left_associative():
    assert parse("a & b & c") == And(And(Prim("a"), Prim("b")), Prim("c"))
    # equality is of the text, which renders the structure one to one
    a, b = Prim("a"), Prim("b")
    assert And(a, b) != And(b, a) and parse("a & (b & c)") != parse("a & b & c")
    assert Prim("a") != "a" and Prim("a") == parse("a")


def test_parse_not_binds_tighter():
    assert parse("!a & b") == And(Not(Prim("a")), Prim("b"))


def test_parse_double_negation_kept_by_parser():
    assert parse("!!a") == Not(Not(Prim("a")))


def test_parse_whitespace_insignificant():
    assert parse(" a&!b ") == parse("a & !b")


def test_parse_error_at_end_of_input():
    with pytest.raises(SyntaxError_) as err:
        parse("a &")
    assert err.value.offset == 3


def test_parse_error_offsets():
    with pytest.raises(SyntaxError_) as err:
        parse("a & (b")
    assert err.value.offset == 6
    with pytest.raises(SyntaxError_) as err:
        parse("a @ b")
    assert err.value.offset == 2
    # every message, with whitespace before the token it names, so the
    # offset is the token's own, found again by the error-only rescan
    for text, message, offset in (
        ("a b", "trailing input", 2),
        ("", "unexpected end of input", 0),
        ("a &  ", "unexpected end of input", 5),
        ("a &  & b", "unexpected token '&'", 5),
        ("(a & b)  c", "trailing input", 9),
        ("!(a & b  c", "expected ')'", 9),
        ("!(a & b  ", "expected ')'", 9),
        ("a &  )", "unexpected token ')'", 5),
        # a bad character comes first, even after another error
        ("a &  & b  @", "unexpected character '@'", 10),
        ("a  b  %  $", "unexpected character '%'", 6),
    ):
        with pytest.raises(SyntaxError_) as err:
            parse(text)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset
    # offsets count characters, not UTF-8 bytes
    for text, offset in (("\u00e9", 0), ("\u00a0\u2028@", 2)):
        with pytest.raises(SyntaxError_) as err:
            parse(text)
        assert err.value.offset == offset


# -- reference parser ----------------------------------------------------------
# The regex tokenizer and recursive-descent parser that ``parse`` replaced,
# kept as the oracle for its trees, messages and offsets.

_REF_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_-]*)|(?P<op>[!&()]))")


def ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise SyntaxError_(f"unexpected character {text[bad]!r}", bad)
        if m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class RefParser:
    def __init__(self, text):
        self.text = text
        self.tokens = ref_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def fail(self, message):
        tok = self.peek()
        raise SyntaxError_(message, tok[2] if tok is not None else len(self.text))

    def parse_expr(self):
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok is None or tok[1] != "&":
                return node
            self.next()
            node = And(node, self.parse_term())

    def parse_term(self):
        negs = 0
        while self.peek() is not None and self.peek()[1] == "!":
            self.next()
            negs += 1
        node = self.parse_factor()
        for _ in range(negs):
            node = Not(node)
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        kind, value, _ = tok
        if kind == "ident":
            self.next()
            return Prim(value)
        if value == "(":
            self.next()
            node = self.parse_expr()
            closing = self.peek()
            if closing is None or closing[1] != ")":
                self.fail("expected ')'")
            self.next()
            return node
        self.fail(f"unexpected token {value!r}")


def ref_parse(text):
    parser = RefParser(text)
    node = parser.parse_expr()
    if parser.peek() is not None:
        parser.fail("trailing input")
    return node


def parse_outcome(parse_fn, text):
    """The parsed tree, or the (message, offset) of the SyntaxError_."""
    try:
        return parse_fn(text)
    except SyntaxError_ as err:
        return str(err), err.offset


# names, operators, ASCII and Unicode whitespace, and stray characters
_PARSE_PIECES = st.sampled_from([
    "a", "b", "x_1", "Foo-2", "_", "!", "&", "(", ")", "!(", "a)", "(a", " & ",
    " ", "\t", "\u00a0", "\u2028", "\x1c", "@", "1", "-", "\u00e9", "#", "|",
])


@given(st.lists(_PARSE_PIECES, max_size=16).map("".join))
@settings(max_examples=2000, deadline=None)
def test_parse_matches_recursive_descent_reference(text):
    assert parse_outcome(parse, text) == parse_outcome(ref_parse, text)


def test_parse_nesting_is_not_limited_by_recursion():
    assert parse("(" * 5000 + "a" + ")" * 5000) == Prim("a")
    e = parse("!(" * 3000 + "a" + " & b)" * 3000)
    assert e.child.right == Prim("b") and isinstance(e.child.left, Not)


# -- canonicalization --------------------------------------------------------


def test_canonicalize_double_negation():
    assert canonicalize(parse("!!a")) == Prim("a")


def test_canonicalize_orders_operands():
    assert canonical_text(parse("b & a")) == "a & b"


def test_canonicalize_combined_rules():
    e = parse("(b & a) & !!c")
    assert canonical_text(e) == "a & b & c"
    assert canonicalize(canonicalize(e)) == canonicalize(e)


# expression strategy: primitives over a 3-name alphabet
_names = st.sampled_from(["a", "b", "c"])
_exprs = st.recursive(
    _names.map(Prim),
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda t: And(*t)),
    ),
    max_leaves=12,
)


@given(_exprs)
@settings(max_examples=200, deadline=None)
def test_roundtrip_modulo_canonical_form(e):
    assert canonicalize(parse(to_text(e))) == canonicalize(e)


@given(_exprs)
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent(e):
    c = canonicalize(e)
    assert canonicalize(c) == c


# -- reference renderer and canonicalizer -----------------------------------
# The recursive forms that re-render every subtree on each call, kept as
# the oracle for the nodes' stored text.


def ref_to_text(e) -> str:
    if isinstance(e, Prim):
        return e.name
    if isinstance(e, Not):
        inner = ref_to_text(e.child)
        if isinstance(e.child, And):
            return f"!({inner})"
        return f"!{inner}"
    left = ref_to_text(e.left)
    right = ref_to_text(e.right)
    if isinstance(e.right, And):
        right = f"({right})"
    return f"{left} & {right}"


def ref_canonicalize(e):
    if isinstance(e, Prim):
        return e
    if isinstance(e, Not):
        child = ref_canonicalize(e.child)
        if isinstance(child, Not):
            return child.child
        return Not(child)
    left = ref_canonicalize(e.left)
    right = ref_canonicalize(e.right)
    if ref_to_text(left) <= ref_to_text(right):
        return And(left, right)
    return And(right, left)


def rebuild(e):
    """A structurally equal copy made of fresh nodes."""
    if isinstance(e, Prim):
        return Prim(e.name)
    if isinstance(e, Not):
        return Not(rebuild(e.child))
    return And(rebuild(e.left), rebuild(e.right))


def subtrees(e):
    yield e
    if isinstance(e, Not):
        yield from subtrees(e.child)
    elif isinstance(e, And):
        yield from subtrees(e.left)
        yield from subtrees(e.right)


def check_against_references(e):
    fresh = rebuild(e)
    assert to_text(e) == ref_to_text(e)
    c = canonicalize(e)
    assert canonicalize(e) is c
    assert c == ref_canonicalize(e)
    assert canonical_text(e) == ref_to_text(ref_canonicalize(e))
    assert literal_count(e) == len(ref_literals(e))
    assert set(e.literals) == ref_literals(e)
    for sub in subtrees(c):
        assert canonicalize(sub) is sub
    # identity is the text, so a fresh copy is equal, hashes and prints alike
    assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)


# names sharing prefixes, so operand order depends on more than one char;
# with '-' and digits every character class of a name occurs
_many_names = st.sampled_from(["a", "b", "ab", "a_b", "Z", "a-b", "x1"])
_big_exprs = st.recursive(
    _many_names.map(Prim),
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda t: And(*t)),
    ),
    max_leaves=40,
)


@given(_big_exprs)
@settings(max_examples=500, deadline=None)
def test_cached_text_matches_recursive_reference(e):
    check_against_references(e)


@given(_big_exprs, _big_exprs)
@settings(max_examples=200, deadline=None)
def test_negation_and_conjunction_build_the_canonical_form(x, y):
    assert negation(x) == canonicalize(Not(x))
    assert conjunction(x, y) == canonicalize(And(x, y))
    assert conjunction(negation(x), y) == canonicalize(And(Not(x), y))
    for e in (negation(x), conjunction(x, y), conjunction(negation(x), y)):
        assert canonicalize(e) is e
        check_against_references(e)
    # a canonical operand is used as it is, not rebuilt
    both = conjunction(x, y)
    assert {id(both.left), id(both.right)} == {id(x.canonical), id(y.canonical)}


def test_literal_sets_are_shared_not_copied():
    a = Prim("a")
    e = parse("a & !b")
    assert e.literals == {"a", "!b"} and Not(a).literals == {"!a"}
    # a negated conjunction resets the sign, and a double negation cancels
    assert Not(e).literals is e.literals
    assert Not(Not(e)).literals is e.literals
    assert Not(Not(a)).literals is a.literals
    once = Not(a)
    assert Not(Not(once)).literals is once.literals


def test_conjunction_literals_are_the_union_of_its_operands():
    a, b, c = Prim("a"), Prim("b"), Prim("c")
    ab = And(a, b)
    assert And(ab, a).literals == ab.literals  # {a} <= {a, b}
    assert And(b, ab).literals == ab.literals
    assert And(a, Prim("a")).literals == a.literals
    deep = And(ab, Not(And(b, a)))  # a negated conjunction resets the sign
    assert deep.literals == ab.literals and literal_count(deep) == 2
    abc = And(ab, c)
    assert abc.literals == {"a", "b", "c"}
    neg = And(Not(a), ab)
    assert neg.literals == {"!a", "a", "b"} and literal_count(neg) == 3


@pytest.mark.parametrize("text", ["a & b", "!a", "!(a & b) & c"])
def test_canonical_node_holds_no_reference_to_itself(text):
    gc.disable()
    try:
        c = canonicalize(parse(text))
        assert canonicalize(c) is c
        ref = weakref.ref(c)
        del c
        assert ref() is None
    finally:
        gc.enable()


def test_canonical_form_costs_one_frame_per_level():
    # 800 stacked negations collapse to their leaf, and both 800-level
    # chains evaluate; test_expressions_past_the_recursion_limit goes deeper
    leaf = Prim("a")
    negated, nested = leaf, leaf
    for i in range(800):
        negated = Not(negated)
        nested = And(nested, Prim(f"x{i % 3}"))
    d = Dataset(["a", "x0", "x1", "x2"], np.ones((3, 4), dtype=bool))
    assert canonicalize(negated) is leaf
    assert canonical_text(negated) == "a" and literal_count(negated) == 1
    assert literal_count(nested) == 4
    assert evaluate(negated, d).all() and evaluate(nested, d).all()


def test_deep_expressions_match_recursive_reference():
    # the reference rendering, which determines the structure, is checked
    # against the text that ==, hash and repr read
    nested = Prim("x0")
    for i in range(1, 301):
        leaf = Prim(f"x{i % 7}")
        nested = And(leaf, nested) if i % 2 else And(nested, Not(leaf))
    negated = Prim("a")
    for _ in range(301):
        negated = Not(negated)
    for e in (nested, negated, And(negated, nested)):
        assert to_text(e) == ref_to_text(e)
        c = canonicalize(e)
        assert ref_to_text(c) == ref_to_text(ref_canonicalize(e))
        assert canonical_text(e) == ref_to_text(c)
        assert literal_count(e) == len(ref_literals(e))
        assert all(canonicalize(sub) is sub for sub in subtrees(c))
    assert canonical_text(negated) == "!a" and literal_count(negated) == 1


def test_expressions_past_the_recursion_limit():
    # 5000 levels, five times the default recursion limit: nodes derive
    # their text and canonical form when built, ==, hash and repr read the
    # text, and evaluation keeps an explicit stack, so no step recurses on
    # depth
    d = Dataset(["a", "b"], np.array([[1, 1], [1, 0], [0, 1], [0, 0]], dtype=bool))
    a, b = d.column("a"), d.column("b")
    negated = mixed = leaf = Prim("a")
    want = a
    for _ in range(5000):
        negated = Not(negated)
    for _ in range(2500):
        mixed = Not(And(mixed, Prim("b")))
        want = ~(want & b)
    assert to_text(negated) == "!" * 5000 + "a"
    assert canonicalize(negated) is leaf and canonical_text(Not(negated)) == "!a"
    assert literal_count(negated) == 1 and literal_count(Not(negated)) == 1
    text = "!(" * 2500 + "a" + " & b)" * 2500
    assert to_text(mixed) == text and canonical_text(mixed) == text
    assert canonicalize(mixed) is mixed and literal_count(mixed) == 2
    # every node's literal set has at most the chain's two literals
    stack = [negated, mixed]
    while stack:
        node = stack.pop()
        assert len(node.literals) <= 2
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, And):
            stack += (node.left, node.right)
    for e in (negated, mixed):
        twin = parse(to_text(e))
        assert twin is not e and twin == e and hash(twin) == hash(e)
        assert repr(twin) == repr(e) and twin in {e} and twin != Not(e)
    assert mixed != Not(Not(mixed)) and negated != mixed
    assert np.array_equal(evaluate(negated, d), a)
    assert np.array_equal(evaluate(Not(negated), d), ~a)
    assert np.array_equal(evaluate(mixed, d), want)
    fs = FeatureSet([negated, mixed, Not(negated)], d)
    assert fs.keys == ("a", text, "!a") and fs.literal_counts == (1, 2, 1)
    assert np.array_equal(fs.extensions, np.column_stack([a, want, ~a]))
    with pytest.raises(DuplicateFeatureError) as err:
        FeatureSet([leaf, negated], d)
    assert err.value.member == 1


# -- evaluation --------------------------------------------------------------


def small_dataset(rows):
    return Dataset(["a", "b", "c"], np.array(rows, dtype=bool))


def test_evaluate_primitive_passthrough():
    d = small_dataset([[1, 0, 1], [0, 1, 1]])
    assert np.array_equal(evaluate(Prim("a"), d), d.column("a"))


def test_evaluate_contradiction_is_all_zero():
    d = small_dataset([[1, 0, 1], [0, 1, 1]])
    out = evaluate(parse("a & !a"), d)
    assert not out.any()


def test_evaluate_unknown_name():
    d = small_dataset([[1, 0, 1]])
    with pytest.raises(UnknownFeatureError):
        evaluate(parse("zzz"), d)


@given(_exprs, _exprs)
@settings(max_examples=100, deadline=None)
def test_de_morgan_at_extension_level(x, y):
    rng = np.random.default_rng(0)
    d = small_dataset(rng.random((10, 3)) < 0.5)
    lhs = evaluate(Not(And(x, y)), d)
    rhs = ~(evaluate(x, d) & evaluate(y, d))
    assert np.array_equal(lhs, rhs)


@given(_exprs)
@settings(max_examples=100, deadline=None)
def test_canonicalize_preserves_extension(e):
    rng = np.random.default_rng(1)
    d = small_dataset(rng.random((12, 3)) < 0.5)
    assert np.array_equal(evaluate(e, d), evaluate(canonicalize(e), d))


# n around byte and word boundaries: '!' sets the padding bits of a packed
# column, which must never reach an unpacked one
_BATCH_SIZES = [1, 7, 8, 9, 63, 64, 65]


@pytest.mark.parametrize("n", _BATCH_SIZES)
@given(st.lists(_exprs, max_size=8))
@settings(max_examples=60, deadline=None)
def test_evaluate_batch_matches_recursive_reference(n, exprs):
    d = small_dataset(np.random.default_rng(n).random((n, 3)) < 0.5)
    got = evaluate_batch(exprs, d)
    assert got.shape == (n, len(exprs)) and got.dtype == bool
    for j, e in enumerate(exprs):
        assert np.array_equal(got[:, j], ref_evaluate(e, d))
        assert np.array_equal(evaluate(e, d), got[:, j])


# 'y' and 'z' are not columns of the dataset
_exprs_with_unknowns = st.recursive(
    st.sampled_from(["a", "b", "y", "z"]).map(Prim),
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda t: And(*t)),
    ),
    max_leaves=6,
)


@given(st.lists(_exprs_with_unknowns, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_evaluate_batch_raises_the_first_unknown_name(exprs):
    d = small_dataset(np.random.default_rng(0).random((9, 3)) < 0.5)
    try:
        want = [ref_evaluate(e, d) for e in exprs]
    except UnknownFeatureError as err:
        with pytest.raises(UnknownFeatureError) as got:
            evaluate_batch(exprs, d)
        assert str(got.value) == str(err)
    else:
        assert np.array_equal(evaluate_batch(exprs, d), np.column_stack(want))


def test_evaluate_batch_first_unknown_in_member_order_not_canonical_order():
    d = small_dataset([[1, 0, 1]])
    # canonical form swaps the operands of 'z & y'; the error names 'z'
    with pytest.raises(UnknownFeatureError, match="'z'"):
        evaluate_batch([parse("a & b"), parse("z & y"), parse("y")], d)


@pytest.mark.parametrize("length", [10, 300])
def test_evaluate_words_holds_only_the_live_intermediates(length):
    # uFC-shaped: each feature conjoins the last one, negated every other
    # step, with a literal; only the last two are members, so about 1.5 *
    # length distinct subexpressions are intermediates read once each
    n = 1 << 20
    d = small_dataset(np.random.default_rng(length).random((n, 3)) < 0.9)
    columns = [d.column(name) for name in "abc"]
    literals = [(Prim("a"), columns[0]), (Not(Prim("b")), ~columns[1]), (Prim("c"), columns[2])]
    chain, truth = [Prim("a")], columns[0]
    for i in range(length):
        last, last_truth = (Not(chain[-1]), ~truth) if i % 2 else (chain[-1], truth)
        literal, literal_truth = literals[i % 3]
        chain.append(And(last, literal))
        truth = last_truth & literal_truth
    row = n // 8  # bytes of one row of words
    tracemalloc.start()
    try:
        words = evaluate_words(chain[-2:], d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(words[1], pack_columns(truth[:, None])[0])
    assert peak < words.nbytes + 6 * row, (peak, words.nbytes, row)


# -- literal counting --------------------------------------------------------


def test_literal_count_primitive():
    assert literal_count(Prim("a")) == 1


def test_literal_count_nested_negation_shape():
    # water & cascade & !(tree & forest) has four distinct positive leaves
    assert literal_count(parse("water & cascade & !(tree & forest)")) == 4


def test_literal_count_collapses_repeated_leaf():
    # leaves of !(a & b) & a are a, b, a: the two bare 'a' leaves collapse
    assert literal_count(parse("!(a & b) & a")) == 2


def test_literal_count_sign_matters_at_leaf():
    assert literal_count(parse("a & !a")) == 2


# -- feature file format -----------------------------------------------------


def test_feature_file_roundtrip():
    exprs = [parse("a & !b"), parse("!(a & c)")]
    buf = io.StringIO()
    dump_features(exprs, buf)
    lines = buf.getvalue().splitlines()
    assert FeatureFile(lines) == exprs


def test_feature_file_comments_and_blanks():
    text = "# header comment\n\na & b\n  \n!c\n"
    exprs = FeatureFile(text.splitlines())
    assert exprs == [parse("a & b"), parse("!c")]
    assert exprs.lines == [3, 5]


def test_feature_file_with_bom_loads_and_numbers_its_lines(tmp_path):
    text = "# features\r\na & b\r\n\r\n!c\r\n"
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for path in (plain, bom):
        exprs = load_feature_file(path)
        assert exprs == [parse("a & b"), parse("!c")]
        assert exprs.lines == [2, 4]
    bom.write_bytes(b"\xef\xbb\xbfa & b\n")
    assert load_feature_file(bom) == [parse("a & b")]


def test_evaluate_batch_unknown_name_carries_its_member_index():
    d = small_dataset([[1, 0, 1]])
    with pytest.raises(UnknownFeatureError) as err:
        evaluate_batch([parse("a"), parse("b & c"), parse("a & nope")], d)
    assert err.value.member == 2


def test_feature_file_error_names_its_line():
    lines = ["# comment", "a & b", "", "  !(a & @)", "c"]
    with pytest.raises(SyntaxError_) as err:
        FeatureFile(lines)
    assert str(err.value) == "line 4: unexpected character '@' (at offset 6)"
    assert err.value.offset == 6
    with pytest.raises(SyntaxError_, match=r"^line 2: expected '\)' \(at offset 6\)$"):
        FeatureFile(["a", "a & (b"])


# -- shared subexpressions ---------------------------------------------------


@st.composite
def embedding_lines(draw):
    """Feature-file lines in which later lines embed earlier ones as
    '(...)' and '!(...)', between comments and blank lines."""
    exprs, raw = ["a", "b", "!c", "a & b"], []
    for _ in range(draw(st.integers(1, 10))):
        parts = [
            draw(st.sampled_from(["{}", "({})", "!({})", "!!({})"])).format(
                draw(st.sampled_from(exprs)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        exprs.append(" & ".join(parts))
        raw += draw(st.sampled_from([[], [""], ["# note"]])) + [exprs[-1]]
    return raw


@given(embedding_lines())
@settings(max_examples=300, deadline=None)
def test_feature_file_matches_parse_line_by_line(raw):
    ff = FeatureFile(raw)
    want = [(n, parse(line)) for n, line in enumerate(raw, start=1)
            if line and not line.startswith("#")]
    assert ff.lines == [n for n, _ in want]
    assert [e.text for e in ff] == [e.text for _, e in want]
    assert [e.canonical.text for e in ff] == [e.canonical.text for _, e in want]


def distinct_nodes(exprs):
    """id -> node, over every node reachable from ``exprs``."""
    nodes, stack = {}, list(exprs)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            if isinstance(node, Not):
                stack.append(node.child)
            elif isinstance(node, And):
                stack += (node.left, node.right)
    return nodes


def test_feature_file_builds_each_subexpression_once(tmp_path):
    ff = FeatureFile(["a & b", "c & (a & b)", "!(a & b) & c"])
    assert ff[1].right is ff[0] and ff[2].left.child is ff[0]
    assert ff[1].left is ff[2].right
    # every member of a uFC run's file is built from two earlier ones
    rng = np.random.default_rng(0)
    latent = rng.random((2000, 5)) < 0.4
    d = Dataset([f"f{j}" for j in range(20)], np.column_stack(
        [latent[:, j % 5] ^ (rng.random(2000) < 0.1 + 0.02 * (j % 5)) for j in range(20)]))
    save_feature_file(ufc_run(d, UfcConfig(RiskMode(0.001))).features.members,
                      tmp_path / "run.features.txt")
    ff = load_feature_file(tmp_path / "run.features.txt")
    nodes = distinct_nodes(ff)
    assert len(nodes) == len({node.text for node in nodes.values()})
    assert len(nodes) < sum(len(list(subtrees(e))) for e in ff)
