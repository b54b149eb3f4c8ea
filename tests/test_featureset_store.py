"""FeatureSet as an append/select store: ``extend`` and ``select`` equal a
fresh set of the same members and derive only what they add; the words
equal a recursive evaluation over bool columns, with every bit past row n
zero; the carried co-occurrence matrix G equals a fresh count of the
words, and each uFC step grows or counts G as the rule says; and the
uFRINGE loop built on the store reproduces the rebuild-every-iteration
loop.  The whole uFC loop is checked against ``oracles.oracle_run_json``
in ``test_ufc.py``."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import DATASETS, RULES, brute_oi, ref_evaluate

from boolfc import expr as ex
from boolfc import metrics
from boolfc.dataset import Dataset
from boolfc.metrics import (
    FeatureSet,
    MetricsError,
    growing_gram_pays,
    overlapping_index_detail,
    report,
)
from boolfc.stats import cooccurrence
from boolfc.ufc import RiskMode, UfcConfig, construct_new_features, ufc_run
from boolfc.ufringe import (
    UfringeConfig,
    build_clustering_tree,
    extract_fringe_features,
    ufringe_run,
)

NAMES = ["a", "b", "c", "d"]
D = Dataset(NAMES, np.random.default_rng(7).random((24, len(NAMES))) < 0.5)

exprs = st.recursive(
    st.sampled_from(NAMES).map(ex.Prim),
    lambda inner: st.one_of(
        inner.map(ex.Not),
        st.tuples(inner, inner).map(lambda lr: ex.And(*lr)),
    ),
    max_leaves=4,
)


def first_occurrences(members, seen=()):
    """Members whose canonical text is not in ``seen`` nor earlier in the list."""
    seen = set(seen)
    out = []
    for e in members:
        key = ex.canonical_text(e)
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def assert_same_set(got: FeatureSet, want: FeatureSet):
    assert got.dataset is want.dataset
    assert got.members == want.members
    assert got.keys == want.keys
    assert got.literal_counts == want.literal_counts
    assert np.array_equal(got.words, want.words)
    assert got.extensions.dtype == want.extensions.dtype
    assert np.array_equal(got.extensions, want.extensions)
    assert not got.extensions.flags.writeable


class BatchCalls:
    """Records the members of each batch given to ``expr.evaluate_words``."""

    def __init__(self, fn):
        self.fn, self.batches = fn, []

    def __call__(self, exprs, dataset):
        self.batches.append(list(exprs))
        return self.fn(exprs, dataset)


class TopLevelCalls:
    """Records the top-level calls of a recursive ``expr`` function."""

    def __init__(self, fn):
        self.fn, self.depth, self.args = fn, 0, []

    def __call__(self, e, *rest):
        if self.depth == 0:
            self.args.append(e)
        self.depth += 1
        try:
            return self.fn(e, *rest)
        finally:
            self.depth -= 1


def negated(e, times):
    for _ in range(times):
        e = ex.Not(e)
    return e


@given(st.lists(exprs, min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_extend_equals_fresh_set_and_derives_only_new_members(a, data):
    a = first_occurrences(a)
    # an operand is a member under 0 to 3 negations: 2 cancel, 3 negate
    operand = st.tuples(st.integers(0, len(a) - 1), st.integers(0, 3))
    pairs = data.draw(st.lists(st.tuples(operand, operand), max_size=10))
    children = [ex.And(negated(a[i], s), negated(a[j], t)) for (i, s), (j, t) in pairs]
    if children:  # some drawn children again, so that keys repeat
        children += data.draw(st.lists(st.sampled_from(children), max_size=4))
    # a prefix of the children joins the set first, so their later
    # repeats find the key present already
    joined = data.draw(st.integers(0, len(children)))
    members = first_occurrences(a + children[:joined])
    fs = FeatureSet(members, D)
    before = (fs.members, fs.keys, fs.literal_counts, fs.words.copy())
    fresh = first_occurrences(children, fs.keys)

    evaluate = BatchCalls(ex.evaluate_words)
    literal_count = TopLevelCalls(ex.literal_count)
    with mock.patch.object(ex, "evaluate_words", evaluate), \
            mock.patch.object(ex, "literal_count", literal_count), \
            mock.patch.object(Dataset, "words", new_callable=mock.PropertyMock) as words:
        grown = fs.extend(children)
    assert evaluate.batches == []
    assert words.call_count == 0
    assert literal_count.args == fresh

    assert_same_set(grown, FeatureSet(members + fresh, D))
    # the source set is left as it was
    assert (fs.members, fs.keys, fs.literal_counts) == before[:3]
    assert np.array_equal(fs.words, before[3])


@pytest.mark.parametrize(
    "text",
    ["d", "c", "!c", "!(a & b)", "a & c", "a & b & (c & d)", "!(a & b & c)"],
)
def test_extend_rejects_what_is_not_a_conjunction_of_signed_members(text):
    # members are 'a & b', 'c' and '!d': 'd' is a negated member but no
    # conjunction, and 'a' is neither a member nor a negated one
    fs = FeatureSet([ex.parse(t) for t in ("a & b", "c", "!d")], D)
    good = [ex.parse("!(a & b) & c"), ex.parse("c & d")]
    with pytest.raises(MetricsError, match=re.escape(repr(text))):
        fs.extend(good + [ex.parse(text)])
    grown = fs.extend(good)
    assert grown.keys == fs.keys + ("!(a & b) & c", "c & d")


@given(st.lists(exprs, min_size=1, max_size=8), st.data())
@settings(max_examples=200, deadline=None)
def test_select_equals_fresh_set_of_masked_members(members, data):
    fs = FeatureSet(first_occurrences(members), D)
    mask = data.draw(st.lists(st.booleans(), min_size=fs.m, max_size=fs.m))
    kept = [e for e, keep in zip(fs.members, mask) if keep]
    if not kept:
        with pytest.raises(MetricsError):
            fs.select(np.array(mask))
        return
    evaluate = BatchCalls(ex.evaluate_words)
    with mock.patch.object(ex, "evaluate_words", evaluate):
        got = fs.select(np.array(mask))
    assert evaluate.batches == []
    assert_same_set(got, FeatureSet(kept, D))


def test_children_of_members_read_no_primitive_column():
    # no member is a primitive, so a child that recursed down to its
    # primitives would have to read the dataset's words
    texts = ("a & b", "!a & c", "b & !d", "!(a & c) & d")
    fs = FeatureSet([ex.parse(t) for t in texts], D)
    children = []
    for i in range(fs.m):
        for j in range(i + 1, fs.m):
            children += construct_new_features(fs.members[i], fs.members[j])
    with mock.patch.object(Dataset, "words", new_callable=mock.PropertyMock) as words:
        grown = fs.extend(children)
    assert words.call_count == 0
    assert grown.m > fs.m
    want = FeatureSet(list(fs.members) + first_occurrences(children, fs.keys), D)
    assert_same_set(grown, want)


def test_sets_keep_only_their_read_only_words():
    fs = FeatureSet.from_primitives(D)
    for got in (fs, fs.extend([ex.parse("a & !b")]), fs.select([1, 0, 1, 1])):
        got.extensions  # unpacked on each read, never kept
        arrays = [v for v in vars(got).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is got.words
        assert not got.words.flags.writeable
        assert got.words.shape == (got.m, D.words.shape[1])


def test_constructor_still_rejects_what_extend_skips():
    twins = [ex.parse("a & b"), ex.parse("b & a")]
    with pytest.raises(MetricsError, match="duplicate"):
        FeatureSet(twins, D)
    with pytest.raises(MetricsError):
        FeatureSet([], D)
    grown = FeatureSet.from_primitives(D).extend(twins)
    assert grown.keys == ("a", "b", "c", "d", "a & b")


# -- the uFRINGE loop, against the rebuild-every-iteration loop it replaced ---


def rebuild_ufringe_run(d, cfg):
    fs = FeatureSet.from_primitives(d)
    while fs.m < cfg.max_features:
        tree = build_clustering_tree(d, fs, cfg)
        fringe = extract_fringe_features(tree, fs)
        # the fringe keeps repeats; keep the first occurrence of each key
        seen = set(fs.key_set())
        new = []
        for f in fringe:
            if ex.to_text(f) not in seen:
                seen.add(ex.to_text(f))
                new.append(f)
        if not new:
            break
        fs = FeatureSet(list(fs.members) + new, d)
    return fs


@pytest.mark.parametrize("max_features", [12, 40, 300])
@pytest.mark.parametrize("name", ["gen-250x8-s2", "odd-300x11"])
def test_ufringe_run_matches_rebuild_loop(name, max_features):
    d = DATASETS[name]()
    cfg = UfringeConfig(max_features=max_features, min_leaf=5, max_depth=5)
    want = rebuild_ufringe_run(d, cfg)
    got = ufringe_run(d, cfg)
    assert got.keys == want.keys
    assert got.members == want.members
    assert np.array_equal(got.extensions, want.extensions)
    assert report(got) == report(want)


# -- padding bits: n around byte and word boundaries ---------------------------


def padding_bits(fs):
    """The bits of ``fs.words`` past row n, one row per member."""
    return np.unpackbits(fs.words.view(np.uint8), axis=1)[:, fs.dataset.n:]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
def test_store_matches_bool_oracle_and_keeps_padding_zero(n):
    d = Dataset(NAMES, np.random.default_rng(n).random((n, len(NAMES))) < 0.5)
    fs = FeatureSet([ex.parse(t) for t in ("a & b", "!c", "!(a & d)")], d)
    # every conjunction of two members or their negations: a negated
    # member's negation, a member with its own negation (no support), and
    # two negated operands, each a row XORed with the all-true row
    signed = [e for member in fs.members for e in (member, ex.Not(member))]
    grown = fs.extend([ex.And(x, y) for x in signed for y in signed])
    kept = grown.select(np.arange(grown.m) % 2 == 0)
    for got in (fs, grown, kept):
        want = np.column_stack([ref_evaluate(e, d) for e in got.members])
        assert not padding_bits(got).any()
        assert np.array_equal(got.extensions, want)
        assert np.array_equal(got.supports(), np.count_nonzero(want, axis=0))
        assert np.array_equal(np.diagonal(cooccurrence(got.words)), got.supports())
        assert overlapping_index_detail(got) == brute_oi(want)


# -- the carried co-occurrence matrix ------------------------------------------


@given(st.integers(1, 130), st.integers(2, 5), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_carried_gram_equals_a_count_of_the_words(n, k, seed, data):
    rng = np.random.default_rng(seed)
    # densities 0 and 1 give constant columns, and so children of no support
    x = rng.random((n, k)) < rng.choice([0.0, 0.3, 0.5, 1.0], k)
    fs = FeatureSet.from_primitives(Dataset([f"f{j}" for j in range(k)], x))
    fs.gram  # counted once, then carried by every step below
    for _ in range(data.draw(st.integers(1, 5))):
        both_negated = False
        if data.draw(st.booleans()):
            # an operand is a member under 0 to 3 negations, so every sign
            # pattern comes up, and so do repeated pairs and a member
            # against itself; no member is a negation, so an odd count
            # negates it
            operand = st.tuples(st.integers(0, fs.m - 1), st.integers(0, 3))
            pairs = data.draw(st.lists(st.tuples(operand, operand), max_size=10))
            children = [ex.And(negated(fs.members[i], s), negated(fs.members[j], t))
                        for (i, s), (j, t) in pairs]
            both_negated = any(s % 2 and t % 2 and ex.canonical_text(child) not in fs.keys
                               for ((_, s), (_, t)), child in zip(pairs, children))
            with mock.patch.object(metrics, "growing_gram_pays", RULES["grow"]):
                fs = fs.extend(children)
                if data.draw(st.booleans()):  # again: every key is present
                    fs = fs.extend(children)
        else:
            mask = data.draw(st.lists(st.booleans(), min_size=fs.m, max_size=fs.m))
            mask[data.draw(st.integers(0, fs.m - 1))] = True
            fs = fs.select(mask)
        # carried, so the read below counts nothing, unless a new member
        # is a !a & !b, which leaves G to be counted
        assert (fs._gram is None) == both_negated
        assert not fs.gram.flags.writeable
        assert np.array_equal(fs.gram, cooccurrence(fs.words))


def test_sets_count_no_gram_unless_asked():
    # uFRINGE builds and extends sets, transform builds one: neither reads G
    fs = FeatureSet.from_primitives(D)
    with mock.patch.object(metrics, "cooccurrence", side_effect=AssertionError), \
            mock.patch.object(metrics, "_grown_gram", side_effect=AssertionError):
        grown = fs.extend([ex.parse("a & !b"), ex.parse("!c & !d")]).select([1, 1, 0, 1, 1, 1])
        fringe = ufringe_run(DATASETS["gen-250x8-s2"](),
                             UfringeConfig(max_features=40, min_leaf=5, max_depth=5))
    assert grown.m == 5 and fringe.m > 8
    # asked once, counted once, then kept until select or extend hands it
    # to the set it returns; the source set counts it again when read
    with mock.patch.object(metrics, "cooccurrence", wraps=cooccurrence) as count, \
            mock.patch.object(metrics, "growing_gram_pays", RULES["grow"]):
        assert grown.gram is grown.gram
        kept = grown.select([1, 1, 1, 1, 0])
        assert count.call_count == 1
        assert grown._gram is None and kept._gram is not None
        assert np.array_equal(grown.gram, cooccurrence(grown.words))
        assert count.call_count == 2
        child = kept.extend([ex.parse("a & !d")])
        assert kept._gram is None and child._gram is not None
        assert np.array_equal(kept.gram, cooccurrence(kept.words))
    assert count.call_count == 4  # and the one base of the grown set
    assert np.array_equal(child.gram, cooccurrence(child.words))


@pytest.mark.parametrize("rule", ["grow", "count"])
def test_each_step_grows_or_counts_as_the_rule_says(rule):
    d = DATASETS["gen-600x16-s1"]()
    grown = []  # the G that each step's extend gave the new set
    real = metrics._grown_gram

    def grow(*args):
        grown.append(real(*args))
        return grown[-1]

    count = mock.Mock(wraps=metrics.cooccurrence)
    with mock.patch.object(metrics, "growing_gram_pays", RULES[rule]), \
            mock.patch.object(metrics, "_grown_gram", grow), \
            mock.patch.object(metrics, "cooccurrence", count):
        result = ufc_run(d, UfcConfig(RiskMode(0.001)))
    steps = len(result.logs) + (result.stop_reason == "fixpoint")
    assert steps >= 3
    assert len(grown) == steps  # each step's set hands G to extend
    if rule == "grow":  # the primitives are counted; each step grows
        assert all(g is not None for g in grown)
        assert count.call_count == 1 + steps  # and counts its bases
    else:  # each search counts its set
        assert grown == [None] * steps
        assert count.call_count == len(result.trajectory) - (result.stop_reason != "fixpoint")


def test_growing_pays_on_wide_sets_and_not_on_small_ones():
    # (m, q, p, kept, W) of steps of seed-0 runs of the benchmark's inputs
    assert growing_gram_pays(242, 54, 18, 260, 79)  # M, the last step
    assert growing_gram_pays(409, 258, 86, 495, 313)  # L, a middle step
    assert not growing_gram_pays(20, 30, 10, 30, 32)  # S, the first step
    assert not growing_gram_pays(12, 18, 6, 18, 5)  # 300 rows
    # the words counted decide between the two at equal set sizes
    assert not growing_gram_pays(100, 90, 30, 130, 32)
    assert growing_gram_pays(100, 90, 30, 130, 313)
