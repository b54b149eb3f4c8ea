"""FeatureSet as an append/select store: ``extend`` and ``select`` equal a
fresh set of the same members and derive only what they add; the words
equal a recursive evaluation over bool columns, with every bit past row n
zero; the carried co-occurrence matrix G equals a fresh count of the
words after any chain of steps, and a uFC run grows it on each read
after the first and never after its last search; and the uFRINGE loop
built on the store reproduces the rebuild-every-iteration loop.  The whole uFC loop is checked against ``oracles.oracle_run_json``
in ``test_ufc.py``."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import DATASETS, brute_oi, generated_dataset, ref_evaluate

from boolfc import expr as ex
from boolfc import metrics, stats, ufc
from boolfc.dataset import Dataset
from boolfc.metrics import (
    FeatureSet,
    MetricsError,
    overlapping_index_detail,
    report,
)
from boolfc.stats import cooccurrence, cross_counts
from boolfc.ufc import FixedMode, RiskMode, UfcConfig, construct_new_features, ufc_run
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


@pytest.mark.parametrize("budget", [0, 100, 1000, stats.BLOCK_BYTES],
                         ids=["one-child", "two-children", "20-children", "default"])
def test_extend_words_equal_a_concatenation_across_child_blocks(budget):
    # 130 rows take 3 words a member, so a block of children takes 48
    # bytes a child; negated operands, repeated and present keys included
    d = Dataset(list("abcde"), np.random.default_rng(3).random((130, 5)) < 0.5)
    fs = FeatureSet.from_primitives(d).extend([ex.parse("a & !b")])
    children = []
    for i in range(fs.m):
        for j in range(i + 1, fs.m):
            children += construct_new_features(fs.members[i], fs.members[j])
    children += children[:7]
    fresh = first_occurrences(children, fs.keys)
    with mock.patch.object(metrics, "BLOCK_BYTES", budget):
        grown = fs.extend(children)
    want = np.concatenate([fs.words, FeatureSet(fresh, d).words])
    assert grown.words.dtype == np.uint64 and not grown.words.flags.writeable
    assert np.array_equal(grown.words, want)
    assert_same_set(grown, FeatureSet(list(fs.members) + fresh, d))


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


class Kernel:
    """Counts the calls of ``metrics.cooccurrence`` and ``cross_counts``."""

    def __enter__(self):
        self.patches = [mock.patch.object(metrics, fn.__name__, wraps=fn)
                        for fn in (cooccurrence, cross_counts)]
        self.count, self.cross = (patch.start() for patch in self.patches)
        return self

    def __exit__(self, *exc):
        for patch in self.patches:
            patch.stop()

    def calls(self):
        return self.count.call_count, self.cross.call_count


@given(st.integers(1, 130), st.integers(2, 5), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_carried_gram_equals_a_count_of_the_words(n, k, seed, data):
    rng = np.random.default_rng(seed)
    # densities 0 and 1 give constant columns, and so children of no support
    x = rng.random((n, k)) < rng.choice([0.0, 0.3, 0.5, 1.0], k)
    sets = [FeatureSet.from_primitives(Dataset([f"f{j}" for j in range(k)], x))]
    # what the next read of each set counts: its words, the bases of a
    # pending grow, or nothing, for G it carries
    reads = ["words"]
    kernel_calls = {"words": (1, 0), "grow": (1, 1), "carried": (0, 0)}

    def read(i):
        fs, before = sets[i], kernel.calls()
        assert np.array_equal(fs.gram, cooccurrence(fs.words))
        assert not fs.gram.flags.writeable
        calls = tuple(b - a for a, b in zip(before, kernel.calls()))
        assert calls == kernel_calls[reads[i]]
        if reads[i] == "words":
            assert kernel.count.call_args.args[0] is fs.words
        reads[i] = "carried"

    with Kernel() as kernel:
        if data.draw(st.booleans()):
            read(0)
        for _ in range(data.draw(st.integers(1, 6))):
            # any set so far, so that chains, a parent extended twice and a
            # set selected twice all come up, each read or not in between
            i = data.draw(st.integers(0, len(sets) - 1))
            fs = sets[i]
            if data.draw(st.booleans()):
                # an operand is a member under 0 to 3 negations, so every
                # sign pattern comes up, and so do repeated pairs and a
                # member against itself; no member is a negation, so an
                # odd count negates it
                operand = st.tuples(st.integers(0, fs.m - 1), st.integers(0, 3))
                pairs = data.draw(st.lists(st.tuples(operand, operand), max_size=10))
                children = [ex.And(negated(fs.members[i], s), negated(fs.members[j], t))
                            for (i, s), (j, t) in pairs]
                both_negated = any(
                    s % 2 and t % 2 and ex.canonical_text(child) not in fs.keys
                    for ((_, s), (_, t)), child in zip(pairs, children))
                before = kernel.calls()
                sets.append(fs.extend(children))
                assert kernel.calls() == before
                # G carried is grown on read, unless a new member is a
                # !a & !b; a pending grow not yet read is dropped
                grows = reads[i] == "carried" and not both_negated
                reads.append("grow" if grows else "words")
            else:
                mask = data.draw(st.lists(st.booleans(), min_size=fs.m, max_size=fs.m))
                mask[data.draw(st.integers(0, fs.m - 1))] = True
                sets.append(fs.select(mask))
                reads.append(reads[i])
            reads[i] = "words"
            if data.draw(st.booleans()):
                read(len(sets) - 1)
        for i in data.draw(st.permutations(range(len(sets)))):
            read(i)


def test_sets_count_no_gram_unless_asked():
    # uFRINGE builds and extends sets, transform builds one: neither reads G
    fs = FeatureSet.from_primitives(D)
    with mock.patch.object(metrics, "cooccurrence", side_effect=AssertionError), \
            mock.patch.object(metrics, "cross_counts", side_effect=AssertionError):
        grown = fs.extend([ex.parse("a & !b"), ex.parse("!c & !d")]).select([1, 1, 0, 1, 1, 1])
        fringe = ufringe_run(DATASETS["gen-250x8-s2"](),
                             UfringeConfig(max_features=40, min_leaf=5, max_depth=5))
    assert grown.m == 5 and fringe.m > 8
    # asked once, counted once, then kept until select or extend hands it
    # to the set it returns; the source set counts it again when read
    with Kernel() as kernel:
        assert grown.gram is grown.gram
        kept = grown.select([1, 1, 1, 1, 0])
        assert np.array_equal(kept.gram, cooccurrence(kept.words))
        assert kernel.calls() == (1, 0)
        assert np.array_equal(grown.gram, cooccurrence(grown.words))
        assert kernel.calls() == (2, 0)
        child = kept.extend([ex.parse("a & !d")])
        assert kernel.calls() == (2, 0)  # extend counts nothing
        assert np.array_equal(kept.gram, cooccurrence(kept.words))
        assert kernel.calls() == (3, 0)
        # read, the one base is counted against the members and itself
        assert np.array_equal(child.gram, cooccurrence(child.words))
        assert kernel.calls() == (4, 1)


def test_the_primitives_are_counted_once_and_every_later_read_grows():
    d = DATASETS["gen-600x16-s1"]()
    with Kernel() as kernel:
        result = ufc_run(d, UfcConfig(RiskMode(0.001)))
    searches = len(result.logs) + (result.stop_reason == "fixpoint")
    assert searches >= 3
    assert kernel.calls() == (searches, searches - 1)
    # after the primitives, each count is of bases, fewer than the members
    sizes = [len(call.args[0]) for call in kernel.count.call_args_list]
    assert sizes[0] == d.k
    assert all(p < r.m for p, r in zip(sizes[1:], result.trajectory[1:]))
    # and against the members of the set that each grew from
    cross = [tuple(map(len, call.args)) for call in kernel.cross.call_args_list]
    assert cross == [(p, r.m) for p, r in zip(sizes[1:], result.trajectory)]


@pytest.mark.parametrize("mode, stop", [(RiskMode(0.001), "rms_minimum"),
                                        (FixedMode(0.2, 3), "iter_limit")])
def test_a_run_counts_nothing_after_its_last_search(mode, stop):
    # the step that rms_minimum rejects, or the last that iter_limit
    # allows, is pruned and reported, and nothing reads its G
    events = []

    def log(name, fn):  # on return, so a search follows the counts it read
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            events.append(name)
            return out
        return call

    d = generated_dataset(5000, 60, 0)
    with mock.patch.object(stats, "_popcount_blocks",
                           log("kernel", stats._popcount_blocks)), \
            mock.patch.object(ufc, "search_correlated_pairs",
                              log("search", ufc.search_correlated_pairs)):
        result = ufc_run(d, UfcConfig(mode))
    assert result.stop_reason == stop
    assert events.count("search") == len(result.logs) >= 2
    assert "kernel" in events
    assert events[-1] == "search"
