"""Packed node frames: coherence, invalidation and bit-identical answers."""

import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import POI, TARTree, TimeInterval
from repro.core.collective import CollectiveProcessor
from repro.core.frames import DENSE_LIMIT, FrameStore, build_frame
from repro.core.knnta import knnta_browse, knnta_search
from repro.core.query import KNNTAQuery
from repro.spatial.geometry import Rect
from repro.temporal.epochs import EpochClock
from repro.temporal.tia import AggregateKind, IntervalSemantics


def build_tree(n=120, seed=0, node_size=None, aggregate_kind=AggregateKind.SUM):
    """A random tree over day epochs 2..11.

    Every 9th POI has an empty TIA, and epochs 0-1 stay empty, so a
    window over them lies wholly before every node's epoch span.
    """
    rng = random.Random(seed)
    kwargs = {} if node_size is None else {"node_size": node_size}
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=12.0,
        aggregate_kind=aggregate_kind,
        **kwargs,
    )
    for i in range(n):
        history = {
            e: rng.randrange(1, 9) for e in range(2, 12) if rng.random() < 0.4
        }
        tree.insert_poi(
            POI(i, rng.random() * 100, rng.random() * 100),
            {} if i % 9 == 0 else history,
        )
    return tree


def build_hourly_tree(seed=0, aggregate_kind=AggregateKind.SUM):
    """Hourly epochs over 12 days, 3 records per POI: most nodes' dense
    rows are nearly empty and break the memory guard."""
    rng = random.Random(seed)
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0 / 24),
        current_time=12.0,
        aggregate_kind=aggregate_kind,
    )
    for i in range(120):
        history = {rng.randrange(24 * 12): rng.randrange(1, 9) for _ in range(3)}
        tree.insert_poi(POI(i, rng.random() * 100, rng.random() * 100), history)
    return tree


def all_nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        for entry in node.entries:
            if entry.child is not None:
                stack.append(entry.child)


def warm_frames(tree):
    for node in all_nodes(tree):
        assert tree.frames.frame(node) is not None


def assert_frames_byte_equal(tree):
    """Every served frame matches a fresh object-layer build, byte for byte."""
    for node in all_nodes(tree):
        packed = tree.frames.frame(node)
        fresh = build_frame(node, tree.aggregate_kind)
        if fresh is None:
            assert packed is None
            continue
        assert packed.coords.tobytes() == fresh.coords.tobytes()
        assert packed.rows.tobytes() == fresh.rows.tobytes()
        assert (packed.first, packed.width, packed.stride) == (
            fresh.first,
            fresh.width,
            fresh.stride,
        )
        assert packed.count == len(node.entries)


def declined_nodes(tree):
    """Assert the memory guard on every node; return how many it declined.

    A node is declined exactly when its dense cells (8 bytes each) take
    more than ``DENSE_LIMIT`` times the bytes of its sparse records (16
    each: an epoch and a value).
    """
    declined = 0
    for node in all_nodes(tree):
        epochs = [e for entry in node.entries for e, _ in entry.tia.items()]
        width = max(epochs) - min(epochs) + 1 if epochs else 0
        dense = 8 * len(node.entries) * width
        if dense > DENSE_LIMIT * 16 * len(epochs):
            assert tree.frames.frame(node) is None
            assert tree.frames.frame(node) is None  # served from the refusal
            declined += 1
        else:
            assert tree.frames.frame(node) is not None
    return declined


#: Query windows beside the random ones inside the data: wholly before
#: every node's epoch span, wholly after it, and a CONTAINED window
#: shorter than one epoch (no epoch at all).
EDGE_WINDOWS = [
    (TimeInterval(0, 1), IntervalSemantics.INTERSECTS),
    (TimeInterval(13, 20), IntervalSemantics.CONTAINED),
    (TimeInterval(5.2, 5.7), IntervalSemantics.CONTAINED),
]


def leaf_tree(width):
    """A one-leaf tree of 2 entries and 3 records over ``width`` epochs:
    its 2 * width dense cells break the memory guard iff width > 24."""
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=40.0,
    )
    tree.insert_poi(POI(0, 10.0, 10.0), {0: 1, width - 1: 1})
    tree.insert_poi(POI(1, 20.0, 20.0), {5: 1})
    return tree


def make_query(rng, tree, k=10, window=None):
    if window is None:
        window = (
            TimeInterval(rng.randrange(0, 6), rng.randrange(6, 13)),
            rng.choice([IntervalSemantics.INTERSECTS, IntervalSemantics.CONTAINED]),
        )
    return KNNTAQuery(
        (rng.random() * 100, rng.random() * 100),
        window[0],
        k=k,
        alpha0=rng.choice([0.1, 0.3, 0.5, 0.9]),
        semantics=window[1],
    )


def cold_tia_buffers(tree):
    for node in all_nodes(tree):
        for entry in node.entries:
            entry.tia.buffer.clear()


def cold_search(tree, query, threshold=math.inf):
    """``knnta_search`` rows and their ``AccessStats`` snapshot, from
    cold TIA buffers (so buffer hits compare too)."""
    cold_tia_buffers(tree)
    before = tree.stats.snapshot()
    rows = list(knnta_search(tree, query, threshold=threshold))
    return rows, tree.stats.diff(before).snapshot()


def thresholds(rows):
    """Seeded bounds to try against an answer: unbounded, its k-th
    score, a middle score (both inclusive ties), and just below every
    score (an empty answer)."""
    if not rows:
        return [math.inf]
    return [
        math.inf,
        rows[-1].score,
        rows[len(rows) // 2].score,
        math.nextafter(rows[0].score, -math.inf),
    ]


def search_with_cost(tree, query):
    """``knnta_search`` rows and their ``AccessStats`` snapshot, checked
    against the first ``k`` rows of ``knnta_browse``: the bounded search
    must make exactly the unbounded loop's accesses.  A search seeded
    with a threshold must return exactly the ``score <= threshold``
    prefix of the rows, with no more node accesses (the same accesses
    at ``inf``)."""
    rows, cost = cold_search(tree, query)
    cold_tia_buffers(tree)
    before = tree.stats.snapshot()
    browsed = list(islice(knnta_browse(tree, query), query.k))
    assert browsed == rows
    assert tree.stats.diff(before).snapshot() == cost
    for threshold in thresholds(rows):
        cut, cut_cost = cold_search(tree, query, threshold)
        assert cut == [row for row in rows if row.score <= threshold]
        if threshold == math.inf:
            assert cut_cost == cost
        else:
            assert cut_cost[0] <= cost[0] and cut_cost[1] <= cost[1]
    return rows, cost


def answers_both_paths(tree, query):
    packed, packed_cost = search_with_cost(tree, query)
    tree.frames.enabled = False
    try:
        plain, plain_cost = search_with_cost(tree, query)
    finally:
        tree.frames.enabled = True
    # Same node accesses; only the object path reads TIA pages.
    assert packed_cost[:2] == plain_cost[:2]
    return packed, plain


class TestInvalidationPerMutationKind:
    """Satellite: every mutation kind leaves served frames byte-equal
    to a freshly computed object-path build."""

    def test_insert(self):
        tree = build_tree(seed=1)
        warm_frames(tree)
        rng = random.Random(2)
        for i in range(200, 215):
            tree.insert_poi(
                POI(i, rng.random() * 100, rng.random() * 100), {3: 4}
            )
            assert_frames_byte_equal(tree)

    def test_delete(self):
        tree = build_tree(seed=3)
        warm_frames(tree)
        rng = random.Random(4)
        for poi_id in rng.sample(range(120), 30):
            assert tree.delete_poi(poi_id)
            assert_frames_byte_equal(tree)

    def test_digest(self):
        tree = build_tree(seed=5)
        warm_frames(tree)
        rng = random.Random(6)
        for epoch in range(12, 18):
            counts = {
                poi_id: rng.randrange(1, 7)
                for poi_id in rng.sample(range(120), 25)
            }
            tree.digest_epoch(epoch, counts)
            assert_frames_byte_equal(tree)

    def test_split_and_forced_reinsert(self):
        # A small node size forces overflow handling — both the R*
        # forced-reinsertion pass and genuine splits — while frames for
        # the pre-overflow shape are warm.
        tree = build_tree(n=8, seed=7, node_size=256)
        rng = random.Random(8)
        for i in range(100, 160):
            warm_frames(tree)
            tree.insert_poi(
                POI(i, rng.random() * 100, rng.random() * 100),
                {e: rng.randrange(1, 5) for e in range(0, 12, 3)},
            )
            assert_frames_byte_equal(tree)
        assert sum(1 for _ in all_nodes(tree)) > 3  # splits really happened

    def test_scrubber_style_inplace_repair(self):
        # replace_all on an internal TIA (the scrubber's repair) must
        # invalidate the owning node's frame via its stamp.
        tree = build_tree(seed=9)
        warm_frames(tree)
        node = tree.root
        entry = node.entries[0]
        if entry.child is None:
            pytest.skip("tree too small to have an internal entry")
        entry.tia.replace_all({0: 999})
        node.stamp += 1
        frame = tree.frames.frame(node)
        fresh = build_frame(node, tree.aggregate_kind)
        assert frame.rows.tobytes() == fresh.rows.tobytes()
        assert 999 in list(frame.rows)


class TestStampsAndObservers:
    def test_observer_clears_cache_on_insert(self):
        tree = build_tree(seed=10)
        warm_frames(tree)
        assert len(tree.frames) > 0
        tree.insert_poi(POI(999, 1.0, 1.0), {0: 1})
        assert len(tree.frames) == 0

    def test_observer_pops_digest_path_only(self):
        tree = build_tree(seed=11)
        warm_frames(tree)
        before = len(tree.frames)
        tree.digest_epoch(12, {0: 3})
        leaf = tree._leaf_of[0]
        assert tree.frames.cached(leaf) is None
        # digestion never restructures: untouched siblings stay cached
        assert len(tree.frames) >= before - (tree.root.level + 1)

    def test_stamp_catches_missed_invalidation(self):
        # Correctness must not depend on the observer: with the
        # observer detached, the per-node stamp alone must force a
        # rebuild instead of serving the stale frame.
        tree = build_tree(seed=12)
        warm_frames(tree)
        tree._mutation_observers.remove(tree.frames.note_mutation)
        tree.digest_epoch(12, {0: 5})
        leaf = tree._leaf_of[0]
        assert tree.frames.cached(leaf) is not None  # stale entry survived
        assert_frames_byte_equal(tree)  # ...but is never served

    def test_stamp_catches_stale_memory_guard_refusal(self):
        # A refusal is cached per stamp like a frame: once a mutation
        # makes the rows fit, the node is packed again, observer or not.
        tree = leaf_tree(25)
        assert tree.frames.frame(tree.root) is None
        tree._mutation_observers.remove(tree.frames.note_mutation)
        tree.digest_epoch(10, {1: 2})  # 4 records: 50 cells now fit
        assert tree.frames.frame(tree.root) is not None
        assert_frames_byte_equal(tree)

    def test_wrap_tias_disables_permanently(self):
        tree = build_tree(seed=13)
        warm_frames(tree)
        tree.wrap_tias(lambda tia: tia)
        assert not tree.frames.enabled
        assert len(tree.frames) == 0
        assert tree.frames.frame(tree.root) is None
        rng = random.Random(14)
        query = make_query(rng, tree)
        assert list(knnta_search(tree, query))  # object path still answers

    def test_disabled_store_reprs(self):
        tree = build_tree(n=5, seed=15)
        assert "enabled=True" in repr(tree.frames)
        frame = tree.frames.frame(tree.root)
        assert "entries=" in repr(frame)


class TestBitIdenticalAnswers:
    @pytest.mark.parametrize(
        "aggregate_kind", [AggregateKind.SUM, AggregateKind.MAX]
    )
    def test_search_matches_object_path(self, aggregate_kind):
        # Hourly epochs break the memory guard: those nodes score on
        # the object path inside an otherwise packed search.
        for build in (build_tree, build_hourly_tree):
            tree = build(seed=16, aggregate_kind=aggregate_kind)
            assert (declined_nodes(tree) > 0) == (build is build_hourly_tree)
            rng = random.Random(17)
            for window in [None] + EDGE_WINDOWS:
                for _ in range(25):
                    query = make_query(rng, tree, window=window)
                    packed, plain = answers_both_paths(tree, query)
                    assert packed == plain  # ids, scores, order

    def test_browse_matches_object_path(self):
        tree = build_tree(seed=18)
        rng = random.Random(19)
        query = make_query(rng, tree, k=1)
        browse = knnta_browse(tree, query)
        got = [next(browse) for _ in range(40)]
        tree.frames.enabled = False
        try:
            plain_browse = knnta_browse(tree, query)
            expected = [next(plain_browse) for _ in range(40)]
        finally:
            tree.frames.enabled = True
        assert got == expected

    def test_collective_matches_object_path(self):
        for aggregate_kind in (AggregateKind.SUM, AggregateKind.MAX):
            tree = build_tree(seed=20, aggregate_kind=aggregate_kind)
            rng = random.Random(21)
            queries = [make_query(rng, tree) for _ in range(12)] + [
                make_query(rng, tree, window=window) for window in EDGE_WINDOWS
            ]
            packed = CollectiveProcessor(tree).run(queries)
            tree.frames.enabled = False
            try:
                plain = CollectiveProcessor(tree).run(queries)
            finally:
                tree.frames.enabled = True
            for got, expected in zip(packed, plain):
                assert list(got) == list(expected)

    def test_mutation_stream_stays_bit_identical(self):
        """40 mixed mutations, packed vs object answers after each."""
        tree = build_tree(seed=22)
        rng = random.Random(23)
        next_id = 1000
        next_epoch = 12
        for step in range(40):
            op = rng.choice(["insert", "delete", "digest", "digest"])
            if op == "insert":
                tree.insert_poi(
                    POI(next_id, rng.random() * 100, rng.random() * 100),
                    {e: rng.randrange(1, 6) for e in range(0, 12, 2)},
                )
                next_id += 1
            elif op == "delete":
                candidates = [p for p in tree.poi_ids()]
                tree.delete_poi(rng.choice(candidates))
            else:
                counts = {
                    poi_id: rng.randrange(1, 6)
                    for poi_id in rng.sample(list(tree.poi_ids()), 10)
                }
                tree.digest_epoch(next_epoch, counts)
                next_epoch += 1
            packed, plain = answers_both_paths(tree, make_query(rng, tree))
            assert packed == plain, "diverged at mutation step %d" % step

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        mutations=st.lists(
            st.sampled_from(["insert", "delete", "digest"]), max_size=6
        ),
    )
    def test_property_random_streams(self, seed, mutations):
        rng = random.Random(seed)
        tree = build_tree(n=60, seed=seed)
        next_id, next_epoch = 500, 12
        for op in mutations:
            if op == "insert":
                tree.insert_poi(
                    POI(next_id, rng.random() * 100, rng.random() * 100),
                    {rng.randrange(12): rng.randrange(1, 9)},
                )
                next_id += 1
            elif op == "delete":
                tree.delete_poi(rng.choice(list(tree.poi_ids())))
            else:
                tree.digest_epoch(
                    next_epoch, {rng.choice(list(tree.poi_ids())): 2}
                )
                next_epoch += 1
        assert_frames_byte_equal(tree)
        packed, plain = answers_both_paths(tree, make_query(rng, tree))
        assert packed == plain


class TestFrameStoreBasics:
    def test_frames_rebuild_lazily_after_clear(self):
        tree = build_tree(n=30, seed=24)
        warm_frames(tree)
        tree.frames.clear()
        assert len(tree.frames) == 0
        assert tree.frames.frame(tree.root) is not None
        assert len(tree.frames) == 1

    def test_bulk_load_resets_the_store(self):
        from repro import datasets

        data = datasets.make("NYC", scale=0.02, seed=7)
        tree = TARTree.build(data, bulk=True)
        # build() ends in a consistent state: serving works immediately
        end = tree.current_time
        query = KNNTAQuery((0.4, 0.6), TimeInterval(end - 28, end), k=5)
        packed, plain = answers_both_paths(tree, query)
        assert packed == plain

    def test_memory_guard_boundary(self):
        for width, declined in ((24, 0), (25, 1)):
            tree = leaf_tree(width)
            assert declined_nodes(tree) == declined
            rng = random.Random(width)
            for _ in range(5):
                packed, plain = answers_both_paths(tree, make_query(rng, tree))
                assert packed == plain

    def test_store_is_per_tree(self):
        a = build_tree(n=10, seed=25)
        b = build_tree(n=10, seed=26)
        assert isinstance(a.frames, FrameStore)
        assert a.frames is not b.frames
        a.frames.frame(a.root)
        assert len(b.frames) == 0
