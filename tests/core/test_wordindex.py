"""Word indexes: tokenization and the W(r, p) predicate."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import wordindex
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import LabelWordIndex, TextWordIndex, tokenize


class TestTokenize:
    def test_simple(self):
        assert tokenize("ab cd") == [("ab", 0, 1), ("cd", 3, 4)]

    def test_leading_trailing_whitespace(self):
        assert tokenize("  x  ") == [("x", 2, 2)]

    def test_empty_and_blank(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_final_token_at_end(self):
        assert tokenize("a bc") == [("a", 0, 0), ("bc", 2, 3)]

    @given(st.text(alphabet="ab \n", max_size=40))
    def test_tokens_cover_exact_spans(self, text):
        for token, left, right in tokenize(text):
            assert text[left : right + 1] == token
            assert not any(ch.isspace() for ch in token)


class TestTextWordIndex:
    @pytest.fixture
    def index(self):
        return TextWordIndex.from_text("the cat sat on the mat catalog")

    def test_vocabulary(self, index):
        assert index.vocabulary == ["cat", "catalog", "mat", "on", "sat", "the"]

    def test_literal_match(self, index):
        assert index.matches(Region(0, 30), "cat")
        assert index.matches(Region(4, 6), "cat")
        assert not index.matches(Region(0, 3), "cat")

    def test_match_requires_full_containment(self, index):
        # "cat" occupies [4,6]; a region covering only part of it fails.
        assert not index.matches(Region(4, 5), "cat")

    def test_prefix_pattern(self, index):
        points = index.match_points("cat*")
        assert len(points) == 2  # cat + catalog
        assert index.matches(Region(20, 30), "cat*")  # catalog only region

    def test_glob_pattern(self, index):
        assert index.matches(Region(0, 30), "?at")  # cat, sat, mat
        assert not index.matches(Region(0, 30), "z?t")

    def test_unknown_word(self, index):
        assert not index.matches(Region(0, 30), "dog")
        assert index.match_points("dog") == RegionSet.empty()

    def test_match_points_are_token_spans(self, index):
        points = index.match_points("the")
        assert points == RegionSet.of((0, 2), (15, 17))

    def test_occurrence_probe_is_positional(self):
        index = TextWordIndex.from_text("x y x")
        assert index.matches(Region(0, 0), "x")
        assert index.matches(Region(4, 4), "x")
        assert not index.matches(Region(1, 3), "x")


class TestMatchPointSets:
    """Match points are array-backed sets that share the postings."""

    @pytest.fixture
    def index(self):
        return TextWordIndex.from_text("the cat sat on the mat catalog")

    def test_one_token_is_served_by_its_posting(self, index):
        points = index.match_points("the")
        assert points is index._postings["the"]
        assert index.match_points("the") is points
        # A prefix that happens to match one token copies nothing either.
        assert index.match_points("catal*") is index._postings["catalog"]

    def test_several_tokens_merge_sorted_and_deduplicated(self):
        # Hand-built tokens may coincide; a set has each region once.
        index = TextWordIndex([("ab", 5, 6), ("ac", 0, 1), ("ad", 5, 6), ("ab", 9, 9)])
        points = index.match_points("a*")
        assert points.pairs() == [(0, 1), (5, 6), (9, 9)]
        assert index.match_points("a*") is points  # memoized

    def test_select_is_the_per_region_predicate_set_at_a_time(self, index):
        regions = RegionSet.of((0, 2), (0, 6), (4, 5), (4, 6), (8, 30), (19, 21))
        for pattern in ("cat", "cat*", "?at", "the", "dog"):
            assert index.select(regions, pattern) == RegionSet(
                r for r in regions if index.matches(r, pattern)
            ), pattern

    def test_extended_shares_untouched_postings_and_forgets_the_memo(self, index):
        before = index.match_points("c*").pairs()
        piece = TextWordIndex.from_text("cat dog")  # local: cat [0,2], dog [4,6]
        grown = index.extended([(piece, 40), (TextWordIndex.from_text("cat"), 50)])
        assert grown._postings["the"] is index._postings["the"]
        assert grown.match_points("cat").pairs() == [(4, 6), (40, 42), (50, 52)]
        assert grown.match_points("c*").pairs() == before + [(40, 42), (50, 52)]
        assert grown.match_points("dog").pairs() == [(44, 46)]
        assert grown.vocabulary == sorted(index.vocabulary + ["dog"])
        assert grown.matches(Region(39, 43), "cat")
        # The old generation is untouched (snapshot isolation).
        assert index.match_points("cat").pairs() == [(4, 6)]
        assert index.match_points("c*").pairs() == before
        assert index.match_points("dog") == RegionSet.empty()
        assert index.extended([]) is index
        with pytest.raises(ValueError, match="not after"):
            index.extended([(piece, 3)])
        with pytest.raises(ValueError, match="not after"):
            index.extended([(piece, 40), (piece, 40)])

    def test_tokens_round_trip(self, index):
        assert index.tokens() == tokenize("the cat sat on the mat catalog")
        shuffled = TextWordIndex([("b", 4, 5), ("a", 0, 1), ("a", 4, 5), ("a", 0, 1)])
        assert shuffled.tokens() == [("a", 0, 1), ("a", 4, 5), ("b", 4, 5)]

    def test_memo_is_bounded(self, index, monkeypatch):
        monkeypatch.setattr(wordindex, "_POINTS_MEMO_CAPACITY", 4)
        for i in range(20):
            index.match_points(f"c{'?' * i}*")
            assert len(index._points) <= 4

    def test_memo_under_racing_threads(self, monkeypatch):
        # More workers than cores, a tiny memo so it overflows and is
        # cleared mid-race, and a short switch interval: every answer
        # must still be the set a fresh index computes.
        monkeypatch.setattr(wordindex, "_POINTS_MEMO_CAPACITY", 3)
        text = " ".join(f"w{i % 7}x{i % 3}" for i in range(200))
        index = TextWordIndex.from_text(text)
        patterns = [f"w{i}*" for i in range(7)] + ["w?x0", "w?x1", "*x2"]
        expected = {
            p: TextWordIndex.from_text(text).match_points(p).pairs() for p in patterns
        }
        wrong: list[str] = []

        def worker(offset: int) -> None:
            for i in range(300):
                pattern = patterns[(i + offset) % len(patterns)]
                if index.match_points(pattern).pairs() != expected[pattern]:
                    wrong.append(pattern)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(index._points) <= 3 + len(threads)


class TestLabelWordIndex:
    def test_select_asks_the_predicate_per_region(self):
        index = LabelWordIndex({Region(0, 1): {"x"}, Region(2, 3): {"y"}})
        regions = RegionSet.of((0, 1), (2, 3), (4, 5))
        assert index.select(regions, "x") == RegionSet.of((0, 1))
        assert index.select(regions, "z") == RegionSet.empty()

    def test_basic_matching(self):
        idx = LabelWordIndex({Region(0, 3): {"p", "q"}})
        assert idx.matches(Region(0, 3), "p")
        assert not idx.matches(Region(0, 3), "r")
        assert not idx.matches(Region(1, 2), "p")

    def test_labels_of(self):
        idx = LabelWordIndex({Region(0, 3): {"p"}})
        assert idx.labels_of(Region(0, 3)) == frozenset({"p"})
        assert idx.labels_of(Region(9, 9)) == frozenset()

    def test_with_label_is_persistent(self):
        idx = LabelWordIndex()
        idx2 = idx.with_label(Region(0, 3), "p")
        assert not idx.matches(Region(0, 3), "p")
        assert idx2.matches(Region(0, 3), "p")

    def test_restricted_to(self):
        idx = LabelWordIndex({Region(0, 3): {"p"}, Region(5, 8): {"q"}})
        restricted = idx.restricted_to([Region(0, 3)])
        assert restricted.matches(Region(0, 3), "p")
        assert not restricted.matches(Region(5, 8), "q")

    def test_renamed(self):
        idx = LabelWordIndex({Region(0, 3): {"p"}})
        renamed = idx.renamed({Region(0, 3): Region(10, 13)})
        assert renamed.matches(Region(10, 13), "p")
        assert not renamed.matches(Region(0, 3), "p")

    def test_equality_ignores_empty_label_sets(self):
        a = LabelWordIndex({Region(0, 3): {"p"}, Region(5, 8): set()})
        b = LabelWordIndex({Region(0, 3): {"p"}})
        assert a == b
        assert hash(a) == hash(b)
