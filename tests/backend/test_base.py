"""Slice building and evaluation: the backend side of the text protocol.

Every test checks the same invariant the frontier relies on: the union
of per-group slice evaluations equals single-process evaluation, for
any group count — including more groups than the corpus has top-level
trees (a group past them gets a zero-length piece, which owns nothing
and answers with empty sets).
"""

import hashlib
import json
import random

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.backend.base import SliceProvider, evaluate_slice, slice_checksum
from repro.engine.corpus import Corpus
from repro.errors import BackendUnsupportedError
from repro.shard.merge import merge_region_sets
from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.workloads.corpora import generate_play

ORDER_FREE_QUERIES = [
    'speech containing (speaker @ "ROMEO")',
    'scene containing (line @ "love")',
    'line @ "night" within act',
    "speech dwithin scene",
    "(act containing scene) + (speech within scene)",
]


@pytest.fixture(scope="module")
def instance():
    rng = random.Random(42)
    corpus = Corpus()
    for _ in range(4):
        corpus.add(
            generate_play(
                rng,
                acts=2,
                scenes_per_act=2,
                speeches_per_scene=3,
                lines_per_speech=2,
            )
        )
    return corpus.engine().instance


@pytest.fixture
def provider(instance):
    return SliceProvider(lambda name: (instance, 1))


def _union_of_slices(provider, query, groups):
    payloads = []
    for group in range(groups):
        slice_ = provider.slice_for("play", group, groups)
        payload, seconds = evaluate_slice(slice_, [query], "sets", {})
        assert seconds >= 0.0
        payloads.append(
            RegionSet(Region(int(l), int(r)) for l, r in payload[0])
        )
    return merge_region_sets(payloads)


class TestSliceEvaluation:
    @pytest.mark.parametrize("groups", [1, 2, 3])
    @pytest.mark.parametrize("query", ORDER_FREE_QUERIES)
    def test_union_of_slices_equals_single_process(
        self, provider, instance, query, groups
    ):
        expected = Evaluator("indexed").evaluate(parse(query), instance)
        assert list(_union_of_slices(provider, query, groups)) == list(expected)

    def test_surplus_groups_answer_empty(self, provider, instance):
        # 4 top-level trees, 8 groups: groups 4..7 get a zero-length piece.
        query = ORDER_FREE_QUERIES[0]
        for group in range(4, 8):
            slice_ = provider.slice_for("play", group, 8)
            assert slice_.segment.length == 0
            payload, _ = evaluate_slice(slice_, [query, '"love"'], "sets", {})
            assert len(payload) == 2 and list(payload[0]) == list(payload[1]) == []
            # The digest replicas compare: every name, no region.
            assert slice_checksum(slice_) == (
                "91b8d0adf143ed97a06ef2153304ffc6da20420d1c3b98ce3f89bf4762fcc041"
            )
        expected = Evaluator("indexed").evaluate(parse(query), instance)
        assert list(_union_of_slices(provider, query, 8)) == list(expected)

    def test_exchange_scalars_fold_to_global_summary(self, provider, instance):
        query = "speech dwithin scene"
        global_summary = (
            Evaluator("indexed").evaluate(parse(query), instance).extremes()
        )
        max_left = None
        min_right = None
        for group in range(3):
            slice_ = provider.slice_for("play", group, 3)
            payload, _ = evaluate_slice(slice_, [query], "exchange", {})
            ml, mr = payload[0]
            if ml is not None and (max_left is None or ml > max_left):
                max_left = ml
            if mr is not None and (min_right is None or mr < min_right):
                min_right = mr
        assert (max_left, min_right) == global_summary

    def test_multiple_queries_share_one_call(self, provider, instance):
        slice_ = provider.slice_for("play", 0, 2)
        payload, _ = evaluate_slice(slice_, ORDER_FREE_QUERIES[:3], "sets", {})
        assert len(payload) == 3

    def test_same_text_is_parsed_once(self, provider, monkeypatch):
        import repro.backend.base as base

        calls = []

        def counting_parse(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(base, "parse", counting_parse)
        text = 'speech containing "love"'
        slice_ = provider.slice_for("play", 0, 2)
        first, _ = evaluate_slice(slice_, [text], "sets", {})
        again, _ = evaluate_slice(provider.slice_for("play", 1, 2), [text], "sets", {})
        repeat, _ = evaluate_slice(slice_, [text], "sets", {})
        assert calls == [text]
        assert list(first[0]) == list(repeat[0])

    def test_unknown_want_rejected(self, provider):
        slice_ = provider.slice_for("play", 0, 2)
        with pytest.raises(BackendUnsupportedError):
            evaluate_slice(slice_, ["speech"], "everything", {})

    def test_bad_coordinates_rejected(self, provider):
        with pytest.raises(BackendUnsupportedError):
            provider.slice_for("play", 2, 2)
        with pytest.raises(BackendUnsupportedError):
            provider.slice_for("play", -1, 2)
        with pytest.raises(BackendUnsupportedError):
            provider.slice_for("play", 0, 0)


class TestSliceChecksum:
    """Replicas running older code compute the same digest; a change in
    its bytes would read as divergence in every anti-entropy sweep."""

    def test_digest_is_the_published_formula(self, provider):
        for groups in (1, 3):
            for group in range(groups):
                slice_ = provider.slice_for("play", group, groups)
                instance = slice_.segment.instance
                content = {
                    name: [[r.left, r.right] for r in instance.region_set(name)]
                    for name in sorted(instance.names)
                }
                canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
                expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
                assert slice_checksum(slice_) == expected

    def test_digest_is_pinned(self):
        instance = Instance(
            {
                "speech": RegionSet.of((0, 12), (16, 24)),
                "line": RegionSet.of((1, 4), (6, 10), (17, 22)),
                "act": RegionSet.of(),
            }
        )
        provider = SliceProvider(lambda name: (instance, 1))
        digests = [slice_checksum(provider.slice_for("play", g, 2)) for g in range(2)]
        assert digests == [
            "636a6e3cc30090f1e07ea62e8a62d7211b081d329f8930b2b722abb7321d68fb",
            "621839520ad546a87689957011f5fdd18c0497ef95b33038c41e3a70a1c4e7d3",
        ]
        assert slice_checksum(provider.slice_for("play", 0, 1)) == (
            "2dd73196e5e9175c7be1d8e2d20559ab16989b44f1fd8e7e2e87beeb7ce3fbd7"
        )


    def test_group_checksums_read_one_generation(self):
        # A lookup whose corpus commits between any two calls: every
        # checksum must still come from the generation reported.
        rng = random.Random(7)
        corpus, instances = Corpus(), []
        for _ in range(4):
            corpus.add(generate_play(rng, acts=1, scenes_per_act=2))
            instances.append(corpus.engine().instance)
        calls = iter(range(len(instances)))

        def lookup(name):
            n = next(calls)
            return instances[n], n + 1

        generation, checksums = SliceProvider(lookup).group_checksums("play", 2)
        still = SliceProvider(lambda name: (instances[0], 1))
        assert generation == 1
        assert checksums == {
            g: slice_checksum(still.slice_for("play", g, 2)) for g in range(2)
        }


class TestSliceProviderCache:
    def test_new_generation_invalidates(self, instance):
        generation = {"value": 1}
        provider = SliceProvider(lambda name: (instance, generation["value"]))
        first = provider.slice_for("play", 0, 2)
        again = provider.slice_for("play", 0, 2)
        assert again.segment is first.segment
        generation["value"] = 2
        rebuilt = provider.slice_for("play", 0, 2)
        assert rebuilt.generation == 2

    def test_reads_either_side_of_a_commit_keep_their_cuts(self, instance):
        # In-flight reads at G and new reads at G+1 interleave after a
        # commit; each generation keeps its own cut, and only the
        # oldest beyond KEPT_CUTS is dropped.
        generation = {"value": 1}
        provider = SliceProvider(lambda name: (instance, generation["value"]))
        old = provider.slice_for("play", 0, 2)
        generation["value"] = 2
        new = provider.slice_for("play", 0, 2)
        generation["value"] = 1
        assert provider.slice_for("play", 0, 2).segment is old.segment
        generation["value"] = 2
        assert provider.slice_for("play", 0, 2).segment is new.segment
        generation["value"] = 3
        provider.slice_for("play", 0, 2)
        generation["value"] = 1
        assert provider.slice_for("play", 0, 2).segment is not old.segment

    def test_a_reset_to_a_lower_generation_keeps_its_cut(self, instance):
        # A snapshot resets a replica below the generations it cached
        # (a restarted frontier's counter starts over): the new, lowest
        # cut must survive eviction, or every later read recuts.
        generation = {"value": 22}
        provider = SliceProvider(lambda name: (instance, generation["value"]))
        provider.slice_for("play", 0, 2)
        generation["value"] = 23
        provider.slice_for("play", 0, 2)
        generation["value"] = 5
        first = provider.slice_for("play", 0, 2)
        assert provider.slice_for("play", 0, 2) is first

    def test_a_straggler_does_not_evict_the_newest_cut(self, instance):
        # In-process reads carry their captured generation, so a read
        # still in flight two commits back arrives after the newer cuts.
        generation = {"value": 2}
        provider = SliceProvider(lambda name: (instance, generation["value"]))
        provider.slice_for("play", 0, 2)
        generation["value"] = 3
        newest = provider.slice_for("play", 0, 2)
        generation["value"] = 1
        provider.slice_for("play", 0, 2)
        generation["value"] = 3
        assert provider.slice_for("play", 0, 2) is newest

    def test_surplus_segment_is_cached(self, instance):
        provider = SliceProvider(lambda name: (instance, 1))
        a = provider.slice_for("play", 6, 8)
        b = provider.slice_for("play", 7, 8)
        assert a.segment is b.segment
        assert a.segment.length == 0 and len(a.segment.instance) == 0
        assert not any(a.segment.owns(p) for p in range(-1, a.segment.offset + 2))

    def test_same_generation_repair_serves_the_new_instance(self, instance):
        # A replication repair re-publishes the same generation with
        # corrected content: a new instance object behind the lookup.
        repaired = Instance(
            {
                "speech": RegionSet.of((0, 12), (16, 24)),
                "line": RegionSet.of((1, 4), (17, 22)),
            }
        )
        current = {"instance": instance}
        provider = SliceProvider(lambda name: (current["instance"], 5))
        stale = provider.slice_for("play", 0, 2)
        assert stale.segment.instance.names == instance.names
        current["instance"] = repaired
        slices = [provider.slice_for("play", group, 2) for group in range(2)]
        assert all(s.generation == 5 for s in slices)
        assert [s.segment.instance.region_set("line").pairs() for s in slices] == [
            [(1, 4)],
            [(17, 22)],
        ]
