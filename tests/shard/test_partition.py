"""The forest partitioner: cuts, balance, piece spans, routing, sharing."""

import random

import pytest

from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.core.wordindex import LabelWordIndex, TextWordIndex
from repro.engine.corpus import Corpus
from repro.errors import BackendUnsupportedError, ReproError
from repro.ingest.live import LiveCorpus
from repro.shard.executor import ShardExecutor
from repro.shard.partition import partition_instance
from repro.workloads.corpora import generate_play
from repro.workloads.generators import random_instance


def forest_instance(root_sizes, words=()):
    """An instance whose i-th root tree has ``root_sizes[i]`` regions
    (one root plus children laid out flat inside it); ``words`` are
    ``(left, right)`` occurrences of the token ``w``, which makes the
    word index text-backed."""
    regions: dict[str, list] = {"R": [], "C": []}
    position = 0
    for size in root_sizes:
        inner = size - 1
        left = position
        right = left + 2 * inner + 1
        regions["R"].append((left, right))
        for j in range(inner):
            regions["C"].append((left + 1 + 2 * j, left + 2 + 2 * j))
        position = right + 2
    word_index = (
        TextWordIndex([("w", left, right) for left, right in words])
        if words
        else LabelWordIndex({})
    )
    return Instance(
        {name: RegionSet.of(*spans) for name, spans in regions.items()},
        word_index,
    )


def roots_of(piece):
    return piece.instance.forest().roots()


class TestPartition:
    def test_round_trip_regions(self):
        instance = forest_instance([4, 3, 5, 2])
        pieces = partition_instance(instance, 3)
        total = sum(len(piece.instance) for piece in pieces)
        assert total == len(instance)
        # Every region of every piece is a region of the original.
        original = set(instance.all_regions())
        for piece in pieces:
            assert set(piece.instance.all_regions()) <= original

    def test_cuts_at_root_boundaries_only(self):
        instance = forest_instance([4, 3, 5, 2])
        top = instance.forest().roots()
        for piece in partition_instance(instance, 4):
            for region in piece.instance.all_regions():
                assert any(
                    root.left <= region.left and region.right <= root.right
                    for root in roots_of(piece)
                )
            # A piece's trees are whole trees of the instance.
            assert set(roots_of(piece)) <= set(top)

    def test_requested_more_than_roots(self):
        instance = forest_instance([3, 3])
        pieces = partition_instance(instance, 7)
        assert len(pieces) == 7
        assert [len(roots_of(piece)) for piece in pieces] == [1, 1, 0, 0, 0, 0, 0]
        # The groups past the trees share one zero-length piece.
        surplus = pieces[2:]
        assert all(piece is surplus[0] for piece in surplus)
        assert surplus[0].length == 0 and len(surplus[0].instance) == 0

    def test_single_root_single_segment(self):
        instance = forest_instance([6])
        only, *rest = partition_instance(instance, 4)
        assert len(only.instance) == len(instance)
        assert (only.offset, only.length, only.origin) == (0, 12, 0)
        assert all(piece.length == 0 for piece in rest)

    def test_ownership_tiles_the_axis(self):
        instance = forest_instance([4, 3, 5, 2], words=[(40, 41)])
        for shards in (1, 2, 3, 4, 6):
            pieces = partition_instance(instance, shards)
            extent = pieces[-1].offset + pieces[-1].length
            assert extent == 42  # past the last word, beyond the last root
            # Consecutive spans: no gap, no overlap, from 0 to the extent.
            assert pieces[0].offset == 0
            for prev, cur in zip(pieces, pieces[1:]):
                assert cur.offset == prev.offset + prev.length
            # A non-empty piece starts at its first root (the first at 0),
            # so the gap after a tree belongs to the piece on its left.
            for piece in pieces[1:]:
                if piece.length:
                    assert piece.offset == roots_of(piece)[0].left
            for position in range(-2, extent + 3):
                owners = sum(piece.owns(position) for piece in pieces)
                assert owners == (1 if 0 <= position < extent else 0)
            assert all(piece.origin == 0 for piece in pieces)

    def test_route_slices_match_points_by_left_endpoint(self):
        # Roots [0,7] [9,14] [16,25] [27,30]; three pieces.
        words = [(1, 1), (8, 8), (9, 10), (15, 15), (20, 22), (40, 41)]
        pieces = partition_instance(forest_instance([4, 3, 5, 2], words), 3)
        assert [(p.offset, p.length) for p in pieces] == [(0, 16), (16, 11), (27, 15)]
        shares = [piece.route(["w"])["w"] for piece in pieces]
        # Every point lands in exactly the piece that owns its left
        # endpoint — gaps go left, the last piece takes what lies beyond.
        for piece, share in zip(pieces, shares):
            assert share.pairs() == [
                (left, right) for left, right in words if piece.owns(left)
            ]
        assert [len(share) for share in shares] == [4, 1, 1]
        assert pieces[0].route([]) == {}
        assert pieces[0].route(["absent"]) == {"absent": RegionSet.empty()}

    def test_route_refuses_a_point_spanning_a_cut(self):
        roots = [4, 3, 5, 2]  # cuts at 16 and 27 for three pieces
        spanning = forest_instance(roots, [(1, 1), (15, 16)])
        first, second, _ = partition_instance(spanning, 3)
        with pytest.raises(BackendUnsupportedError, match="spans a partition cut"):
            first.route(["w"])
        assert second.route(["w"]) == {"w": RegionSet.empty()}  # not its left endpoint
        # Ending exactly on the last owned position is not spanning.
        inside = forest_instance(roots, [(14, 15)])
        first = partition_instance(inside, 3)[0]
        assert first.route(["w"])["w"].pairs() == [(14, 15)]
        # A word index without text routes nothing.
        with pytest.raises(BackendUnsupportedError, match="text-backed"):
            partition_instance(forest_instance(roots), 3)[0].route(["w"])

    def test_route_reads_a_document_piece_in_its_own_coordinates(self):
        live = LiveCorpus()
        live.apply([{"op": "append", "id": "a", "text": "<x>w y</x>"}])
        live.apply([{"op": "append", "id": "b", "text": "<x>y w w</x>"}])
        _, second = live.pieces
        assert second.origin == second.offset > 0
        # Its instance is in its own coordinates, "<document>\n<x>y w w…":
        # the assembled index holds the same occurrences shifted by origin.
        local = second.route(["w"])["w"].pairs()
        assert local == [(16, 16), (18, 18)]
        assembled = live.instance.word_index.match_points("w").pairs()
        origin = second.origin
        assert [(l + origin, r + origin) for l, r in local] == assembled[1:]
        assert second.owns(second.offset) and not second.owns(second.offset - 1)

    def test_boundary_regions_one_pair_per_cut(self):
        instance = forest_instance([4, 3, 5, 2])
        with ShardExecutor(instance, 3) as executor:
            summary = executor.summary()
        pairs = summary["boundary_regions"]
        assert len(pairs) == summary["cuts"] == len(executor.pieces) - 1
        for (_, left_right), (right_left, _) in pairs:
            assert left_right < right_left

    def test_balance_on_uniform_roots(self):
        instance = forest_instance([5] * 8)
        pieces = partition_instance(instance, 4)
        counts = [len(piece.instance) for piece in pieces]
        assert counts == [10, 10, 10, 10]

    def test_invalid_shard_count(self):
        instance = forest_instance([3])
        with pytest.raises(ReproError):
            partition_instance(instance, 0)

    def test_word_index_is_shared_not_copied(self):
        # A piece cut from an instance keeps the instance's coordinates:
        # its columns hold the instance's own int objects and its word
        # index is the instance's (every posting shared).  Copying into
        # local coordinates would cost serve_sharded ~7.5% of its RSS.
        rng = random.Random(7)
        corpus = Corpus()
        for _ in range(3):
            corpus.add(generate_play(rng, 1, 2, 2, 2))
        instance = corpus.engine().instance
        lefts = instance.all_regions()._lefts
        rights = instance.all_regions()._rights
        for shards in (2, 3, 5):
            at = 0
            for piece in partition_instance(instance, shards):
                assert piece.origin == 0
                assert piece.instance.word_index is instance.word_index
                universe = piece.instance.all_regions()
                for k, (left, right) in enumerate(
                    zip(universe._lefts, universe._rights), at
                ):
                    assert left is lefts[k] and right is rights[k]
                at += len(universe)
            assert at == len(instance)

    def test_summary_is_json_ready(self):
        import json

        instance = forest_instance([4, 3, 5])
        with ShardExecutor(instance, 2) as executor:
            summary = executor.summary()
        json.dumps(summary)
        assert summary["requested"] == 2
        assert summary["cuts"] == len(summary["segments"]) - 1
        assert [s["span"] for s in summary["segments"]] == [[0, 14], [16, 25]]

    def test_random_instances_partition_losslessly(self):
        rng = random.Random(2718)
        for _ in range(25):
            instance = random_instance(rng, max_nodes=40)
            for shards in (1, 2, 4, 7):
                pieces = partition_instance(instance, shards)
                assert len(pieces) == shards
                got = sorted(
                    region
                    for piece in pieces
                    for region in piece.instance.all_regions()
                )
                assert got == sorted(instance.all_regions())
