"""The forest partitioner: cuts, balance, ownership, restriction."""

import random

import pytest

from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.core.wordindex import LabelWordIndex
from repro.errors import ReproError
from repro.shard.partition import partition_instance
from repro.workloads.generators import random_instance


def forest_instance(root_sizes):
    """An instance whose i-th root tree has ``root_sizes[i]`` regions
    (one root plus children laid out flat inside it)."""
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
    return Instance(
        {name: RegionSet.of(*spans) for name, spans in regions.items()},
        LabelWordIndex({}),
    )


class TestPartition:
    def test_round_trip_regions(self):
        instance = forest_instance([4, 3, 5, 2])
        partition = partition_instance(instance, 3)
        total = sum(len(s.instance) for s in partition.segments)
        assert total == len(instance)
        # Every region of every segment is a region of the original.
        original = set(instance.all_regions())
        for segment in partition.segments:
            assert set(segment.instance.all_regions()) <= original

    def test_cuts_at_root_boundaries_only(self):
        instance = forest_instance([4, 3, 5, 2])
        partition = partition_instance(instance, 4)
        for segment in partition.segments:
            for region in segment.instance.all_regions():
                assert any(
                    root.left <= region.left and region.right <= root.right
                    for root in segment.roots
                )

    def test_requested_more_than_roots(self):
        instance = forest_instance([3, 3])
        partition = partition_instance(instance, 7)
        assert len(partition) == 2
        assert partition.requested == 7

    def test_single_root_single_segment(self):
        instance = forest_instance([6])
        partition = partition_instance(instance, 4)
        assert len(partition) == 1
        only = partition.segments[0]
        assert only.own_left is None and only.own_right is None

    def test_ownership_tiles_the_axis(self):
        instance = forest_instance([4, 3, 5, 2])
        partition = partition_instance(instance, 3)
        assert partition.segments[0].own_left is None
        assert partition.segments[-1].own_right is None
        for prev, cur in zip(partition.segments, partition.segments[1:]):
            assert prev.own_right is not None
            assert cur.own_left == prev.own_right + 1
        # owner_of agrees with Segment.owns for every position in range.
        last = instance.all_regions().regions[-1].right
        for position in range(0, last + 3):
            owner = partition.owner_of(position)
            assert owner.owns(position)
            assert sum(s.owns(position) for s in partition.segments) == 1

    def test_route_slices_match_points_by_left_endpoint(self):
        # Roots [0,7] [9,14] [16,25] [27,30]; three segments.
        partition = partition_instance(forest_instance([4, 3, 5, 2]), 3)
        points = RegionSet.of((1, 1), (8, 8), (9, 10), (15, 15), (20, 22), (40, 41))
        shares = [segment.route(points) for segment in partition.segments]
        # Every point lands in exactly the segment that owns its left
        # endpoint — gaps go left, the open ends take what lies beyond.
        for segment, share in zip(partition.segments, shares):
            assert list(share) == [r for r in points if segment.owns(r.left)]
        assert sum(len(share) for share in shares) == len(points)
        assert partition.segments[0].route(RegionSet.empty()) == RegionSet.empty()

    def test_route_refuses_a_point_spanning_a_cut(self):
        partition = partition_instance(forest_instance([4, 3, 5, 2]), 3)
        first, second = partition.segments[0], partition.segments[1]
        spanning = RegionSet.of((1, 1), (first.own_right, first.own_right + 1))
        assert first.route(spanning) is None
        assert second.route(spanning) == RegionSet.empty()  # not its left endpoint
        # Ending exactly on the last owned position is not spanning.
        assert first.route(RegionSet.of((first.own_right - 1, first.own_right)))

    def test_boundary_regions_one_pair_per_cut(self):
        instance = forest_instance([4, 3, 5, 2])
        partition = partition_instance(instance, 3)
        pairs = partition.boundary_regions()
        assert len(pairs) == len(partition) - 1
        for left, right in pairs:
            assert left.right < right.left

    def test_balance_on_uniform_roots(self):
        instance = forest_instance([5] * 8)
        partition = partition_instance(instance, 4)
        counts = [s.region_count for s in partition.segments]
        assert counts == [10, 10, 10, 10]

    def test_invalid_shard_count(self):
        instance = forest_instance([3])
        with pytest.raises(ReproError):
            partition_instance(instance, 0)

    def test_word_index_is_shared_not_copied(self):
        instance = forest_instance([3, 3])
        partition = partition_instance(instance, 2)
        for segment in partition.segments:
            assert segment.instance.word_index is instance.word_index

    def test_summary_is_json_ready(self):
        import json

        instance = forest_instance([4, 3, 5])
        summary = partition_instance(instance, 2).summary()
        json.dumps(summary)
        assert summary["requested"] == 2
        assert summary["cuts"] == len(summary["segments"]) - 1

    def test_random_instances_partition_losslessly(self):
        rng = random.Random(2718)
        for _ in range(25):
            instance = random_instance(rng, max_nodes=40)
            for shards in (1, 2, 4, 7):
                partition = partition_instance(instance, shards)
                got = sorted(
                    region
                    for segment in partition.segments
                    for region in segment.instance.all_regions()
                )
                assert got == sorted(instance.all_regions())
