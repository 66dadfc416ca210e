"""Column-first instances: the universe and name-id columns, the one
nesting sweep, and the object view nobody builds until navigation
asks for it."""

import random

import pytest
from hypothesis import given

from repro import Engine
from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.engine.storage import decode_instance, encode_instance
from repro.errors import HierarchyError
from repro.shard.partition import partition_instance
from repro.workloads.corpora import generate_play
from repro.workloads.generators import random_instance
from tests.conftest import hierarchical_instances

#: The seven templates of the benchmark's request mix.
MIX = (
    "speech containing (speaker before line)",
    "(speech containing line) isect (speech after scene)",
    "line within (speech within (scene within act))",
    "(speech dwithin scene) union (line within speech)",
    'scene containing ("love" within line)',
    '(speech containing line) except (speech containing (line @ "love"))',
    "bi(scene, speaker, line)",
)


def object_views(instance):
    """Every Region object view an instance can hold (``None``: unbuilt)."""
    yield instance.all_regions()._regions
    for name in instance.names:
        yield instance.region_set(name)._regions
    for _, posting in instance.word_index.postings():
        yield posting._regions
    yield instance.forest()._view


def fresh(instance):
    """The instance as a loader hands it over: columns, no view."""
    return decode_instance(encode_instance(instance))


def innermost_container(universe, region):
    """Def. 5.1 read naively: the strictly-including region that
    strictly includes no other region including ``region``."""
    containers = [s for s in universe if s.includes(region)]
    inner = [c for c in containers if not any(c.includes(d) for d in containers)]
    assert len(inner) <= 1
    return inner[0] if inner else None


class TestLaziness:
    def test_load_the_mix_and_a_partition_build_no_region(self, tmp_path):
        rng = random.Random(12)
        text = "\n".join(generate_play(rng, 2, 2, 3, 2) for _ in range(4))
        path = tmp_path / "corpus.index.json"
        Engine.from_tagged_text(text).save(path)
        engine = Engine.load(path)
        for query in MIX:
            assert engine.query(query)
        pieces = partition_instance(engine.instance, 2)
        assert len(pieces) == 2
        for instance in [engine.instance] + [piece.instance for piece in pieces]:
            assert all(view is None for view in object_views(instance))

    @given(hierarchical_instances())
    def test_first_navigation_call_agrees_with_def_5_1(self, instance):
        universe = list(instance.all_regions())
        parent = {r: innermost_container(universe, r) for r in universe}
        preorder = sorted(universe, key=lambda r: (r.left, -r.right))
        calls = {
            "parent_of": lambda f, i: [f.parent_of(r) for r in universe]
            == [parent[r] for r in universe],
            "children_of": lambda f, i: all(
                f.children_of(r) == [s for s in universe if parent[s] == r]
                for r in universe
            ),
            "subtree_of": lambda f, i: all(
                f.subtree_of(r) == [s for s in preorder if s == r or r.includes(s)]
                for r in universe
            ),
            "preorder": lambda f, i: list(f.preorder) == preorder,
            "name_of": lambda f, i: all(
                r in instance.region_set(i.name_of(r)) for r in universe
            ),
        }
        for name, first_call in calls.items():
            loaded = fresh(instance)
            assert loaded.forest()._view is None
            assert first_call(loaded.forest(), loaded), name

    def test_overlap_and_cross_name_duplicate_keep_their_messages(self):
        with pytest.raises(
            HierarchyError, match=r"regions \[0,6\] and \[4,9\] overlap without nesting"
        ):
            Instance({"A": RegionSet.of((0, 6)), "B": RegionSet.of((4, 9))})
        for validate in (True, False):
            with pytest.raises(
                HierarchyError, match=r"region \[0,6\] appears in both 'A' and 'B'"
            ):
                Instance(
                    {"A": RegionSet.of((0, 6)), "B": RegionSet.of((0, 6))},
                    validate=validate,
                )

    def test_segments_equal_a_per_region_restriction(self):
        rng = random.Random(26)
        for _ in range(25):
            instance = random_instance(rng, max_nodes=40)
            forest = instance.forest()
            for shards in (1, 2, 3, 5):
                for piece in partition_instance(instance, shards):
                    sub = piece.instance
                    roots = [r for r in forest.roots() if piece.owns(r.left)]
                    for name in instance.names:
                        expected = {
                            r
                            for r in instance.region_set(name)
                            if any(
                                root.left <= r.left and r.right <= root.right
                                for root in roots
                            )
                        }
                        assert set(sub.region_set(name)) == expected
                        assert all(sub.name_of(r) == name for r in expected)
                    sub.validate_hierarchy()
                    for region in sub.all_regions():
                        assert sub.forest().parent_of(region) == forest.parent_of(region)
