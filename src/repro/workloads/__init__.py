"""Workload generation: synthetic instances, corpora, and query sets."""

from repro.workloads.corpora import (
    DICTIONARY_REGION_NAMES,
    PLAY_REGION_NAMES,
    generate_dictionary,
    generate_play,
    generate_report,
)
from repro.workloads.generators import (
    TreeNode,
    balanced_tree,
    figure_2_instance,
    figure_3_instance,
    flat_row,
    instance_from_trees,
    nested_tower,
    random_instance,
    random_text_instance,
    random_trees,
    rig_constrained_instance,
)
from repro.workloads.queries import (
    CHAIN_QUERIES,
    DICTIONARY_QUERIES,
    PLAY_QUERIES,
    QUERY_MIXES,
    REPORT_QUERIES,
    SOURCE_QUERIES,
)

__all__ = [
    "TreeNode",
    "instance_from_trees",
    "random_instance",
    "random_text_instance",
    "random_trees",
    "rig_constrained_instance",
    "figure_2_instance",
    "figure_3_instance",
    "nested_tower",
    "flat_row",
    "balanced_tree",
    "generate_play",
    "generate_report",
    "generate_dictionary",
    "DICTIONARY_REGION_NAMES",
    "PLAY_REGION_NAMES",
    "SOURCE_QUERIES",
    "PLAY_QUERIES",
    "DICTIONARY_QUERIES",
    "REPORT_QUERIES",
    "QUERY_MIXES",
    "CHAIN_QUERIES",
]
