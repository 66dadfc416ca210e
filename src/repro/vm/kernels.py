"""The VM's kernel table: the indexed operator bodies, by function name.

The bodies live on :class:`~repro.core.regionset.RegionSet` (``core``
cannot import ``vm``); each name here is bound to the *same function
object*, so ``kernels.including(a, b)`` and ``a.including(b)`` are one
implementation reached two ways, not two implementations.
"""

from __future__ import annotations

from repro.core.regionset import RegionSet

__all__ = [
    "union",
    "intersection",
    "difference",
    "including",
    "included_in",
    "preceding",
    "following",
    "both_included",
    "select",
    "order_bound_preceding",
    "order_bound_following",
]

union = RegionSet.union
intersection = RegionSet.intersection
difference = RegionSet.difference
including = RegionSet.including
included_in = RegionSet.included_in
preceding = RegionSet.preceding
following = RegionSet.following
both_included = RegionSet.both_included
select = RegionSet.select
#: The scalar exchange forms of ``<`` / ``>`` (shard-rewritten plans).
order_bound_preceding = RegionSet.ending_before
order_bound_following = RegionSet.starting_after
