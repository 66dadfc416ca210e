"""Sharded parallel query execution (scatter-gather over forest cuts).

The hierarchy restriction (Definition 2.2: regions pairwise disjoint or
strictly nested) makes every instance an ordered forest, and the forest
can be cut between its top-level trees without separating any pair of
regions one of which includes the other.  That is exactly the
decomposition a sharded executor needs:

* the **partitioner** (:mod:`repro.shard.partition`) cuts an instance
  into K contiguous pieces (:class:`~repro.engine.pieces.Piece`, the
  run-of-trees type a live corpus answers from too) at top-level forest
  boundaries, balanced by region count (document-aligned for a
  multi-document corpus, whose ``document`` regions are the forest
  roots);
* the **planner** (:mod:`repro.shard.planner`) walks a query AST and
  classifies each operator as *shard-local* (``∪ ∩ −``, ``⊃ ⊂``,
  ``⊃_d ⊂_d``, ``σ_p``, ``bi``) or *boundary-crossing* (the ordering
  semi-joins ``<`` and ``>``, plus match-point leaves whose occurrences
  may span a cut);
* the **executor** (:mod:`repro.shard.executor`) puts one in-process
  backend per piece behind :class:`~repro.backend.FrontierExecutor`,
  the one scatter-gather body, which evaluates shard-local plan
  fragments per piece and resolves each boundary-crossing operator
  with an O(1)-per-cut exchange (a single endpoint scalar per shard);
* the **merge** (:mod:`repro.shard.merge`) reassembles per-shard
  results with an order-preserving k-way merge.

:class:`ShardExecutor` is the library front door (``repro query
--shards K`` uses it); a service scatters through its backend topology
(``ServerConfig.backend_groups``) instead.  ``docs/internals.md`` has
the operator classification table and the correctness argument.
"""

from repro.shard.executor import ShardExecutor
from repro.shard.merge import merge_region_sets
from repro.shard.partition import partition_instance
from repro.shard.planner import ShardPlan, classify

__all__ = [
    "partition_instance",
    "ShardPlan",
    "classify",
    "ShardExecutor",
    "merge_region_sets",
]
