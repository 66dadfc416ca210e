"""Sparse-table range-minimum queries.

Built in ``O(n log n)``, answers ``min(values[i:j])`` in ``O(1)``.
:meth:`RegionSet.both_included` uses this: its containment windows are
two-sided and therefore not answerable with the prefix/suffix extreme
tables that suffice for ``⊃``/``⊂``.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["RangeMin"]


class RangeMin:
    """Immutable range-minimum structure over a sequence of integers."""

    __slots__ = ("_table", "_length")

    def __init__(self, values: Sequence[int]):
        self._length = len(values)
        table: list[list[int]] = [list(values)]
        width = 1
        while 2 * width <= self._length:
            previous = table[-1]
            row = [
                min(previous[i], previous[i + width])
                for i in range(self._length - 2 * width + 1)
            ]
            table.append(row)
            width *= 2
        self._table = table

    def query(self, lo: int, hi: int) -> int | None:
        """``min(values[lo:hi])`` or ``None`` when the range is empty."""
        lo = max(lo, 0)
        hi = min(hi, self._length)
        if lo >= hi:
            return None
        span = hi - lo
        level = span.bit_length() - 1
        width = 1 << level
        row = self._table[level]
        return min(row[lo], row[hi - width])
