"""Pieces — runs of whole top-level trees — and per-piece answers for
live corpora.

A :class:`Piece` is the one type for a contiguous run of whole
top-level trees: a read-only instance cut K ways for the shard backends
(:func:`~repro.shard.partition.partition_instance`) is K pieces, and a
live corpus (:class:`~repro.ingest.live.LiveCorpus`) is its base
followed by ingested ``<document>`` trees, each a piece placed at an
offset past the text before it.  Every operator of Def. 2.3 except
``<``/``>`` relates regions of one top-level tree, and ``σ_p`` and match
points read a word index that is the shifted concatenation of the
pieces' own postings (no word crosses the newline between two pieces).
So an answer is the concatenation of per-piece answers, each shifted by
its piece's offset: the piece invariance of Bojańczyk et al. and the
S-deletion argument of Thm 4.1.

``<``/``>`` need one scalar from their global right operand, exactly as
in :mod:`repro.shard.planner`, and are resolved by the same
:func:`~repro.shard.planner.resolve_bounds` loop the backend frontier
runs: here the right operand's extremes come from its per-piece answers
(the max left of ``<`` from the last non-empty piece, the min right of
``>`` from the first).  Each piece then evaluates the plan as
:func:`~repro.shard.rewrite.rewrite` leaves it, with the bound
translated into the piece's coordinates and clamped to its extent —
``[0, len+1]`` for ``<``, ``[-1, len]`` for ``>``.  After clamping only
the piece that holds the bound sees a value that moves when other
pieces change.  A name absent from a piece is the empty set there.

Each piece keeps its answers in an :class:`AnswerMemo`, keyed by plan
text plus the piece's clamped bounds.  The memo belongs to the
document (or, for the base, to the corpus), so it outlives a commit and
dies with the document: after a commit a read computes answers only for
the pieces that miss — the new and changed documents and the piece that
holds an order bound.

Misses are computed in whichever of two ways costs less by
:attr:`PieceReader.RUN_OVERHEAD`: a program run per missing piece, or —
when many pieces miss, as for a plan seen for the first time — one run
over the assembled instance, whose answer is cut at the piece offsets
into the missing pieces' memos.  The scan for an order bound gives up
for one whole run the same way.  So however many pieces miss, a read
runs programs worth about one run over the whole corpus per part; only
its bookkeeping (keys, lookups, cuts) grows with the number of pieces.

A generation's pieces and its assembled instance are one
:class:`Assembly`.  The instance is built on first demand — by such a
whole-corpus run, or by whoever asks for it — so a commit assembles
nothing, and a generation that only ever reads from its memos never
assembles at all.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator, limits_for
from repro.algebra.printer import to_text
from repro.core.instance import appended_names
from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex
from repro.errors import BackendUnsupportedError
from repro.obs.trace import maybe_span
from repro.shard.planner import ShardPlan, classify, resolve_bounds
from repro.shard.rewrite import OrderBound, rewrite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable, Sequence

    from repro.algebra.evaluator import CancelToken
    from repro.core.instance import Instance
    from repro.obs.trace import Tracer
    from repro.vm.program import Program

__all__ = ["AnswerMemo", "Assembly", "Piece", "PieceReader"]


#: A memo entry (see :class:`AnswerMemo`): endpoint arrays, the run
#: ``[lo, hi)`` of them that is the piece's answer, and its origin.
_Entry = tuple[list[int], list[int], int, int, int]


class AnswerMemo(dict):
    """One piece's answers, keyed by plan text; the oldest entry leaves
    first once :attr:`CAPACITY` are held.

    An answer is kept as a run ``[lo, hi)`` of endpoint arrays with an
    **origin**: its coordinates are the piece's own plus the origin.  A
    program run on the piece alone gives the whole of its arrays and
    origin 0.  A run over the whole corpus gives every missing piece the
    part of its arrays inside that piece, with the piece's offset then
    as origin, so nothing is copied: those arrays live while any piece
    keeps such an entry.  Reads are plain ``dict`` lookups; writers take
    the lock.
    """

    CAPACITY = 32

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def put(self, key: Any, entry: "_Entry") -> None:
        with self._lock:
            if key not in self and len(self) >= self.CAPACITY:
                del self[next(iter(self))]
            self[key] = entry


class Piece:
    """A run of whole top-level trees: its instance, the span
    ``[offset, offset + length)`` of the text axis it covers, the point
    of that axis where its instance's coordinate 0 lies (``origin``),
    and its answers.

    A live corpus's piece holds an instance in its own coordinates, so
    its origin is its offset, and an answer memo; :class:`PieceReader`
    reads only such pieces.  A piece cut from a read-only instance
    (:func:`~repro.shard.partition.partition_instance`) slices that
    instance's columns and shares its word index, so its origin is 0,
    and it keeps no answers.
    """

    __slots__ = ("instance", "offset", "length", "origin", "memo")

    def __init__(
        self,
        instance: "Instance",
        offset: int,
        length: int,
        origin: int,
        memo: AnswerMemo | None = None,
    ):
        self.instance = instance
        self.offset = offset
        self.length = length
        self.origin = origin
        self.memo = memo

    def owns(self, position: int) -> bool:
        """Whether ``position`` of the text axis lies in this piece's span."""
        return self.offset <= position < self.offset + self.length

    def route(self, patterns: "Iterable[str]") -> dict[str, RegionSet]:
        """This piece's share of each pattern's match points, in its
        instance's coordinates: the occurrences whose left endpoint lies
        in its span, one slice of the sorted arrays.

        Raises :class:`~repro.errors.BackendUnsupportedError` when one of
        them ends past the span: an occurrence spanning a cut can be
        hosted soundly by no piece (replicating it would break operators
        that relate it to regions on both sides), so the query must not
        be answered piecewise.  So does a word index with no text."""
        word_index = self.instance.word_index
        if not isinstance(word_index, TextWordIndex):
            raise BackendUnsupportedError(
                "match points need a text-backed word index"
            )
        lo = self.offset - self.origin
        hi = lo + self.length
        routed: dict[str, RegionSet] = {}
        for pattern in patterns:
            points = word_index.match_points(pattern)
            lefts = points._lefts
            a = bisect_left(lefts, lo)
            b = bisect_left(lefts, hi, a)
            if a == b:
                routed[pattern] = RegionSet.empty()
                continue
            rights = points._rights[a:b]
            if max(rights) >= hi:
                raise BackendUnsupportedError(
                    f"occurrence of {pattern!r} spans a partition cut"
                )
            routed[pattern] = RegionSet._from_arrays(lefts[a:b], rights)
        return routed


class Assembly:
    """One generation of a live corpus: its pieces and, built on first
    demand, the instance they assemble into.

    ``pieces`` is ``base_pieces`` (the base's piece, or none without a
    base) followed by ``placed``, the documents; the assembled instance
    is ``base`` with every placed piece appended at its offset
    (:meth:`Instance.appended`).  It is built once, under a lock, by
    whichever caller first asks; every later caller gets that object.
    Names, per-name sizes and nesting depth need no assembly: the pieces
    are disjoint top-level trees, so each is exact from the pieces.
    """

    __slots__ = (
        "pieces", "names", "name_sizes", "_base", "_placed", "_instance", "_lock"
    )

    def __init__(
        self,
        base: "Instance",
        base_pieces: "Sequence[Piece]",
        placed: "Sequence[Piece]",
    ):
        self.pieces = (*base_pieces, *placed)
        self._base = base
        self._placed = placed
        #: The assembled instance's names, in its order.
        self.names = appended_names(
            base.names, (piece.instance.names for piece in placed)
        )
        #: Regions per name, in :attr:`names` order.
        self.name_sizes = dict.fromkeys(self.names, 0)
        for piece in self.pieces:
            instance = piece.instance
            for name in instance.names:
                self.name_sizes[name] += len(instance.region_set(name))
        self._instance: "Instance | None" = None
        self._lock = threading.Lock()

    @property
    def assembled(self) -> bool:
        """Whether the assembled instance has been built."""
        return self._instance is not None

    def instance(self, tracer: "Tracer | None" = None) -> "Instance":
        """The assembled instance, built (in an ``ingest.assemble`` span
        under ``tracer``'s current one) on the first call."""
        instance = self._instance
        if instance is None:
            with self._lock:
                instance = self._instance
                if instance is None:
                    with maybe_span(
                        tracer, "ingest.assemble", pieces=len(self.pieces)
                    ):
                        instance = self._base.appended(
                            (piece.instance, piece.offset) for piece in self._placed
                        )
                    self._instance = instance
        return instance

    def nesting_depth(self) -> int:
        """The assembled instance's nesting depth: the deepest piece's."""
        return max(
            (piece.instance.nesting_depth() for piece in self.pieces), default=0
        )


@dataclass(frozen=True, slots=True)
class _Part:
    """A (sub-)plan a read answers on every piece: the whole plan, or
    the right operand of one of its ``<``/``>`` nodes."""

    expr: A.Expr
    text: str
    names: frozenset[str]
    inner: tuple[A.Expr, ...]  #: its ``<``/``>`` nodes, in walk order
    preceding: tuple[bool, ...]  #: per inner node: ``<`` rather than ``>``

    @classmethod
    def of(cls, expr: A.Expr) -> "_Part":
        inner = tuple(
            dict.fromkeys(
                node
                for node in A.walk(expr)
                if isinstance(node, (A.Preceding, A.Following))
            )
        )
        return cls(
            expr,
            to_text(expr),
            A.region_names(expr),
            inner,
            tuple(isinstance(node, A.Preceding) for node in inner),
        )


@dataclass(frozen=True, slots=True)
class _Shape:
    """What a read needs of a plan beyond its tree, built once per text."""

    plan: ShardPlan
    whole: _Part
    #: By ``<``/``>`` right operand: its part, and whether a ``<`` node
    #: reads its max left and a ``>`` node its min right.
    rights: dict[A.Expr, tuple[_Part, bool, bool]]


def _clamp(value: int | None, preceding: bool, piece: Piece) -> int | None:
    """A global bound in ``piece``'s coordinates, clamped to its extent."""
    if value is None:
        return None
    local = value - piece.offset
    if preceding:
        return min(max(local, 0), piece.length + 1)
    return min(max(local, -1), piece.length)


def _without(expr: A.Expr, absent: set[str]) -> A.Expr:
    """``expr`` with every name in ``absent`` replaced by ``∅``."""
    if isinstance(expr, A.NameRef):
        return A.Empty() if expr.name in absent else expr
    if isinstance(expr, OrderBound):
        return OrderBound(_without(expr.child, absent), expr.kind, expr.bound)
    out = expr
    for i, child in enumerate(A.children(expr)):
        new = _without(child, absent)
        if new is not child:
            out = A.replace_child(out, i, new)
    return out


def _concatenate(pieces: "Sequence[Piece]", entries: list[_Entry]) -> RegionSet:
    lefts: list[int] = []
    rights: list[int] = []
    for piece, (ls, rs, lo, hi, origin) in zip(pieces, entries):
        if lo == hi:
            continue
        shift = piece.offset - origin
        if not shift:
            lefts += ls[lo:hi]
            rights += rs[lo:hi]
        else:
            lefts += [left + shift for left in ls[lo:hi]]
            rights += [right + shift for right in rs[lo:hi]]
    return RegionSet._from_arrays(lefts, rights)


#: The per-engine counts of :meth:`PieceReader.stats`.
_COUNTS = ("reads", "lookups", "misses", "evaluated", "batched")


class PieceReader:
    """The read path of an engine over a live corpus: every answer is
    the concatenation of per-piece answers, each from the piece's memo
    or, on a miss, computed (see the module docstring).

    Shapes — a plan's :func:`~repro.shard.planner.classify` and the
    texts its memo keys are made of — are kept per plan text beside the
    evaluator's programs and, like them, handed from one generation's
    reader to the next (``previous``).
    """

    #: What one program run costs beyond its input, in characters of
    #: text.  A read computes misses per piece while their lengths plus
    #: this overhead each sum to no more than one run over the whole
    #: corpus (generated plays on a 2-core x86 box: a run costs ~25 µs
    #: plus 13-17 ns per character of its instance).
    RUN_OVERHEAD = 2000

    def __init__(
        self,
        assembly: Assembly,
        evaluator: Evaluator,
        previous: "PieceReader | None" = None,
    ):
        self.assembly = assembly
        self.pieces = pieces = assembly.pieces
        self.evaluator = evaluator
        #: Characters from the start of the first piece to the end of the last.
        self.extent = pieces[-1].offset + pieces[-1].length if pieces else 0
        if previous is not None:
            self._shapes = previous._shapes
            self._shapes_lock = previous._shapes_lock
        else:
            self._shapes: dict[str, _Shape] = {}
            self._shapes_lock = threading.Lock()
        self._counts = dict.fromkeys(_COUNTS, 0)
        self._counts_lock = threading.Lock()

    def stats(self) -> dict[str, int]:
        """``pieces`` and whether the generation has been ``assembled``;
        summed over answered reads: ``lookups`` of a piece's answer, the
        ``misses`` among them, the pieces whose memo received a computed
        answer (``evaluated``), and the reads that ran a plan over the
        whole corpus (``batched``)."""
        with self._counts_lock:
            return {
                "pieces": len(self.pieces),
                "assembled": self.assembly.assembled,
                **self._counts,
            }

    def evaluate(
        self,
        expr: A.Expr,
        deadline: float | None = None,
        cancel: "CancelToken | None" = None,
    ) -> RegionSet:
        """``expr`` over the whole corpus (see the module docstring)."""
        read = _Read(self, limits_for(deadline, cancel))
        shape = self._shape(expr)
        bounds = (
            resolve_bounds(shape.plan, read.extremes_for(shape))
            if shape.plan.boundary
            else {}
        )
        result = read.answer(shape.whole, bounds)
        with self._counts_lock:
            counts = self._counts
            counts["reads"] += 1
            counts["lookups"] += read.lookups
            counts["misses"] += read.misses
            counts["evaluated"] += len(read.computed)
            counts["batched"] += read.batched
        self.evaluator.account(read.programs)
        return result

    def _shape(self, expr: A.Expr) -> _Shape:
        text = to_text(expr)
        shape = self._shapes.get(text)
        if shape is None:
            plan = classify(expr)
            rights: dict[A.Expr, tuple[_Part, bool, bool]] = {}
            for b in plan.boundary:
                right = b.node.right
                part, last, first = rights.get(right) or (_Part.of(right), False, False)
                if isinstance(b.node, A.Preceding):
                    last = True
                else:
                    first = True
                rights[right] = (part, last, first)
            shape = _Shape(plan, _Part.of(expr), rights)
            with self._shapes_lock:
                shapes = self._shapes
                if len(shapes) >= Evaluator.PROGRAM_CACHE_CAPACITY:
                    del shapes[next(iter(shapes))]
                shapes[text] = shape
        return shape


class _Read:
    """One query's run over the pieces: its limits, checked once per
    instruction across every run, the programs it ran and what it
    found in the memos."""

    __slots__ = (
        "reader", "limits", "programs", "computed", "lookups", "misses", "batched"
    )

    def __init__(self, reader: PieceReader, limits: Any):
        self.reader = reader
        self.limits = limits
        self.programs: list[Program] = []
        self.computed: set[int] = set()  #: indexes of pieces
        self.lookups = 0
        self.misses = 0
        self.batched = False

    def extremes_for(self, shape: _Shape):
        """The extremes callback of :func:`resolve_bounds`: of each right
        operand, only the extreme some ``<`` (max left) or ``>`` (min
        right) node reads."""

        def extremes(rights, bounds):
            found = []
            for right in rights:
                part, last, first = shape.rights[right]
                found.append(
                    (
                        self.extreme(part, bounds, True) if last else None,
                        self.extreme(part, bounds, False) if first else None,
                    )
                )
            return found

        return extremes

    def extreme(
        self, part: _Part, bounds: Mapping[A.Expr, int | None], last: bool
    ) -> int | None:
        """``part``'s max left (``last``) or min right over the corpus,
        read off the non-empty piece nearest that end; one run over the
        whole corpus once the misses on the way would cost more."""
        reader = self.reader
        pieces = reader.pieces
        values = tuple(bounds[node] for node in part.inner)
        order = range(len(pieces) - 1, -1, -1) if last else range(len(pieces))
        spent, overhead = 0, reader.RUN_OVERHEAD
        for i in order:
            piece = pieces[i]
            key = _key(part, values, piece)
            entry = piece.memo.get(key)
            self.lookups += 1
            if entry is None:
                self.misses += 1
                spent += piece.length + overhead
                if spent > reader.extent + overhead:
                    whole = self.whole(part, values)
                    if not whole._lefts:
                        return None
                    return whole._lefts[-1] if last else min(whole._rights)
                entry = self.compute(part, values, piece, i, key)
            ls, rs, lo, hi, origin = entry
            if lo < hi:
                shift = piece.offset - origin
                return ls[hi - 1] + shift if last else min(rs[lo:hi]) + shift
        return None

    def answer(
        self, part: _Part, bounds: Mapping[A.Expr, int | None]
    ) -> RegionSet:
        """``part`` over the corpus: every piece's memo entry, the misses
        computed per piece or, when that would cost more, in one run over
        the whole corpus that is then cut into the missing pieces' memos."""
        reader = self.reader
        pieces = reader.pieces
        values = tuple(bounds[node] for node in part.inner)
        keys = _keys(part, values, pieces)
        got = [piece.memo.get(key) for piece, key in zip(pieces, keys)]
        missing = [i for i, entry in enumerate(got) if entry is None]
        self.lookups += len(pieces)
        self.misses += len(missing)
        if not missing:
            return _concatenate(pieces, got)
        overhead = reader.RUN_OVERHEAD
        spent = sum(pieces[i].length + overhead for i in missing)
        if spent <= reader.extent + overhead:
            for i in missing:
                got[i] = self.compute(part, values, pieces[i], i, keys[i])
            return _concatenate(pieces, got)
        whole = self.whole(part, values)
        lefts, rights = whole._lefts, whole._rights
        for i in missing:
            piece = pieces[i]
            offset = piece.offset
            lo = bisect_left(lefts, offset)
            hi = bisect_left(lefts, offset + piece.length, lo)
            piece.memo.put(keys[i], (lefts, rights, lo, hi, offset))
        self.computed.update(missing)
        return whole

    def compute(
        self, part: _Part, values: tuple, piece: Piece, index: int, key: Any
    ) -> _Entry:
        """``part`` run on ``piece`` alone, into its memo."""
        local = key[1:] if values else ()
        absent = part.names.difference(piece.instance.names)
        expr = part.expr
        if local or absent:
            # A form of this piece alone, compiled for this one run so
            # per-piece bounds never crowd the program cache.
            if local:
                expr = rewrite(expr, dict(zip(part.inner, local)), {})
            if absent:
                expr = _without(expr, absent)
            program = self.reader.evaluator.compile_uncached(expr)
        else:
            program = self.reader.evaluator.compiled_program(expr)[0]
        answer = self.run(program, piece.instance)
        entry = (answer._lefts, answer._rights, 0, len(answer), 0)
        piece.memo.put(key, entry)
        self.computed.add(index)
        return entry

    def whole(self, part: _Part, values: tuple) -> RegionSet:
        """``part`` run over the whole corpus, under the global bounds."""
        self.batched = True
        evaluator = self.reader.evaluator
        if values:
            expr = rewrite(part.expr, dict(zip(part.inner, values)), {})
            program = evaluator.compile_uncached(expr)
        else:
            program = evaluator.compiled_program(part.expr)[0]
        return self.run(program, self.reader.assembly.instance(evaluator.tracer))

    def run(self, program: "Program", instance: "Instance") -> RegionSet:
        self.programs.append(program)
        return self.reader.evaluator.run(program, instance, self.limits)


def _key(part: _Part, values: tuple, piece: Piece) -> Any:
    """``part``'s memo key on ``piece``: its text, then the piece's
    clamped bounds, if any."""
    if not values:
        return part.text
    return (
        part.text,
        *[_clamp(v, p, piece) for v, p in zip(values, part.preceding)],
    )


def _keys(part: _Part, values: tuple, pieces: "Sequence[Piece]") -> list[Any]:
    """:func:`_key` on every piece, the one-bound case inlined."""
    text = part.text
    if not values:
        return [text] * len(pieces)
    if len(values) > 1:
        return [_key(part, values, piece) for piece in pieces]
    (value,) = values
    if value is None:
        return [(text, None)] * len(pieces)
    if part.preceding[0]:
        return [
            (text, min(max(value - p.offset, 0), p.length + 1)) for p in pieces
        ]
    return [(text, min(max(value - p.offset, -1), p.length)) for p in pieces]
