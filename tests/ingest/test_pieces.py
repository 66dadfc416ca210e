"""Per-piece answers on a live corpus (:mod:`repro.engine.pieces`).

An engine over a :class:`LiveCorpus` answers every query as the
concatenation of per-piece answers, each shifted by its piece's offset
and memoized on the piece.  The model-based suite holds that answer to
the evaluator on the assembled instance and to the naive oracle on a
re-parse of the combined text after every write, with misses computed
per piece, in one run over the whole corpus, or either by cost, and
holds the lazily assembled instance bit-identical to that re-parse; the
mechanism tests count the pieces on which a program ran, the runs a
read makes and the assemblies a generation builds.
"""

import random
import threading
import time

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.algebra import ast as A
from repro.algebra.cost import CostModel
from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.core.instance import Instance
from repro.engine.pieces import AnswerMemo, PieceReader
from repro.engine.session import Engine
from repro.engine.storage import encode_instance
from repro.engine.tagged import parse_tagged_text
from repro.errors import QueryCancelled, QueryTimeout, UnknownRegionNameError
from repro.ingest import LiveCorpus
from repro.workloads.corpora import generate_play
from repro.workloads.strategies import expressions

NAMES = ("a", "b", "c", "document")
WORDS = ("x", "y", "z")
BASE = "<a> x <b> y </b> </a>\n<c> z <a> y x </a> </c>"

#: Every operator kind the pieces fold differently, on every run.
BATTERY = (
    "a before b",
    "b after (a before c)",
    "(a containing b) before (c after a)",
    'a @ "x"',
    '"y"',
    '"x" within b',
    "b dwithin a",
    "a dcontaining b",
    "bi(a, b, c)",
    "document containing (b before a)",
    # Pieces wholly before or after a bound keep every region, their
    # outermost ones (which end at len-1 or start at 0) included.
    "document before a",
    "document after a",
    "c before b",
    # The same, for a right operand with a bound of its own and for a
    # plan with two bounds (keys clamped per bound).
    "b after (document before a)",
    "(document before a) union (document after c)",
)

_ORACLE = Evaluator("naive")
_INDEXED = Evaluator()


@st.composite
def tagged_elements(draw, depth: int = 0) -> str:
    """One element: a name, some words and up to two children."""
    name = draw(st.sampled_from(NAMES[:3]))
    parts = [f"<{name}>"]
    parts += draw(st.lists(st.sampled_from(WORDS), max_size=2))
    if depth < 2:
        parts += draw(st.lists(tagged_elements(depth=depth + 1), max_size=2))
    parts.append(f"</{name}>")
    return " ".join(parts)


documents = st.lists(tagged_elements(), min_size=1, max_size=2).map(" ".join)
probes = st.lists(
    expressions(names=NAMES, patterns=WORDS, max_depth=3, match_points=True),
    min_size=1,
    max_size=2,
)


def check(live: LiveCorpus, engine: Engine, exprs) -> None:
    """Per-piece ≡ indexed on the assembled instance ≡ naive on a
    re-parse of the combined text (naive on the assembled instance
    when the base carried no text)."""
    instance = live.instance
    text = live.combined_text()
    scratch = parse_tagged_text(text).instance if text is not None else instance
    for expr in exprs:
        if not A.region_names(expr) <= set(instance.names):
            with pytest.raises(UnknownRegionNameError):
                engine.query(expr)
            continue
        got = engine.query(expr)
        assert got == _INDEXED.evaluate(expr, instance), expr
        assert got == _ORACLE.evaluate(expr, scratch), expr


class LiveCorpusModel(RuleBasedStateMachine):
    """Appends, updates, deletes and compactions on one corpus, with
    one engine per generation handed the previous one's programs.

    ``overhead`` steers how misses are computed: 0 always per piece, a
    huge one in one run over the corpus as soon as two pieces miss (and
    the bound scan after its second miss), the default by cost."""

    @initialize(
        base=st.sampled_from(["text", "columns", "none"]),
        overhead=st.sampled_from([0, PieceReader.RUN_OVERHEAD, 10**9]),
    )
    def start(self, base, overhead):
        self.overhead = PieceReader.RUN_OVERHEAD
        PieceReader.RUN_OVERHEAD = overhead
        if base == "none":
            self.live = LiveCorpus()
        else:
            instance = parse_tagged_text(BASE).instance
            self.live = LiveCorpus(instance, BASE if base == "text" else None)
        self.serial = 0
        self.engine = Engine.from_live(self.live)

    def publish(self, exprs) -> None:
        self.engine = Engine.from_live(self.live, previous=self.engine)
        check(self.live, self.engine, exprs)

    def ids(self):
        return sorted(self.live.document_ids)

    @rule(text=documents, exprs=probes)
    def append(self, text, exprs):
        self.serial += 1
        self.live.apply([{"op": "append", "id": f"d{self.serial}", "text": text}])
        self.publish(exprs)

    @precondition(lambda self: self.live.document_count > 0)
    @rule(data=st.data(), text=documents, exprs=probes)
    def update(self, data, text, exprs):
        doc_id = data.draw(st.sampled_from(self.ids()))
        self.live.apply([{"op": "update", "id": doc_id, "text": text}])
        self.publish(exprs)

    @precondition(lambda self: self.live.document_count > 0)
    @rule(data=st.data(), exprs=probes)
    def delete(self, data, exprs):
        doc_id = data.draw(st.sampled_from(self.ids()))
        self.live.apply([{"op": "delete", "id": doc_id}])
        self.publish(exprs)

    @rule(exprs=probes)
    def compact(self, exprs):
        self.live.compact()
        self.publish(exprs)

    @invariant()
    def the_battery_agrees(self):
        check(self.live, self.engine, [parse(q) for q in BATTERY])

    @invariant()
    def the_assembled_instance_is_the_oracle(self):
        # One object per generation, bit-identical to a re-parse.
        instance = self.engine.instance
        assert instance is self.live.instance
        oracle = self.live.oracle_instance()
        if oracle is not None:
            assert encode_instance(instance) == encode_instance(oracle)
            assert instance.forest()._parent_pos == oracle.forest()._parent_pos

    def teardown(self):
        if hasattr(self, "overhead"):
            PieceReader.RUN_OVERHEAD = self.overhead


LiveCorpusModel.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLiveCorpusModel = LiveCorpusModel.TestCase


# ----------------------------------------------------------------------
# The mechanism: which pieces run a program.
# ----------------------------------------------------------------------

#: The bench's mix16 templates.
MIX16 = {
    "contain_order": "speech containing (speaker before line)",
    "isect_after": "(speech containing line) isect (speech after scene)",
    "within_chain": "line within (speech within (scene within act))",
    "direct_union": "(speech dwithin scene) union (line within speech)",
    "word_points": 'scene containing ("love" within line)',
    "select_except": (
        '(speech containing line) except (speech containing (line @ "love"))'
    ),
    "bi_scene": "bi(scene, speaker, line)",
}


def _play_corpus() -> tuple[LiveCorpus, random.Random]:
    rng = random.Random(7)
    base = "\n".join(generate_play(rng, 1, 2, 3, 2) for _ in range(3))
    live = LiveCorpus(parse_tagged_text(base).instance, base)
    live.apply(
        [
            {"op": "append", "id": f"d{i}", "text": generate_play(rng, 1, 2, 3, 2)}
            for i in range(6)
        ]
    )
    return live, rng


def _evaluated(engine: Engine, query: str) -> int:
    before = engine.statistics()["pieces"]["evaluated"]
    engine.query(query)
    return engine.statistics()["pieces"]["evaluated"] - before


class TestMechanism:
    def test_a_commit_runs_programs_only_where_answers_changed(self):
        live, rng = _play_corpus()
        engine = Engine.from_live(live)
        for query in MIX16.values():
            assert _evaluated(engine, query) == len(live.pieces)
            assert _evaluated(engine, query) == 0  # all memoized now
        live.apply(
            [
                {"op": "append", "id": "new", "text": generate_play(rng, 1, 2, 3, 2)},
                {"op": "update", "id": "d3", "text": generate_play(rng, 1, 2, 3, 2)},
            ]
        )
        engine = Engine.from_live(live, previous=engine)
        for name, query in MIX16.items():
            # The new and the changed document; for `<`, also the piece
            # that held the bound before the commit (the old last
            # document), whose clamped bound is now past its end.  The
            # `>` bound lies in the base and holds still.
            expected = 3 if name == "contain_order" else 2
            assert _evaluated(engine, query) == expected, name
        live.compact()
        engine = Engine.from_live(live, previous=engine)
        for name, query in MIX16.items():
            assert _evaluated(engine, query) == 0, name

    def test_a_deleted_document_takes_its_answers_with_it(self):
        live, _ = _play_corpus()
        engine = Engine.from_live(live)
        engine.query(MIX16["within_chain"])
        doomed = live.pieces[1].memo
        assert len(doomed) == 1
        live.apply([{"op": "delete", "id": "d0"}])
        assert all(piece.memo is not doomed for piece in live.pieces)
        (tombstone,) = [
            doc for segment in live._segments for doc in segment.docs if doc.deleted
        ]
        assert (tombstone.memo, tombstone.instance) == (None, None)
        # Every survivor moved, but none of them runs again.
        engine = Engine.from_live(live, previous=engine)
        assert _evaluated(engine, MIX16["within_chain"]) == 0

    def test_a_name_absent_from_a_piece_is_empty_there(self):
        live = LiveCorpus(parse_tagged_text(BASE).instance, BASE)
        live.apply([{"op": "append", "id": "p", "text": "<b> x </b>"}])
        engine = Engine.from_live(live)
        for query in ("c containing a", "b union c", "bi(c, a, b)", "a before b"):
            assert engine.query(query) == _INDEXED.evaluate(query, live.instance)

    def test_the_program_cache_carries_over(self):
        live, rng = _play_corpus()
        engine = Engine.from_live(live)
        expr = parse(MIX16["within_chain"])
        engine.query(expr)
        live.apply([{"op": "append", "id": "n", "text": generate_play(rng, 1, 1, 1, 1)}])
        after = Engine.from_live(live, previous=engine)
        assert after._evaluator.program_cached(expr)
        assert not Engine.from_live(live)._evaluator.program_cached(expr)


class TestLimits:
    def test_deadline_and_cancel_bound_the_whole_read(self):
        live, _ = _play_corpus()
        engine = Engine.from_live(live)
        with pytest.raises(QueryTimeout) as caught:
            engine.query(MIX16["within_chain"], deadline=1e-9)
        assert caught.value.budget == 1e-9

        class Cancelled:
            def is_set(self):
                return True

        with pytest.raises(QueryCancelled):
            engine.query(MIX16["bi_scene"], cancel=Cancelled())


class TestAnswerMemo:
    def test_the_oldest_answer_leaves_first(self, monkeypatch):
        monkeypatch.setattr(AnswerMemo, "CAPACITY", 2)
        memo = AnswerMemo()
        for key in ("p", "q", "r"):
            memo.put(key, key)
        assert memo.get("p") is None
        assert (memo.get("q"), memo.get("r"), len(memo)) == ("q", "r", 2)
        memo.put("q", "again")  # a replaced key evicts nothing
        assert (memo.get("q"), memo.get("r")) == ("again", "r")


# ----------------------------------------------------------------------
# Bounded fan-out: how many programs a read runs.
# ----------------------------------------------------------------------


@pytest.fixture
def runs(monkeypatch):
    """Every program run of a per-piece read, as the instance it ran on."""
    seen = []
    real = Evaluator.run

    def run(self, program, instance, limits):
        seen.append(instance)
        return real(self, program, instance, limits)

    monkeypatch.setattr(Evaluator, "run", run)
    return seen


class TestBoundedFanOut:
    def test_a_plan_read_first_runs_once_over_the_corpus(self, runs):
        live, rng = _play_corpus()
        engine = Engine.from_live(live)
        query = MIX16["within_chain"]
        got = engine.query(query)
        assert runs == [live.instance]
        assert got == _INDEXED.evaluate(query, live.instance)
        stats = engine.statistics()["pieces"]
        assert stats["batched"] == 1
        assert stats["evaluated"] == stats["misses"] == len(live.pieces)
        # Every piece filed its part of that run, so after a commit only
        # the new document runs, on its own instance.
        live.apply(
            [{"op": "append", "id": "n", "text": generate_play(rng, 1, 2, 3, 2)}]
        )
        engine = Engine.from_live(live, previous=engine)
        runs.clear()
        assert engine.query(query) == _INDEXED.evaluate(query, live.instance)
        assert runs == [live.pieces[-1].instance]

    def test_an_order_plan_reads_its_bound_off_the_far_end(self, runs):
        live, _ = _play_corpus()
        engine = Engine.from_live(live)
        query = MIX16["contain_order"]  # speech containing (speaker before line)
        assert engine.query(query) == _INDEXED.evaluate(query, live.instance)
        # `line` on the last document alone gives the bound; the plan
        # then runs once over the corpus.
        assert runs == [live.pieces[-1].instance, live.instance]

    def test_a_bound_scan_past_many_misses_switches_to_one_run(
        self, runs, monkeypatch
    ):
        live, _ = _play_corpus()
        live.apply([{"op": "append", "id": "bare", "text": "<speech> x </speech>"}])
        monkeypatch.setattr(PieceReader, "RUN_OVERHEAD", 10**9)
        engine = Engine.from_live(live)
        query = "speech before line"
        assert engine.query(query) == _INDEXED.evaluate(query, live.instance)
        # `line` is empty on the last piece; the second miss of the scan
        # costs more than a run over the corpus.
        assert runs == [live.pieces[-1].instance, live.instance, live.instance]

    def test_a_min_right_past_many_misses_comes_from_one_run(
        self, runs, monkeypatch
    ):
        live = LiveCorpus()
        live.apply(
            [
                {"op": "append", "id": "p0", "text": "<c> x </c>"},
                # The outer `a` comes first but ends last: the min right
                # is the inner one's, and the `b` between them follows it.
                {"op": "append", "id": "p1", "text": "<a> <a> z </a> <b> q </b> </a>"},
                {"op": "append", "id": "p2", "text": "<b> w </b>"},
            ]
        )
        monkeypatch.setattr(PieceReader, "RUN_OVERHEAD", 10**9)
        engine = Engine.from_live(live)
        query = "b after a"
        got = engine.query(query)
        assert got == _INDEXED.evaluate(query, live.instance)
        assert len(got) == 2
        assert runs == [live.pieces[0].instance, live.instance, live.instance]

    def test_cheap_misses_run_per_piece(self, runs, monkeypatch):
        live, _ = _play_corpus()
        monkeypatch.setattr(PieceReader, "RUN_OVERHEAD", 0)
        engine = Engine.from_live(live)
        query = MIX16["bi_scene"]
        assert engine.query(query) == _INDEXED.evaluate(query, live.instance)
        assert runs == [piece.instance for piece in live.pieces]
        assert engine.statistics()["pieces"]["batched"] == 0


class TestObservation:
    def test_a_read_is_accounted_as_one_query(self):
        live, rng = _play_corpus()
        engine = Engine.from_live(live)
        engine.query(MIX16["contain_order"])
        (record,) = engine.query_log.records()
        assert record.nodes_evaluated > 0
        assert engine.statistics()["pieces"]["reads"] == 1
        # Per-piece forms (here: the bound inlined on the last
        # document) run as several programs, accounted once.
        live.apply(
            [{"op": "append", "id": "n", "text": generate_play(rng, 1, 2, 3, 2)}]
        )
        engine = Engine.from_live(live, previous=engine)
        engine.query(MIX16["contain_order"])
        (record,) = engine.query_log.records()
        assert record.nodes_evaluated > 0
        assert engine.statistics()["pieces"]["reads"] == 1

    def test_concurrent_reads_share_memos_and_keep_every_count(self):
        import sys
        import threading

        live, _ = _play_corpus()
        engine = Engine.from_live(live)
        expected = {
            query: _INDEXED.evaluate(query, live.instance) for query in MIX16.values()
        }
        wrong = []

        def read():
            for query in MIX16.values():
                if engine.query(query) != expected[query]:
                    wrong.append(query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        stats = engine.statistics()["pieces"]
        assert stats["reads"] == 6 * len(MIX16)
        assert stats["lookups"] >= stats["reads"] * len(live.pieces)


# ----------------------------------------------------------------------
# Lazy assembly: a generation builds its instance only on demand.
# ----------------------------------------------------------------------


@pytest.fixture
def assemblies(monkeypatch):
    """Every :meth:`Instance.appended` call, as the instance it returned."""
    built = []
    real = Instance.appended

    def appended(self, pieces):
        out = real(self, pieces)
        built.append(out)
        return out

    monkeypatch.setattr(Instance, "appended", appended)
    return built


def _mixed_commit(live: LiveCorpus, rng: random.Random) -> None:
    live.apply(
        [
            {"op": "append", "id": "new", "text": generate_play(rng, 1, 2, 3, 2)},
            {"op": "update", "id": "d3", "text": generate_play(rng, 1, 2, 3, 2)},
            {"op": "delete", "id": "d0"},
        ]
    )


class TestLazyAssembly:
    def test_reads_statistics_and_estimates_after_a_commit_assemble_nothing(
        self, assemblies
    ):
        live, rng = _play_corpus()
        engine = Engine.from_live(live)
        for query in MIX16.values():
            engine.query(query)
        assemblies.clear()
        _mixed_commit(live, rng)
        live.compact()
        engine = Engine.from_live(live, previous=engine)
        for query in MIX16.values():
            engine.query(query)  # each records a cost estimate
        engine.explain(MIX16["within_chain"])
        stats = engine.statistics()
        assert assemblies == []
        assert stats["pieces"]["assembled"] is False
        assert stats["pieces"]["batched"] == 0
        # Asked for, the generation assembles once, and says so.
        assert engine.instance is live.instance
        assert len(assemblies) == 1
        assert engine.statistics()["pieces"]["assembled"] is True

    @pytest.mark.parametrize("base", ["text", "none"])
    def test_statistics_from_pieces_equal_the_assembled_instances(self, base):
        live = LiveCorpus() if base == "none" else LiveCorpus(
            parse_tagged_text(BASE).instance, BASE
        )
        live.apply(
            [
                {"op": "append", "id": "p", "text": "<b> x <b> y </b> </b>"},
                # A name the base lacks: the assembled names are sorted.
                {"op": "append", "id": "q", "text": "<z> <a> <b> <c> y </c> </b> </a> </z>"},
            ]
        )
        live.apply([{"op": "update", "id": "p", "text": "<c> z </c>"}])
        engine = Engine.from_live(live)
        stats = engine.statistics()
        names = engine.region_names
        model = engine._ensure_cost_model()
        assert not live.assembly.assembled
        plain = Engine(live.instance)
        expected = plain.statistics()
        assert names == live.instance.names
        assert list(stats["regions"].items()) == list(expected["regions"].items())
        assert (stats["total"], stats["nesting_depth"]) == (
            expected["total"],
            expected["nesting_depth"],
        )
        assert model.name_sizes == CostModel.from_instance(live.instance).name_sizes

    def test_concurrent_first_touches_share_one_build(
        self, assemblies, monkeypatch
    ):
        live, rng = _play_corpus()
        _mixed_commit(live, rng)
        engine = Engine.from_live(live)
        real = Instance.appended

        def slow(self, pieces):
            time.sleep(0.02)  # hold the build open while the others arrive
            return real(self, pieces)

        monkeypatch.setattr(Instance, "appended", slow)
        assemblies.clear()
        start = threading.Barrier(8)
        got = []

        def touch():
            start.wait()
            got.append(engine.instance)

        threads = [threading.Thread(target=touch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(got) == 8
        assert len(assemblies) == 1
        assert all(instance is got[0] for instance in got)
        assert got[0] is live.instance

    def test_the_build_is_a_span_under_the_read_that_forced_it(self):
        live, rng = _play_corpus()
        _mixed_commit(live, rng)
        engine = Engine.from_live(live)
        engine.enable_tracing()
        engine.query(MIX16["within_chain"])  # a first read runs batched
        root = engine.tracer.last_root
        names = [span.name for span in root.walk()]
        assert names.count("ingest.assemble") == 1
        (pieces,) = [span for span in root.walk() if span.name == "pieces"]
        assert [child.name for child in pieces.children] == ["ingest.assemble"]
        engine.query(MIX16["bi_scene"])
        assert "ingest.assemble" not in [
            span.name for span in engine.tracer.last_root.walk()
        ]
