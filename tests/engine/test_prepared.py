"""Prepared queries: each query text is parsed and planned once per engine."""

import gc
import sys
import threading
import types

import pytest

from repro.algebra.evaluator import Evaluator
from repro.core.regionset import RegionSet
from repro.engine.session import Engine, PreparedQuery
from repro.engine.tagged import parse_tagged_text
from repro.errors import ParseError, UnknownRegionNameError
from repro.ingest import LiveCorpus

SOURCE = """program Main {
    var x;
    proc Alpha {
        var y;
        proc Beta { var x; }
    }
}
"""


@pytest.fixture
def engine():
    return Engine.from_source(SOURCE)


def _objects_reachable_from(root):
    """Every object ``root`` refers to, directly or not (classes,
    modules and functions excepted)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


class TestPreparedQueries:
    def test_a_text_is_prepared_once(self, engine):
        first = engine.prepared("Name within Proc_header")
        assert engine.prepared("Name within Proc_header") is first
        assert first.text == "Name within Proc_header"
        assert first.estimate is not None
        assert engine.prepared(first) is first
        assert engine.query(first) == engine.query("Name within Proc_header")

    def test_the_query_log_reads_the_entry(self, engine):
        engine.query("Name  within   Proc_header")
        record = engine.query_log.records()[-1]
        assert record.query == "Name  within   Proc_header"
        assert record.plan == "Name within Proc_header"
        assert record.estimated_cardinality is not None

    def test_define_view_invalidates_a_cached_plan(self, engine):
        engine.define_view("V", 'Var @ "x"')
        assert len(engine.query("Proc containing V")) == 2
        engine.define_view("V", 'Var @ "y"')
        assert engine.prepared("Proc containing V").text == (
            'Proc containing Var @ "y"'
        )
        assert len(engine.query("Proc containing V")) == 1

    @pytest.mark.parametrize(
        "query, error",
        [
            ("Proc containing (", ParseError),
            ("Nonsense within Proc", UnknownRegionNameError),
        ],
    )
    def test_a_failed_preparation_is_raised_on_every_request(
        self, engine, query, error
    ):
        for _ in range(3):
            with pytest.raises(error):
                engine.query(query)
            with pytest.raises(error):
                engine.prepared(query)
        assert query not in engine._prepared

    def test_each_live_generation_checks_its_own_names(self):
        base = "<a> x <b> y </b> </a>"
        live = LiveCorpus(parse_tagged_text(base).instance, base)
        old = Engine.from_live(live)
        assert len(old.query("b within a")) == 1
        live.apply([{"op": "append", "id": "d1", "text": "<e> z </e>"}])
        new = Engine.from_live(live, previous=old)
        live.apply([{"op": "delete", "id": "d1"}])
        newer = Engine.from_live(live, previous=new)
        # The generation whose names include ``e`` prepares it first;
        # the ones before and after it still refuse the name.
        assert len(new.query("e within document")) == 1
        for engine in (old, newer):
            with pytest.raises(UnknownRegionNameError):
                engine.query("e within document")
        assert len(new.query("e within document")) == 1
        assert len(newer.query("b within a")) == 1

    def test_the_map_never_exceeds_its_bound(self, engine, monkeypatch):
        monkeypatch.setattr(Evaluator, "PROGRAM_CACHE_CAPACITY", 4)
        texts = [f'Var @ "w{i}"' for i in range(10)]
        for text in texts:
            engine.prepared(text)
            assert len(engine._prepared) <= 4
        assert list(engine._prepared) == texts[-4:]

    def test_threads_preparing_past_the_bound_raise_nothing(
        self, engine, monkeypatch
    ):
        monkeypatch.setattr(Evaluator, "PROGRAM_CACHE_CAPACITY", 8)
        errors: list[BaseException] = []

        def prepare(worker: int) -> None:
            try:
                for i in range(300):
                    engine.prepared(f'Var @ "t{worker}x{i}"')
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=prepare, args=(w,)) for w in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(engine._prepared) <= 8

    def test_no_cache_value_holds_a_region_set(self, engine):
        for query in ("Proc", '"x" within Var', "bi(Proc, Var, Var)"):
            engine.query(query)
        engine.query("Proc containing Var", optimize_query=True)
        assert engine._prepared
        for entry in engine._prepared.values():
            assert isinstance(entry, PreparedQuery)
            assert not any(
                isinstance(obj, RegionSet)
                for obj in _objects_reachable_from(entry)
            )
