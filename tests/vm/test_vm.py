"""The plan VM: compiler, program cache, stats, traced execution.

The compiled program is the only executor of the indexed strategy: it
must return what the oracle tree walk (``Evaluator("naive")``) returns,
report ``EvalStats`` that count the expression tree, and expose an
inspectable program listing through ``explain``.
"""

import pytest

from repro.algebra import ast as A
from repro.algebra.evaluator import EvalStats, Evaluator
from repro.core.regionset import RegionSet
from repro.engine.session import Engine
from repro.errors import EvaluationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.vm import compile_expr, execute
from repro.workloads.generators import random_instance

SOURCE = """program Main {
    var x;
    proc Alpha {
        var y;
        proc Beta { var x; }
    }
}
"""

# (Var ⊂ Proc) ∪ (Var ⊂ Proc): the right operand repeats the left, so
# the compiler CSEs it to one register.
SHARED = A.Union(
    A.IncludedIn(A.NameRef("Var"), A.NameRef("Proc")),
    A.IncludedIn(A.NameRef("Var"), A.NameRef("Proc")),
)

QUERIES = [
    A.NameRef("Var"),
    A.Union(A.NameRef("Var"), A.NameRef("Proc")),
    A.Including(A.NameRef("Proc"), A.NameRef("Var")),
    A.IncludedIn(A.NameRef("Var"), A.NameRef("Proc")),
    A.Difference(A.NameRef("Var"), A.IncludedIn(A.NameRef("Var"), A.NameRef("Proc"))),
    A.Preceding(A.NameRef("Var"), A.NameRef("Proc")),
    A.Following(A.NameRef("Var"), A.NameRef("Proc")),
    A.Select("x", A.NameRef("Var")),
    A.DirectlyIncluding(A.NameRef("Proc"), A.NameRef("Proc_body")),
    A.BothIncluded(A.NameRef("Var"), A.NameRef("Proc"), A.NameRef("Proc")),
    SHARED,
]


@pytest.fixture(scope="module")
def instance():
    return Engine.from_source(SOURCE).instance


class TestCompiler:
    def test_linear_program_with_cse(self):
        program = compile_expr(SHARED)
        assert program is not None
        # NameRef(Var), NameRef(Proc), IncludedIn, Union — the repeated
        # subtree collapses to a register read.
        assert program.size == 4
        assert program.cse_hits == 1
        assert program.n_registers == 4
        listing = program.listing()
        assert listing[0] == "r0 = load_name 'Var'"
        assert listing[2] == "r2 = included_in r0, r1"
        assert listing[3] == "r3 = union r2, r2"

    def test_op_counts(self):
        program = compile_expr(SHARED)
        # Keyed by AST node label, as the eval.<label> spans are.
        assert program.op_counts == {
            "NameRef": 2,
            "IncludedIn": 1,
            "Union": 1,
        }

    def test_unknown_node_is_uncompilable(self):
        class Exotic(A.Expr):
            pass

        for expr in (Exotic(), A.Union(A.NameRef("Var"), Exotic())):
            with pytest.raises(EvaluationError, match="cannot evaluate node Exotic"):
                compile_expr(expr)

    def test_compile_without_cse(self):
        program = compile_expr(SHARED, cse=False)
        assert program.size == 7
        assert program.cse_hits == 0
        assert program.listing()[6] == "r6 = union r2, r5"

    def test_execute_matches_interpreter(self, instance):
        interp = Evaluator("naive")
        for expr in QUERIES:
            program = compile_expr(expr)
            got = execute(program, instance)
            expected = interp.evaluate(expr, instance)
            assert list(got) == list(expected), expr

    def test_match_points_error_parity(self):
        # Abstract instances reject match-point queries with the same
        # message from both tables.
        import random

        abstract = random_instance(random.Random(3), ("R0",), max_nodes=5)
        program = compile_expr(A.MatchPoints("var"))
        with pytest.raises(EvaluationError, match="text-backed"):
            execute(program, abstract)
        with pytest.raises(EvaluationError, match="text-backed"):
            Evaluator("naive").evaluate(A.MatchPoints("var"), abstract)

    def test_match_points_on_text_instance(self, instance):
        # Text-backed instances answer match points from both tables.
        program = compile_expr(A.MatchPoints("var"))
        got = execute(program, instance)
        want = Evaluator("naive").evaluate(A.MatchPoints("var"), instance)
        assert list(got) == list(want)


class TestEvaluatorIntegration:
    def test_stats_mirror_interpreter(self, instance):
        # What a memoizing tree walk would count: one visit per node of
        # the tree down to (and including) each repeated sub-expression.
        def visits(expr, seen):
            if expr in seen:
                return 1, 1
            seen.add(expr)
            nodes, hits = 1, 0
            for child in A.children(expr):
                n, h = visits(child, seen)
                nodes, hits = nodes + n, hits + h
            return nodes, hits

        vm = Evaluator("indexed", metrics=MetricsRegistry())
        for expr in QUERIES:
            vm.evaluate(expr, instance)
            nodes, hits = visits(expr, set())
            assert vm.last_stats == EvalStats(nodes, hits, compiled=True), expr

    def test_shared_query_stats(self, instance):
        vm = Evaluator("indexed", metrics=MetricsRegistry())
        vm.evaluate(SHARED, instance)
        assert vm.last_stats == EvalStats(
            nodes_evaluated=5, memo_hits=1, compiled=True
        )

    def test_program_cache_hit(self, instance):
        ev = Evaluator("indexed", metrics=MetricsRegistry())
        assert not ev.program_cached(SHARED)
        program, cached = ev.compiled_program(SHARED)
        assert program is not None and not cached
        again, cached = ev.compiled_program(SHARED)
        assert again is program and cached
        assert ev.program_cached(SHARED)

    def test_cache_evicts_lru(self):
        ev = Evaluator("indexed")
        ev.PROGRAM_CACHE_CAPACITY = 3
        exprs = [A.NameRef(f"N{i}") for i in range(5)]
        for expr in exprs:
            ev.compiled_program(expr)
        assert not ev.program_cached(exprs[0])
        assert not ev.program_cached(exprs[1])
        assert all(ev.program_cached(e) for e in exprs[2:])

    def test_memoize_off_compiles_without_cse(self, instance):
        ev = Evaluator("indexed", memoize=False, metrics=MetricsRegistry())
        assert ev.evaluate(SHARED, instance) == Evaluator().evaluate(SHARED, instance)
        # Without memoization the repeated subtree re-evaluates: more
        # nodes, no memo hits — the VM must not silently regain CSE.
        program, cached = ev.compiled_program(SHARED)
        assert cached and program.size == 7 and program.cse_hits == 0
        assert ev.last_stats == EvalStats(
            nodes_evaluated=7, memo_hits=0, compiled=True
        )

    def test_unknown_node_raises_evaluation_error(self, instance):
        class Exotic(A.Expr):
            def __eq__(self, other):
                return isinstance(other, Exotic)

            def __hash__(self):
                return hash(Exotic)

        ev = Evaluator("indexed", metrics=MetricsRegistry())
        for _ in range(2):
            with pytest.raises(EvaluationError, match="cannot evaluate node Exotic"):
                ev.evaluate(Exotic(), instance)
        assert not ev.program_cached(Exotic())

    def test_detail_tracing_runs_the_cached_program(self, instance):
        tracer = Tracer(enabled=True)
        ev = Evaluator("indexed", tracer=tracer)
        untraced = Evaluator().evaluate(SHARED, instance)
        program, _ = ev.compiled_program(SHARED)
        assert ev.evaluate(SHARED, instance) == untraced
        assert ev.last_stats.compiled is True
        again, cached = ev.compiled_program(SHARED)
        assert again is program and cached
        root = tracer.last_root
        assert root.name == "vm.execute"
        spans = [span for span in root.walk() if span.name.startswith("eval.")]
        assert spans == root.children
        assert [span.name for span in spans] == [
            f"eval.{ins.label}" for ins in program.instructions
        ]
        assert [span.attributes["expression"] for span in spans] == [
            ins.expr for ins in program.instructions
        ]


class TestEngineExplain:
    def test_explain_lists_program(self):
        engine = Engine.from_source(SOURCE)
        plan = engine.explain("Var within Proc")
        assert plan.compiled
        assert plan.program
        assert any("included_in" in line for line in plan.program)
        assert "program:" in str(plan)

    def test_plan_equals_explain(self):
        engine = Engine.from_source(SOURCE)
        query = "Var within Proc"
        assert engine.plan(query) == engine.explain(query)

    def test_explain_reports_cache_hits_distinctly(self):
        engine = Engine.from_source(SOURCE)
        _, caches = engine.explain_with_caches("Var within Proc")
        assert caches == {"plan_cache_hit": False, "program_cache_hit": False}
        _, caches = engine.explain_with_caches("Var within Proc")
        assert caches == {"plan_cache_hit": True, "program_cache_hit": True}
        # A new query re-uses the cost model but not the program.
        _, caches = engine.explain_with_caches("Proc containing Var")
        assert caches == {"plan_cache_hit": True, "program_cache_hit": False}


class TestRandomInstances:
    def test_vm_matches_interpreter_on_random_instances(self):
        import random

        rng = random.Random(19)
        vm = Evaluator("indexed")
        interp = Evaluator("naive")
        for _ in range(6):
            instance = random_instance(
                rng, ("R0", "R1", "R2"), max_nodes=60, patterns=("x", "y")
            )
            for expr in (
                A.Including(A.NameRef("R0"), A.NameRef("R1")),
                A.IncludedIn(
                    A.NameRef("R2"),
                    A.Union(A.NameRef("R0"), A.NameRef("R1")),
                ),
                A.Preceding(A.NameRef("R0"), A.NameRef("R1")),
                SHARED.__class__(
                    A.IncludedIn(A.NameRef("R0"), A.NameRef("R1")),
                    A.IncludedIn(A.NameRef("R0"), A.NameRef("R1")),
                ),
            ):
                assert list(vm.evaluate(expr, instance)) == list(
                    interp.evaluate(expr, instance)
                ), expr
