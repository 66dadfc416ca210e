"""The RIG/ROG static analyzer: name bounds and sound pruning."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import ast as A
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.optimize.static import infer_name_bounds, prune_with_rig
from repro.rig.derive import rog_from_instances
from repro.rig.graph import RegionInclusionGraph, figure_1_rig
from repro.rig.rog import RegionOrderGraph
from repro.workloads.generators import rig_constrained_instance


@pytest.fixture
def rig():
    return figure_1_rig()


class TestNameBounds:
    def test_name_ref(self, rig):
        assert infer_name_bounds(parse("Proc"), rig).names == {"Proc"}

    def test_union_and_intersection(self, rig):
        assert infer_name_bounds(parse("Proc union Var"), rig).names == {
            "Proc",
            "Var",
        }
        assert infer_name_bounds(parse("Proc isect Var"), rig).is_empty

    def test_including_uses_reachability(self, rig):
        # Program can reach Var through Prog_body; Var reaches nothing.
        assert infer_name_bounds(parse("Program containing Var"), rig).names == {
            "Program"
        }
        assert infer_name_bounds(parse("Var containing Program"), rig).is_empty

    def test_included_in(self, rig):
        assert infer_name_bounds(parse("Name within Proc"), rig).names == {"Name"}
        assert infer_name_bounds(parse("Proc within Name"), rig).is_empty

    def test_direct_needs_an_edge(self, rig):
        # Program ⊃ Name is reachable but never direct.
        assert not infer_name_bounds(parse("Program containing Name"), rig).is_empty
        assert infer_name_bounds(parse("Program dcontaining Name"), rig).is_empty
        assert infer_name_bounds(parse("Proc dcontaining Proc_header"), rig).names == {
            "Proc"
        }

    def test_selection_transparent(self, rig):
        assert infer_name_bounds(parse('Var @ "x" within Proc'), rig).names == {"Var"}

    def test_unknown_names_are_leaves(self, rig):
        assert infer_name_bounds(parse("Mystery"), rig).names == {"Mystery"}
        assert infer_name_bounds(parse("Mystery within Proc"), rig).is_empty

    def test_order_without_rog_is_conservative(self, rig):
        bounds = infer_name_bounds(parse("Proc before Var"), rig)
        assert bounds.names == {"Proc"}

    def test_order_with_rog(self, rig):
        rog = RegionOrderGraph(rig.names, [("Proc_header", "Proc_body")])
        assert infer_name_bounds(
            parse("Proc_header before Proc_body"), rig, rog
        ).names == {"Proc_header"}
        assert infer_name_bounds(
            parse("Proc_body before Proc_header"), rig, rog
        ).is_empty
        # Following is the mirror image.
        assert infer_name_bounds(
            parse("Proc_body after Proc_header"), rig, rog
        ).names == {"Proc_body"}

    def test_both_included(self, rig):
        assert infer_name_bounds(parse("bi(Proc, Var, Var)"), rig).names == {"Proc"}
        assert infer_name_bounds(parse("bi(Var, Proc, Proc)"), rig).is_empty

    def test_both_included_with_rog_order_constraint(self, rig):
        rog = RegionOrderGraph(rig.names, [("Proc_header", "Proc_body")])
        assert infer_name_bounds(
            parse("bi(Proc, Proc_body, Proc_header)"), rig, rog
        ).is_empty
        assert infer_name_bounds(
            parse("bi(Proc, Proc_header, Proc_body)"), rig, rog
        ).names == {"Proc"}


class TestPruning:
    def test_prunes_impossible_inclusion(self, rig):
        expr = parse("(Var containing Proc) union Name")
        assert prune_with_rig(expr, rig) == A.NameRef("Name")

    def test_keeps_possible_queries(self, rig):
        expr = parse('Proc dcontaining Proc_body dcontaining (Var @ "x")')
        assert prune_with_rig(expr, rig) == expr

    def test_match_points_are_unanalysable(self, rig):
        # Match points carry no name: nothing that keeps them is pruned,
        # while a provably empty sibling still is.
        assert infer_name_bounds(parse('"x" within Var'), rig).names is None
        kept = parse('Proc containing ("x" within Var)')
        assert prune_with_rig(kept, rig) == kept
        expr = parse('(Var containing Proc) union ("x" within Var)')
        assert prune_with_rig(expr, rig) == parse('"x" within Var')
        assert prune_with_rig(parse('"x" within (Name within Var)'), rig) == A.Empty()

    def test_a_name_on_a_cycle_can_include_itself(self, rig):
        # Proc -> Proc_body -> Proc: nested procedures.
        expr = parse("Proc containing Proc")
        assert infer_name_bounds(expr, rig).names == {"Proc"}
        assert prune_with_rig(expr, rig) == expr

    def test_prunes_within_nested_expressions(self, rig):
        expr = parse("Proc containing (Name within Var)")
        # Name can never sit inside a Var, so the whole thing is empty.
        assert prune_with_rig(expr, rig) == A.Empty()

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_pruning_is_sound_on_conforming_instances(self, seed):
        rig = figure_1_rig()
        rng = random.Random(seed)
        instance = rig_constrained_instance(
            rng, rig, roots=("Program",), max_nodes=40, patterns=("x",)
        )
        rog = rog_from_instances([instance])
        queries = [
            "Proc containing Var",
            "Var containing Proc",
            "(Name within Var) union (Name within Proc_header)",
            'bi(Proc_body, Var @ "x", Proc)',
            "Proc_header before Proc_body",
            "Name dwithin Prog_header",
        ]
        for query in queries:
            expr = parse(query)
            pruned = prune_with_rig(expr, rig)
            assert evaluate(expr, instance) == evaluate(pruned, instance), query
            pruned_rog = prune_with_rig(expr, rig, rog)
            assert evaluate(expr, instance) == evaluate(pruned_rog, instance), query


class TestOptimizerIntegration:
    @pytest.mark.parametrize(
        "query",
        [
            'Proc containing ("x" within Var)',
            '(Var containing Proc) union ("x" within Var)',
            "Proc containing Proc",
        ],
    )
    def test_engine_explain_answers_as_unoptimized(self, query):
        from repro.engine.session import Engine

        engine = Engine.from_source(
            "program Main { var x; proc Alpha { var y; proc Beta { var x; } } }"
        )
        expected = engine.query(query)
        assert len(expected) > 0
        plan = engine.explain(query)
        assert engine.query(plan.optimized) == expected
        assert engine.query(query, optimize_query=True) == expected

    def test_optimizer_reports_static_pruning(self):
        from repro.optimize.optimizer import optimize

        result = optimize(
            parse("Name union (Var containing Proc)"), rig=figure_1_rig()
        )
        assert result.expression == A.NameRef("Name")
        assert "RIG static pruning" in result.steps
