"""Fault injection through the compiled path (the ``vm.kernel`` point).

The chaos harness (repro chaos) relies on two properties checked here:
the VM traverses ``vm.kernel`` and ``evaluator.step`` once per
instruction, so injected fault budgets are per executed operator; and
latency injection never changes results (zero divergence against the
oracle tree walk, which traverses no fault point at all).
"""

import pytest

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator
from repro.errors import FaultInjected
from repro.faults.registry import FAULT_POINTS, FaultSpec, injected_faults
from repro.obs.metrics import MetricsRegistry
from repro.workloads.generators import random_instance

SHARED = A.Union(
    A.IncludedIn(A.NameRef("R0"), A.NameRef("R1")),
    A.IncludedIn(A.NameRef("R0"), A.NameRef("R1")),
)


@pytest.fixture(scope="module")
def instance():
    import random

    return random_instance(
        random.Random(55), ("R0", "R1", "R2"), max_nodes=50, patterns=("x",)
    )


def test_vm_kernel_is_a_registered_point():
    assert "vm.kernel" in FAULT_POINTS


def test_error_mode_aborts_compiled_execution(instance):
    ev = Evaluator("indexed")
    with injected_faults(
        FaultSpec("vm.kernel", "error"), metrics=MetricsRegistry()
    ) as registry:
        with pytest.raises(FaultInjected):
            ev.evaluate(SHARED, instance)
        assert registry.fires(point="vm.kernel", mode="error") == 1


def test_interpreter_never_traverses_vm_kernel(instance):
    # The oracle tree walk carries the deadline check and nothing else:
    # always-fire specs on both evaluation points are inert for it.
    ev = Evaluator("naive")
    expected = ev.evaluate(SHARED, instance)
    with injected_faults(
        FaultSpec("vm.kernel", "error"),
        FaultSpec("evaluator.step", "error"),
        metrics=MetricsRegistry(),
    ) as registry:
        assert ev.evaluate(SHARED, instance) == expected
        assert registry.fires() == 0


def test_latency_mode_zero_divergence(instance):
    oracle = Evaluator("naive").evaluate(SHARED, instance)
    ev = Evaluator("indexed")
    with injected_faults(
        FaultSpec("vm.kernel", "latency", latency=0.0),
        metrics=MetricsRegistry(),
    ) as registry:
        got = ev.evaluate(SHARED, instance)
        assert registry.fires(point="vm.kernel", mode="latency") == 4
    assert list(got) == list(oracle)


def test_evaluator_step_parity_with_interpreter(instance):
    # Chaos arms evaluator.step per evaluated operator: the VM traverses
    # it once per compiled instruction — what a memoizing tree walk
    # dispatches (4 with the shared subtree, 7 without CSE).
    def count_steps(evaluator):
        with injected_faults(
            FaultSpec("evaluator.step", "latency", latency=0.0),
            metrics=MetricsRegistry(),
        ) as registry:
            evaluator.evaluate(SHARED, instance)
            return registry.fires(point="evaluator.step")

    assert count_steps(Evaluator("indexed")) == 4
    assert count_steps(Evaluator("indexed", memoize=False)) == 7


def test_error_spec_with_budget_then_clean_run(instance):
    # After the injected budget is spent the compiled path recovers.
    ev = Evaluator("indexed")
    oracle = Evaluator("naive").evaluate(SHARED, instance)
    with injected_faults(
        FaultSpec("vm.kernel", "error", max_fires=1),
        metrics=MetricsRegistry(),
    ):
        with pytest.raises(FaultInjected):
            ev.evaluate(SHARED, instance)
        assert list(ev.evaluate(SHARED, instance)) == list(oracle)
