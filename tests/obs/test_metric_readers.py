"""Every metric family has a reader, and only families with one exist.

A family is kept because something outside the tests reads it: a
``repro top`` row, a CLI row, a CI assertion or a chaos report.  The
table below names that reader; a family with no entry must not exist,
and nothing in ``src/`` may register a name that is not one of them.
"""

import ast
from pathlib import Path

import repro
from repro.obs import metrics

PACKAGE = Path(repro.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[2]

DASHBOARD = "src/repro/server/dashboard.py"
CLI = "src/repro/engine/cli.py"
CHAOS = "src/repro/faults/chaos.py"
CI = ".github/workflows/ci.yml"

#: family constant -> the files that read it (repo-relative).
READERS = {
    "SERVER_REQUESTS_TOTAL": (DASHBOARD, CI),
    "SERVER_REQUEST_SECONDS": (DASHBOARD,),
    "SERVER_CACHE_HITS_TOTAL": (DASHBOARD,),
    "SERVER_CACHE_MISSES_TOTAL": (DASHBOARD,),
    "BACKEND_REQUESTS_TOTAL": (DASHBOARD, CHAOS),
    "INDEX_BUILD_SECONDS": (CLI,),
    "INDEX_REBUILDS_TOTAL": (CHAOS,),
    "BACKEND_FAILOVERS_TOTAL": (CHAOS,),
    "BACKEND_HEDGES_TOTAL": (CHAOS,),
    "FRONTIER_FALLBACK_TOTAL": (CHAOS,),
    "REPLICATION_BATCHES_SHIPPED_TOTAL": (CHAOS,),
    "REPLICATION_SHIP_FAILURES_TOTAL": (CHAOS,),
    "REPLICATION_DIVERGENCE_TOTAL": (CHAOS,),
    "REPLICATION_CATCHUPS_TOTAL": (CHAOS,),
}

REGISTRATIONS = {"counter", "gauge", "histogram"}


def _families() -> set[str]:
    return {
        name
        for name in metrics.__all__
        if name.isupper() and isinstance(getattr(metrics, name), str)
    }


def _registered_names() -> list[tuple[str, int, str]]:
    """``(file, line, first argument)`` of every ``.counter(``,
    ``.gauge(`` and ``.histogram(`` call in the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in REGISTRATIONS
            ):
                continue
            first = node.args[0] if node.args else None
            if isinstance(first, ast.Name):
                named = first.id
            elif isinstance(first, ast.Attribute):
                named = first.attr
            else:
                named = ast.dump(first) if first is not None else "(none)"
            found.append((str(path.relative_to(PACKAGE)), node.lineno, named))
    return found


def test_the_exported_families_are_the_table():
    assert _families() == set(READERS)


def test_each_family_is_named_in_its_readers():
    for constant, readers in READERS.items():
        value = getattr(metrics, constant)
        for reader in readers:
            text = (ROOT / reader).read_text(encoding="utf-8")
            assert value in text or constant in text, (constant, reader)


def test_every_registration_names_a_family_constant():
    found = _registered_names()
    assert found, "the scan found no registration at all"
    strays = [site for site in found if site[2] not in READERS]
    assert strays == []
