"""Top-level package surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest


class TestPackage:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_lazy_engine_attribute(self):
        import repro

        assert repro.Engine.__name__ == "Engine"

    def test_unknown_attribute(self):
        import repro

        with pytest.raises(AttributeError, match="no attribute"):
            repro.nope

    def test_star_surface(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_workflow_from_top_level(self):
        from repro import Engine, evaluate, parse, to_text

        engine = Engine.from_tagged_text("<a><b> hi </b></a>")
        expr = parse("b within a")
        assert to_text(expr) == "b within a"
        assert evaluate(expr, engine.instance) == engine.query("b within a")

    def test_serving_stack_does_not_import_networkx(self, tmp_path):
        # networkx is only for RegionInclusionGraph.as_networkx and the
        # Prop. 6.1 minimum cut; a server process never loads it.
        play = tmp_path / "play.xml"
        play.write_text("<play><act><line> It is the east </line></act></play>")
        script = (
            "import sys\n"
            "import repro.server.http\n"
            "from repro.server import CorpusSpec, QueryService, ServerConfig\n"
            f"spec = CorpusSpec(name='play', kind='tagged', path={str(play)!r})\n"
            "service = QueryService(ServerConfig(corpora=(spec,)))\n"
            "assert service.execute('line within act')['cardinality'] == 1\n"
            "service.close()\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        path = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
