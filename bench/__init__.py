"""The repo's one benchmark (see ``bench/README.md``).

Run it from a checkout root with ``python3 -m bench.run``.  The program
under test is imported from ``src/`` of the same checkout, so the
benchmark measures the code it sits next to and needs no install.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
