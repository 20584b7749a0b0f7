"""Make the benchmark's modules and the package under test importable.

The benchmark's scripts import each other by bare name (``from
accounting import ...``), as they do when run as ``python3
perfbench/run.py``; ``repro`` comes from the checkout's ``src``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
