"""Import the program under test from the checkout's ``src``.

Importing this module loads everything the workloads use before
their timed part, including the lane engine's lazy NumPy import.
``run.py`` imports it once; running it as a script in a fresh
interpreter times the import part of set-up.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro.batch  # noqa: E402,F401
import repro.evaluation.matrix  # noqa: E402,F401
import repro.experiment  # noqa: E402,F401
import repro.service  # noqa: E402,F401
from repro.batch.lanes import make_ops  # noqa: E402

make_ops()
