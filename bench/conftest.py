import sys
from pathlib import Path

import blas

# as in run.py: one BLAS thread, set before numpy is first imported
blas.pin()

# the benchmark imports the library from the source tree, as run.py does
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
