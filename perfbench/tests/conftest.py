import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(PERFBENCH.parent / "src"), str(PERFBENCH)]
for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(variable, "1")
