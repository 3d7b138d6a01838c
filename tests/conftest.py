"""Suite-wide settings, applied before any test module imports numpy."""

import os

# one BLAS thread, as the benchmark runs: the window form's dense products
# are large enough for OpenBLAS to thread, which spends more CPU for no
# faster test
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
