"""Pin BLAS to one thread for the test session.

The pipeline alternates threaded and unthreaded BLAS calls on small
matrices, which runs two to three times slower than one thread on small
hosts.  pytest loads this root conftest before any test module imports
numpy, so the setting takes effect in-process; subprocess tests inherit
it.  ``setdefault`` keeps a caller's own setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
