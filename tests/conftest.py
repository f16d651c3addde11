"""Import the package before any test module imports numpy, so that its
default of one BLAS thread (``wavebound/__init__.py``) holds for the
suite as it does for the command line.  BLAS reads the thread count once,
when numpy loads it; on a small machine several BLAS threads per dense
kernel of this size run many times slower than one."""

import wavebound  # noqa: F401
