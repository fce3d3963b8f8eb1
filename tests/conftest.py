"""Import hdris before any test module imports numpy.

Importing the package defaults BLAS to one thread per process, but BLAS
reads that setting only when numpy is first imported, and the test modules
import numpy first.  Without it every forked sweep worker would also start
BLAS threads and oversubscribe the CPUs.
"""

import hdris  # noqa: F401
