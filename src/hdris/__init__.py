"""hdris: rank-one tensor channel estimation benchmarks for RIS-assisted
MIMO links.

The package follows the pilot-processing chain end to end: geometric
rank-one channels (:mod:`hdris.channel`), a DFT training design
(:mod:`hdris.training`), matched filtering plus the estimator table
``ESTIMATORS`` (:mod:`hdris.estimators`) built on multiway-array operations
(:mod:`hdris.tensors`), scored by :mod:`hdris.metrics` and swept by
:mod:`hdris.simulate` / the ``hdris`` command line.

Importing the package holds BLAS to one thread per process unless the
environment already says otherwise: the sweeps parallelise over worker
processes, and BLAS threads on top of them only oversubscribe the CPUs
for the small matrices used here.  BLAS reads these variables when numpy
is first imported, so import hdris before numpy (as ``python -m
hdris.cli`` does) or export them yourself.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .channel import SystemDims, build_channels, sample_params
from .estimators import (
    ESTIMATORS,
    hdr_estimate,
    krf_estimate,
    ls_estimate,
    matched_filter,
    simulate_observation,
)
from .metrics import flops_analytic, ideal_spectral_efficiency, nmse, spectral_efficiency
from .simulate import (
    ExperimentConfig,
    flops_measured,
    load_config,
    run_complexity_sweep,
    run_nmse_sweep,
    run_se_sweep,
    write_csv,
)
from .training import make_training

__version__ = "0.1.0"
