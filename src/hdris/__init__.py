"""hdris: rank-one tensor channel estimation benchmarks for RIS-assisted
MIMO links.

The package follows the pilot-processing chain end to end: geometric
rank-one channels (:mod:`hdris.channel`), a DFT training design
(:mod:`hdris.training`), matched filtering plus three estimators
(:mod:`hdris.estimators`) built on generic multiway-array operations
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

from .channel import (
    ChannelParams,
    ChannelRealization,
    SystemDims,
    build_channels,
    sample_params,
    spatial_frequencies,
    steering_1d,
    steering_2d,
)
from .estimators import (
    EstimateSet,
    ObservationTensor,
    PermutationPlan,
    build_permutations,
    extract_spatial_frequency,
    hdr_estimate,
    ideal_estimate,
    krf_estimate,
    ls_estimate,
    matched_filter,
    simulate_observation,
)
from .flopcount import FlopCounter, counted_matmul
from .metrics import (
    TrialMetrics,
    flops_analytic,
    flops_measured,
    ideal_spectral_efficiency,
    nmse,
    spectral_efficiency,
)
from .simulate import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    default_config,
    load_config,
    run_complexity_sweep,
    run_nmse_sweep,
    run_se_sweep,
    write_csv,
)
from .tensors import (
    ComplexTensor,
    RankOneFactors,
    dominant_left_singular_vector,
    fold,
    hadamard,
    hosvd_rank1,
    identity_tensor,
    khatri_rao,
    kron,
    n_mode_product,
    reshape,
    tensorize,
    unfold,
    unvec,
    vec,
)
from .training import (
    TrainingDesign,
    TrainingInfeasibleError,
    TrainingReport,
    make_training,
    validate_training,
)

__version__ = "0.1.0"
