"""Compressive MRF reconstruction at desk scale.

Signal simulation (EPG), dictionary + SVD subspace compression, a multi-coil
non-uniform Fourier acquisition operator with exact adjoint, proximal gradient
descent with dictionary-matching and learned proximal operators, synthetic
phantoms, metrics, and bit-exact file formats.
"""

import os

# Threaded BLAS/OpenMP reductions may sum in another order. The CLI imports
# this package before numpy loads, so pinning one thread keeps it reproducible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"

from .acquisition import (
    AcquisitionOperator,
    Trajectory,
    make_trajectory,
    simulate_coil_maps,
    truncate_acceleration,
)
from .dictionary import (
    DictionaryGrid,
    Subspace,
    build_dictionary,
    compress,
    compute_subspace,
    decompress,
    default_grid_values,
    dictionary_match,
)
from .epg import (
    SequenceParams,
    TissueParams,
    simulate_epg,
    simulate_epg_batch,
    simulate_isochromat_oracle,
    sinusoidal_flip_schedule,
)
from .maps import QMaps
from .phantom import (
    NoiseSpec,
    Phantom,
    make_phantom,
    mae,
    nrmse,
    phantom_tsmi,
    simulate_measurements,
)
from .recon import (
    PgdConfig,
    ReconTrace,
    backprojection_baseline,
    identity_prox,
    make_dictionary_prox,
    pgd_reconstruct,
)
