"""Compressive MRF reconstruction at desk scale.

Signal simulation (EPG), dictionary + SVD subspace compression, a multi-coil
non-uniform Fourier acquisition operator with exact adjoint, proximal gradient
descent with dictionary-matching and learned proximal operators, synthetic
phantoms, metrics, and bit-exact file formats. Import what you need from its
modules (`from mrfrecon.recon import pgd_reconstruct`); the package root holds
only `__version__`.
"""

import os

# Threaded BLAS/OpenMP reductions may sum in another order. The CLI imports
# this package before numpy loads, so pinning one thread keeps it reproducible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
