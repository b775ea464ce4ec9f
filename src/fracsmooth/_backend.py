"""The numerical core: the NumPy kernels of ``_pykernels``.

There is one core.  This module and ``backend_name`` remain only because
the benchmark in ``perfbench/`` binds the primitives through
``fracsmooth._backend.impl`` and records ``fracsmooth.backend_name()``;
removing them is a change to the benchmark, made on its own.
"""
from . import _pykernels as impl


def backend_name():
    """Name of the numerical core; always ``'python'``."""
    return "python"
