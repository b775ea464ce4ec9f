"""The module the benchmark binds its primitive span to.

Nothing in the library calls ``_pykernels``; the package imports this
module only to export ``backend_name``.  Both remain only because the benchmark in ``perfbench/``
traces ``gk15_panels`` through ``fracsmooth._backend.impl`` and records
``fracsmooth.backend_name()``.  ``impl`` is the module object of
``_pykernels`` itself.  ``gk15_panels`` stays for that benchmark span
alone; the benchmark's own change listed in ROADMAP.md deletes it, the
last Gauss-Kronrod code, together with this module and ``backend_name``.
"""
from . import _pykernels as impl


def backend_name():
    """Name of the numerical core; always ``'python'``."""
    return "python"
