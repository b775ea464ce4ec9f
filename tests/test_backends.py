"""Which numerical core ``fracsmooth`` runs on.

There is one core, the NumPy kernels of ``_pykernels``; ``_backend.impl``
and ``backend_name`` name it for the benchmark in ``perfbench/``.
"""
from fracsmooth import _backend, backend_name
from fracsmooth import _pykernels as pyk


class TestSelection:
    def test_active_backend_is_named(self):
        assert backend_name() == "python"

    def test_module_names(self):
        assert _backend.impl is pyk
        assert _backend.impl.__name__ == "fracsmooth._pykernels"
