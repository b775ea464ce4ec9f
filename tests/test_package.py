"""Package metadata: the version has one source, ``fracsmooth.__version__``."""
import pathlib
import warnings

import pytest

import fracsmooth

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_reads_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # older setuptools flag [tool.setuptools] as a beta feature
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(PYPROJECT)
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == fracsmooth.__version__
