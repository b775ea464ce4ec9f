"""Package metadata: the version has one source, ``fracsmooth.__version__``;
and the layout of the tests: no test module imports another, and the
shared mpmath oracles share no code with the library."""
import ast
import pathlib
import warnings

import pytest

import fracsmooth

TESTS = pathlib.Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def test_pyproject_reads_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # older setuptools flag [tool.setuptools] as a beta feature
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(PYPROJECT)
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == fracsmooth.__version__


def imported(path):
    """The top-level names of the modules that the file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_test_module_imports_another():
    # shared helpers live in conftest.py (fixtures) and mpmath_oracles.py
    tests = {path.stem for path in TESTS.glob("test_*.py")}
    for path in TESTS.glob("*.py"):
        assert not imported(path) & tests, path.name


def test_oracles_import_nothing_from_the_library():
    assert "fracsmooth" not in imported(TESTS / "mpmath_oracles.py")
