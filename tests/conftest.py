import pytest

from fracsmooth import default_corpus, find_beta0, kernel, moduli


@pytest.fixture(scope="session")
def corpus_members():
    """The standard six-member (fid, TrigPoly) corpus."""
    return default_corpus()


@pytest.fixture(scope="session")
def beta0_record():
    """The first pathological pair, refined once per session."""
    return find_beta0()


@pytest.fixture
def table_builds(monkeypatch):
    """The panel count of every ``kernel._build_panels`` call from here
    on, in order."""
    builds = []
    inner = kernel._build_panels

    def counting(beta, edges):
        builds.append(edges.size - 1)
        return inner(beta, edges)

    monkeypatch.setattr(kernel, "_build_panels", counting)
    return builds


@pytest.fixture
def counting(monkeypatch):
    """``counting(module, name)`` replaces ``module.<name>`` by a wrapper
    and returns the list of the arguments of its calls from here on."""
    def count(module, name):
        calls = []
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls
    return count


@pytest.fixture
def cold_memos():
    """Clears every ``moduli`` memo now and after the test, and returns
    the function that clears them, for a test that clears between calls."""
    def clear():
        with moduli._NORMS_LOCK:
            moduli._NORMS.clear()
        moduli._psi_symbol.cache_clear()

    clear()
    yield clear
    clear()
