import pytest


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path_factory, monkeypatch):
    """Keep the result store out of ``~/.cache`` — the scenario CLI
    hits it by default."""
    root = tmp_path_factory.mktemp("repro-cache")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    yield root
