import pathlib

import pytest

from repro.config import GB, default_cluster
from repro.core import PolicySpec
from repro.scenario import single_app

EXAMPLES = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "scenarios"
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the result store's cache root at a throwaway directory so
    tests never touch ``~/.cache``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield tmp_path / "cache"


@pytest.fixture
def tiny_scenario():
    """A fast single-app run (1/2048 scale, ~centiseconds of work)."""
    def build(seed: int = 20160531, name: str = "tiny"):
        config = default_cluster(scale=1.0 / 2048, seed=seed)
        return single_app(
            config, PolicySpec.native(), "teravalidate",
            name=name, params={"input_path": "/in/x"},
            preloads=(("/in/x", 25 * GB),), max_cores=48,
        )
    return build
