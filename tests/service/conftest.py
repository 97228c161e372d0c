import pathlib

import pytest

from repro.config import GB, default_cluster
from repro.core import PolicySpec
from repro.execution import ResultStore
from repro.scenario import single_app
from repro.service import SchedulerService, ServiceClient

EXAMPLES = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "scenarios"
)

#: Every test service binds a free local port; clients connect to the
#: bound ``service.address``.
ANY_PORT = "tcp://127.0.0.1:0"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
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


@pytest.fixture
def service(tmp_path):
    """A started scheduler (warm single thread, persistent store) plus a
    factory for clients against it; everything torn down afterwards."""
    svc = SchedulerService(store=ResultStore(tmp_path / "results"))
    svc.start(ANY_PORT)
    clients = []

    def client() -> ServiceClient:
        c = ServiceClient(svc.address)
        clients.append(c)
        return c

    svc.client = client
    yield svc
    for c in clients:
        c.close()
    svc.stop()
