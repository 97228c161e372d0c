"""ResultStore: persistence, atomicity, schema versioning, eviction."""

import json
import os

import pytest

from repro.execution import RESULT_SCHEMA, ResultStore, ResultStoreError
from repro.execution.atomic import atomic_write_json
from repro.scenario import run_scenario


@pytest.fixture
def manifest(tiny_scenario):
    return run_scenario(tiny_scenario())


def test_put_get_round_trip(tmp_path, manifest):
    store = ResultStore(tmp_path / "results")
    assert store.get(manifest.scenario_hash) is None
    assert store.misses == 1
    path = store.put(manifest)
    assert path.is_file()
    again = store.get(manifest.scenario_hash)
    assert store.hits == 1
    assert again.to_json() == manifest.to_json()
    assert again.metrics_hash() == manifest.metrics_hash()
    assert manifest.scenario_hash in store
    assert list(store.keys()) == [manifest.scenario_hash]
    assert len(store) == 1


def test_corrupt_entry_is_a_counted_miss(tmp_path, manifest):
    """Corruption is a miss (the run re-executes) but no longer a
    *silent* one: the ``corrupt`` counter records it."""
    store = ResultStore(tmp_path)
    store.put(manifest)
    store.path_for(manifest.scenario_hash).write_text("{torn")
    assert store.get(manifest.scenario_hash) is None
    assert store.misses == 1 and store.corrupt == 1
    # A plain absent entry is a miss but not a corruption.
    assert store.get("no-such-hash") is None
    assert store.misses == 2 and store.corrupt == 1


def test_unknown_schema_raises_with_keys(tmp_path, manifest):
    store = ResultStore(tmp_path)
    path = store.put(manifest)
    data = json.loads(path.read_text())
    data["schema"] = RESULT_SCHEMA + 99
    path.write_text(json.dumps(data))
    with pytest.raises(ResultStoreError) as err:
        store.get(manifest.scenario_hash)
    msg = str(err.value)
    assert str(RESULT_SCHEMA + 99) in msg
    assert "manifest" in msg and "schema" in msg  # the entry's keys
    assert str(store.root) in msg


def test_missing_schema_field_raises(tmp_path, manifest):
    store = ResultStore(tmp_path)
    path = store.put(manifest)
    path.write_text(json.dumps({"manifest": manifest.to_dict()}))
    with pytest.raises(ResultStoreError) as err:
        store.get(manifest.scenario_hash)
    assert "None" in str(err.value)


def test_discard(tmp_path, manifest):
    store = ResultStore(tmp_path)
    store.put(manifest)
    assert store.discard(manifest.scenario_hash)
    assert not store.discard(manifest.scenario_hash)
    assert manifest.scenario_hash not in store


def test_default_store_under_cache_dir(isolated_cache):
    store = ResultStore.default()
    assert store.root == isolated_cache / "results"


def _fake_entry(store, name, size, mtime):
    path = store.path_for(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("x" * size)
    os.utime(path, (mtime, mtime))
    return path


def test_entries_and_size(tmp_path):
    store = ResultStore(tmp_path)
    assert store.entries() == [] and store.size_bytes() == 0
    _fake_entry(store, "b", size=10, mtime=200)
    _fake_entry(store, "a", size=30, mtime=100)
    assert [(h, s) for h, _m, s in store.entries()] == [("a", 30), ("b", 10)]
    assert store.size_bytes() == 40


def test_evict_lru_by_bytes(tmp_path):
    store = ResultStore(tmp_path)
    for i, mtime in enumerate((100, 300, 200)):
        _fake_entry(store, f"h{i}", size=100, mtime=mtime)
    report = store.evict(max_bytes=250)
    # Oldest first: h0 (mtime 100) goes, h2 + h1 (250 > 200) stay.
    assert report.removed == ["h0"]
    assert report.freed_bytes == 100
    assert report.kept_entries == 2 and report.kept_bytes == 200
    assert "h0" not in store and "h1" in store and "h2" in store


def test_evict_by_entry_count_and_dry_run(tmp_path):
    store = ResultStore(tmp_path)
    for i in range(4):
        _fake_entry(store, f"h{i}", size=10, mtime=100 + i)
    dry = store.evict(max_entries=1, dry_run=True)
    assert dry.removed == ["h0", "h1", "h2"] and dry.dry_run
    assert len(store) == 4  # nothing actually deleted
    wet = store.evict(max_entries=1)
    assert wet.removed == ["h0", "h1", "h2"]
    assert list(store.keys()) == ["h3"]


def test_evict_without_budget_is_a_noop(tmp_path):
    store = ResultStore(tmp_path)
    _fake_entry(store, "h0", size=10, mtime=100)
    report = store.evict()
    assert report.removed == [] and len(store) == 1


def test_get_refreshes_mtime_for_lru(tmp_path, manifest):
    """A *read* keeps an entry warm: eviction is least-recently-used,
    not least-recently-written."""
    store = ResultStore(tmp_path)
    path = store.put(manifest)
    os.utime(path, (100, 100))
    _fake_entry(store, "cold", size=10, mtime=200)
    assert store.get(manifest.scenario_hash) is not None  # touches mtime
    assert path.stat().st_mtime > 200
    report = store.evict(max_entries=1)
    assert report.removed == ["cold"]
    assert manifest.scenario_hash in store


def test_atomic_write_fsyncs_file_and_directory(tmp_path, monkeypatch):
    """Satellite contract: the rename is made durable — the file is
    fsynced before publication and the containing directory after."""
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
    )
    target = tmp_path / "sub" / "entry.json"
    atomic_write_json(target, {"a": 1})
    assert len(synced) >= 2  # temp file + containing directory
    from repro.execution.atomic import fsync_dir

    synced.clear()
    fsync_dir(tmp_path / "sub")
    assert len(synced) == 1
    fsync_dir(tmp_path / "missing")  # best-effort: no raise


def test_atomic_write_leaves_no_temp_debris(tmp_path):
    target = tmp_path / "deep" / "entry.json"
    atomic_write_json(target, {"a": 1})
    assert json.loads(target.read_text()) == {"a": 1}
    # Unserialisable payload: write fails, temp file cleaned up, the
    # previous published value untouched.
    with pytest.raises(TypeError):
        atomic_write_json(target, {"bad": object()})
    assert json.loads(target.read_text()) == {"a": 1}
    assert list(target.parent.iterdir()) == [target]


def test_atomic_write_concurrent_writers_never_torn(tmp_path):
    """Concurrent writers race benignly: every observable state of the
    file is one writer's complete document."""
    import threading

    target = tmp_path / "entry.json"
    payloads = [{"writer": i, "blob": "x" * 4096} for i in range(8)]
    stop = threading.Event()
    torn: list[Exception] = []

    def reader():
        while not stop.is_set():
            try:
                data = json.loads(target.read_text())
                assert data["blob"] == "x" * 4096
            except FileNotFoundError:
                continue
            except (ValueError, AssertionError) as exc:  # pragma: no cover
                torn.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    writers = [
        threading.Thread(
            target=lambda p=p: [atomic_write_json(target, p)
                                for _ in range(20)]
        )
        for p in payloads
    ]
    for w in writers:
        w.start()
    for w in writers:
        w.join()
    stop.set()
    for t in threads:
        t.join()
    assert not torn
    assert json.loads(target.read_text())["writer"] in range(8)
