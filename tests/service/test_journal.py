"""Submission journal: ids, append, replay, torn tails, compaction."""

import json

import pytest

from repro.service import JOURNAL_SCHEMA, JournalError, SubmissionJournal


def submit(i: int = 1) -> dict:
    """The ``submit`` fields of a runnable submission."""
    return dict(name=f"scn-{i}", cluster="clu-1",
                scenario=json.dumps({"name": f"scn-{i}"}))


def lines_of(path):
    return [json.loads(line) for line in
            path.read_text().splitlines() if line.strip()]


def test_round_trip_submit_start_done(tmp_path):
    journal = SubmissionJournal(tmp_path / "j.jsonl")
    first = journal.acknowledge("hash-1", submit(1))
    second = journal.acknowledge("hash-2", submit(2))
    alias = journal.acknowledge("hash-1")
    assert (first, second, alias) == ("sub-000001", "sub-000002", "sub-000003")
    journal.record_start(first, attempt=1)
    journal.close()

    replayed = SubmissionJournal(tmp_path / "j.jsonl")
    incomplete = replayed.replay()
    assert [r["sub_id"] for r in incomplete] == [first, second]
    assert [r["attempts"] for r in incomplete] == [1, 0]
    # The scenario text rides in the journal: recovery needs no client.
    assert json.loads(incomplete[0]["scenario"]) == {"name": "scn-1"}
    assert incomplete[0]["cluster"] == "clu-1"
    # Every acknowledged id is indexed, the alias by its hash alone.
    assert replayed.index == {first: "hash-1", second: "hash-2",
                              alias: "hash-1"}
    assert replayed.next_id == 3
    assert replayed.acknowledge("hash-4") == "sub-000004"
    replayed.close()


def test_terminal_entries_are_not_incomplete(tmp_path):
    journal = SubmissionJournal(tmp_path / "j.jsonl")
    ids = [journal.acknowledge(f"hash-{i}", submit(i)) for i in (1, 2, 3)]
    alias = journal.acknowledge("hash-2")
    journal.record_start(ids[0], attempt=1)
    journal.record_done(ids[0])
    journal.record_failed([ids[1], alias], "boom")
    journal.close()

    replayed = SubmissionJournal(tmp_path / "j.jsonl")
    assert [r["sub_id"] for r in replayed.replay()] == [ids[2]]
    # A failure fails every sub-id that shared the run.
    assert replayed.errors == {ids[1]: "boom", alias: "boom"}


def test_torn_final_line_is_tolerated(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SubmissionJournal(path)
    sub = journal.acknowledge("hash-1", submit(1))
    journal.close()
    intact = path.read_bytes()
    with open(path, "a") as fh:
        fh.write('{"kind": "done", "sub_id": "sub-0000')  # crash mid-append

    journal = SubmissionJournal(path)
    assert [r["sub_id"] for r in journal.replay()] == [sub]
    # The next append cuts the torn bytes off first, so they never
    # become a corrupt middle line.
    journal.acknowledge("hash-2")
    journal.close()
    assert path.read_bytes().startswith(intact)
    assert [r["kind"] for r in lines_of(path)] == ["journal", "submit", "ack"]
    assert [r["sub_id"] for r in SubmissionJournal(path).replay()] == [sub]


def test_torn_middle_line_raises(tmp_path):
    journal = SubmissionJournal(tmp_path / "j.jsonl")
    journal.acknowledge("hash-1", submit(1))
    journal.close()
    text = (tmp_path / "j.jsonl").read_text()
    (tmp_path / "j.jsonl").write_text(
        text + '{"kind": "torn\n' + '{"kind": "done", "sub_id": "sub-000001"}\n'
    )
    with pytest.raises(JournalError, match="corrupt"):
        SubmissionJournal(tmp_path / "j.jsonl").replay()


def test_unknown_schema_raises(tmp_path):
    (tmp_path / "j.jsonl").write_text(
        json.dumps({"kind": "journal", "schema": JOURNAL_SCHEMA + 9}) + "\n"
    )
    with pytest.raises(JournalError, match="schema"):
        SubmissionJournal(tmp_path / "j.jsonl").replay()


def test_transition_for_unknown_submission_raises(tmp_path):
    journal = SubmissionJournal(tmp_path / "j.jsonl")
    journal.acknowledge("hash-1", submit(1))
    journal.close()
    with open(tmp_path / "j.jsonl", "a") as fh:
        fh.write(json.dumps({"kind": "done", "sub_id": "sub-000099"}) + "\n")
        fh.write(json.dumps({"kind": "done", "sub_id": "sub-000001"}) + "\n")
    with pytest.raises(JournalError, match="unknown submission"):
        SubmissionJournal(tmp_path / "j.jsonl").replay()


def test_missing_journal_is_empty_replay(tmp_path):
    journal = SubmissionJournal(tmp_path / "absent.jsonl")
    assert journal.replay() == []
    assert journal.next_id == 0 and journal.index == {}


def test_compacts_once_all_terminal(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SubmissionJournal(path)
    first = journal.acknowledge("hash-1", submit(1))
    second = journal.acknowledge("hash-2", submit(2))
    alias = journal.acknowledge("hash-1")
    journal.record_start(first, attempt=1)
    journal.record_done(first)
    assert journal.compactions == 0  # the second is still live
    journal.record_failed([second], "boom")
    assert journal.compactions == 1
    # One line: the id mark and the index, with the failure's error.
    assert lines_of(path) == [{
        "kind": "journal", "schema": JOURNAL_SCHEMA, "next_id": 3,
        "index": {first: "hash-1", second: "hash-2", alias: "hash-1"},
        "failed": {second: "boom"},
    }]
    # The journal keeps working after compaction, past the id mark.
    third = journal.acknowledge("hash-3", submit(3))
    assert third == "sub-000004"
    journal.close()
    replayed = SubmissionJournal(path)
    assert [r["sub_id"] for r in replayed.replay()] == [third]
    assert replayed.errors == {second: "boom"}
    assert set(replayed.index) == {first, second, alias, third}


def test_explicit_compact_keeps_live_entries(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SubmissionJournal(path)
    first = journal.acknowledge("hash-1", submit(1))
    second = journal.acknowledge("hash-2", submit(2))
    journal.record_start(second, attempt=2)
    journal.record_done(first)
    journal.compact()
    records = lines_of(path)
    assert [r["kind"] for r in records] == ["journal", "submit"]
    assert records[0]["index"] == {first: "hash-1"}
    assert records[1]["sub_id"] == second
    assert records[1]["attempts"] == 2  # carried by the compacted submit
    journal.close()
    incomplete = SubmissionJournal(path).replay()
    assert [(r["sub_id"], r["attempts"]) for r in incomplete] == [(second, 2)]


def test_in_memory_journal_allocates_without_a_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    journal = SubmissionJournal()
    sub = journal.acknowledge("hash-1", submit(1))
    journal.record_failed([sub], "boom")
    journal.compact()
    assert journal.replay() == []
    assert journal.acknowledge("hash-2") == "sub-000002"
    assert journal.errors == {sub: "boom"}
    assert list(tmp_path.iterdir()) == []


def test_default_journal_under_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    journal = SubmissionJournal.default()
    assert journal.path == tmp_path / "cache" / "service" / "journal.jsonl"
