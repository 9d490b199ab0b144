"""Tests for the store's snapshot: load takes byte-unchanged record files from
it, and anything else about it falls back to parsing, as if it were absent."""

import json
import os
import random

import pytest

from cerifrdf import store as store_module
from cerifrdf.cli import main
from cerifrdf.errors import FormatError
from cerifrdf.model import Person, RecordKey
from cerifrdf.rdfxml import RecordSet, parse_document
from cerifrdf.store import INDEX_FILE, SNAPSHOT_FILE, Store

import randgen
from test_store import (
    D,
    OTHER_NS,
    built_store,
    files_in,
    load_alike,
    load_outcome,
    prov,
    recorded_writes,
)


@pytest.fixture
def parses(monkeypatch) -> list[bytes]:
    """The bytes of each record file that later loads parse, in order."""
    parsed = []

    def counting_parse(data, **kwargs):
        parsed.append(data)
        return parse_document(data, **kwargs)

    monkeypatch.setattr(store_module, "parse_document", counting_parse)
    return parsed


def seeded_store(seed: int, flawed: bool) -> Store:
    """A store of a seeded random set whose records the writer accepts."""
    rng = random.Random(seed)
    rs = randgen.flawed_record_set(rng, 12) if flawed else randgen.rand_record_set(rng, 12)
    store = Store()
    store.merge(RecordSet({key: record for key, record in rs.records.items()
                           if not any(not rel.target
                                      for rel in getattr(record, "ou_relations", ()))},
                          rs.relations), prov("src", D(2001, 6, 6)))
    return store


def snapshot_lines(directory) -> list[bytes]:
    return (directory / SNAPSHOT_FILE).read_bytes().splitlines(keepends=True)


def test_a_load_after_a_save_parses_nothing(tmp_path, parses):
    store = built_store()
    store.save(tmp_path)
    loaded = Store.load(tmp_path)
    assert parses == []
    assert loaded.current == store.current
    assert loaded.relations == store.relations


@pytest.mark.parametrize("seed", range(6))
def test_seeded_stores_load_alike(tmp_path, seed):
    store = seeded_store(2000 + seed, flawed=seed % 2 == 1)
    store.save(tmp_path, cerif_ns=OTHER_NS)
    assert load_alike(tmp_path, OTHER_NS) == (store.current, store.relations)


def test_a_missing_snapshot_is_rebuilt_by_the_next_save(tmp_path, parses):
    built_store().save(tmp_path)
    (tmp_path / SNAPSHOT_FILE).unlink()
    store = Store.load(tmp_path)
    assert len(parses) == 3
    store.save(tmp_path)
    parses.clear()
    assert Store.load(tmp_path).current == store.current
    assert parses == []


def test_a_torn_snapshot_loads_alike(tmp_path):
    seeded_store(2101, flawed=True).save(tmp_path)
    whole = (tmp_path / SNAPSHOT_FILE).read_bytes()
    for end in sorted({0, 1, 10, 40, *range(50, len(whole), len(whole) // 23 + 1),
                       len(whole) - 1}):
        (tmp_path / SNAPSHOT_FILE).write_bytes(whole[:end])
        load_alike(tmp_path)


def test_a_snapshot_for_another_namespace_is_not_used(tmp_path, parses):
    built_store().save(tmp_path / "other", cerif_ns=OTHER_NS)
    built_store().save(tmp_path / "home")
    (tmp_path / "home" / SNAPSHOT_FILE).write_bytes(
        (tmp_path / "other" / SNAPSHOT_FILE).read_bytes())
    load_alike(tmp_path / "home")
    parses.clear()
    Store.load(tmp_path / "home")
    assert len(parses) == 3


def edited(line: bytes, edit) -> bytes:
    """*line* after edit(entry) of its JSON value."""
    entry = json.loads(line)
    edit(entry)
    return json.dumps(entry).encode() + b"\n"


def _set(path, value):
    """An edit that sets the item at *path* of a snapshot entry to *value*."""
    def edit(entry):
        for step in path[:-1]:
            entry = entry[step]
        entry[path[-1]] = value
    return edit


# edits of the person file's line that leave it unusable, each to a value of
# the wrong JSON type, of another digest or of a key not the file's own
PERSON_EDITS = [
    _set([1], 7),
    _set([1], "0" * 32),
    _set([2], "records"),
    _set([2, 0, 0], 7),
    _set([2, 0, 0], "widget"),
    _set([2, 0, 1], 273),
    _set([2, 0, 1], "274"),
    _set([2, 0, 2], []),
    _set([2, 0, 2], {"family_names": 7}),
    _set([2, 0, 2], {"id": "274"}),
    _set([2, 0, 2], {"sex_code": "M"}),
    _set([2, 0, 2], {"sex": ["M"]}),
    _set([3], [["orgunit", "TUWIEN", "person", "273", "employs", False]]),
    lambda entry: entry[2].append(entry[2][0]),
    lambda entry: entry[2].append(["orgunit", "TUWIEN", {}]),
    lambda entry: entry.append(None),
]
RELATIONS_EDITS = [
    _set([3, 0, 5], "false"),
    _set([3, 0], ["orgunit", "TUWIEN", "person", "273", "employs"]),
    _set([3, 0, 0], None),
    _set([2], [["person", "273", {"family_names": "Niedermayer"}]]),
]
ORGUNIT_EDITS = [
    _set([2, 0, 2, "names", 0, 1], "X"),
    _set([2, 0, 2, "names", 0], ["de", "O"]),
    _set([2, 0, 2, "names"], "TU Wien"),
]


def test_unusable_lines_load_alike(tmp_path, parses):
    built_store().save(tmp_path)
    header, relations, orgunit, person = snapshot_lines(tmp_path)
    variants = [
        *([header, relations, orgunit, edited(person, edit)] for edit in PERSON_EDITS),
        *([header, edited(relations, edit), orgunit, person] for edit in RELATIONS_EDITS),
        *([header, relations, edited(orgunit, edit), person] for edit in ORGUNIT_EDITS),
        *([header, relations, orgunit, bad, person] for bad in (
            b"\n", b"not json\n", b"[1, 2, 3, 4]\n", b'{"person.273.rdf": 1}\n',
            b"[" * 100_000 + b"\n", b"\xff\xfe\n")),
        [header, relations, person, orgunit],
        [header.replace(b"/1", b"/2"), relations, orgunit, person],
        [b"garbage\n", relations, orgunit, person],
    ]
    for lines in variants:
        (tmp_path / SNAPSHOT_FILE).write_bytes(b"".join(lines))
        parses.clear()
        load_alike(tmp_path)
        assert parses  # the file whose line is unusable was parsed


def test_an_edited_record_file_of_the_same_size_and_mtime_is_parsed(tmp_path):
    store = built_store()
    store.save(tmp_path)
    path = tmp_path / "person.273.rdf"
    stat = path.stat()
    path.write_bytes(path.read_bytes().replace(b"Niedermayer", b"Niedermeier"))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    current, _ = load_alike(tmp_path)
    assert current[RecordKey("person", "273")][0].family_names == "Niedermeier"


# an edit of a saved store, and the refusal it gives
REFUSALS = {
    "held twice": (lambda d: (d / "zz.rdf").write_bytes((d / "person.273.rdf").read_bytes()),
                   lambda d: "person:273 is held by two record files, person.273.rdf and "
                             "zz.rdf"),
    "unindexed": (lambda d: (d / INDEX_FILE).write_text(
                      "orgunit:TUWIEN\ttuwien\t06.06.2001\tper-object\n", "utf-8"),
                  lambda d: "person.273.rdf: no provenance index entry for person:273"),
    "no file": (lambda d: (d / "person.273.rdf").unlink(),
                lambda d: f"{d / INDEX_FILE}: no record file holds person:273; expected "
                          "person.273.rdf"),
}


@pytest.mark.parametrize("edit", REFUSALS)
def test_refusals_keep_their_messages_with_a_snapshot(tmp_path, edit):
    built_store().save(tmp_path)
    change, message = REFUSALS[edit]
    change(tmp_path)
    assert (tmp_path / SNAPSHOT_FILE).exists()
    assert load_alike(tmp_path) == (FormatError, message(tmp_path))


def test_a_hit_counts_as_unchanged(tmp_path, monkeypatch):
    # sex 'Q' is canonical on the wire but parses with a warning, which
    # marks the record changed; taken from the snapshot it is unchanged
    store = Store()
    store.merge(RecordSet({RecordKey("person", "1"): Person(id="1", family_names="A",
                                                             sex="Q")}),
                prov("src", D(2001, 6, 6)))
    store.save(tmp_path)
    written = recorded_writes(monkeypatch)
    Store.load(tmp_path).save(tmp_path)
    assert written == [INDEX_FILE]
    (tmp_path / SNAPSHOT_FILE).unlink()
    written.clear()
    Store.load(tmp_path).save(tmp_path)
    assert written == ["person.1.rdf", SNAPSHOT_FILE, INDEX_FILE]


def test_a_stale_snapshot_is_written_again(tmp_path, monkeypatch, parses):
    built_store().save(tmp_path)
    path = tmp_path / "person.273.rdf"
    path.write_bytes(path.read_bytes().replace(b"Niedermayer", b"Niedermeier"))
    store = Store.load(tmp_path)
    written = recorded_writes(monkeypatch)
    store.save(tmp_path)
    assert written == [SNAPSHOT_FILE, INDEX_FILE]
    parses.clear()
    assert Store.load(tmp_path).current == store.current
    assert parses == []


def test_an_api_record_loads_as_saved_only_while_the_snapshot_matches(tmp_path):
    # the reader collapses whitespace, so parsing the file normalizes the name
    padded = Person(id="1", family_names="  a   b ")
    store = Store()
    store.merge(RecordSet({padded.key: padded}), prov("src", D(2001, 6, 6)))
    store.save(tmp_path)
    key = RecordKey("person", "1")
    assert Store.load(tmp_path).current[key][0] == padded
    assert load_outcome(tmp_path, snapshot=False)[0][key][0].family_names == "a b"


def test_query_leaves_the_store_as_it_was(tmp_path, capsys):
    built_store().save(tmp_path)
    (tmp_path / "person.273.rdf").write_bytes(
        (tmp_path / "person.273.rdf").read_bytes().replace(b"Niedermayer", b"Niedermeier"))
    before = files_in(tmp_path)
    assert main(["query", "(?, family_names, ?)", "--store", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "person:273\tfamily_names\tNiedermeier\n"
    assert files_in(tmp_path) == before
