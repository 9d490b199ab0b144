"""Tests for the store's snapshot: load takes byte-unchanged record files from
it, and anything else about it falls back to parsing, as if it were absent.
A record taken from it stays undecoded until it is used, and using it, or
finding it unusable then, gives what a load that parsed its file gives."""

import json
import os
import random
import re

import pytest

from cerifrdf import model, snapshot
from cerifrdf import store as store_module
from cerifrdf.cli import main
from cerifrdf.errors import FormatError, InvariantViolation
from cerifrdf.model import (OrgUnit, Person, RecordKey, Relation, TranslatedText,
                            TranslationType)
from cerifrdf.rdfxml import CERIF_NS, RecordSet, parse_document, serialize_document
from cerifrdf.store import INDEX_FILE, SNAPSHOT_FILE, Store, TriplePattern

import randgen
from test_store import (
    D,
    OTHER_NS,
    built_store,
    files_in,
    load_alike,
    load_outcome,
    load_without_snapshot,
    one_person,
    prov,
    recorded_writes,
    versioned_batches,
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


def unusable_variants(directory) -> list[list[bytes]]:
    """Snapshots of the saved built_store() in *directory*, each with a line
    or the header made unusable."""
    header, relations, orgunit, person = snapshot_lines(directory)
    return [
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


def test_unusable_lines_load_alike(tmp_path, parses):
    built_store().save(tmp_path)
    for lines in unusable_variants(tmp_path):
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


def same_day_orgunit() -> RecordSet:
    rs = RecordSet()
    rs.add(OrgUnit(id="TUWIEN",
                   names=(TranslatedText("de", TranslationType.ORIGINAL, "TU Wien"),)))
    return rs


# merges into built_store(): a newer version, equal content from the same
# source on the same day (a tie), and an older version, which loses
MERGES = [(one_person("Changed"), prov("tuwien", D(2001, 6, 7))),
          (same_day_orgunit(), prov("tuwien", D(2001, 6, 6))),
          (one_person("Older"), prov("tuwien", D(2001, 6, 5)))]


def test_unusable_lines_answer_and_merge_alike(tmp_path):
    built_store().save(tmp_path)
    patterns = [TriplePattern(), TriplePattern("273"), TriplePattern(None, "name")]
    for lines in unusable_variants(tmp_path):
        (tmp_path / SNAPSHOT_FILE).write_bytes(b"".join(lines))
        parsed = load_without_snapshot(tmp_path)
        taken = Store.load(tmp_path)
        for pattern in patterns:  # the first query flattens the held lines
            assert taken.query(pattern) == parsed.query(pattern)
        assert (taken.current, taken.relations) == (parsed.current, parsed.relations)
        for rs, p in MERGES:
            parsed, taken = load_without_snapshot(tmp_path), Store.load(tmp_path)
            assert taken.merge(rs, p) == parsed.merge(rs, p)
            assert (taken.current, taken.relations) == (parsed.current, parsed.relations)
            assert taken.to_triples() == parsed.to_triples()


MISTYPED_PERSON = _set([2, 0, 2], {"family_names": 7})


@pytest.mark.parametrize("use", ["current", "query", "merge"])
def test_a_file_rewritten_after_load_is_refused_when_its_line_proves_unusable(
        tmp_path, use):
    built_store().save(tmp_path)
    header, relations, orgunit, person = snapshot_lines(tmp_path)
    (tmp_path / SNAPSHOT_FILE).write_bytes(
        b"".join([header, relations, orgunit, edited(person, MISTYPED_PERSON)]))
    store = Store.load(tmp_path)
    path = tmp_path / "person.273.rdf"
    path.write_bytes(path.read_bytes().replace(b"Niedermayer", b"Niedermeier"))
    with pytest.raises(FormatError,
                       match=f"^{re.escape(str(path))}: changed since the store was loaded$"):
        if use == "current":
            store.current[RecordKey("person", "273")]
        elif use == "query":
            store.query(TriplePattern("273"))
        else:  # the org unit, newer too, sorts before the person
            both = one_person("Changed")
            both.records.update(same_day_orgunit().records)
            store.merge(both, prov("tuwien", D(2001, 6, 7)))
    # a merge that raises changes nothing; a key whose line is usable decodes
    assert store.current[RecordKey("orgunit", "TUWIEN")][1].fetched == D(2001, 6, 6)


@pytest.mark.parametrize("seed", range(8))
def test_reading_every_record_after_each_load_changes_no_saved_byte(tmp_path, seed):
    def cycle(read_all: bool):
        rng, ns = random.Random(3000 + seed), CERIF_NS
        directory, store = tmp_path / f"read_all={read_all}", Store()
        for n, (rs, p) in enumerate(versioned_batches(rng, flawed=seed % 2 == 1, count=9)):
            store.merge(rs, p)
            if n % 3 == 2:  # a save under another namespace writes every file
                ns = OTHER_NS if ns == CERIF_NS else CERIF_NS
            try:
                store.save(directory, cerif_ns=ns)
            except InvariantViolation:  # a flawed record the writer refuses
                continue
            store, saved_ns = Store.load(directory, cerif_ns=ns), ns
            if read_all:
                dict(store.current)
        return directory, saved_ns

    (lazy, ns), (read, read_ns) = cycle(False), cycle(True)
    assert ns == read_ns
    assert files_in(lazy) == files_in(read)
    assert load_outcome(lazy, ns) == load_outcome(read, ns)
    assert isinstance(load_outcome(lazy, ns)[0], dict)


@pytest.mark.parametrize("seed", range(20))
def test_a_decoded_line_encodes_to_the_bytes_it_was_read_from(tmp_path, seed):
    seeded_store(2200 + seed, flawed=seed % 2 == 1).save(tmp_path)
    _, *lines = snapshot_lines(tmp_path)
    assert lines
    for line in lines:
        name, digest, rows, relation_rows = json.loads(line)
        held = [(RecordKey(kind, ident), values) for kind, ident, values in rows]
        decoded = [(key, snapshot.decode_record(key, values)) for key, values in held]
        relations = snapshot.CODECS["relations"][1](relation_rows)
        for records in (held, decoded):
            _, again = snapshot.snapshot_lines(
                CERIF_NS, [(name, bytes.fromhex(digest), records, relations)])
            assert again.encode() == line


def test_a_query_on_a_saved_store_builds_no_record_and_parses_no_file(
        tmp_path, monkeypatch, parses, capsys):
    seeded_store(2301, flawed=False).save(tmp_path)
    built = []
    post_init = model.Record.__post_init__

    def counting_post_init(record):
        built.append(record.key)
        post_init(record)

    monkeypatch.setattr(model.Record, "__post_init__", counting_post_init)
    assert main(["query", "(?, ?, ?)", "--store", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("\n") > 12
    assert (built, parses) == ([], [])
    # the guard counts: reading a record builds one
    loaded = Store.load(tmp_path)
    loaded.current[min(loaded.current)]
    assert len(built) == 1 and parses == []


def json_paths(value, path=()):
    """The path of every item inside the JSON value *value*."""
    items = (enumerate(value) if isinstance(value, list)
             else value.items() if isinstance(value, dict) else ())
    for step, item in items:
        yield path + (step,)
        yield from json_paths(item, path + (step,))


def replaced(values: dict, path: tuple, new) -> dict:
    """A copy of *values* with the item at *path* replaced by *new*."""
    copy = json.loads(json.dumps(values))
    target = copy
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = new
    return copy


# each a wrong type somewhere, a default value, an unknown code or a value
# of another shape
REPLACEMENTS = [7, 2.5, None, True, "", "x", "Q", "Execution", [], ["x"], [None],
                [[]], {}, [2001, 6, None], [2001, 2, 30], ["de", "O", "x"]]


@pytest.mark.parametrize("seed", range(8))
def test_flattening_held_values_accepts_exactly_what_decoding_accepts(seed):
    rng = random.Random(2400 + seed)
    make = randgen.flawed_record_set if seed % 2 else randgen.rand_record_set
    records = {key: record for _ in range(4) for key, record in make(rng, 6).records.items()}
    refused = 0
    for key, record in records.items():
        values = snapshot.record_values(record)
        mutants = [{**values, "id": key.id}, {**values, "bogus": "x"}]
        mutants += [replaced(values, path, new) for path in json_paths(values)
                    for new in REPLACEMENTS]
        for mutant in mutants:
            try:
                decoded = snapshot.decode_record(key, mutant)
            except snapshot.UNREADABLE:
                refused += 1
                with pytest.raises(snapshot.UNREADABLE):
                    store_module._record_triples(key, mutant)
            else:
                assert (sorted(store_module._record_triples(key, mutant))
                        == sorted(store_module._record_triples(
                            key, snapshot.record_values(decoded)))), mutant
    assert refused > 50


@pytest.mark.parametrize("oddity", ["warning", "relation"])
def test_a_line_that_proves_unusable_leaves_what_a_parse_leaves(tmp_path, monkeypatch,
                                                                 oddity):
    # the person's file parses with a warning (sex 'Q'), or holds a
    # document relation too; its line names the file's digest but holds a
    # mistyped value, which only a use of the record finds
    store = built_store()
    person = Person(id="273", family_names="Niedermayer",
                    sex="Q" if oddity == "warning" else None)
    store.merge(RecordSet({person.key: person}), prov("tuwien", D(2001, 6, 7)))
    store.save(tmp_path)
    path = tmp_path / "person.273.rdf"
    if oddity == "relation":
        path.write_text(serialize_document(RecordSet(
            {person.key: person},
            [Relation(person.key, RecordKey("orgunit", "TUWIEN"), role="member")])), "utf-8")
    header, relations, orgunit, line = snapshot_lines(tmp_path)
    line = edited(edited(line, _set([1], snapshot.file_digest(path.read_bytes()).hex())),
                  MISTYPED_PERSON)
    (tmp_path / SNAPSHOT_FILE).write_bytes(b"".join([header, relations, orgunit, line]))
    tampered = files_in(tmp_path)
    saves = {}
    for use in ("query", "current", "parse"):
        for name, data in tampered.items():
            (tmp_path / name).write_bytes(data)
        loaded = load_without_snapshot(tmp_path) if use == "parse" else Store.load(tmp_path)
        triples = loaded.to_triples()  # before any record is read, for "query"
        outcome = (dict(loaded.current), loaded.relations, triples)
        with monkeypatch.context() as patch:
            written = recorded_writes(patch)
            loaded.save(tmp_path)
        saves[use] = (outcome, written, files_in(tmp_path))
    assert saves["query"] == saves["current"] == saves["parse"]
    assert "person.273.rdf" in saves["parse"][1]
