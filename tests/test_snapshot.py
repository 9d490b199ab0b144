"""Tests for the store's snapshot: load takes byte-unchanged record files from
it, and a snapshot without a matching seal is ignored whole, as if it were
absent.  A record taken from it stays undecoded until it is used, and using
it gives what a load that parsed its file gives; a sealed value that does
not decode was forged, and its use is refused without parsing any file."""

import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

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
from conftest import cli_env
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


@pytest.fixture
def reads(monkeypatch) -> list[bytes]:
    """The bytes of each record file that later loads read."""
    read = []
    read_open = store_module._read_open

    def counting_read(fd, size):
        read.append(read_open(fd, size))
        return read[-1]

    monkeypatch.setattr(store_module, "_read_open", counting_read)
    return read


def seeded_store(*seeds: int, flawed: bool) -> Store:
    """A store of seeded random sets, one for each of *seeds*, whose records
    the writer accepts."""
    store = Store()
    for seed in seeds:
        rng = random.Random(seed)
        rs = (randgen.flawed_record_set(rng, 12) if flawed
              else randgen.rand_record_set(rng, 12))
        store.merge(RecordSet({key: record for key, record in rs.records.items()
                               if not any(not rel.target
                                          for rel in getattr(record, "ou_relations", ()))},
                              rs.relations), prov("src", D(2001, 6, 6)))
    return store


def seal_of(lines: list[bytes]) -> bytes:
    """The seal that a save writes after *lines*."""
    return hashlib.blake2b(b"".join(lines), digest_size=16).hexdigest().encode() + b"\n"


def snapshot_lines(directory) -> list[bytes]:
    """The lines of the snapshot in *directory* before its seal, which must
    seal them."""
    *lines, seal = (directory / SNAPSHOT_FILE).read_bytes().splitlines(keepends=True)
    assert seal == seal_of(lines)
    return lines


def names_the_snapshot(exc: Exception, directory) -> bool:
    """Whether the message of *exc* starts with the resolved path of the
    snapshot in *directory*, the one form every refusal names it by."""
    return str(exc).startswith(f"{Path(directory).resolve() / SNAPSHOT_FILE}: ")


def resealed(lines: list[bytes]) -> bytes:
    """A snapshot of *lines* under their own seal.  A test that edits a line
    to reach a rule about lines seals it again, as otherwise the snapshot
    would be ignored whole."""
    return b"".join(lines) + seal_of(lines)


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


def test_a_torn_snapshot_loads_alike(tmp_path, parses):
    # a cut at each 4 KiB boundary, as a crash between page writes leaves
    # it, and at each byte of the seal
    seeded_store(*range(2101, 2109), flawed=True).save(tmp_path)
    whole = (tmp_path / SNAPSHOT_FILE).read_bytes()
    assert len(whole) > 3 * 4096
    for end in [*range(0, len(whole), 4096), *range(len(whole) - 33, len(whole))]:
        (tmp_path / SNAPSHOT_FILE).write_bytes(whole[:end])
        parses.clear()
        load_alike(tmp_path)
        # ignored whole: the load with it parses each file, as the one without
        assert len(parses) == 2 * len(record_files(tmp_path))


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


def _both(*edits):
    """An edit that makes each of *edits* in turn."""
    def edit(entry):
        for one in edits:
            one(entry)
    return edit


# edits of the person file's line that leave it unusable, each to a value of
# the wrong JSON type, of another digest or of a key not the file's own.  A
# line whose stamp is its file's vouches for its digest, so another digest
# comes with another stamp
PERSON_EDITS = [
    _set([1], 7),
    _both(_set([1], "0" * 32), _set([2], None)),
    _both(_set([1], "0" * 32), lambda entry: entry[2].__setitem__(3, entry[2][3] + 1)),
    _set([3], "records"),
    _set([3, 0, 0], 7),
    _set([3, 0, 0], "widget"),
    _set([3, 0, 1], 273),
    _set([3, 0, 1], "274"),
    _set([3, 0, 2], []),
    _set([3, 0, 2], {"family_names": 7}),
    _set([3, 0, 2], {"id": "274"}),
    _set([3, 0, 2], {"sex_code": "M"}),
    _set([3, 0, 2], {"sex": ["M"]}),
    _set([4], [["orgunit", "TUWIEN", "person", "273", "employs", False]]),
    lambda entry: entry[3].append(entry[3][0]),
    lambda entry: entry[3].append(["orgunit", "TUWIEN", {}]),
    lambda entry: entry.append(None),
    lambda entry: entry.pop(2),
]
RELATIONS_EDITS = [
    _set([4, 0, 5], "false"),
    _set([4, 0], ["orgunit", "TUWIEN", "person", "273", "employs"]),
    _set([4, 0, 0], None),
    _set([3], [["person", "273", {"family_names": "Niedermayer"}]]),
]
ORGUNIT_EDITS = [
    _set([3, 0, 2, "names", 0, 1], "X"),
    _set([3, 0, 2, "names", 0], ["de", "O"]),
    _set([3, 0, 2, "names"], "TU Wien"),
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
        [header.replace(b"/3", b"/4"), relations, orgunit, person],
        [b"garbage\n", relations, orgunit, person],
    ]


def test_unusable_lines_load_alike(tmp_path, parses):
    built_store().save(tmp_path)
    for lines in unusable_variants(tmp_path):
        (tmp_path / SNAPSHOT_FILE).write_bytes(b"".join(lines))
        parses.clear()
        load_alike(tmp_path)
        assert parses  # the file whose line is unusable was parsed


def test_unusable_lines_resealed_load_alike_or_are_refused(tmp_path, no_parse_after_load):
    # under a matching seal, a line that no save writes was forged: load, or
    # the first use of its record, refuses it, naming the snapshot
    built_store().save(tmp_path)
    outcomes = []
    for lines in unusable_variants(tmp_path):
        (tmp_path / SNAPSHOT_FILE).write_bytes(resealed(lines))
        parsed = load_outcome(tmp_path, snapshot=False)
        try:
            store = Store.load(tmp_path)
            triples = store.to_triples()
            outcomes.append((dict(store.current), store.relations))
            assert outcomes[-1] == parsed and triples == load_without_snapshot(
                tmp_path).to_triples()
        except FormatError as exc:
            assert names_the_snapshot(exc, tmp_path), exc
            outcomes.append(FormatError)
    assert outcomes.count(FormatError) > len(outcomes) // 2


@pytest.mark.parametrize("digest", ["", "00" * 8, "00" * 17])
def test_a_sealed_digest_of_another_length_is_refused_by_load(tmp_path, digest):
    # the stamp vouches for the line's digest, which a store would keep as
    # the file's mark
    built_store().save(tmp_path)
    header, relations, orgunit, person = snapshot_lines(tmp_path)
    (tmp_path / SNAPSHOT_FILE).write_bytes(
        resealed([header, relations, orgunit, edited(person, _set([1], digest))]))
    snapshot_after_every_file(tmp_path)
    with pytest.raises(FormatError, match=(
            f"^{re.escape(str(tmp_path.resolve() / SNAPSHOT_FILE))}: sealed, but holds "
            "a line no save writes$")):
        Store.load(tmp_path)


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


def record_files(directory) -> list:
    return sorted(path for path in directory.iterdir() if path.suffix == ".rdf")


def stamp_of(path) -> list:
    st = os.stat(path)
    return [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]


def snapshot_after_every_file(directory) -> None:
    """Put the snapshot's mtime a second past every file's ctime, so that
    the racy-git rule lets each stamp that matches vouch for its line."""
    latest = max(os.stat(path).st_ctime_ns for path in directory.iterdir()) + 10**9
    os.utime(directory / SNAPSHOT_FILE, ns=(latest, latest))


def test_a_copied_store_loads_by_digest(tmp_path, monkeypatch, reads, parses):
    home, copy = tmp_path / "home", tmp_path / "copy"
    seeded_store(2501, flawed=False).save(home)
    shutil.copytree(home, copy)  # new inodes and ctimes, the mtimes kept
    snapshot_after_every_file(copy)
    loaded = Store.load(copy)
    assert sorted(reads) == sorted(path.read_bytes() for path in record_files(copy))
    assert parses == []
    assert (dict(loaded.current), loaded.relations) == load_outcome(copy, snapshot=False)
    # the stamps were not the files', so the next save writes the files' own
    written = recorded_writes(monkeypatch)
    loaded.save(copy)
    assert written == [SNAPSHOT_FILE, INDEX_FILE]
    snapshot_after_every_file(copy)
    reads.clear()
    parses.clear()
    assert Store.load(copy).current == loaded.current
    assert (reads, parses) == ([], [])


@pytest.mark.parametrize("when", ["before every ctime", "at the person's ctime"])
def test_a_file_changed_in_or_after_the_snapshots_tick_is_hashed(tmp_path, reads, parses,
                                                                 when):
    store = built_store()
    store.save(tmp_path)
    person = tmp_path / "person.273.rdf"
    ctimes = {path.name: os.stat(path).st_ctime_ns for path in record_files(tmp_path)}
    written = (min(ctimes.values()) - 1 if when == "before every ctime"
               else ctimes[person.name])
    os.utime(tmp_path / SNAPSHOT_FILE, ns=(written, written))
    loaded = Store.load(tmp_path)
    hashed = {name for name, ctime in ctimes.items() if ctime >= written}
    assert person.name in hashed
    assert sorted(reads) == sorted((tmp_path / name).read_bytes() for name in hashed)
    assert parses == []
    assert (loaded.current, loaded.relations) == (store.current, store.relations)


def test_a_record_file_swapped_in_by_replace_is_parsed(tmp_path, parses):
    built_store().save(tmp_path)
    path, swap = tmp_path / "person.273.rdf", tmp_path / "swap"
    stat = path.stat()
    swap.write_bytes(path.read_bytes().replace(b"Niedermayer", b"Niedermeier"))
    os.utime(swap, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    os.replace(swap, path)
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    assert path.stat().st_ino != stat.st_ino
    snapshot_after_every_file(tmp_path)
    loaded = Store.load(tmp_path)
    assert parses == [path.read_bytes()]
    assert loaded.current[RecordKey("person", "273")][0].family_names == "Niedermeier"


@pytest.mark.parametrize("field", ["size", "mtime", "ctime", "inode"])
def test_a_line_whose_stamp_differs_from_its_files_in_one_field_is_not_taken_unread(
        tmp_path, parses, field):
    # the line holds the old record; the line's stamp is the edited file's,
    # but for one field
    built_store().save(tmp_path)
    path = tmp_path / "person.273.rdf"
    path.write_bytes(path.read_bytes().replace(b"Niedermayer", b"Niedermeier"))
    stamp = stamp_of(path)
    stamp[["size", "mtime", "ctime", "inode"].index(field)] += 1
    header, relations, orgunit, person = snapshot_lines(tmp_path)
    (tmp_path / SNAPSHOT_FILE).write_bytes(
        resealed([header, relations, orgunit, edited(person, _set([2], stamp))]))
    snapshot_after_every_file(tmp_path)
    loaded = Store.load(tmp_path)
    assert parses == [path.read_bytes()]
    assert loaded.current[RecordKey("person", "273")][0].family_names == "Niedermeier"


def test_a_file_dated_past_2262_gets_no_stamp(tmp_path, monkeypatch, reads, parses):
    # its mtime in nanoseconds does not fit in 64 bits
    store = built_store()
    store.save(tmp_path)
    person = tmp_path / "person.273.rdf"
    future = 400 * 365 * 86_400 * 10**9 + person.stat().st_mtime_ns
    os.utime(person, ns=(future, future))
    if person.stat().st_mtime_ns < 2**63:
        pytest.skip("the file system cannot date a file past 2262")
    written = recorded_writes(monkeypatch)
    Store.load(tmp_path).save(tmp_path)
    assert written == [SNAPSHOT_FILE, INDEX_FILE]
    assert [json.loads(line)[2] is None for line in snapshot_lines(tmp_path)[1:]] == [
        False, False, True]
    snapshot_after_every_file(tmp_path)
    reads.clear()
    assert (Store.load(tmp_path).current, parses) == (store.current, [])
    assert reads == [person.read_bytes()]


# Store.load of the directory argv[1], printing the names of the files it
# read any byte of through os.read
READS_BY_NAME = """
import json, os, sys
from cerifrdf.store import Store
names, read = {}, set()
real_open, real_read = os.open, os.read
def opening(path, *args, **kwargs):
    fd = real_open(path, *args, **kwargs)
    names[fd] = os.path.basename(path)
    return fd
def reading(fd, size):
    data = real_read(fd, size)
    if data:
        read.add(names.get(fd))
    return data
os.open, os.read = opening, reading
Store.load(sys.argv[1])
print(json.dumps(sorted(read)))
"""


def test_a_fresh_process_reads_no_file_changed_before_the_snapshot(tmp_path):
    seeded_store(2601, flawed=False).save(tmp_path)
    time.sleep(0.05)  # past the clock tick of the record files' ctimes
    (tmp_path / SNAPSHOT_FILE).unlink()
    Store.load(tmp_path).save(tmp_path)  # writes the snapshot alone
    touched = record_files(tmp_path)[0]
    touched.write_bytes(touched.read_bytes())  # the guard counts: it is read
    written = os.stat(tmp_path / SNAPSHOT_FILE).st_mtime_ns
    older = {path.name for path in record_files(tmp_path)
             if os.stat(path).st_ctime_ns < written}
    assert len(older) == len(record_files(tmp_path)) - 1
    proc = subprocess.run([sys.executable, "-c", READS_BY_NAME, str(tmp_path)],
                          env=cli_env(), capture_output=True, text=True, check=True)
    read = set(json.loads(proc.stdout))
    assert touched.name in read
    assert not read & older


@pytest.mark.parametrize("old", ["/1", "/2"])
def test_a_snapshot_of_an_earlier_format_is_ignored_once(tmp_path, monkeypatch, parses,
                                                          old):
    # /1 lines have no stamp, and neither /1 nor /2 has a seal
    built_store().save(tmp_path)
    header, *lines = snapshot_lines(tmp_path)
    if old == "/1":
        lines = [edited(line, lambda entry: entry.pop(2)) for line in lines]
    (tmp_path / SNAPSHOT_FILE).write_bytes(b"".join([header.replace(b"/3", old.encode()), *lines]))
    store = Store.load(tmp_path)
    assert len(parses) == 3
    written = recorded_writes(monkeypatch)
    store.save(tmp_path)
    assert written == [SNAPSHOT_FILE, INDEX_FILE]
    assert snapshot_lines(tmp_path)[0].startswith(b'["cerifrdf-snapshot/3"')
    parses.clear()
    assert Store.load(tmp_path).current == store.current
    assert parses == []


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


MISTYPED_PERSON = _set([3, 0, 2], {"family_names": 7})


@pytest.fixture
def no_parse_after_load(monkeypatch):
    """Make each later Store.load leave parse_document raising once it
    returns, so that a use of the store that parses a file fails."""
    load = Store.load.__func__

    def parse_after_load(*args, **kwargs):
        raise AssertionError("a record file was parsed after load")

    def loading(cls, *args, **kwargs):
        monkeypatch.setattr(store_module, "parse_document", parse_document)
        store = load(cls, *args, **kwargs)
        monkeypatch.setattr(store_module, "parse_document", parse_after_load)
        return store

    monkeypatch.setattr(Store, "load", classmethod(loading))


def refused_as_forged(directory, key: str):
    """pytest.raises for the refusal of the sealed values of *key* in the
    snapshot of *directory*."""
    return pytest.raises(FormatError, match=(
        f"^{re.escape(str(directory.resolve() / SNAPSHOT_FILE))}: the sealed values of "
        f"{key} do not decode$"))


@pytest.mark.parametrize("use", ["current", "query", "merge", "save"])
def test_a_file_rewritten_after_load_is_refused_when_its_line_proves_unusable(
        tmp_path, no_parse_after_load, use):
    # the person's line holds a mistyped value under a matching seal, which
    # no save writes: its first use refuses it, whatever its file holds now
    built_store().save(tmp_path)
    header, relations, orgunit, person = snapshot_lines(tmp_path)
    (tmp_path / SNAPSHOT_FILE).write_bytes(
        resealed([header, relations, orgunit, edited(person, MISTYPED_PERSON)]))
    store = Store.load(tmp_path)
    path = tmp_path / "person.273.rdf"
    path.write_bytes(path.read_bytes().replace(b"Niedermayer", b"Niedermeier"))
    with refused_as_forged(tmp_path, "person:273"):
        if use == "current":
            store.current[RecordKey("person", "273")]
        elif use == "query":
            store.query(TriplePattern("273"))
        elif use == "merge":  # the org unit, newer too, sorts before the person
            both = one_person("Changed")
            both.records.update(same_day_orgunit().records)
            store.merge(both, prov("tuwien", D(2001, 6, 7)))
        else:  # a save elsewhere writes every record
            store.save(tmp_path / "away")
    assert not (tmp_path / "away").exists()
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
    _, *lines = snapshot_lines(tmp_path)  # the seal passed over
    assert lines
    for line in lines:
        name, digest, stamp, rows, relation_rows = json.loads(line)
        held = [(RecordKey(kind, ident), values) for kind, ident, values in rows]
        decoded = [(key, snapshot.decode_record(key, values)) for key, values in held]
        relations = snapshot.CODECS["relations"][1](relation_rows)
        for records in (held, decoded):
            header, again, seal = (text.encode() for text in snapshot.snapshot_lines(
                CERIF_NS, [(name, snapshot.file_mark(bytes.fromhex(digest), stamp),
                            records, relations)]))
            assert again == line
            assert header + again + seal == resealed([header, again])


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
def test_a_refused_use_of_a_forged_line_changes_nothing(tmp_path, no_parse_after_load,
                                                         oddity):
    # the person's file parses with a warning (sex 'Q'), or holds a
    # document relation too, which a parse would have kept; its line names
    # the file's digest but holds a mistyped value under a matching seal,
    # which only a use of the record finds
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
    (tmp_path / SNAPSHOT_FILE).write_bytes(resealed([header, relations, orgunit, line]))
    before = files_in(tmp_path)
    loaded = Store.load(tmp_path)
    for use in ("query", "current", "current again", "query again"):
        with refused_as_forged(tmp_path, "person:273"):
            if use.startswith("query"):
                loaded.query(TriplePattern())
            else:
                dict(loaded.current)
        assert loaded.relations == store.relations
        assert files_in(tmp_path) == before


# the first, the middle and the last of the store's files, in name order
@pytest.mark.parametrize("gone", ["_relations.rdf", "orgunit.TUWIEN.rdf", "person.273.rdf"])
def test_a_line_whose_file_is_gone_is_passed_over(tmp_path, monkeypatch, parses, gone):
    saved = built_store()
    saved.save(tmp_path)
    (tmp_path / gone).unlink()
    kept = [key for key in sorted(saved.current) if f"{key.kind}.{key.id}.rdf" != gone]
    index = tmp_path / INDEX_FILE
    index.write_text("".join(line for line in index.read_text("utf-8").splitlines(True)
                             if line.split("\t")[0] in map(str, kept)), "utf-8")
    current, relations = load_alike(tmp_path)
    assert sorted(current) == kept
    assert relations == (frozenset() if gone == "_relations.rdf" else saved.relations)
    parses.clear()
    store = Store.load(tmp_path)
    assert parses == []  # the lines after the one passed over are taken
    written = recorded_writes(monkeypatch)
    store.save(tmp_path)
    assert written == [SNAPSHOT_FILE, INDEX_FILE]
    assert len(snapshot_lines(tmp_path)) == 3


def test_a_line_naming_a_file_that_holds_more_is_refused_on_first_use(
        tmp_path, no_parse_after_load):
    # the line's digest and stamp are those of a file that holds a second
    # record as well, and its values are mistyped under a matching seal
    built_store().save(tmp_path)
    path = tmp_path / "person.273.rdf"
    rs = one_person("Niedermayer")
    rs.add(Person(id="274", family_names="Other"))
    path.write_text(serialize_document(rs), "utf-8")
    header, relations, orgunit, line = snapshot_lines(tmp_path)
    line = edited(line, _both(_set([1], snapshot.file_digest(path.read_bytes()).hex()),
                              _set([2], stamp_of(path)), MISTYPED_PERSON))
    (tmp_path / SNAPSHOT_FILE).write_bytes(resealed([header, relations, orgunit, line]))
    store = Store.load(tmp_path)
    with refused_as_forged(tmp_path, "person:273"):
        store.current[RecordKey("person", "273")]
