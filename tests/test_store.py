"""Tests for the gathered-record store: merging, triples, queries, disk form."""

import copy
import hashlib
import itertools
import json
import os
import random
import stat
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest

from cerifrdf import store as store_module
from cerifrdf.errors import CerifError, FormatError, InvariantViolation
from cerifrdf.model import (
    Contact,
    ExpertSkill,
    OrgUnit,
    OuOuRelation,
    PartialDate,
    Person,
    Project,
    ProjectStatus,
    RecordKey,
    Relation,
    TranslatedText,
    TranslationType,
)
from cerifrdf.rdfxml import CERIF_NS, RecordSet, parse_document, serialize_document
from cerifrdf.store import (
    INDEX_FILE,
    RELATIONS_FILE,
    SNAPSHOT_FILE,
    EquivalenceMap,
    Provenance,
    SourceKind,
    Store,
    TriplePattern,
)

import randgen
from conftest import cli_env
from oracles import newest_version_oracle, reference_merge

D = PartialDate


def prov(source: str, date: PartialDate,
         kind: SourceKind = SourceKind.ALL) -> Provenance:
    return Provenance(source, date, kind)


def one_person(family: str) -> RecordSet:
    rs = RecordSet()
    rs.add(Person(id="273", family_names=family))
    return rs


# ---------------------------------------------------------------------------
# merge semantics

def test_later_fetch_wins():
    store = Store()
    assert store.merge(one_person("Old"), prov("tuwien", D(2001, 6, 6))) == []
    assert store.merge(one_person("New"), prov("tuwien", D(2002, 1, 1))) == []
    record, p = store.current[RecordKey("person", "273")]
    assert record.family_names == "New"
    assert p.fetched == D(2002, 1, 1)


def test_earlier_fetch_does_not_replace():
    store = Store()
    store.merge(one_person("New"), prov("tuwien", D(2002, 1, 1)))
    store.merge(one_person("Old"), prov("tuwien", D(2001, 6, 6)))
    record, _ = store.current[RecordKey("person", "273")]
    assert record.family_names == "New"


def test_same_day_conflict_warns_and_greatest_source_wins():
    store = Store()
    store.merge(one_person("A"), prov("aaa", D(2001, 6, 6)))
    warnings = store.merge(one_person("B"), prov("zzz", D(2001, 6, 6)))
    assert warnings == ["person 273: same-day versions from aaa and zzz, "
                       "greatest source wins"]
    record, p = store.current[RecordKey("person", "273")]
    assert (record.family_names, p.source) == ("B", "zzz")
    # same outcome in the other arrival order
    other = Store()
    other.merge(one_person("B"), prov("zzz", D(2001, 6, 6)))
    other.merge(one_person("A"), prov("aaa", D(2001, 6, 6)))
    assert other.current == store.current


def test_identical_remerge_is_silent():
    store = Store()
    store.merge(one_person("Same"), prov("tuwien", D(2001, 6, 6)))
    before = dict(store.current)
    assert store.merge(one_person("Same"), prov("tuwien", D(2001, 6, 6))) == []
    assert store.current == before


def test_partial_fetch_dates_rejected():
    with pytest.raises(InvariantViolation):
        Provenance("tuwien", D(2001, 6), SourceKind.ALL)
    with pytest.raises(InvariantViolation):
        Provenance("", D(2001, 6, 6), SourceKind.ALL)


@pytest.mark.parametrize("mark", ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                  "\x1e", "\x85", "\u2028", "\u2029"])
def test_source_refused_when_the_index_could_not_hold_it(mark):
    # a tab splits an index line into fields and each of the others ends a
    # line as str.splitlines reads one
    with pytest.raises(InvariantViolation, match="holds a tab or a line break"):
        Provenance(f"page{mark}x.html#0", D(2001, 6, 6), SourceKind.EXTRACTED)
    assert Provenance("page x.html#0", D(2001, 6, 6), SourceKind.EXTRACTED)


def test_merge_collects_document_relations():
    rs = one_person("Niedermayer")
    rel = Relation(RecordKey("orgunit", "TUWIEN"), RecordKey("person", "273"),
                   role="employs")
    rs.add_relation(rel)
    store = Store()
    store.merge(rs, prov("tuwien", D(2001, 6, 6)))
    assert store.relations == {rel}


def test_current_map_is_order_independent():
    rng = random.Random(6174)
    for _ in range(60):
        key_count = rng.randint(1, 3)
        idents = [randgen.rand_id(rng, n) for n in range(key_count)]
        batches = []
        candidates = {}
        for day in (D(2001, 6, 6), D(2001, 6, 7), D(2002, 1, 1)):
            for source in ("left", "right"):
                if rng.random() < 0.4:
                    continue
                rs = RecordSet()
                p = prov(source, day)
                for ident in idents:
                    if rng.random() < 0.3:
                        continue
                    record = Person(id=ident,
                                    family_names=randgen.rand_text(rng))
                    rs.add(record)
                    candidates.setdefault(ident, []).append((record, p))
                if rs.records:
                    batches.append((rs, p))
        orderings = [list(batches), list(reversed(batches))]
        rng.shuffle(batches)
        orderings.append(batches)
        results = []
        for ordering in orderings:
            store = Store()
            for rs, p in ordering:
                store.merge(rs, p)
            results.append(store.current)
        assert results[0] == results[1] == results[2]
        for ident, versions in candidates.items():
            expected = newest_version_oracle(versions)
            assert results[0][RecordKey("person", ident)] == expected


# ---------------------------------------------------------------------------
# triple view

def test_golden_project_triples(golden_project_text):
    rs, _ = parse_document(golden_project_text)
    store = Store()
    store.merge(rs, prov("tuwien", D(2001, 6, 6)))
    triples = store.to_triples()
    subject = "project:E015-01-08"
    assert all(s == subject for s, _, _ in triples)
    assert len(triples) == 8
    assert (subject, "status", "Execution") in triples
    assert (subject, "start", "02.2000") in triples
    assert (subject, "end", "12.2001") in triples
    assert (subject, "uri", "http://arge.tuwien.ac.at") in triples
    assert {p for _, p, _ in triples} == {"status", "start", "end", "uri",
                                          "title", "abstract"}
    titles = {o for _, p, o in triples if p == "title"}
    assert any(o.startswith("[de/O] ") for o in titles)
    assert any(o.startswith("[en/H] ") for o in titles)


def test_person_triples():
    store = Store()
    rs = RecordSet()
    rs.add(Person(
        id="273",
        family_names="Niedermayer",
        first_names="Walter",
        sex="M",
        expert_skills=(ExpertSkill("CRIS"), ExpertSkill("Multimedia", "hobby")),
        contacts=(Contact(email="walter@example.at",
                          uri="http://example.at/~walter"),),
    ))
    store.merge(rs, prov("tuwien", D(2001, 6, 6)))
    assert store.to_triples() == {
        ("person:273", "family_names", "Niedermayer"),
        ("person:273", "first_names", "Walter"),
        ("person:273", "sex", "M"),
        ("person:273", "expert_skill", "CRIS"),
        ("person:273", "expert_skill", "[hobby] Multimedia"),
        ("person:273", "email", "walter@example.at"),
        ("person:273", "contact_uri", "http://example.at/~walter"),
    }


def test_orgunit_triples():
    store = Store()
    rs = RecordSet()
    rs.add(OrgUnit(
        id="AUSENINSTITUT",
        names=(TranslatedText("de", TranslationType.ORIGINAL, "Auseninstitut"),),
        ou_relations=(OuOuRelation("TUWIEN", "parent"),),
    ))
    store.merge(rs, prov("tuwien", D(2001, 6, 6)))
    assert store.to_triples() == {
        ("orgunit:AUSENINSTITUT", "name", "[de/O] Auseninstitut"),
        ("orgunit:AUSENINSTITUT", "parent", "orgunit:TUWIEN"),
    }


def test_relation_triples_from_both_levels():
    store = Store()
    nested = Relation(RecordKey("project", "P1"), RecordKey("person", "273"),
                      role="contact")
    rs = RecordSet()
    rs.add(Project(
        id="P1",
        status=ProjectStatus.EXECUTION,
        titles=(TranslatedText("en", TranslationType.HUMAN, "T"),),
        abstracts=(TranslatedText("en", TranslationType.HUMAN, "A"),),
        relations=(nested,),
    ))
    rs.add_relation(Relation(RecordKey("orgunit", "TUWIEN"),
                             RecordKey("person", "273"), role="employs"))
    store.merge(rs, prov("tuwien", D(2001, 6, 6)))
    triples = store.to_triples()
    assert ("project:P1", "contact", "person:273") in triples
    assert ("orgunit:TUWIEN", "employs", "person:273") in triples


# ---------------------------------------------------------------------------
# patterns and queries

def test_pattern_parse_forms():
    assert TriplePattern.parse("(tuwien, rector, ?)") == \
        TriplePattern("tuwien", "rector", None)
    assert TriplePattern.parse("tuwien,rector,?who") == \
        TriplePattern("tuwien", "rector", None)
    assert TriplePattern.parse("( ?, , person:273 )") == \
        TriplePattern(None, None, "person:273")


@pytest.mark.parametrize("text", ["", "(a, b)", "a, b, c, d", "(a)"])
def test_pattern_parse_wrong_arity(text):
    with pytest.raises(FormatError):
        TriplePattern.parse(text)


def sample_store() -> Store:
    store = Store()
    rs = RecordSet()
    rs.add(OrgUnit(
        id="tuwien",
        names=(TranslatedText("de", TranslationType.ORIGINAL, "TU Wien"),),
    ))
    rs.add(Person(id="skalicky", family_names="Skalicky"))
    rs.add_relation(Relation(RecordKey("orgunit", "tuwien"),
                             RecordKey("person", "skalicky"), role="Rektor"))
    store.merge(rs, prov("tuwien", D(2001, 6, 6)))
    return store


def test_query_wildcards_return_everything_sorted():
    store = sample_store()
    out = store.query(TriplePattern())
    assert out == sorted(store.to_triples())


def test_query_endpoints_match_bare_or_qualified():
    store = sample_store()
    expected = [("orgunit:tuwien", "Rektor", "person:skalicky")]
    assert store.query(TriplePattern.parse("(tuwien, Rektor, ?)")) == expected
    assert store.query(TriplePattern.parse("(orgunit:tuwien, Rektor, ?)")) == expected
    assert store.query(TriplePattern.parse("(?, Rektor, skalicky)")) == expected
    assert store.query(TriplePattern.parse("(?, Rektor, person:skalicky)")) == expected


def test_query_predicates_match_exactly():
    store = sample_store()
    assert store.query(TriplePattern.parse("(tuwien, rektor, ?)")) == []
    assert store.query(TriplePattern.parse("(tuwien, Rekt, ?)")) == []


def test_query_through_equivalence_classes():
    store = sample_store()
    eq = EquivalenceMap()
    eq.add_class(["rector", "Rektor"])
    pattern = TriplePattern.parse("(tuwien, rector, ?)")
    assert store.query(pattern) == []
    assert store.query(pattern, eq) == \
        [("orgunit:tuwien", "Rektor", "person:skalicky")]


def test_growing_a_class_only_adds_results():
    store = sample_store()
    pattern = TriplePattern.parse("(?, ?, wien)")
    eq = EquivalenceMap()
    eq.add_class(["wien", "skalicky"])
    first = store.query(pattern, eq)
    eq.add_class(["wien", "tuwien"])
    second = store.query(pattern, eq)
    assert set(first) <= set(second)
    assert ("orgunit:tuwien", "Rektor", "person:skalicky") in first


def test_equivalence_map_text_form():
    eq = EquivalenceMap.from_text(
        "# synonym table\n"
        "rector ≡ Rektor ≡ Rector\n"
        "tuwien\tTU-WIEN  # tab separated works too\n"
        "\n"
    )
    assert eq.expand("Rektor") == {"rector", "Rektor", "Rector"}
    assert eq.expand("TU-WIEN") == {"tuwien", "TU-WIEN"}
    assert eq.expand("unseen") == {"unseen"}


def test_equivalence_classes_merge_on_overlap():
    eq = EquivalenceMap()
    eq.add_class(["a", "b"])
    eq.add_class(["c", "d"])
    eq.add_class(["b", "c"])
    assert eq.expand("a") == {"a", "b", "c", "d"}
    assert eq.classes() == [frozenset({"a", "b", "c", "d"})]


def test_equivalence_map_load(tmp_path):
    path = tmp_path / "eq.txt"
    path.write_text("x\ty\n", "utf-8")
    assert EquivalenceMap.load(path).expand("x") == {"x", "y"}


# ---------------------------------------------------------------------------
# persistence

def test_read_open_reads_on_past_a_size_the_file_has_outgrown(tmp_path):
    data = bytes(range(256)) * 1000  # more than one 64 KiB read
    path = tmp_path / "grown"
    path.write_bytes(data)
    fd = os.open(path, os.O_RDONLY)
    try:
        assert store_module._read_open(fd, 10) == data
    finally:
        os.close(fd)


def built_store() -> Store:
    store = Store()
    rs = RecordSet()
    rs.add(Person(id="273", family_names="Niedermayer"))
    rs.add(OrgUnit(
        id="TUWIEN",
        names=(TranslatedText("de", TranslationType.ORIGINAL, "TU Wien"),),
    ))
    rs.add_relation(Relation(RecordKey("orgunit", "TUWIEN"),
                             RecordKey("person", "273"), role="employs"))
    store.merge(rs, prov("tuwien", D(2001, 6, 6), SourceKind.PER_OBJECT))
    return store


def test_save_layout(tmp_path):
    built_store().save(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        RELATIONS_FILE,
        SNAPSHOT_FILE,
        "orgunit.TUWIEN.rdf",
        "person.273.rdf",
        INDEX_FILE,
    ]
    *snapshot, seal = (tmp_path / SNAPSHOT_FILE).read_text("utf-8").splitlines(True)
    assert [line.split(",", 1)[0] for line in snapshot] == [
        '["cerifrdf-snapshot/3"', f'["{RELATIONS_FILE}"', '["orgunit.TUWIEN.rdf"',
        '["person.273.rdf"']
    # the last line seals every byte before it
    assert seal == hashlib.blake2b("".join(snapshot).encode(), digest_size=16).hexdigest() + "\n"
    # each line's stamp is its file's: size, mtime, ctime and inode
    for line in snapshot[1:]:
        name, _, stamp, *_ = json.loads(line)
        st = os.stat(tmp_path / name)
        assert stamp == [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]
    index = (tmp_path / INDEX_FILE).read_text("utf-8")
    assert index == ("orgunit:TUWIEN\ttuwien\t06.06.2001\tper-object\n"
                     "person:273\ttuwien\t06.06.2001\tper-object\n")


def test_save_load_round_trip(tmp_path):
    store = built_store()
    store.save(tmp_path)
    loaded = Store.load(tmp_path)
    assert loaded.current == store.current
    assert loaded.relations == store.relations
    assert loaded.to_triples() == store.to_triples()


def test_save_removes_stale_files(tmp_path):
    built_store().save(tmp_path)
    smaller = Store()
    rs = RecordSet()
    rs.add(OrgUnit(id="TUWIEN",
                   names=(TranslatedText("de", TranslationType.ORIGINAL, "TU Wien"),)))
    smaller.merge(rs, prov("tuwien", D(2001, 6, 7), SourceKind.PER_OBJECT))
    smaller.save(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        SNAPSHOT_FILE, "orgunit.TUWIEN.rdf", INDEX_FILE]
    loaded = Store.load(tmp_path)
    assert loaded.current == smaller.current
    assert loaded.relations == frozenset()


def test_load_missing_directory_is_empty(tmp_path):
    store = Store.load(tmp_path / "never-saved")
    assert store.current == {} and store.relations == set()


def test_load_rejects_short_index_line(tmp_path):
    built_store().save(tmp_path)
    (tmp_path / INDEX_FILE).write_text("person:273\ttuwien\n", "utf-8")
    with pytest.raises(FormatError):
        Store.load(tmp_path)


def test_load_rejects_a_key_listed_twice_in_the_index(tmp_path):
    # the later line would otherwise win, and the next save drop the first
    built_store().save(tmp_path)
    index = tmp_path / INDEX_FILE
    lines = index.read_text("utf-8").splitlines()
    twice = lines[0].replace("06.06.2001", "07.07.2001")
    index.write_text("".join(l + "\n" for l in [*lines, twice]), "utf-8")
    with pytest.raises(FormatError) as err:
        Store.load(tmp_path)
    subject = lines[0].split("\t")[0]
    assert str(err.value) == f"{index}:{len(lines) + 1}: {subject!r} is listed twice"


def test_load_rejects_unindexed_record(tmp_path):
    built_store().save(tmp_path)
    index = (tmp_path / INDEX_FILE).read_text("utf-8")
    kept = [line for line in index.splitlines() if "person" not in line]
    (tmp_path / INDEX_FILE).write_text("".join(l + "\n" for l in kept), "utf-8")
    with pytest.raises(FormatError) as err:
        Store.load(tmp_path)
    assert "person:273" in str(err.value)


def test_load_rejects_a_key_in_two_record_files(tmp_path):
    built_store().save(tmp_path)
    (tmp_path / "zz.rdf").write_bytes((tmp_path / "person.273.rdf").read_bytes())
    with pytest.raises(FormatError) as err:
        Store.load(tmp_path)
    assert str(err.value) == ("person:273 is held by two record files, "
                              "person.273.rdf and zz.rdf")


def test_save_load_with_custom_namespace(tmp_path):
    # the last two hold characters that must be escaped inside an attribute
    for n, ns in enumerate(["http://example.org/schema#",
                            "http://example.org/cerif?v=1&x=2#",
                            'http://example.org/<cerif> "v2"#']):
        store = built_store()
        store.save(tmp_path / str(n), cerif_ns=ns)
        text = (tmp_path / str(n) / "person.273.rdf").read_text("utf-8")
        assert f"xmlns:cerif={quoteattr(ns)}" in text
        loaded = Store.load(tmp_path / str(n), cerif_ns=ns)
        assert loaded.current == store.current
        assert loaded.relations == store.relations


def test_load_rejects_an_indexed_key_without_a_record_file(tmp_path):
    built_store().save(tmp_path)
    (tmp_path / "person.273.rdf").unlink()
    with pytest.raises(FormatError) as err:
        Store.load(tmp_path)
    assert str(err.value) == (f"{tmp_path / INDEX_FILE}: no record file holds "
                              "person:273; expected person.273.rdf")


@pytest.mark.parametrize("entry, kind, command", [
    ("person.3.rdf", "fifo", "query"),
    ("person.2.rdf", "directory", "query"),
    (INDEX_FILE, "fifo", "gather"),
    (SNAPSHOT_FILE, "fifo", "query"),
])
def test_load_waits_on_no_store_entry_that_is_not_a_regular_file(tmp_path, entry, kind,
                                                                 command):
    # in a child with a timeout, so that a load that blocks fails the test
    if kind == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    store = tmp_path / "st"
    built_store().save(store)
    doc = tmp_path / "site.rdf"
    doc.write_text(serialize_document(one_person("Niedermayer")), "utf-8")
    args = {"query": ["query", "(?, ?, ?)", "--store", str(store)],
            "gather": ["gather", str(doc), "--store", str(store), "--date", "06.06.2001"]}

    def run():
        return subprocess.run([sys.executable, "-m", "cerifrdf.cli", *args[command]],
                              capture_output=True, text=True, env=cli_env(), timeout=60)

    (store / entry).unlink(missing_ok=True)
    if kind == "fifo":
        os.mkfifo(store / entry)
    else:
        (store / entry).mkdir()
    proc = run()
    if entry == SNAPSHOT_FILE:  # ignored, as a missing snapshot is
        (store / entry).unlink()
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, run().stdout, "")
    else:
        assert proc.returncode == 2
        assert proc.stderr == f"error: {store / entry}: not a regular file\n"


def test_load_skips_blank_index_lines(tmp_path):
    store = built_store()
    store.save(tmp_path)
    index = tmp_path / INDEX_FILE
    lines = index.read_text("utf-8").splitlines()
    index.write_text("\n" + "\n \t\n".join(lines) + "\n\n", "utf-8")
    loaded = Store.load(tmp_path)
    assert loaded.current == store.current
    assert loaded.relations == store.relations


class _FailingHandle:
    """A file handle whose every write raises, closing the real one on exit."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        raise OSError("injected write fault")


@pytest.mark.parametrize("fails", ["write", "replace"])
def test_write_atomic_leaves_the_old_file_when_it_fails(tmp_path, monkeypatch, fails):
    target = tmp_path / INDEX_FILE
    target.write_text("old\n", "utf-8")
    if fails == "write":
        fdopen = store_module.os.fdopen
        monkeypatch.setattr(store_module.os, "fdopen",
                            lambda *args, **kwargs: _FailingHandle(fdopen(*args, **kwargs)))
    else:
        def replace(src, dst):
            raise OSError("injected replace fault")
        monkeypatch.setattr(store_module.os, "replace", replace)
    with pytest.raises(OSError, match=f"injected {fails} fault"):
        store_module.write_atomic(target, "new\n")
    monkeypatch.undo()
    assert target.read_text("utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [INDEX_FILE]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def mode(path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


def test_a_save_leaves_every_file_with_the_record_files_mode(tmp_path, umask_022):
    built_store().save(tmp_path)
    assert {mode(path) for path in tmp_path.iterdir()} == {0o644}
    assert (tmp_path / SNAPSHOT_FILE).exists()


@pytest.mark.parametrize("kept", [0o644, 0o640, 0o600])
def test_write_atomic_keeps_the_mode_of_the_file_it_replaces(tmp_path, umask_022, kept):
    target = tmp_path / INDEX_FILE
    target.write_text("old\n", "utf-8")
    target.chmod(kept)
    store_module.write_atomic(target, "new\n")
    assert (target.read_text("utf-8"), mode(target)) == ("new\n", kept)
    assert [p.name for p in tmp_path.iterdir()] == [INDEX_FILE]


def test_write_atomic_stages_beside_a_file_a_killed_write_left(tmp_path):
    target = tmp_path / INDEX_FILE
    stale = tmp_path / f"{INDEX_FILE}.{os.getpid()}.tmp"
    stale.write_text("stale\n", "utf-8")
    store_module.write_atomic(target, "new\n")
    assert target.read_text("utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [INDEX_FILE, stale.name]


# ---------------------------------------------------------------------------
# incremental save

OTHER_NS = "http://example.org/schema#"
MAKERS = {"project": randgen.rand_project, "person": randgen.rand_person,
          "orgunit": randgen.rand_orgunit}


def versioned_batches(rng: random.Random, flawed: bool, count: int = 7) -> list:
    """Seeded (record set, provenance) batches over one pool of keys.

    Each later batch gives some keys again, either the content last given
    (equal) or a new version, on a day before, on or after the others, from
    one of two sources, so newer, older and equal versions meet, and
    same-day versions from an equal source too.  Some batches add a key or a
    document-level relation.  With *flawed*, records may break their
    mandatory rules.
    """
    base = (randgen.flawed_record_set(rng, 8) if flawed
            else randgen.rand_record_set(rng, 8))
    last = dict(base.records)
    days = [D(2001, 6, 5), D(2001, 6, 6), D(2001, 6, 7)]
    batches = [(base, prov("b", days[1]))]
    for n in range(count - 1):
        rs = RecordSet()
        for key in sorted(last):
            roll = rng.random()
            if roll < 0.6:
                record = last[key]
                if roll < 0.3:
                    record = MAKERS[key.kind](rng, key.id)
                    if flawed and rng.random() < 0.35:
                        record = randgen._break_record(rng, record)
                    last[key] = record
                rs.records[key] = record
        if rng.random() < 0.3:
            record = randgen.rand_person(rng, f"NEW-{n}")
            rs.records[record.key] = last[record.key] = record
        if rng.random() < 0.5 and len(last) > 1:
            source, target = rng.sample(sorted(last), 2)
            rs.add_relation(Relation(source, target, role=rng.choice(["head", "member"])))
        batches.append((rs, prov(rng.choice("ab"), rng.choice(days))))
    return batches


def _unstamped(directory: Path, line: bytes) -> bytes:
    """A snapshot line with its stamp replaced by true when it is the stamp
    of its file in *directory*; any other line as it is."""
    try:
        entry = json.loads(line)
        st = os.stat(directory / entry[0])
    except (ValueError, TypeError, KeyError, IndexError, RecursionError, OSError):
        return line
    if type(entry) is not list or len(entry) != 5 or entry[2] != [
            st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]:
        return line
    entry[2] = True
    return json.dumps(entry, separators=(",", ":")).encode() + b"\n"


def files_in(directory) -> dict[str, bytes]:
    """Names and bytes of the files in *directory*.  The files of two
    directories have their own stamps, so each snapshot line's stamp is
    left out when it is its file's, and so is the seal, which covers the
    stamps, when it seals the lines before it."""
    directory = Path(directory)
    files = {path.name: path.read_bytes() for path in directory.iterdir()}
    if SNAPSHOT_FILE in files:
        *lines, seal = files[SNAPSHOT_FILE].splitlines(keepends=True) or [b""]
        if seal == hashlib.blake2b(b"".join(lines), digest_size=16).hexdigest().encode() + b"\n":
            seal = b"sealed\n"
        files[SNAPSHOT_FILE] = b"".join(
            [*(_unstamped(directory, line) for line in lines), seal])
    return files


def full_save(store: Store, directory, ns: str = CERIF_NS) -> dict[str, bytes]:
    """Names and bytes of a save of a copy of *store* into a new directory."""
    copy.deepcopy(store).save(directory, cerif_ns=ns)
    return files_in(directory)


def untargeted(store: Store) -> list[RecordKey]:
    """Keys of the org units holding a relation without a target, which a
    flawed record can hold and the reader would drop."""
    return sorted(key for key, (record, _) in store.current.items()
                  if isinstance(record, OrgUnit)
                  and any(not rel.target for rel in record.ou_relations))


def load_without_snapshot(directory, ns: str = CERIF_NS) -> Store:
    """Store.load of *directory* with its snapshot set aside, so that every
    record file is parsed."""
    snapshot = Path(directory) / SNAPSHOT_FILE
    kept = snapshot.read_bytes() if snapshot.exists() else None
    snapshot.unlink(missing_ok=True)
    try:
        return Store.load(directory, cerif_ns=ns)
    finally:
        if kept is not None:
            snapshot.write_bytes(kept)


def load_outcome(directory, ns: str = CERIF_NS, *, snapshot: bool = True):
    """(current map, relations) of Store.load of *directory*, or (error type,
    message) of its refusal; without *snapshot*, the snapshot is set aside so
    that every record file is parsed."""
    try:
        store = (Store.load(directory, cerif_ns=ns) if snapshot
                 else load_without_snapshot(directory, ns))
    except CerifError as exc:
        return type(exc), str(exc)
    return dict(store.current), store.relations


def load_alike(directory, ns: str = CERIF_NS):
    """load_outcome of *directory*, checked to be what a load that parses
    every record file gives: the same current map, provenance and relations,
    or the same refusal."""
    loaded = load_outcome(directory, ns)
    assert loaded == load_outcome(directory, ns, snapshot=False)
    return loaded


def assert_saved(store: Store, directory, ns: str, fresh) -> None:
    assert files_in(directory) == full_save(store, fresh, ns)
    assert load_alike(directory, ns) == (store.current, store.relations)


@pytest.mark.parametrize("seed", range(12))
def test_merge_agrees_with_the_whole_version_key(seed):
    batches = versioned_batches(random.Random(seed), flawed=seed % 2 == 1, count=10)
    store = Store()
    for rs, p in batches:
        store.merge(rs, p)
    current, _ = reference_merge(batches)
    assert store.current == current


@pytest.mark.parametrize("seed", range(8))
def test_each_save_leaves_what_a_full_save_writes(tmp_path, seed):
    rng = random.Random(1000 + seed)
    directories, ns = [tmp_path / "home", tmp_path / "away"], CERIF_NS
    store = Store()
    actions = itertools.cycle(["save", "reload", "save", "move", "save", "namespace"])
    for n, ((rs, p), action) in enumerate(zip(versioned_batches(rng, seed % 2 == 1),
                                              actions)):
        store.merge(rs, p)
        if action == "move":
            directories.reverse()
        elif action == "namespace":
            ns = OTHER_NS if ns == CERIF_NS else CERIF_NS
        flawed = untargeted(store)
        if flawed:
            before = files_in(directories[0]) if directories[0].exists() else None
            with pytest.raises(InvariantViolation, match=(
                    f"orgunit {flawed[0].id!r}: org-unit relation without a target")):
                store.save(directories[0], cerif_ns=ns)
            assert (files_in(directories[0]) if directories[0].exists()
                    else None) == before
        else:
            store.save(directories[0], cerif_ns=ns)
            assert_saved(store, directories[0], ns, tmp_path / f"fresh{n}")
        if action == "reload":
            store = Store.load(directories[0], cerif_ns=ns)


def recorded_writes(monkeypatch) -> list[str]:
    """Names of the files each later save writes, in order."""
    written = []
    write_file, write_atomic = store_module.write_file, store_module.write_atomic

    def recording_write_file(path, data):
        written.append(path.name)
        return write_file(path, data)

    def recording_write_atomic(path, text):
        written.append(path.name)
        write_atomic(path, text)

    monkeypatch.setattr(store_module, "write_file", recording_write_file)
    monkeypatch.setattr(store_module, "write_atomic", recording_write_atomic)
    return written


def test_save_writes_only_the_records_that_changed(tmp_path, monkeypatch):
    built_store().save(tmp_path)
    store = Store.load(tmp_path)
    store.merge(one_person("Changed"), prov("tuwien", D(2001, 6, 7)))
    # equal content, fetched later: only the provenance index changes
    same = RecordSet()
    same.add(OrgUnit(id="TUWIEN",
                     names=(TranslatedText("de", TranslationType.ORIGINAL, "TU Wien"),)))
    store.merge(same, prov("tuwien", D(2001, 6, 8)))
    written = recorded_writes(monkeypatch)
    store.save(tmp_path)
    assert written == ["person.273.rdf", SNAPSHOT_FILE, INDEX_FILE]
    assert Store.load(tmp_path).current == store.current

    # nothing written or removed, and the snapshot still describes the files
    written.clear()
    store.save(tmp_path)
    assert written == [INDEX_FILE]

    # a relation already held changes nothing; a new one rewrites the relation file
    grown = RecordSet()
    grown.extend_relations([*store.relations,
                            Relation(RecordKey("person", "273"),
                                     RecordKey("orgunit", "TUWIEN"), role="member")])
    store.merge(grown, prov("tuwien", D(2001, 6, 8)))
    written.clear()
    store.save(tmp_path)
    assert written == [RELATIONS_FILE, SNAPSHOT_FILE, INDEX_FILE]

    written.clear()
    store.save(tmp_path, cerif_ns=OTHER_NS)
    assert written == ["orgunit.TUWIEN.rdf", "person.273.rdf", RELATIONS_FILE,
                       SNAPSHOT_FILE, INDEX_FILE]


def test_save_moves_records_out_of_a_shared_file(tmp_path):
    store = built_store()
    store.save(tmp_path / "index_only")
    rs = RecordSet()
    rs.records.update((key, record) for key, (record, _) in store.current.items())
    rs.relations = list(store.relations)
    home = tmp_path / "home"
    home.mkdir()
    (home / "all.rdf").write_text(serialize_document(rs), "utf-8")
    (home / INDEX_FILE).write_bytes((tmp_path / "index_only" / INDEX_FILE).read_bytes())
    loaded = Store.load(home)
    loaded.save(home)
    assert files_in(home) == full_save(store, tmp_path / "fresh")


def test_a_save_that_fails_part_way_loses_nothing(tmp_path, monkeypatch):
    """A file write, removal, snapshot swap or index swap raises at step k;
    a clean save into the loaded directory and into another one still
    writes exactly what a full save does."""
    base = built_store()
    person = RecordKey("person", "273")
    changes = RecordSet()
    changes.add(Person(id="273", family_names="Changed"))
    changes.add(OrgUnit(id="TUWIEN",
                        names=(TranslatedText("de", TranslationType.ORIGINAL, "TU Wien"),)))
    changes.add(Person(id="274", family_names="New"))
    changes.add_relation(Relation(person, RecordKey("orgunit", "TUWIEN"), role="member"))
    empty = RecordSet()

    def faulty(real):
        def step(*args, **kwargs):
            if next(steps) == k:
                raise OSError(f"injected fault at step {k}")
            return real(*args, **kwargs)
        return step

    for k in itertools.count():
        failed = False
        for fails_in in ("home", "away"):
            home, away = tmp_path / f"{k}{fails_in}home", tmp_path / f"{k}{fails_in}away"
            base.save(home)
            (home / "zz.rdf").write_text(serialize_document(empty), "utf-8")
            store = Store.load(home)
            store.merge(changes, prov("tuwien", D(2001, 6, 7)))
            steps = itertools.count()
            with monkeypatch.context() as patch:
                for owner, name in ((store_module, "write_file"), (Path, "unlink"),
                                    (store_module, "write_atomic")):
                    patch.setattr(owner, name, faulty(getattr(owner, name)))
                try:
                    store.save(home if fails_in == "home" else away)
                except OSError:
                    failed = True
            for directory in (home, away):
                if (directory / INDEX_FILE).exists():
                    load_alike(directory)
            for n, directory in enumerate((home, away)):
                store.save(directory)
                assert files_in(directory) == full_save(
                    store, tmp_path / f"{k}{fails_in}fresh{n}"), (k, fails_in)
        if not failed:
            break
    # three record files, one removal, the snapshot and the index: every
    # step of the save was made to fail once
    assert k == 6


@pytest.mark.parametrize("fault", ["no role", "identical endpoints"])
@pytest.mark.parametrize("nested", [False, True])
def test_save_refuses_what_the_writer_refuses_before_any_file(tmp_path, fault, nested):
    # the faulty relation sits in the document relations, or nested in a
    # project behind a new record that sorts before it
    store = built_store()
    store.save(tmp_path / "home")
    before = files_in(tmp_path / "home")
    source = RecordKey("project", "P1") if nested else RecordKey("person", "zz9")
    relation = (Relation(source, RecordKey("orgunit", "TUWIEN"), role="")
                if fault == "no role" else Relation(source, source, role="self"))
    rs = RecordSet()
    rs.add(Person(id="zz9", family_names="Zed"))
    if nested:
        rs.add(Project(id="P1", relations=(relation,)))
    else:
        rs.add_relation(relation)
    store.merge(rs, prov("tuwien", D(2001, 6, 7)))
    for directory in ("home", "away"):
        with pytest.raises(InvariantViolation, match="; store not saved$"):
            store.save(tmp_path / directory)
    assert files_in(tmp_path / "home") == before
    assert not (tmp_path / "away").exists()
    assert Store.load(tmp_path / "home").current == built_store().current


@pytest.mark.parametrize("separator", ["\u2028", "\u2029"])
def test_save_refuses_an_id_holding_a_line_or_paragraph_separator(tmp_path, separator):
    # str.splitlines, which reads the index, breaks at either one
    store = Store()
    store.merge(RecordSet({RecordKey("person", f"a{separator}b"): Person(
        id=f"a{separator}b", family_names="Sep")}), prov("src", D(2001, 6, 6)))
    with pytest.raises(InvariantViolation, match="store not saved$"):
        store.save(tmp_path / "st")
    assert not (tmp_path / "st").exists()


# records built through the library with a value of a type their field does
# not take: the serializer raised TypeError after writing the records before
# them, bytes got a record file but no snapshot line, and a list of sexes got
# a line that did not decode; a document-level relation with such a value got
# a sealed line that no load took, so the store no longer loaded
_NEW, _UNIT = RecordKey("person", "zz0"), RecordKey("orgunit", "TUWIEN")
MISTYPED = {"int among texts": Person(id="zz1", prize_awards=(3,)),
            "bytes for text": Person(id="zz1", uri=b"x"),
            "list for a sex code": Person(id="zz1", sex=["M"]),
            "int for a mandatory flag": Relation(_NEW, _UNIT, "member", mandatory=1),
            "None for a mandatory flag": Relation(_NEW, _UNIT, "member", mandatory=None),
            "bytes for a role": Relation(_NEW, _UNIT, b"member")}


@pytest.mark.parametrize("mistyped", MISTYPED)
def test_save_refuses_a_value_of_a_type_its_field_does_not_take(tmp_path, mistyped):
    store = built_store()
    store.save(tmp_path / "home")
    before = files_in(tmp_path / "home")
    # a new record sorts before the mistyped one, so a late refusal would
    # have written its file
    rs = RecordSet()
    rs.add(Person(id="zz0", family_names="Zed"))
    value = MISTYPED[mistyped]
    if isinstance(value, Relation):
        rs.add_relation(value)
        where = "document relations: a relation"
    else:
        rs.add(value)
        where = "person 'zz1': a field"
    store.merge(rs, prov("tuwien", D(2001, 6, 7)))
    for directory in ("home", "away"):
        with pytest.raises(InvariantViolation, match=(
                f"^{where} holds a value of a type it does not take; "
                "store not saved$")):
            store.save(tmp_path / directory)
    assert files_in(tmp_path / "home") == before
    assert not (tmp_path / "away").exists()
    home = Store.load(tmp_path / "home")
    assert (home.current, home.relations) == (built_store().current,
                                              built_store().relations)


def test_save_refuses_a_namespace_that_does_not_read_back(tmp_path):
    with pytest.raises(FormatError, match="would not read back"):
        built_store().save(tmp_path / "st", cerif_ns="http://example.org/a}b#")
    assert not (tmp_path / "st").exists()
