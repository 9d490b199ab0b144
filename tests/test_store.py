"""Tests for the gathered-record store: merging, triples, queries, disk form."""

import random

import pytest

from cerifrdf.errors import FormatError, InvariantViolation
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
from cerifrdf.rdfxml import RecordSet, parse_document
from cerifrdf.store import (
    INDEX_FILE,
    RELATIONS_FILE,
    EquivalenceMap,
    Provenance,
    SourceKind,
    Store,
    TriplePattern,
)

import randgen
from oracles import newest_version_oracle

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
    # the loser is still reachable through the version history
    versions = store.versions_of(RecordKey("person", "273"))
    assert [r.family_names for r, _ in versions] == ["New", "Old"]


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
    assert store.merge(one_person("Same"), prov("tuwien", D(2001, 6, 6))) == []
    assert len(store.versions_of(RecordKey("person", "273"))) == 2


def test_partial_fetch_dates_rejected():
    with pytest.raises(InvariantViolation):
        Provenance("tuwien", D(2001, 6), SourceKind.ALL)
    with pytest.raises(InvariantViolation):
        Provenance("", D(2001, 6, 6), SourceKind.ALL)


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
        "orgunit.TUWIEN.rdf",
        "person.273.rdf",
        INDEX_FILE,
    ]
    index = (tmp_path / INDEX_FILE).read_text("utf-8")
    assert index == ("orgunit:TUWIEN\ttuwien\t06.06.2001\tper-object\n"
                     "person:273\ttuwien\t06.06.2001\tper-object\n")


def test_save_load_round_trip(tmp_path):
    store = built_store()
    store.save(tmp_path)
    loaded = Store.load(tmp_path)
    assert loaded.current == store.current
    assert loaded.relations == store.relations
    assert loaded.history == []
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
        "orgunit.TUWIEN.rdf", INDEX_FILE]
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
    ns = "http://example.org/schema#"
    store = built_store()
    store.save(tmp_path, cerif_ns=ns)
    assert ns in (tmp_path / "person.273.rdf").read_text("utf-8")
    loaded = Store.load(tmp_path, cerif_ns=ns)
    assert loaded.current == store.current
