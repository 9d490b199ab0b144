"""Whole-toolkit acceptance checks.

Each check prints one summary line, so `python3 -m pytest -s
tests/test_acceptance.py` gives a readable scoreboard.  The checks cover
the golden documents, the randomized round-trip and cascade properties,
both name grammars, legacy conversion, the page embed/extract closure,
session packaging and the gather-and-query scenario.
"""

import functools
import itertools
import random
import time

import pytest

from cerifrdf.errors import FormatError
from cerifrdf.exchange import (
    ExchangeKind,
    ExchangeName,
    IdRegistry,
    check_session,
    format_name,
    parse_name,
    plan_session,
)
from cerifrdf.htmlbridge import extract_rdf, render_html
from cerifrdf.model import (
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
    format_partial_date,
    parse_partial_date,
)
from cerifrdf.rdfxml import RecordSet, parse_document, serialize_document
from cerifrdf.sgml import build_record_set, map_record, parse_sgml
from cerifrdf.store import EquivalenceMap, Provenance, SourceKind, Store, TriplePattern
from cerifrdf.validation import apply_discard_cascade

import randgen
from conftest import read_data
from oracles import cascade_oracle

D = PartialDate


def report(number, label):
    """Print one scoreboard line per check, pass or fail."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({label}): FAIL")
                raise
            print(f"criterion {number:2d} ({label}): PASS")
        return run
    return wrap


@report(1, "golden parse: project")
def test_criterion_01_golden_project():
    started = time.perf_counter()
    rs, _ = parse_document(read_data("project_e015.rdf"))
    project = rs.records[RecordKey("project", "E015-01-08")]
    assert project.status is ProjectStatus.EXECUTION
    assert project.start == D(2000, 2)
    assert project.end == D(2001, 12)
    assert project.uri == "http://arge.tuwien.ac.at"
    assert [(t.language, t.translation) for t in project.titles] == \
        [("en", TranslationType.HUMAN), ("de", TranslationType.ORIGINAL)]
    assert [(a.language, a.translation) for a in project.abstracts] == \
        [("en", TranslationType.HUMAN), ("de", TranslationType.ORIGINAL)]
    assert time.perf_counter() - started < 1.0


@report(2, "golden parse: person")
def test_criterion_02_golden_person():
    rs, _ = parse_document(read_data("person_273.rdf"))
    person = rs.records[RecordKey("person", "273")]
    assert person.family_names == "Niedermayer"
    assert person.first_names == "Walter"
    assert person.sex == "M"
    assert [s.skill for s in person.expert_skills] == ["Multimedia", "CRIS"]
    assert [c.email for c in person.contacts] == ["walter@derpi.tuwien.ac.at"]


@report(3, "golden parse: orgunit")
def test_criterion_03_golden_orgunit():
    rs, warnings = parse_document(read_data("orgunit_auseninstitut.rdf"))
    unit = rs.records[RecordKey("orgunit", "TUWIEN.AUSENINSTITUT")]
    assert len(unit.names) == 1
    name = unit.names[0]
    assert name.language == "de"
    assert name.translation is TranslationType.ORIGINAL
    assert any("'0'" in w and "normalized" in w for w in warnings)
    assert unit.ou_relations == (OuOuRelation("TUWIEN", "parent"),)
    assert [s.skill for s in unit.expert_skills] == \
        ["CRIS-Current Research Information System"]


@report(4, "round-trip property")
def test_criterion_04_round_trip():
    started = time.perf_counter()
    rng = random.Random(20010606)
    for _ in range(500):
        rs = randgen.rand_record_set(rng)
        first = serialize_document(rs)
        parsed, warnings = parse_document(first)
        assert warnings == []
        assert parsed == rs
        assert serialize_document(parsed) == first
    assert time.perf_counter() - started < 10.0


@report(5, "discard-cascade oracle")
def test_criterion_05_cascade_oracle():
    started = time.perf_counter()
    rng = random.Random(19991231)
    for _ in range(1000):
        rs = randgen.flawed_record_set(rng, max_records=12)
        expected = cascade_oracle(rs)
        rep = apply_discard_cascade(rs)
        got = {key: ("cascade" if "cascade" in str(reason) else "invalid")
               for key, reason in rep.discarded}
        assert got == expected
        assert set(rep.kept.records) == set(rs.records) - set(expected)
    assert time.perf_counter() - started < 30.0


@report(6, "date grammar")
def test_criterion_06_dates():
    assert parse_partial_date("06.2000") == D(2000, 6)
    with pytest.raises(FormatError):
        parse_partial_date("00.06.2000")
    for text in ("02.2000", "12.2001", "06.06.2001", "01.05.2001",
                 "2001", "20.02.2001"):
        assert format_partial_date(parse_partial_date(text)) == text


@report(7, "file-name grammar")
def test_criterion_07_names():
    attested = {
        "TUWIEN.06.06.2001.ALL":
            ExchangeName(ExchangeKind.ALL, "TUWIEN", D(2001, 6, 6)),
        "TUWIEN.06.06.2001.PROJECT.E015-01-08":
            ExchangeName(ExchangeKind.PER_OBJECT, "TUWIEN", D(2001, 6, 6),
                         "project", "E015-01-08"),
        "ANNUAL.TUWIEN.2001.rdf":
            ExchangeName(ExchangeKind.ANNUAL, "TUWIEN", D(2001)),
        "CHANGE.TUWIEN.PROJECT.AURIS.01.05.2001.rdf":
            ExchangeName(ExchangeKind.CHANGE, "TUWIEN", D(2001, 5, 1),
                         "project", "AURIS"),
    }
    for text, expected in attested.items():
        assert parse_name(text) == expected
        assert format_name(expected) == text

    rng = random.Random(54321)
    for _ in range(300):
        name = randgen.rand_exchange_name(rng)
        text = format_name(name)
        parsed = parse_name(text)
        assert format_name(parsed) == text
        assert (parsed.kind, parsed.organization, parsed.date,
                parsed.record_type, parsed.identifier) == \
            (name.kind, name.organization, name.date,
             name.record_type, name.identifier)


@report(8, "legacy record conversion")
def test_criterion_08_sgml_conversion():
    records, _ = parse_sgml(read_data("fodok_record.sgml").encode("utf-8"))
    assert len(records) == 1
    legacy = records[0]
    converted = map_record(legacy, D(2001, 6, 6))
    unit = converted.orgunit
    assert unit.id == "E015-01"
    by_lang = {n.language: n.text for n in unit.names}
    assert by_lang["de"] == "Außeninstitut"
    assert by_lang["en"] == "University Extension Centre"

    related = {r.id: r for r in converted.related}
    head = related["E015-01.head"]
    assert [c.email for c in head.contacts] == ["walter@derpi.tuwien.ac.at"]
    parent_names = [n.text
                    for r in converted.related if isinstance(r, type(unit))
                    for n in r.names]
    assert "Technische Universität Wien" in parent_names

    german = legacy.values("KUG")
    english = legacy.values("KUE")
    assert (len(german), len(english)) == (9, 8)
    plain = [s.skill for s in unit.expert_skills if s.role is None]
    assert plain == german + english

    rs, _ = build_record_set([converted])
    assert apply_discard_cascade(rs).ok


@report(9, "embed/extract closure")
def test_criterion_09_page_closure():
    rng = random.Random(424242)
    for index in range(200):
        kind = rng.choice(["project", "person", "orgunit"])
        ident = randgen.rand_id(rng, index)
        if kind == "project":
            record = randgen.rand_project(rng, ident)
        elif kind == "person":
            record = randgen.rand_person(rng, ident)
        else:
            record = randgen.rand_orgunit(rng, ident)
        page = render_html(record).encode("utf-8")
        result = extract_rdf(page)
        assert result.warnings == []
        assert len(result.documents) == 1
        extracted, _ = result.documents[0]
        assert extracted.records == {record.key: record}


@report(10, "session semantics")
def test_criterion_10_sessions(tmp_path):
    relation = Relation(RecordKey("project", "E015-01-08"),
                        RecordKey("person", "273"), role="contact")
    rs = RecordSet()
    rs.add(Project(
        id="E015-01-08",
        status=ProjectStatus.EXECUTION,
        titles=(TranslatedText("en", TranslationType.HUMAN, "Title"),),
        abstracts=(TranslatedText("en", TranslationType.HUMAN, "Abstract"),),
        relations=(relation,),
    ))
    rs.add(Person(id="273", family_names="Niedermayer"))

    files = plan_session(rs, "TUWIEN", D(2001, 6, 6), ExchangeKind.PER_OBJECT)
    assert len(files) == 2
    gathered = Store()
    for name, sub in files:
        assert relation in sub.all_relations()
        text = serialize_document(sub)
        reread, warnings = parse_document(text)
        assert warnings == [] and reread == sub
        gathered.merge(reread, Provenance(format_name(name), name.date,
                                          SourceKind.PER_OBJECT))
    # the files merged one by one, as gather does, give back the source
    assert {key: record for key, (record, _) in gathered.current.items()} == rs.records
    whole = Store()
    whole.merge(rs, Provenance("TUWIEN.06.06.2001.ALL", D(2001, 6, 6), SourceKind.ALL))
    assert gathered.to_triples() == whole.to_triples()

    registry = IdRegistry(tmp_path / "registry.tsv")
    first = check_session(files, registry)
    assert first.ok
    assert registry.entries == {("TUWIEN", "person", "273"): D(2001, 6, 6),
                                ("TUWIEN", "project", "E015-01-08"): D(2001, 6, 6)}

    drifted = RecordSet()
    drifted.add(Project(
        id="273",
        status=ProjectStatus.EXECUTION,
        titles=(TranslatedText("en", TranslationType.HUMAN, "T"),),
        abstracts=(TranslatedText("en", TranslationType.HUMAN, "A"),),
    ))
    second = check_session(
        plan_session(drifted, "TUWIEN", D(2001, 7, 1), ExchangeKind.PER_OBJECT),
        registry)
    assert [issue.code for issue in second.issues] == ["type-drift"]


@report(11, "gather and query")
def test_criterion_11_store_scenario():
    started = time.perf_counter()

    unit_set = RecordSet()
    unit_set.add(OrgUnit(
        id="tuwien",
        names=(TranslatedText("de", TranslationType.ORIGINAL, "TU Wien"),),
    ))
    unit_set.add_relation(Relation(RecordKey("orgunit", "tuwien"),
                                   RecordKey("person", "skalicky"),
                                   role="Rektor"))
    person_set = RecordSet()
    person_set.add(Person(id="skalicky", family_names="Skalicky"))
    project_set = RecordSet()
    project_set.add(Project(
        id="auris",
        status=ProjectStatus.EXECUTION,
        titles=(TranslatedText("en", TranslationType.HUMAN, "AURIS"),),
        abstracts=(TranslatedText("en", TranslationType.HUMAN, "Hub"),),
    ))
    sources = [
        (unit_set, Provenance("units.rdf", D(2001, 6, 6), SourceKind.ALL)),
        (person_set, Provenance("people.rdf", D(2001, 6, 7), SourceKind.ALL)),
        (project_set, Provenance("projects.rdf", D(2001, 6, 8), SourceKind.ALL)),
    ]

    eq = EquivalenceMap()
    eq.add_class(["rector", "Rektor"])
    pattern = TriplePattern.parse("(tuwien, rector, ?x)")

    reference = None
    for ordering in itertools.permutations(sources):
        store = Store()
        for rs, prov in ordering:
            store.merge(rs, prov)
        assert len(store.current) == 3
        bound = store.query(pattern, eq)
        assert bound == [("orgunit:tuwien", "Rektor", "person:skalicky")]
        assert store.query(pattern) == []
        if reference is None:
            reference = store.current
        else:
            assert store.current == reference

    assert time.perf_counter() - started < 1.0
