"""Tests for exchange file names, session planning and the id registry."""

import random

import pytest

from cerifrdf.errors import (
    DuplicateObject,
    FormatError,
    InvariantViolation,
    UnrecognizedName,
)
from cerifrdf.exchange import (
    ExchangeKind,
    ExchangeName,
    IdRegistry,
    check_session,
    format_name,
    merge_session,
    parse_name,
    plan_session,
)
from cerifrdf.model import (
    PartialDate,
    Person,
    Project,
    ProjectStatus,
    RecordKey,
    Relation,
    TranslatedText,
    TranslationType,
)
from cerifrdf.rdfxml import RecordSet

import randgen

D = PartialDate


# ---------------------------------------------------------------------------
# name grammar

def test_snapshot_name():
    name = parse_name("TUWIEN.06.06.2001.ALL")
    assert name == ExchangeName(ExchangeKind.ALL, "TUWIEN", D(2001, 6, 6))
    assert format_name(name) == "TUWIEN.06.06.2001.ALL"


def test_per_object_name():
    name = parse_name("TUWIEN.06.06.2001.PROJECT.E015-01-08")
    assert name.kind is ExchangeKind.PER_OBJECT
    assert name.organization == "TUWIEN"
    assert name.date == D(2001, 6, 6)
    assert name.record_type == "project"
    assert name.identifier == "E015-01-08"
    assert format_name(name) == "TUWIEN.06.06.2001.PROJECT.E015-01-08"


def test_annual_name():
    name = parse_name("ANNUAL.TUWIEN.2001.rdf")
    assert name.kind is ExchangeKind.ANNUAL
    assert name.organization == "TUWIEN"
    assert name.date == D(2001)
    assert name.record_type is None and name.identifier is None
    assert format_name(name) == "ANNUAL.TUWIEN.2001.rdf"


def test_change_name():
    name = parse_name("CHANGE.TUWIEN.PROJECT.AURIS.01.05.2001.rdf")
    assert name.kind is ExchangeKind.CHANGE
    assert name.organization == "TUWIEN"
    assert name.record_type == "project"
    assert name.identifier == "AURIS"
    assert name.date == D(2001, 5, 1)
    assert format_name(name) == "CHANGE.TUWIEN.PROJECT.AURIS.01.05.2001.rdf"


def test_identifiers_may_contain_dots():
    name = parse_name("TUWIEN.06.06.2001.ORGUNIT.TUWIEN.AUSENINSTITUT")
    assert name.identifier == "TUWIEN.AUSENINSTITUT"
    change = parse_name("CHANGE.TUWIEN.ORGUNIT.E015.01.X.01.05.2001.rdf")
    assert change.identifier == "E015.01.X"
    assert change.date == D(2001, 5, 1)


def test_extension_tolerated_and_normalized():
    # a stray .rdf on a snapshot name parses but the canonical form drops it
    name = parse_name("TUWIEN.06.06.2001.ALL.rdf")
    assert name.kind is ExchangeKind.ALL
    assert format_name(name) == "TUWIEN.06.06.2001.ALL"
    # an annual name without .rdf parses and the canonical form adds it
    bare = parse_name("ANNUAL.TUWIEN.2001")
    assert format_name(bare) == "ANNUAL.TUWIEN.2001.rdf"


def test_name_case_is_forgiving():
    name = parse_name("annual.TUWIEN.2001.RDF")
    assert name.kind is ExchangeKind.ANNUAL
    per = parse_name("TUWIEN.06.06.2001.Project.E015")
    assert per.record_type == "project"
    assert format_name(per) == "TUWIEN.06.06.2001.PROJECT.E015"


def test_whitespace_around_segments_tolerated():
    name = parse_name("  TUWIEN.06.06.2001.ALL \n")
    assert name.organization == "TUWIEN"


@pytest.mark.parametrize("text", [
    "",
    "TUWIEN",
    "TUWIEN..06.2001.ALL",
    "TUWIEN.06.2001.ALL",
    "TUWIEN.00.06.2001.ALL",
    "TUWIEN.06.06.2001",
    "TUWIEN.06.06.2001.COMMITTEE.X",
    "TUWIEN.06.06.2001.PROJECT",
    "ANNUAL.TUWIEN.01.05.2001.rdf",
    "ANNUAL.TUWIEN.99.rdf",
    "CHANGE.TUWIEN.PROJECT.01.05.2001.rdf",
    "CHANGE.TUWIEN.COMMITTEE.X.01.05.2001.rdf",
])
def test_unparseable_names_rejected(text):
    with pytest.raises(UnrecognizedName):
        parse_name(text)


def test_format_name_invariants():
    with pytest.raises(InvariantViolation):
        format_name(ExchangeName(ExchangeKind.ALL, "TU.WIEN", D(2001, 6, 6)))
    with pytest.raises(InvariantViolation):
        format_name(ExchangeName(ExchangeKind.ALL, "TUWIEN", D(2001, 6)))
    with pytest.raises(InvariantViolation):
        format_name(ExchangeName(ExchangeKind.ANNUAL, "TUWIEN", D(2001, 6, 6)))
    with pytest.raises(InvariantViolation):
        format_name(ExchangeName(ExchangeKind.ALL, "TUWIEN", D(2001, 6, 6),
                                 record_type="project", identifier="X"))
    with pytest.raises(InvariantViolation):
        format_name(ExchangeName(ExchangeKind.PER_OBJECT, "TUWIEN",
                                 D(2001, 6, 6), record_type="project"))
    with pytest.raises(InvariantViolation):
        format_name(ExchangeName(ExchangeKind.CHANGE, "TUWIEN", D(2001, 6, 6),
                                 record_type="board", identifier="X"))


@pytest.mark.parametrize("identifier", [
    ".x", "a..b", "x.", "v.rdf", "v.RDF", "a.b.Rdf", " x", "x ", "a .b", "a. b", " ",
])
def test_format_name_refuses_identifiers_that_do_not_read_back(identifier):
    name = ExchangeName(ExchangeKind.PER_OBJECT, "TUWIEN", D(2001, 6, 6),
                        "person", identifier)
    with pytest.raises(InvariantViolation, match="identifier"):
        format_name(name)


def test_format_name_accepts_exactly_the_identifiers_that_read_back():
    # an identifier is refused exactly when parsing its rendered name would
    # fail or give another identifier; a change name ends in the date, so
    # "v.rdf" reads back there
    rng = random.Random(6066)
    alphabet = ["a", "7", ".", ".", " ", "rdf", "RDF", "-"]
    refused = accepted = 0
    for _ in range(3000):
        identifier = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        kind = rng.choice([ExchangeKind.PER_OBJECT, ExchangeKind.CHANGE])
        name = ExchangeName(kind, "TUWIEN", D(2001, 6, 6), "person", identifier)
        try:
            parsed = parse_name(f"TUWIEN.06.06.2001.PERSON.{identifier}"
                                if kind is ExchangeKind.PER_OBJECT else
                                f"CHANGE.TUWIEN.PERSON.{identifier}.06.06.2001.rdf")
            reads_back = parsed.identifier == identifier
        except UnrecognizedName:
            reads_back = False
        if reads_back:
            parsed = parse_name(format_name(name))
            assert (parsed.kind, parsed.identifier) == (kind, identifier)
            accepted += 1
        else:
            with pytest.raises(InvariantViolation):
                format_name(name)
            refused += 1
    assert accepted > 500 and refused > 500
    assert format_name(ExchangeName(ExchangeKind.CHANGE, "TUWIEN", D(2001, 6, 6),
                                    "person", "v.rdf")) == \
        "CHANGE.TUWIEN.PERSON.v.rdf.06.06.2001.rdf"


def test_random_names_round_trip():
    rng = random.Random(271828)
    for _ in range(50):
        name = randgen.rand_exchange_name(rng)
        text = format_name(name)
        parsed = parse_name(text)
        assert format_name(parsed) == text
        assert (parsed.kind, parsed.organization, parsed.date,
                parsed.record_type, parsed.identifier) == \
            (name.kind, name.organization, name.date,
             name.record_type, name.identifier)


# ---------------------------------------------------------------------------
# session planning and reassembly

def sample_set() -> RecordSet:
    rs = RecordSet()
    rel = Relation(RecordKey("project", "E015-01-08"), RecordKey("person", "273"),
                   role="contact")
    rs.add(Project(
        id="E015-01-08",
        status=ProjectStatus.EXECUTION,
        titles=(TranslatedText("en", TranslationType.HUMAN, "Title"),),
        abstracts=(TranslatedText("en", TranslationType.HUMAN, "Abstract"),),
        relations=(rel,),
    ))
    rs.add(Person(id="273", family_names="Niedermayer"))
    return rs


def test_plan_all_session():
    rs = sample_set()
    files = plan_session(rs, "TUWIEN", D(2001, 6, 6), ExchangeKind.ALL)
    assert len(files) == 1
    name, content = files[0]
    assert format_name(name) == "TUWIEN.06.06.2001.ALL"
    assert content is rs


def test_plan_per_object_duplicates_relations():
    rs = sample_set()
    files = plan_session(rs, "TUWIEN", D(2001, 6, 6), ExchangeKind.PER_OBJECT)
    by_name = {format_name(name): sub for name, sub in files}
    assert sorted(by_name) == ["TUWIEN.06.06.2001.PERSON.273",
                               "TUWIEN.06.06.2001.PROJECT.E015-01-08"]
    rel = next(iter(rs.records[RecordKey("project", "E015-01-08")].relations))
    project_file = by_name["TUWIEN.06.06.2001.PROJECT.E015-01-08"]
    person_file = by_name["TUWIEN.06.06.2001.PERSON.273"]
    # nested inside the project, document-level beside the person
    assert rel in project_file.records[RecordKey("project", "E015-01-08")].relations
    assert project_file.relations == []
    assert person_file.relations == [rel]
    assert rel in project_file.all_relations()
    assert rel in person_file.all_relations()


def test_merge_session_restores_source():
    rs = sample_set()
    files = plan_session(rs, "TUWIEN", D(2001, 6, 6), ExchangeKind.PER_OBJECT)
    assert merge_session(files) == rs


def test_merge_session_rejects_conflicting_copies():
    name = ExchangeName(ExchangeKind.PER_OBJECT, "TUWIEN", D(2001, 6, 6),
                        "person", "273")
    a = RecordSet()
    a.add(Person(id="273", family_names="Niedermayer"))
    b = RecordSet()
    b.add(Person(id="273", family_names="Andersname"))
    with pytest.raises(DuplicateObject):
        merge_session([(name, a), (name, b)])


def test_merge_session_tolerates_identical_copies():
    name = ExchangeName(ExchangeKind.PER_OBJECT, "TUWIEN", D(2001, 6, 6),
                        "person", "273")
    a = RecordSet()
    a.add(Person(id="273", family_names="Niedermayer"))
    b = RecordSet()
    b.add(Person(id="273", family_names="Niedermayer"))
    merged = merge_session([(name, a), (name, b)])
    assert sorted(merged.records) == [RecordKey("person", "273")]


def test_plan_session_needs_full_date():
    with pytest.raises(InvariantViolation):
        plan_session(sample_set(), "TUWIEN", D(2001, 6), ExchangeKind.ALL)
    with pytest.raises(InvariantViolation):
        plan_session(sample_set(), "TUWIEN", D(2001, 6, 6), ExchangeKind.ANNUAL)


# ---------------------------------------------------------------------------
# id registry

def test_registry_round_trip(tmp_path):
    path = tmp_path / "registry.tsv"
    reg = IdRegistry(path)
    assert reg.register("TUWIEN", "project", "E015-01-08", D(2001, 6, 6))
    assert reg.register("TUWIEN", "person", "273", D(2001, 6, 6))
    # re-registration never moves the first-seen date
    assert not reg.register("TUWIEN", "project", "E015-01-08", D(2002, 1, 1))
    reg.save()
    lines = path.read_text("utf-8").splitlines()
    assert lines == [
        "TUWIEN\tperson\t273\t06.06.2001",
        "TUWIEN\tproject\tE015-01-08\t06.06.2001",
    ]
    loaded = IdRegistry.load(path)
    assert loaded.entries == reg.entries
    assert {t for o, t, i in loaded.entries if (o, i) == ("TUWIEN", "273")} == {"person"}
    assert not any(i == "nope" for _, _, i in loaded.entries)


def test_registry_load_rejects_bad_lines(tmp_path):
    path = tmp_path / "registry.tsv"
    path.write_text("TUWIEN\tproject\n", "utf-8")
    with pytest.raises(FormatError):
        IdRegistry.load(path)
    path.write_text("TUWIEN\tboard\tX\t06.06.2001\n", "utf-8")
    with pytest.raises(FormatError):
        IdRegistry.load(path)


def test_registry_missing_file_is_empty(tmp_path):
    reg = IdRegistry.load(tmp_path / "absent.tsv")
    assert reg.entries == {}


def test_registry_save_needs_path():
    with pytest.raises(InvariantViolation):
        IdRegistry().save()


# ---------------------------------------------------------------------------
# session checks

def test_clean_session_registers(tmp_path):
    path = tmp_path / "registry.tsv"
    registry = IdRegistry(path)
    files = plan_session(sample_set(), "TUWIEN", D(2001, 6, 6),
                         ExchangeKind.PER_OBJECT)
    report = check_session(files, registry)
    assert report.ok
    assert report.registered == 2
    assert path.exists()
    again = check_session(files, IdRegistry.load(path))
    assert again.ok and again.registered == 0


def test_duplicate_in_session_flagged():
    name_a = ExchangeName(ExchangeKind.PER_OBJECT, "TUWIEN", D(2001, 6, 6),
                          "person", "273")
    name_b = ExchangeName(ExchangeKind.PER_OBJECT, "TUWIEN", D(2001, 6, 6),
                          "person", "273-copy")
    sub = RecordSet()
    sub.add(Person(id="273", family_names="Niedermayer"))
    report = check_session([(name_a, sub), (name_b, sub)], IdRegistry())
    assert [i.code for i in report.issues] == ["duplicate-in-session"]
    assert report.registered == 0


def test_missing_relation_copy_flagged():
    files = plan_session(sample_set(), "TUWIEN", D(2001, 6, 6),
                         ExchangeKind.PER_OBJECT)
    for name, sub in files:
        if name.record_type == "person":
            sub.relations.clear()
    report = check_session(files, IdRegistry())
    assert [i.code for i in report.issues] == ["relation-not-duplicated"]
    assert "PERSON.273" in report.issues[0].detail


def test_type_drift_flagged():
    registry = IdRegistry()
    registry.register("TUWIEN", "person", "273", D(2001, 1, 1))
    rs = RecordSet()
    rs.add(Project(
        id="273",
        status=ProjectStatus.EXECUTION,
        titles=(TranslatedText("en", TranslationType.HUMAN, "T"),),
        abstracts=(TranslatedText("en", TranslationType.HUMAN, "A"),),
    ))
    files = plan_session(rs, "TUWIEN", D(2001, 6, 6), ExchangeKind.PER_OBJECT)
    report = check_session(files, registry)
    assert [i.code for i in report.issues] == ["type-drift"]
    assert "273" in report.issues[0].detail
    assert str(report.issues[0]).startswith("FLAG type-drift")
    # the drifted sighting is not registered
    assert list(registry.entries) == [("TUWIEN", "person", "273")]
