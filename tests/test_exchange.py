"""Tests for exchange file names, session planning and the id registry."""

import random
import tracemalloc

import pytest

from cerifrdf.cli import main
from cerifrdf.errors import FormatError, InvariantViolation
from cerifrdf.exchange import (
    ExchangeKind,
    ExchangeName,
    IdRegistry,
    check_session,
    format_name,
    parse_name,
    plan_session,
)
from cerifrdf.model import (
    RECORD_TYPES,
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
from cerifrdf.validation import validate_record

import randgen
from conftest import DATA_DIR

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


# each name parse_name refuses, with what its refusal says after the name
UNPARSEABLE_NAMES = {
    "": "empty name segment",
    "TUWIEN": "too few segments, date not full",
    "TUWIEN..06.2001.ALL": "empty name segment",
    "TUWIEN.06.2001.ALL": "too few segments, date not full",
    "TUWIEN.00.06.2001.ALL":
        "zero date field in '00.06.2001'; omit an unknown day or month instead",
    "TUWIEN.06.06.2001": "too few segments, date not full",
    "TUWIEN.06.06.2001.COMMITTEE.X": "unknown record type 'COMMITTEE'",
    "TUWIEN.06.06.2001.PROJECT": "missing object identifier",
    "ANNUAL.TUWIEN.01.05.2001.rdf": "expected ANNUAL.ORG.YYYY",
    "ANNUAL.TUWIEN.99.rdf": "'99' is not a four-digit year",
    "ANNUAL.TUWIEN.²⁰⁰¹.rdf": "'²⁰⁰¹' is not a four-digit year",
    "ANNUAL.TUWIEN.0999.rdf": "year 999 outside 1000-9999",
    "TUWIEN.06.06.²⁰⁰¹.ALL": "non-numeric date field '²⁰⁰¹' in '06.06.²⁰⁰¹'",
    "TUWIEN.01.01.0999.ALL": "year 999 outside 1000-9999",
    "CHANGE.TUWIEN.PROJECT.01.05.2001.rdf": "expected CHANGE.ORG.TYPE.ID.DD.MM.YYYY",
    "CHANGE.TUWIEN.COMMITTEE.X.01.05.2001.rdf": "unknown record type 'COMMITTEE'",
}


@pytest.mark.parametrize("text", UNPARSEABLE_NAMES)
def test_unparseable_names_rejected(text):
    with pytest.raises(FormatError) as err:
        parse_name(text)
    assert str(err.value) == f"{text!r}: {UNPARSEABLE_NAMES[text]}"


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
        except FormatError:
            reads_back = False
        if kind is ExchangeKind.PER_OBJECT:
            # the validator applies the same rules, so the discard cascade
            # drops every record whose per-object name would be refused
            violations = validate_record(Person(id=identifier, family_names="x"))
            assert [v.field for v in violations] == ([] if reads_back else ["id"])
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


@pytest.mark.parametrize("kind", [ExchangeKind.ALL, ExchangeKind.PER_OBJECT])
@pytest.mark.parametrize("separator", ["\u2028", "\u2029"])
def test_plan_session_refuses_an_id_holding_a_line_or_paragraph_separator(kind, separator):
    # the registry check_session writes is read with str.splitlines
    rs = sample_set()
    rs.add(Person(id=f"a{separator}b", family_names="Sep"))
    with pytest.raises(InvariantViolation, match="holds '/', '\\\\' or a control character"):
        plan_session(rs, "TUWIEN", D(2001, 6, 6), kind)


def test_plan_session_needs_full_date():
    with pytest.raises(InvariantViolation):
        plan_session(sample_set(), "TUWIEN", D(2001, 6), ExchangeKind.ALL)
    with pytest.raises(InvariantViolation):
        plan_session(sample_set(), "TUWIEN", D(2001, 6, 6), ExchangeKind.ANNUAL)


@pytest.mark.parametrize("org, refusal", [
    ("", "empty organization token"),
    ("TU WIEN", "organization token 'TU WIEN' must not contain whitespace"),
], ids=["empty", "space"])
@pytest.mark.parametrize("command", [
    ["package", str(DATA_DIR / "project_e015.rdf"), "--mode", "per-object"],
    ["convert-sgml", str(DATA_DIR / "fodok_record.sgml")],
], ids=["package", "convert-sgml"])
def test_senders_refuse_an_unusable_org_before_the_first_file(tmp_path, capsys,
                                                              command, org, refusal):
    out = tmp_path / "out"
    code = main([*command, "--org", org, "--date", "06.06.2001", "--out", str(out)])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert code == 2
    assert errors == [f"error: {refusal}"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# id registry

def test_registry_round_trip(tmp_path):
    path = tmp_path / "registry.tsv"
    reg = IdRegistry(path)
    reg.register("TUWIEN", "project", "E015-01-08", D(2001, 6, 6))
    reg.register("TUWIEN", "person", "273", D(2001, 6, 6))
    # re-registration never moves the first-seen date
    reg.register("TUWIEN", "project", "E015-01-08", D(2002, 1, 1))
    assert reg.entries == {("TUWIEN", "project", "E015-01-08"): D(2001, 6, 6),
                           ("TUWIEN", "person", "273"): D(2001, 6, 6)}
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


def test_registry_load_rejects_a_key_listed_twice(tmp_path):
    # the later line would otherwise replace the first-seen date
    path = tmp_path / "registry.tsv"
    path.write_text("TUWIEN\tperson\t273\t01.01.1999\n"
                    "TUWIEN\tproject\t273\t01.01.1999\n"
                    "TUWIEN\tperson\t273\t05.05.2000\n", "utf-8")
    with pytest.raises(FormatError) as err:
        IdRegistry.load(path)
    assert str(err.value) == (f"{path}:3: ('TUWIEN', 'person', '273') "
                              "is listed twice")


def test_registry_load_skips_blank_lines(tmp_path):
    path = tmp_path / "registry.tsv"
    path.write_text("\nTUWIEN\tperson\t273\t06.06.2001\n \t \n\n"
                    "TUWIEN\tproject\tE015-01-08\t01.02.2000\n\n", "utf-8")
    assert IdRegistry.load(path).entries == {
        ("TUWIEN", "person", "273"): D(2001, 6, 6),
        ("TUWIEN", "project", "E015-01-08"): D(2000, 2, 1)}


def test_registry_missing_file_is_empty(tmp_path):
    reg = IdRegistry.load(tmp_path / "absent.tsv")
    assert reg.entries == {}


def test_registry_save_needs_path():
    with pytest.raises(InvariantViolation):
        IdRegistry().save()


def _date_text(day, month, year) -> str:
    """The canonical spelling: the fields present, day first, zero-padded."""
    return ".".join([*(f"{n:02d}" for n in (day, month) if n is not None), f"{year}"])


def _loose_date_text(rng, day, month, year) -> str:
    """A spelling the registry reads as the same date: fields padded or not,
    blanks around the text and its fields."""
    fields = [rng.choice((f"{n}", f"{n:02d}", f" {n}")) for n in (day, month)
              if n is not None]
    return rng.choice(("", " ", "  ")) + ".".join([*fields, f"{year}"]) + \
        rng.choice(("", " "))


def test_registry_saves_a_loaded_file_back_sorted_and_canonical(tmp_path):
    rng = random.Random(2201)
    dates = [(rng.randint(1, 28), rng.randint(1, 12), rng.randint(1990, 2010))
             for _ in range(30)]
    dates += [(None, 2, 2001), (None, None, 1999)]
    orgs = ("TUWIEN", "UNIVIE", "JKU")
    entries = {(rng.choice(orgs), rng.choice(RECORD_TYPES), f"id.{i}"): rng.choice(dates)
               for i in range(3000)}
    texts = {key: _loose_date_text(rng, *date) for key, date in entries.items()}
    lines = [f"{org}\t{rtype}\t{ident}\t{texts[org, rtype, ident]}\n"
             for org, rtype, ident in entries]
    lines += ["\n", " \t \n"] * 20
    rng.shuffle(lines)
    path = tmp_path / "registry.tsv"
    path.write_text("".join(lines), "utf-8")

    registry = IdRegistry.load(path)
    assert len(registry.entries) == len(entries)
    # one object per distinct organization, type and date text
    org_objects, date_objects = {}, {}
    for key, date in registry.entries.items():
        org, rtype, _ = key
        assert org_objects.setdefault(org, org) is org
        assert rtype is RECORD_TYPES[RECORD_TYPES.index(rtype)]
        assert date_objects.setdefault(texts[key], date) is date
    registry.save()
    assert path.read_text("utf-8") == "".join(
        f"{org}\t{rtype}\t{ident}\t{_date_text(*entries[org, rtype, ident])}\n"
        for org, rtype, ident in sorted(entries))
    assert IdRegistry.load(path).entries == registry.entries


def test_registry_load_and_save_stay_small(tmp_path):
    # a registry only grows, and every package --registry loads it whole
    rng = random.Random(2202)
    entries = {}
    while len(entries) < 20000:
        key = (rng.choice(("TUWIEN", "TUWIEN", "UNIVIE", "JKU")),
               rng.choice(("project", "person", "orgunit")),
               randgen.rand_id(rng, len(entries)))
        entries[key] = randgen.rand_full_date(rng)
    path = tmp_path / "registry.tsv"
    path.write_text("".join(
        f"{org}\t{rtype}\t{ident}\t{_date_text(date.day, date.month, date.year)}\n"
        for (org, rtype, ident), date in entries.items()), "utf-8")
    tracemalloc.start()
    try:
        registry = IdRegistry.load(path)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        registry.save()
        save_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert registry.entries == entries
    assert held / len(entries) <= 280
    assert save_peak < 2**20


# ---------------------------------------------------------------------------
# session checks

def test_clean_session_registers(tmp_path):
    path = tmp_path / "registry.tsv"
    registry = IdRegistry(path)
    files = plan_session(sample_set(), "TUWIEN", D(2001, 6, 6),
                         ExchangeKind.PER_OBJECT)
    report = check_session(files, registry)
    assert report.ok
    first_seen = {("TUWIEN", "person", "273"): D(2001, 6, 6),
                  ("TUWIEN", "project", "E015-01-08"): D(2001, 6, 6)}
    assert registry.entries == first_seen
    assert path.exists()
    # a later session of the same records keeps their first-seen dates
    later = plan_session(sample_set(), "TUWIEN", D(2002, 1, 1), ExchangeKind.PER_OBJECT)
    again = check_session(later, IdRegistry.load(path))
    assert again.ok
    assert IdRegistry.load(path).entries == first_seen


def test_duplicate_in_session_flagged():
    name_a = ExchangeName(ExchangeKind.PER_OBJECT, "TUWIEN", D(2001, 6, 6),
                          "person", "273")
    name_b = ExchangeName(ExchangeKind.PER_OBJECT, "TUWIEN", D(2001, 6, 6),
                          "person", "273-copy")
    sub = RecordSet()
    sub.add(Person(id="273", family_names="Niedermayer"))
    registry = IdRegistry()
    report = check_session([(name_a, sub), (name_b, sub)], registry)
    assert [i.code for i in report.issues] == ["duplicate-in-session"]
    assert registry.entries == {}


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
