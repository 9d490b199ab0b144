"""Tests for the CERIF-RDF reader and writer, golden files included."""

import random

import pytest

from cerifrdf.errors import DuplicateId, InvariantViolation, MissingId, XmlError
from cerifrdf.model import (
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
from cerifrdf.rdfxml import (
    CERIF_NS,
    RecordSet,
    parse_document,
    parse_with_duplicates,
    resolve_alias,
    serialize_document,
)

import randgen


def wrap(body: str) -> str:
    return (
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
        '    xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
        f'    xmlns:cerif="{CERIF_NS}">\n'
        f"{body}\n"
        "</rdf:RDF>"
    )


# ---------------------------------------------------------------------------
# golden documents

def test_golden_project(golden_project_text):
    rs, warnings = parse_document(golden_project_text)
    assert sorted(rs.records) == [RecordKey("project", "E015-01-08")]
    p = rs.records[RecordKey("project", "E015-01-08")]
    assert p.status is ProjectStatus.EXECUTION
    assert p.start == PartialDate(2000, 2)
    assert p.end == PartialDate(2001, 12)
    assert p.uri == "http://arge.tuwien.ac.at"
    assert p.prize_awards == ()
    assert [(t.language, t.translation) for t in p.titles] == \
        [("en", TranslationType.HUMAN), ("de", TranslationType.ORIGINAL)]
    assert p.titles[0].text == \
        "Austrian Research Information System: Multimedial Enhancement"
    assert p.titles[1].text.startswith("Multimediale Neugestaltung")
    assert p.titles[1].text.endswith("Forschungsdokumentation")
    assert [(a.language, a.translation) for a in p.abstracts] == \
        [("en", TranslationType.HUMAN), ("de", TranslationType.ORIGINAL)]
    assert "Oracle database" in p.abstracts[0].text
    assert "Projektbeschreibungen" in p.abstracts[1].text
    # the two placeholder keyword items carry nothing and are dropped loudly
    assert p.keywords == ()
    assert sum("keywords" in w and "dropped" in w for w in warnings) == 2


def test_golden_project_text_is_whitespace_collapsed(golden_project_text):
    rs, _ = parse_document(golden_project_text)
    p = rs.records[RecordKey("project", "E015-01-08")]
    for tt in (*p.titles, *p.abstracts):
        assert "\n" not in tt.text
        assert "  " not in tt.text


def test_golden_person_recovers_missing_prefix(golden_person_text):
    # the source document never declares the cerif prefix
    assert 'xmlns:cerif' not in golden_person_text
    rs, warnings = parse_document(golden_person_text)
    person = rs.records[RecordKey("person", "273")]
    assert person.family_names == "Niedermayer"
    assert person.first_names == "Walter"
    assert person.sex == "M"
    assert person.prize_awards == ()
    assert person.uri == "http://derpi.tuwien.ac.at/~walter/index-e.html"
    assert [sk.skill for sk in person.expert_skills] == ["Multimedia", "CRIS"]
    assert all(sk.role is None for sk in person.expert_skills)
    assert len(person.contacts) == 1
    contact = person.contacts[0]
    assert contact.telephone is None
    assert contact.email == "walter@derpi.tuwien.ac.at"
    assert contact.uri == person.uri
    assert any("undeclared prefix cerif" in w for w in warnings)


def test_golden_orgunit_quirks(golden_orgunit_text):
    rs, warnings = parse_document(golden_orgunit_text)
    ou = rs.records[RecordKey("orgunit", "TUWIEN.AUSENINSTITUT")]
    assert ou.acronym is None and ou.prize_award is None and ou.url is None
    assert len(ou.names) == 1
    name = ou.names[0]
    assert name.language == "de"
    assert name.translation is TranslationType.ORIGINAL
    assert name.text == "Auseninstitut"
    assert any("'0'" in w for w in warnings)
    # resource=" TUWIEN" arrives trimmed
    assert ou.ou_relations == (OuOuRelation(target="TUWIEN", role="parent"),)
    # dotted cerif. spellings are read as cerif: with a warning each
    assert [sk.skill for sk in ou.expert_skills] == \
        ["CRIS-Current Research Information System"]
    assert sum("cerif.orgunit" in w for w in warnings) == 2


# ---------------------------------------------------------------------------
# alias resolution

@pytest.mark.parametrize("name,canonical", [
    ("proj_status", "proj_status"),
    ("Project.Status", "proj_status"),
    ("proj_start_date", "proj_startdate"),
    ("project.startdate", "proj_startdate"),
    ("PROJ_URL", "proj_uri"),
    ("project.project", "project"),
    ("project.project-title", "Project-title"),
    ("proj_title_transl_type", "proj_title_trans_type"),
    ("proj-abstract", "proj_abstract"),
    ("project.keywords", "proj_keywords"),
    ("person.person", "person"),
    ("orgunit.orgunit", "orgunit"),
])
def test_resolve_alias_table(name, canonical):
    assert resolve_alias(name) == (canonical, True)


def test_resolve_alias_relation_endpoints():
    assert resolve_alias("rel.from.person") == ("rel.from.person", True)
    assert resolve_alias("Rel.To.Orgunit") == ("rel.to.orgunit", True)
    assert resolve_alias("rel.from.committee") == ("rel.from.committee", False)


def test_resolve_alias_unknown_passes_through():
    name = "proj_completely_new"
    assert resolve_alias(name) == (name, False)


# ---------------------------------------------------------------------------
# parse diagnostics and failures

def test_missing_id_raises():
    doc = wrap("<cerif:project></cerif:project>")
    with pytest.raises(MissingId):
        parse_document(doc)


def test_duplicate_key_raises_and_scan_reports():
    doc = wrap('<cerif:person ID="1"></cerif:person>'
               '<cerif:person ID="1"></cerif:person>'
               '<cerif:person ID="2"></cerif:person>')
    with pytest.raises(DuplicateId):
        parse_document(doc)
    assert parse_with_duplicates(doc)[2] == [RecordKey("person", "1")]


def test_wrong_root_rejected():
    with pytest.raises(XmlError):
        parse_document('<cerif:project xmlns:cerif="%s" ID="1"/>' % CERIF_NS)


def test_not_xml_rejected():
    with pytest.raises(XmlError):
        parse_document("this is not markup")
    with pytest.raises(XmlError):
        parse_document(wrap("<cerif:project"))


def test_non_utf8_bytes_rejected():
    with pytest.raises(XmlError):
        parse_document(b"\xff\xfe<rdf:RDF>")


def test_unknown_elements_warn_but_parse():
    doc = wrap('<cerif:project ID="P1">'
               "<cerif:proj_status>Execution</cerif:proj_status>"
               "<cerif:proj_moonphase>full</cerif:proj_moonphase>"
               "</cerif:project>"
               "<cerif:mystery/>")
    rs, warnings = parse_document(doc)
    assert RecordKey("project", "P1") in rs.records
    assert any("proj_moonphase" in w for w in warnings)
    assert any("mystery" in w for w in warnings)


def test_duplicate_property_keeps_first():
    doc = wrap('<cerif:project ID="P1">'
               "<cerif:proj_status>Execution</cerif:proj_status>"
               "<cerif:proj_status>Completed</cerif:proj_status>"
               "</cerif:project>")
    rs, warnings = parse_document(doc)
    assert rs.records[RecordKey("project", "P1")].status is ProjectStatus.EXECUTION
    assert any("duplicate" in w for w in warnings)


def test_unrecognized_status_kept_verbatim():
    doc = wrap('<cerif:project ID="P1">'
               "<cerif:proj_status>Dormant</cerif:proj_status>"
               "</cerif:project>")
    rs, warnings = parse_document(doc)
    assert rs.records[RecordKey("project", "P1")].status == "Dormant"
    assert any("Dormant" in w for w in warnings)


def test_unusable_date_becomes_warning():
    doc = wrap('<cerif:project ID="P1">'
               "<cerif:proj_startdate>sometime</cerif:proj_startdate>"
               "</cerif:project>")
    rs, warnings = parse_document(doc)
    assert rs.records[RecordKey("project", "P1")].start is None
    assert any("sometime" in w for w in warnings)


def test_bag_oddities_warn():
    doc = wrap('<cerif:project ID="P1">'
               "<cerif:project-titles>"
               "<rdf:Bag>"
               "<rdf:li>bare text</rdf:li>"
               "<cerif:not_li/>"
               "</rdf:Bag>"
               "</cerif:project-titles>"
               "<cerif:project-keywords></cerif:project-keywords>"
               "</cerif:project>")
    rs, warnings = parse_document(doc)
    p = rs.records[RecordKey("project", "P1")]
    assert p.titles == () and p.keywords == ()
    assert any("bare-text" in w for w in warnings)
    assert any("non-li" in w for w in warnings)
    assert any("no rdf:Bag" in w for w in warnings)


def test_tabular_spellings_accepted():
    doc = wrap('<cerif:project.project ID="E015-01-08">'
               "<cerif:project.Status>Execution</cerif:project.Status>"
               "<cerif:proj_start_date>02.2000</cerif:proj_start_date>"
               "<cerif:proj_url>http://arge.tuwien.ac.at</cerif:proj_url>"
               "</cerif:project.project>")
    rs, _ = parse_document(doc)
    p = rs.records[RecordKey("project", "E015-01-08")]
    assert p.status is ProjectStatus.EXECUTION
    assert str(p.start) == "02.2000"
    assert p.uri == "http://arge.tuwien.ac.at"


def test_nested_and_document_relations():
    doc = wrap('<cerif:project ID="P1">'
               "<cerif:project-relations><rdf:Bag><rdf:li>"
               "<cerif:Project-relation>"
               '<cerif:rel.from.project resource="P1"/>'
               '<cerif:rel.to.person resource=" 273 "/>'
               "<cerif:rel.role>contact</cerif:rel.role>"
               "<cerif:rel.mandatory>true</cerif:rel.mandatory>"
               "</cerif:Project-relation>"
               "</rdf:li></rdf:Bag></cerif:project-relations>"
               "</cerif:project>"
               "<cerif:relations><rdf:Bag><rdf:li>"
               "<cerif:relation>"
               '<cerif:rel.from.orgunit resource="TUWIEN"/>'
               '<cerif:rel.to.project resource="P1"/>'
               "<cerif:rel.role>runs</cerif:rel.role>"
               "</cerif:relation>"
               "</rdf:li></rdf:Bag></cerif:relations>")
    rs, warnings = parse_document(doc)
    p = rs.records[RecordKey("project", "P1")]
    assert p.relations == (Relation(RecordKey("project", "P1"),
                                    RecordKey("person", "273"),
                                    role="contact", mandatory=True),)
    assert rs.relations == [Relation(RecordKey("orgunit", "TUWIEN"),
                                     RecordKey("project", "P1"), role="runs")]
    assert warnings == []


def test_relation_without_endpoint_dropped():
    doc = wrap("<cerif:relations><rdf:Bag><rdf:li>"
               "<cerif:relation>"
               '<cerif:rel.from.project resource="P1"/>'
               "<cerif:rel.role>runs</cerif:rel.role>"
               "</cerif:relation>"
               "</rdf:li></rdf:Bag></cerif:relations>")
    rs, warnings = parse_document(doc)
    assert rs.relations == []
    assert any("both endpoints" in w for w in warnings)


FOREIGN = '<x:fax xmlns:x="http://example.org/other#">+43 1 999</x:fax>'


def bag(container: str, item: str, inner: str) -> str:
    return (f"<cerif:{container}><rdf:Bag><rdf:li><cerif:{item}>{inner}"
            f"</cerif:{item}></rdf:li></rdf:Bag></cerif:{container}>")


def test_foreign_element_in_contact_warns():
    doc = wrap('<cerif:person ID="1">'
               "<cerif:person.per_family_names>Muster</cerif:person.per_family_names>"
               + bag("person.contacts", "contact",
                     "<cerif:contact.email>m@example.org</cerif:contact.email>"
                     + FOREIGN)
               + "</cerif:person>")
    rs, warnings = parse_document(doc)
    contact = rs.records[RecordKey("person", "1")].contacts[0]
    assert (contact.email, contact.telephone) == ("m@example.org", None)
    assert warnings == ["person 1 contacts: foreign element ignored"]


def test_foreign_element_in_ou_relation_warns():
    doc = wrap('<cerif:orgunit ID="O1">'
               + bag("orgunit.ou_ou_relations", "orgunit.ou_ou_relation",
                     '<cerif:orgunit.ou_ou_r.orgunit resource="O2"/>'
                     "<cerif:orgunit.ou_ou_r.role>parent</cerif:orgunit.ou_ou_r.role>"
                     + FOREIGN)
               + "</cerif:orgunit>")
    rs, warnings = parse_document(doc)
    assert rs.records[RecordKey("orgunit", "O1")].ou_relations == (
        OuOuRelation(target="O2", role="parent"),)
    assert warnings == ["orgunit O1 relations: foreign element ignored"]


def test_foreign_element_in_relation_warns():
    doc = wrap(bag("relations", "relation",
                   '<cerif:rel.from.orgunit resource="O1"/>'
                   '<cerif:rel.to.project resource="P1"/>'
                   "<cerif:rel.role>runs</cerif:rel.role>" + FOREIGN))
    rs, warnings = parse_document(doc)
    assert rs.relations == [Relation(RecordKey("orgunit", "O1"),
                                     RecordKey("project", "P1"), role="runs")]
    assert warnings == ["document relations: foreign element ignored"]


def test_foreign_element_warnings_keep_their_place():
    # each warning stands where its element does, in the record and in an item
    doc = wrap('<cerif:person ID="1">'
               "<cerif:person.per_family_names>Muster</cerif:person.per_family_names>"
               "<cerif:person.per_sex>X</cerif:person.per_sex>" + FOREIGN
               + "<cerif:bogus>1</cerif:bogus>"
               + bag("person.contacts", "contact",
                     "<cerif:contact.fax>1</cerif:contact.fax>" + FOREIGN
                     + "<cerif:contact.pager>2</cerif:contact.pager>")
               + "</cerif:person>")
    _, warnings = parse_document(doc)
    assert warnings == [
        "person 1: unrecognized sex code 'X'",
        "person 1: foreign element ignored",
        "person 1: unknown element cerif:bogus ignored",
        "contact: unknown element cerif:contact.fax ignored",
        "person 1 contacts: foreign element ignored",
        "contact: unknown element cerif:contact.pager ignored",
    ]


def test_document_relations_deduplicated_in_order():
    rels = [Relation(RecordKey("orgunit", str(i % 3)), RecordKey("project", "P1"),
                     role="runs") for i in (2, 0, 2, 1, 0)]
    rs = RecordSet(relations=rels)
    text = serialize_document(rs)
    parts = text.split("<rdf:li>")
    doubled = "<rdf:li>".join([*parts[:2], parts[1], *parts[2:]])
    parsed, warnings = parse_document(doubled)
    assert warnings == []
    assert parsed.relations == sorted(set(rels), key=Relation.sort_key)
    assert RecordSet(relations=rels).all_relations() == rels[:2] + [rels[3]]
    grown = RecordSet(relations=[rels[3]])
    grown.extend_relations(rels)
    assert grown.relations == [rels[3], rels[0], rels[1]]


# ---------------------------------------------------------------------------
# serialization

def _small_set() -> RecordSet:
    rs = RecordSet()
    rs.add(Project(
        id="P1",
        status=ProjectStatus.ACCEPTED,
        titles=(TranslatedText("en", TranslationType.HUMAN, "A title"),),
        abstracts=(TranslatedText("en", TranslationType.HUMAN, "An abstract"),),
    ))
    rs.add(Person(id="Q1", family_names="Muster"))
    return rs


def test_serializer_is_deterministic():
    assert serialize_document(_small_set()) == serialize_document(_small_set())


def test_serializer_ignores_insertion_order():
    forward = _small_set()
    backward = RecordSet()
    for key in reversed(sorted(forward.records)):
        backward.add(forward.records[key])
    a = Relation(RecordKey("person", "Q1"), RecordKey("project", "P1"), role="leads")
    b = Relation(RecordKey("person", "Q1"), RecordKey("project", "P1"), role="works")
    forward.add_relation(a)
    forward.add_relation(b)
    backward.add_relation(b)
    backward.add_relation(a)
    assert serialize_document(forward) == serialize_document(backward)


def test_serializer_refuses_invalid_records():
    rs = RecordSet()
    rs.add(Project(id="P1", status=None))
    with pytest.raises(InvariantViolation):
        serialize_document(rs)


def test_serializer_relaxed_mode_keeps_partial_records():
    rs = RecordSet()
    rs.add(Project(id="P1", status=ProjectStatus.EXECUTION,
                   uri="http://example.org/p1"))
    text = serialize_document(rs, validate=False)
    parsed, warnings = parse_document(text)
    assert warnings == []
    assert parsed == rs
    # relation checks still apply in relaxed mode
    key = RecordKey("project", "P1")
    rs.add_relation(Relation(key, key, role="self"))
    with pytest.raises(InvariantViolation):
        serialize_document(rs, validate=False)


def test_serializer_refuses_broken_relations():
    key = RecordKey("person", "Q1")
    rs = RecordSet()
    rs.add(Person(id="Q1", family_names="Muster"))
    rs.add_relation(Relation(key, key, role="self"))
    with pytest.raises(InvariantViolation):
        serialize_document(rs)

    rs2 = RecordSet()
    rs2.add(Person(id="Q1", family_names="Muster"))
    rs2.add_relation(Relation(key, RecordKey("project", "P1"), role=""))
    with pytest.raises(InvariantViolation):
        serialize_document(rs2)

    rs3 = RecordSet()
    rs3.add(Person(id="Q1", family_names="Muster"))
    rs3.add_relation(Relation(key, RecordKey("committee", "C1"), role="serves"))
    with pytest.raises(InvariantViolation):
        serialize_document(rs3)


def test_round_trip_handles_markup_characters():
    hostile = 'R&D <"quoted"> --> it\'s fine'
    rs = RecordSet()
    rs.add(Project(
        id="P-<&>",
        status=ProjectStatus.EXECUTION,
        titles=(TranslatedText("en", TranslationType.ORIGINAL, hostile),),
        abstracts=(TranslatedText("de", TranslationType.HUMAN, hostile),),
    ))
    parsed, warnings = parse_document(serialize_document(rs))
    assert warnings == []
    assert parsed == rs


def test_custom_namespace_round_trip():
    ns = "http://example.org/custom-cerif#"
    rs = _small_set()
    text = serialize_document(rs, cerif_ns=ns)
    assert f'xmlns:cerif="{ns}"' in text
    parsed, warnings = parse_document(text, cerif_ns=ns)
    assert warnings == []
    assert parsed == rs
    # under the default namespace the same document is just foreign noise
    other, other_warnings = parse_document(text)
    assert other.records == {}
    assert other_warnings


def test_round_trip_random_sets():
    rng = random.Random(20010605)
    for _ in range(100):
        rs = randgen.rand_record_set(rng)
        text = serialize_document(rs)
        parsed, warnings = parse_document(text)
        assert warnings == []
        assert parsed == rs


def test_empty_set_round_trips():
    rs = RecordSet()
    parsed, warnings = parse_document(serialize_document(rs))
    assert warnings == []
    assert parsed == rs
    assert parsed.records == {}
