"""Tests for the CERIF-RDF reader and writer, golden files included."""

import ast
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from xml.sax import saxutils
from xml.sax.saxutils import quoteattr

import pytest

from cerifrdf import rdfxml
from cerifrdf.errors import FormatError, InvariantViolation
from cerifrdf.exchange import ExchangeKind, plan_session
from cerifrdf.htmlbridge import render_html
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
from cerifrdf.rdfxml import (
    CERIF_NS,
    RecordSet,
    parse_document,
    parse_with_duplicates,
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
    # and again when the same tags are read a second time
    assert parse_document(golden_orgunit_text)[1] == warnings


# ---------------------------------------------------------------------------
# alias spellings

# (spelling, canonical spelling it stands for).  Record kinds and field
# containers are looked up in rdfxml._ALIASES; item and inner elements are
# read by position and by rules on their names, so their aliases need no
# table entry but must still read as the canonical spelling does.
SPELLINGS = [
    ("proj_status", "proj_status"),
    ("Project.Status", "proj_status"),
    ("project.status", "proj_status"),
    ("proj_start_date", "proj_startdate"),
    ("project.startdate", "proj_startdate"),
    ("proj_end_date", "proj_enddate"),
    ("project.enddate", "proj_enddate"),
    ("PROJ_URL", "proj_uri"),
    ("project.uri", "proj_uri"),
    ("proj_prize_award", "proj_prizeaward"),
    ("project.prizeawards", "proj_prizeaward"),
    ("project.prizeaward", "proj_prizeaward"),
    ("project.project", "project"),
    ("project.project-titles", "project-titles"),
    ("project.project-title", "Project-title"),
    ("proj_title_transl_type", "proj_title_trans_type"),
    ("project.project-abstracts", "project-abstracts"),
    ("project.project-abstract", "Project-abstract"),
    ("proj_abs_transl_type", "proj_abs_trans_type"),
    ("proj-abstract", "proj_abstract"),
    ("project.project-keywords", "project-keywords"),
    ("project.project-keyword", "Project-keyword"),
    ("project.keywords", "proj_keywords"),
    ("project.project-relations", "project-relations"),
    ("project.project-relation", "Project-relation"),
    ("person.person", "person"),
    ("orgunit.orgunit", "orgunit"),
]


def spelling_document() -> str:
    """A canonical document holding every element SPELLINGS names, with an
    empty item in each bag and a repeated proj_uri, so that the warnings
    naming a bag or a field are compared too."""
    project = RecordKey("project", "P1")
    rs = RecordSet()
    rs.add(Project(
        id="P1",
        status=ProjectStatus.EXECUTION,
        start=PartialDate(2000, 2),
        end=PartialDate(2001, 12, 31),
        uri="http://p1.example.org",
        prize_awards=("Prize", "Award"),
        titles=(TranslatedText("en", TranslationType.HUMAN, "Title"),),
        abstracts=(TranslatedText("de", TranslationType.ORIGINAL, "Abstrakt"),),
        keywords=(TranslatedText("en", TranslationType.MACHINE, "CRIS"),),
        relations=(Relation(project, RecordKey("person", "273"), role="contact"),),
    ))
    rs.add(Person(id="273", family_names="Niedermayer"))
    rs.add(OrgUnit(id="OU", names=(TranslatedText("de", TranslationType.ORIGINAL, "Institut"),)))
    uri = "<cerif:proj_uri>http://p1.example.org</cerif:proj_uri>"
    text = serialize_document(rs).replace("<rdf:Bag>", "<rdf:Bag><rdf:li/>")
    return text.replace(uri, uri + uri)


@pytest.mark.parametrize("name,canonical", SPELLINGS)
def test_alias_spelling_reads_as_canonical(name, canonical):
    text = spelling_document()
    respelled, count = re.subn(rf"(</?cerif:){re.escape(canonical)}(?=[\s/>])",
                               lambda m: m.group(1) + name, text)
    assert count > 0
    rs, warnings = parse_document(text)
    assert "project P1: duplicate proj_uri element, first one kept" in warnings
    assert "project P1 titles: empty list item dropped" in warnings
    again, respelled_warnings = parse_document(respelled)
    assert again.records == rs.records
    assert again.relations == rs.relations
    assert respelled_warnings == warnings


def test_relation_endpoint_spellings():
    # an endpoint is read in any case, but only with a known record kind
    doc = wrap(
        '<cerif:project ID="P1"><cerif:project-relations><rdf:Bag>'
        '<rdf:li><cerif:Project-relation><cerif:rel.from.project resource="P1"/>'
        '<cerif:Rel.To.Orgunit resource="OU"/><cerif:Rel.Role>host</cerif:Rel.Role>'
        '</cerif:Project-relation></rdf:li>'
        '<rdf:li><cerif:Project-relation><cerif:rel.from.committee resource="C"/>'
        '<cerif:rel.to.person resource="273"/><cerif:rel.role>member</cerif:rel.role>'
        '</cerif:Project-relation></rdf:li>'
        '</rdf:Bag></cerif:project-relations></cerif:project>')
    rs, warnings = parse_document(doc)
    project = RecordKey("project", "P1")
    assert rs.records[project].relations == (
        Relation(project, RecordKey("orgunit", "OU"), role="host"),)
    assert warnings == [
        "project P1 relations: relation endpoint with unknown type 'committee' ignored",
        "project P1 relations: relation without both endpoints dropped"]


def test_unknown_element_is_named_as_spelled():
    # an item element is no field container where a field is read
    doc = wrap('<cerif:project ID="P1">'
               "<cerif:Proj_Completely_New>x</cerif:Proj_Completely_New>"
               "<cerif:Project-Title>y</cerif:Project-Title>"
               "</cerif:project>")
    rs, warnings = parse_document(doc)
    assert rs.records == {RecordKey("project", "P1"): Project(id="P1")}
    assert warnings == ["project P1: unknown element cerif:Proj_Completely_New ignored",
                        "project P1: unknown element cerif:Project-Title ignored"]


def test_record_set_add_refuses_a_second_record_with_the_same_key():
    rs = RecordSet()
    rs.add(Person(id="273", family_names="Niedermayer"))
    with pytest.raises(InvariantViolation) as err:
        rs.add(Person(id="273", family_names="Other"))
    assert str(err.value) == "person 273 already present"
    assert rs.records == {RecordKey("person", "273"): Person(id="273",
                                                              family_names="Niedermayer")}


# ---------------------------------------------------------------------------
# parse diagnostics and failures

def test_missing_id_raises():
    doc = wrap("<cerif:project></cerif:project>")
    with pytest.raises(FormatError, match="^cerif:project node without ID attribute$"):
        parse_document(doc)


def test_duplicate_key_raises_and_scan_reports():
    doc = wrap('<cerif:person ID="1"></cerif:person>'
               '<cerif:person ID="1"></cerif:person>'
               '<cerif:person ID="2"></cerif:person>')
    with pytest.raises(FormatError, match="^person 1 declared more than once$"):
        parse_document(doc)
    assert parse_with_duplicates(doc)[2] == [RecordKey("person", "1")]


def test_wrong_root_rejected():
    with pytest.raises(FormatError, match="^root element is .*, expected rdf:RDF$"):
        parse_document('<cerif:project xmlns:cerif="%s" ID="1"/>' % CERIF_NS)


def test_not_xml_rejected():
    with pytest.raises(FormatError, match="^not well-formed: syntax error"):
        parse_document("this is not markup")
    with pytest.raises(FormatError,
                       match=r"^not well-formed: not well-formed \(invalid token\)"):
        parse_document(wrap("<cerif:project"))


def test_non_utf8_bytes_rejected():
    with pytest.raises(FormatError, match="^document is not UTF-8: "):
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


def test_date_reader_reports_only_format_errors(monkeypatch):
    def broken(text):
        raise TypeError("bug in the date parser")
    monkeypatch.setattr(rdfxml, "parse_partial_date", broken)
    doc = wrap('<cerif:project ID="P1">'
               "<cerif:proj_startdate>02.2000</cerif:proj_startdate>"
               "</cerif:project>")
    with pytest.raises(TypeError, match="bug in the date parser"):
        parse_document(doc)


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
        "person 1 contacts: unknown element cerif:contact.fax ignored",
        "person 1 contacts: foreign element ignored",
        "person 1 contacts: unknown element cerif:contact.pager ignored",
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


REPAIR_REFUSALS = [
    ('<cerif:project ID="1"/>',
     "undeclared namespace prefix and no rdf:RDF root to repair"),
    ('<!-- <rdf:RDF " --><x:root/>', "unterminated rdf:RDF start tag"),
    (wrap("<x:foo/>"), "undeclared namespace prefix not repairable from the root tag"),
]


@pytest.mark.parametrize("doc, message", REPAIR_REFUSALS)
def test_namespace_repair_refusals(doc, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_document(doc)


def test_translated_bag_recovery():
    item = ("<cerif:Project-title>"
            "<cerif:proj_title_language>en</cerif:proj_title_language>"
            "<cerif:proj_title_trans_type>Q</cerif:proj_title_trans_type>"
            "<cerif:proj_title>One</cerif:proj_title>"
            "<cerif:proj_title>Two</cerif:proj_title>"
            "</cerif:Project-title>")
    doc = wrap('<cerif:project ID="P1"><cerif:project-titles>'
               f"<rdf:Bag><rdf:li>{item}<cerif:Project-title/></rdf:li></rdf:Bag>"
               "<rdf:Bag><rdf:li><cerif:Project-title/></rdf:li></rdf:Bag>"
               "</cerif:project-titles></cerif:project>")
    rs, warnings = parse_document(doc)
    assert rs.records[RecordKey("project", "P1")].titles == (
        TranslatedText("en", None, "One"),)
    assert warnings == [
        "project P1 titles: more than one rdf:Bag, extra ones ignored",
        "project P1 titles: extra elements inside one list item ignored",
        "project P1 titles: unknown translation code 'Q'",
        "project P1 titles: second text element cerif:proj_title ignored",
    ]


def test_ou_relation_without_resource_dropped():
    doc = wrap('<cerif:orgunit ID="O1">'
               + bag("orgunit.ou_ou_relations", "orgunit.ou_ou_relation",
                     "<cerif:orgunit.ou_ou_r.orgunit>O2</cerif:orgunit.ou_ou_r.orgunit>"
                     "<cerif:orgunit.ou_ou_r.role>parent</cerif:orgunit.ou_ou_r.role>")
               + "</cerif:orgunit>")
    rs, warnings = parse_document(doc)
    assert rs.records[RecordKey("orgunit", "O1")].ou_relations == ()
    assert warnings == [
        "orgunit O1 relations: element cerif:orgunit.ou_ou_r.orgunit without resource "
        "ignored",
        "orgunit O1 relations: ou_ou_relation without a target dropped",
    ]


def test_relation_item_recovery():
    doc = wrap(bag("relations", "relation",
                   '<cerif:rel.from.widget resource="W1"/>'
                   "<cerif:rel.from.orgunit/>"
                   '<cerif:rel.from.orgunit resource="O1"/>'
                   '<cerif:rel.to.project resource="P1"/>'
                   "<cerif:rel.colour>blue</cerif:rel.colour>"
                   "<cerif:rel.role>runs</cerif:rel.role>"))
    rs, warnings = parse_document(doc)
    assert rs.relations == [Relation(RecordKey("orgunit", "O1"),
                                     RecordKey("project", "P1"), role="runs")]
    assert warnings == [
        "document relations: relation endpoint with unknown type 'widget' ignored",
        "document relations: relation endpoint without resource ignored",
        "document relations: unknown element cerif:rel.colour ignored",
    ]


def test_item_warnings_name_their_record():
    # the same stray element in two persons' contacts gives two warnings
    doc = wrap("".join(
        f'<cerif:person ID="{ident}">'
        + bag("person.contacts", "contact", "<cerif:contact.fax>1</cerif:contact.fax>")
        + "</cerif:person>" for ident in ("1", "2")))
    _, warnings = parse_document(doc)
    assert warnings == ["person 1 contacts: unknown element cerif:contact.fax ignored",
                        "person 2 contacts: unknown element cerif:contact.fax ignored"]


def test_a_repeated_element_in_an_item_keeps_the_first():
    doc = wrap(
        '<cerif:person ID="1">'
        + bag("person.expert_skills", "person.expert_skill",
              "<cerif:person.es.role>lead</cerif:person.es.role>"
              "<cerif:person.es.id>A</cerif:person.es.id>"
              "<cerif:person.es.role>other</cerif:person.es.role>"
              "<cerif:person.es.id>B</cerif:person.es.id>")
        + bag("person.contacts", "contact",
              "<cerif:contact.email>a@x</cerif:contact.email>"
              "<cerif:contact.email>b@x</cerif:contact.email>")
        + "</cerif:person>"
        + '<cerif:project ID="P1">'
        + bag("project-titles", "Project-title",
              "<cerif:proj_title_language>en</cerif:proj_title_language>"
              "<cerif:proj_title_trans_type>O</cerif:proj_title_trans_type>"
              "<cerif:proj_title_language>de</cerif:proj_title_language>"
              "<cerif:proj_title_trans_type>H</cerif:proj_title_trans_type>"
              "<cerif:proj_title>T</cerif:proj_title>")
        + bag("project-relations", "Project-relation",
              '<cerif:rel.from.project resource="P1"/>'
              '<cerif:rel.to.person resource="1"/>'
              '<cerif:rel.to.orgunit resource="O1"/>'
              "<cerif:rel.role>head</cerif:rel.role>"
              "<cerif:rel.role>member</cerif:rel.role>"
              "<cerif:rel.mandatory>true</cerif:rel.mandatory>"
              "<cerif:rel.mandatory>false</cerif:rel.mandatory>")
        + "</cerif:project>"
        + '<cerif:orgunit ID="O1">'
        + bag("orgunit.ou_ou_relations", "orgunit.ou_ou_relation",
              '<cerif:orgunit.ou_ou_r.orgunit resource="O2"/>'
              '<cerif:orgunit.ou_ou_r.orgunit resource="O3"/>'
              "<cerif:orgunit.ou_ou_r.role>parent</cerif:orgunit.ou_ou_r.role>"
              "<cerif:orgunit.ou_ou_r.role>child</cerif:orgunit.ou_ou_r.role>")
        + "</cerif:orgunit>")
    rs, warnings = parse_document(doc)
    person = rs.records[RecordKey("person", "1")]
    assert person.expert_skills == (ExpertSkill(skill="A", role="lead"),)
    assert person.contacts == (Contact(email="a@x"),)
    project = rs.records[RecordKey("project", "P1")]
    assert project.titles == (TranslatedText("en", TranslationType.ORIGINAL, "T"),)
    assert project.relations == (Relation(RecordKey("project", "P1"), RecordKey("person", "1"),
                                          role="head", mandatory=True),)
    assert rs.records[RecordKey("orgunit", "O1")].ou_relations == (
        OuOuRelation(target="O2", role="parent"),)
    kept = "in one item, first one kept"
    assert warnings == [
        f"person 1 skills: repeated cerif:person.es.role {kept}",
        f"person 1 skills: repeated cerif:person.es.id {kept}",
        f"person 1 contacts: repeated cerif:contact.email {kept}",
        f"project P1 titles: repeated cerif:proj_title_language {kept}",
        f"project P1 titles: repeated cerif:proj_title_trans_type {kept}",
        f"project P1 relations: repeated cerif:rel.to.orgunit {kept}",
        f"project P1 relations: repeated cerif:rel.role {kept}",
        f"project P1 relations: repeated cerif:rel.mandatory {kept}",
        f"orgunit O1 relations: repeated cerif:orgunit.ou_ou_r.orgunit {kept}",
        f"orgunit O1 relations: repeated cerif:orgunit.ou_ou_r.role {kept}",
    ]


def test_empty_id_raises():
    with pytest.raises(FormatError, match="^cerif:person node with empty ID attribute$"):
        parse_document(wrap('<cerif:person ID="  "/>'))


def test_mixed_content_text_and_empty_scalars():
    doc = wrap('<cerif:person ID="1"><cerif:person.per_family_names>'
               "Mus<cerif:em>ter</cerif:em>  x </cerif:person.per_family_names>"
               "</cerif:person>"
               '<cerif:project ID="P1"><cerif:proj_status></cerif:proj_status>'
               "<cerif:proj_startdate/><cerif:proj_enddate> </cerif:proj_enddate>"
               "</cerif:project>")
    rs, warnings = parse_document(doc)
    assert rs.records[RecordKey("person", "1")].family_names == "Muster x"
    project = rs.records[RecordKey("project", "P1")]
    assert (project.status, project.start, project.end) == (None, None, None)
    assert warnings == []


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


def test_invalid_records_are_refused_by_plan_session_and_render():
    # the writer leaves completeness to the layers that promise it, which
    # refuse with one message
    invalid = Project(id="P1", status=None)
    rs = RecordSet()
    rs.add(invalid)
    message = "project P1: no status value; no titles; no abstracts"
    for kind in (ExchangeKind.ALL, ExchangeKind.PER_OBJECT):
        with pytest.raises(InvariantViolation) as caught:
            plan_session(rs, "TUWIEN", PartialDate(2001, 6, 6), kind)
        assert str(caught.value) == message
    with pytest.raises(InvariantViolation) as caught:
        render_html(invalid)
    assert str(caught.value) == message


def test_serializer_writes_incomplete_records():
    rs = RecordSet()
    rs.add(Project(id="P1", status=ProjectStatus.EXECUTION,
                   uri="http://example.org/p1"))
    parsed, warnings = parse_document(serialize_document(rs))
    assert warnings == []
    assert parsed == rs
    # a relation the reader would not read back is still refused
    key = RecordKey("project", "P1")
    rs.add_relation(Relation(key, key, role="self"))
    with pytest.raises(InvariantViolation):
        serialize_document(rs)


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

    # the reader drops an org-unit relation without a target
    rs4 = RecordSet()
    rs4.add(OrgUnit(id="U1", names=(TranslatedText("de", TranslationType.ORIGINAL, "I"),),
                    ou_relations=(OuOuRelation(target="", role="parent"),)))
    with pytest.raises(InvariantViolation) as caught:
        serialize_document(rs4)
    assert str(caught.value) == "orgunit U1: org-unit relation without a target"


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


# the last two hold characters that must be escaped inside an attribute
CUSTOM_NAMESPACES = ["http://example.org/custom-cerif#",
                     "http://example.org/cerif?v=1&x=2#",
                     'http://example.org/<cerif> "v2"#']


def test_custom_namespace_round_trip(golden_person_text):
    for ns in CUSTOM_NAMESPACES:
        rs = _small_set()
        text = serialize_document(rs, cerif_ns=ns)
        assert f"xmlns:cerif={quoteattr(ns)}" in text
        parsed, warnings = parse_document(text, cerif_ns=ns)
        assert warnings == []
        assert parsed == rs
        # under the default namespace the same document is just foreign noise
        other, other_warnings = parse_document(text)
        assert other.records == {}
        assert other_warnings
        # a document that never declares the prefix is repaired under the URI
        repaired, warnings = parse_document(golden_person_text, cerif_ns=ns)
        assert repaired.records[RecordKey("person", "273")].family_names == "Niedermayer"
        assert f"assumed namespace {ns} for undeclared prefix cerif:" in warnings


@pytest.mark.parametrize("ns", ["http://example.org/a}b#", "}", ""])
def test_namespace_that_does_not_read_back_is_refused(golden_person_text, ns):
    # ElementTree splits tags at '}', and an empty URI would undeclare the prefix
    with pytest.raises(FormatError, match="would not read back"):
        serialize_document(_small_set(), cerif_ns=ns)
    with pytest.raises(FormatError, match="would not read back"):
        parse_document(golden_person_text, cerif_ns=ns)


def test_round_trip_random_sets():
    rng = random.Random(20010605)
    for _ in range(100):
        rs = randgen.rand_record_set(rng)
        text = serialize_document(rs)
        parsed, warnings = parse_document(text)
        assert warnings == []
        assert parsed == rs


def assert_each_record_reads_back(rs: RecordSet) -> None:
    """parse_document(serialize_document(R)) gives back R for every record R
    of *rs*, and for its document relations, that the writer accepts; the
    store's snapshot relies on this law to skip the parse."""
    parts = [RecordSet({key: record}) for key, record in rs.records.items()]
    parts.append(RecordSet(relations=list(rs.relations)))
    for part in parts:
        if next(rdfxml.writer_faults(part), None) is None:
            assert parse_document(serialize_document(part))[0] == part


def test_every_writable_record_reads_back_as_written():
    rng = random.Random(20011020)
    for n in range(200):
        assert_each_record_reads_back(randgen.flawed_record_set(rng) if n % 2
                                      else randgen.rand_record_set(rng, 8))


def test_empty_set_round_trips():
    rs = RecordSet()
    parsed, warnings = parse_document(serialize_document(rs))
    assert warnings == []
    assert parsed == rs
    assert parsed.records == {}


# both quotes, line breaks, tabs, other control characters, markup and
# characters outside ASCII
_ESCAPE_ALPHABET = "aZ0 &<>;#\"'\n\r\t\x00\x01\x0b\x1f\x7f\x85\u2028é€\U0001f600"


def test_escape_and_quoteattr_write_what_saxutils_writes():
    rng = random.Random(5150)
    texts = ["", '"', "'", "\"'", "&amp;", "\r\n"]
    texts += ["".join(rng.choice(_ESCAPE_ALPHABET) for _ in range(rng.randint(0, 16)))
              for _ in range(3000)]
    for text in texts:
        assert rdfxml.escape(text) == saxutils.escape(text), text
        assert rdfxml.quoteattr(text) == saxutils.quoteattr(text), text


def test_importing_the_cli_loads_no_network_temporary_file_or_date_module():
    # -S: no site hook may import any of them first
    code = ("import sys; before = set(sys.modules); import cerifrdf.cli; "
            "print(sorted(set(sys.modules) - before))")
    src = str(Path(rdfxml.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": src}).stdout
    added = set(ast.literal_eval(out))
    assert {"cerifrdf.cli", "cerifrdf.rdfxml", "cerifrdf.store"} <= added
    assert added.isdisjoint({"urllib.request", "tempfile", "xml.sax.saxutils",
                             "calendar", "datetime"})
