"""Tests for the legacy SGML reader and the org-unit converter."""

import pytest

from cerifrdf.errors import MalformedTagLine, MissingId, UnterminatedRecord
from cerifrdf.model import RecordKey, TranslationType, parse_partial_date
from cerifrdf.sgml import (
    LegacyRecord,
    build_record_set,
    map_record,
    parse_sgml,
)

EXPORT_DATE = parse_partial_date("06.06.2001")


# ---------------------------------------------------------------------------
# line-level parsing

def test_parse_basic_record():
    records, warnings = parse_sgml("<RECORD>\n<RCN>X-1\n<DEG>Institut\n</RECORD>\n")
    assert warnings == []
    assert len(records) == 1
    assert records[0].entries == (("RCN", "X-1"), ("DEG", "Institut"))


def test_continuation_lines_joined_with_single_spaces():
    text = ("<RECORD>\n"
            "<DUG>erste   Zeile\n"
            "   zweite Zeile\n"
            "\n"
            "dritte Zeile\n"
            "<RCN>X-1\n"
            "</RECORD>\n")
    records, _ = parse_sgml(text)
    assert records[0].first("DUG") == "erste Zeile zweite Zeile dritte Zeile"


def test_empty_tag_value_kept():
    records, _ = parse_sgml("<RECORD>\n<CON>\n<RCN>X-1\n</RECORD>\n")
    assert records[0].first("CON") == ""
    assert records[0].values("CON") == [""]


def test_repeated_tags_keep_order():
    records, _ = parse_sgml("<RECORD>\n<KUG>a\n<KUE>b\n<KUG>c\n</RECORD>\n")
    assert records[0].values("KUG") == ["a", "c"]
    assert records[0].first("KUG") == "a"
    assert records[0].first("XXX") is None


def test_unknown_tag_warns_with_line_number():
    _, warnings = parse_sgml("<RECORD>\n<ZZZ>whatever\n</RECORD>\n")
    assert warnings == ["line 2: unknown tag <ZZZ>"]


def test_unterminated_record_raises():
    with pytest.raises(UnterminatedRecord):
        parse_sgml("<RECORD>\n<RCN>X-1\n")
    with pytest.raises(UnterminatedRecord):
        parse_sgml("<RECORD>\n<RCN>X-1\n<RECORD>\n")


def test_malformed_lines_raise():
    with pytest.raises(MalformedTagLine):
        parse_sgml("</RECORD>\n")
    with pytest.raises(MalformedTagLine):
        parse_sgml("<RECORD>\nvalue before any tag\n</RECORD>\n")
    with pytest.raises(MalformedTagLine):
        parse_sgml("<RCN>X-1\n")
    with pytest.raises(MalformedTagLine):
        parse_sgml("<RECORD>\n<toolong>x\n</RECORD>\n")


def test_empty_record_form():
    records, _ = parse_sgml("<RECORD></RECORD>\n")
    assert records == [LegacyRecord()]


def test_text_outside_records_warns():
    _, warnings = parse_sgml("stray line\n<RECORD>\n<RCN>X\n</RECORD>\n")
    assert warnings == ["line 1: text outside any record ignored"]


def test_crlf_and_latin1_input():
    data = "<RECORD>\r\n<DEG>Außeninstitut\r\n<RCN>X-1\r\n</RECORD>\r\n"
    records, _ = parse_sgml(data.encode("latin-1"), encoding="latin-1")
    assert records[0].first("DEG") == "Außeninstitut"


def test_multiple_records():
    records, _ = parse_sgml("<RECORD>\n<RCN>A\n</RECORD>\n"
                            "<RECORD>\n<RCN>B\n</RECORD>\n")
    assert [r.first("RCN") for r in records] == ["A", "B"]


# ---------------------------------------------------------------------------
# conversion of the sample export record

def test_fodok_orgunit_core_fields(fodok_text):
    records, warnings = parse_sgml(fodok_text)
    assert warnings == []
    cv = map_record(records[0], EXPORT_DATE)
    ou = cv.orgunit
    assert ou.id == "E015-01"
    assert [(n.language, n.translation, n.text) for n in ou.names] == [
        ("de", TranslationType.ORIGINAL, "Außeninstitut"),
        ("en", TranslationType.HUMAN, "University Extension Centre"),
    ]
    assert ou.url == "http://derpi.tuwien.ac.at/walter"
    assert ou.acronym is None


def test_fodok_skills_preserved_in_order(fodok_text):
    records, _ = parse_sgml(fodok_text)
    ou = map_record(records[0], EXPORT_DATE).orgunit
    plain = [sk.skill for sk in ou.expert_skills if sk.role is None]
    research = [sk.skill for sk in ou.expert_skills if sk.role == "research-field"]
    assert len(plain) == 17  # 9 German and 8 English keyword entries
    assert plain[0] == "Wissenschaftsinformation"
    assert plain[8] == "Forschungsinformations-Service: Vermittlungsstelle"
    assert plain[9] == "Scientific information service"
    assert research == [
        "Wissenschaftsinformation - Forschungsdokumentation",
        "Science Information - Research Documentation",
    ]


def test_fodok_descriptions_are_an_extension(fodok_text):
    records, _ = parse_sgml(fodok_text)
    cv = map_record(records[0], EXPORT_DATE)
    langs = [d.language for d in cv.orgunit.descriptions]
    assert langs == ["de", "en"]
    assert "Die Datenbank wird laufend aktualisiert." in cv.orgunit.descriptions[0].text
    assert cv.orgunit.descriptions[1].text.startswith("FoDok ,")
    assert any("extension" in w for w in cv.warnings)


def test_fodok_head_person_and_relation(fodok_text):
    records, _ = parse_sgml(fodok_text)
    cv = map_record(records[0], EXPORT_DATE)
    head = next(r for r in cv.related if r.key.kind == "person")
    assert head.id == "E015-01.head"
    assert head.family_names == "Niedermayer"
    assert head.first_names == "Walter"
    assert len(head.contacts) == 1
    contact = head.contacts[0]
    assert contact.email == "walter@derpi.tuwien.ac.at"
    assert contact.telephone == "+43 1 58801 41522"
    assert len(cv.relations) == 1
    rel = cv.relations[0]
    assert rel.source == cv.orgunit.key
    assert rel.target == head.key
    assert rel.role == "head"
    assert any("Dipl.-Ing." in w for w in cv.warnings)


def test_fodok_parent_chain(fodok_text):
    records, _ = parse_sgml(fodok_text)
    cv = map_record(records[0], EXPORT_DATE)
    stubs = {r.id: r for r in cv.related if r.key.kind == "orgunit"}
    faculty_id = "DIENSTLEISTUNGSEINRICHTUNGEN.UND.SENATSINSTITUTE"
    university_id = "TECHNISCHE.UNIVERSITÄT.WIEN"
    assert set(stubs) == {faculty_id, university_id}
    assert cv.orgunit.ou_relations[0].target == faculty_id
    assert cv.orgunit.ou_relations[0].role == "parent"
    assert stubs[faculty_id].ou_relations[0].target == university_id
    assert stubs[university_id].ou_relations == ()
    assert [n.text for n in stubs[university_id].names] == [
        "Technische Universität Wien", "Vienna University of Technology"]


def test_fodok_unmappable_values_reported(fodok_text):
    records, _ = parse_sgml(fodok_text)
    warnings = map_record(records[0], EXPORT_DATE).warnings
    text = "\n".join(warnings)
    assert "STR='Gußhausstraße 28'" in text
    assert "PCD=" in text and "TWN=" in text and "FAX=" in text
    assert "SEQ=" in text and "SRC=" in text
    assert "UPD=20.02.2001" in text


# ---------------------------------------------------------------------------
# conversion edge cases

def make(entries) -> LegacyRecord:
    return LegacyRecord(entries=tuple(entries))


def test_missing_rcn_raises():
    with pytest.raises(MissingId):
        map_record(make([("DEG", "Institut")]), EXPORT_DATE)


def test_contact_without_head_is_dropped_loudly():
    cv = map_record(make([("RCN", "X-1"), ("EML", "a@b.at"), ("DEG", "I")]),
                    EXPORT_DATE)
    assert cv.related == []
    assert cv.relations == []
    assert any("without an HRU" in w for w in cv.warnings)


def test_head_name_without_comma():
    cv = map_record(make([("RCN", "X-1"), ("HRU", "Niedermayer")]), EXPORT_DATE)
    head = cv.related[0]
    assert head.family_names == "Niedermayer"
    assert head.first_names == ""


def test_university_only_parent():
    cv = map_record(make([("RCN", "X-1"), ("DEG", "I"),
                          ("UNG", "Technische Universität Wien")]), EXPORT_DATE)
    assert cv.orgunit.ou_relations[0].target == "TECHNISCHE.UNIVERSITÄT.WIEN"
    assert [r.id for r in cv.related] == ["TECHNISCHE.UNIVERSITÄT.WIEN"]


def test_bilingual_values_skip_empty_ones():
    cv = map_record(make([("RCN", "X-1"), ("DEE", "Unit"), ("DEG", ""), ("DEG", "Einheit"),
                          ("DUE", ""), ("UNG", "Universität"), ("FAE", "Faculty")]),
                    EXPORT_DATE)
    assert [(tt.language, tt.translation, tt.text) for tt in cv.orgunit.names] == [
        ("de", TranslationType.ORIGINAL, "Einheit"), ("en", TranslationType.HUMAN, "Unit")]
    assert cv.orgunit.descriptions == ()
    faculty, university = cv.related
    assert [(tt.language, tt.text) for tt in faculty.names] == [("en", "Faculty")]
    assert [(tt.language, tt.text) for tt in university.names] == [("de", "Universität")]


def test_no_parents_no_relations():
    cv = map_record(make([("RCN", "X-1"), ("DEG", "I")]), EXPORT_DATE)
    assert cv.orgunit.ou_relations == ()
    assert cv.related == []


def test_build_record_set_shares_stubs():
    common = [("UNG", "Technische Universität Wien"),
              ("UNE", "Vienna University of Technology")]
    a = map_record(make([("RCN", "A"), ("DEG", "Erstes Institut"), *common]),
                   EXPORT_DATE)
    b = map_record(make([("RCN", "B"), ("DEG", "Zweites Institut"), *common]),
                   EXPORT_DATE)
    rs, warnings = build_record_set([a, b])
    assert warnings == []
    assert sorted(k.id for k in rs.records) == \
        ["A", "B", "TECHNISCHE.UNIVERSITÄT.WIEN"]


def test_build_record_set_flags_conflicts():
    a = map_record(make([("RCN", "A"), ("DEG", "Institut")]), EXPORT_DATE)
    b = map_record(make([("RCN", "A"), ("DEG", "Umbenannt")]), EXPORT_DATE)
    rs, warnings = build_record_set([a, b])
    assert [w for w in warnings if "conflicting duplicate" in w]
    key = RecordKey("orgunit", "A")
    assert rs.records[key].names[0].text == "Institut"
