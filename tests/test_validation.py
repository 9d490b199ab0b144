"""Tests for record validation, the discard cascade and uniqueness checks."""

import random

import pytest

from cerifrdf.errors import InvariantViolation
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
from cerifrdf.rdfxml import CERIF_NS, RecordSet, serialize_document
from cerifrdf.validation import (
    CascadeFrom,
    MissingMandatoryField,
    apply_discard_cascade,
    check_document_uniqueness,
    lint_record,
    validate_record,
)

import oracles
import randgen

TT = TranslatedText
EN = ("en", TranslationType.HUMAN)


def good_project(ident="P1", **overrides):
    values = dict(
        id=ident,
        status=ProjectStatus.EXECUTION,
        titles=(TT(*EN, "Title"),),
        abstracts=(TT(*EN, "Abstract"),),
    )
    values.update(overrides)
    return Project(**values)


def fields_of(violations):
    return [(v.field, v.code) for v in violations]


# ---------------------------------------------------------------------------
# per-record validation

def test_valid_records_pass():
    assert validate_record(good_project()) == []
    assert validate_record(Person(id="Q1", family_names="Muster")) == []
    assert validate_record(OrgUnit(id="U1", names=(TT(*EN, "Unit"),))) == []


def test_project_mandatory_fields():
    assert ("status", "missing") in fields_of(validate_record(
        good_project(status=None)))
    assert ("status", "invalid") in fields_of(validate_record(
        good_project(status="Dormant")))
    assert ("titles", "missing") in fields_of(validate_record(
        good_project(titles=())))
    assert ("abstracts", "missing") in fields_of(validate_record(
        good_project(abstracts=())))
    assert ("id", "missing") in fields_of(validate_record(good_project(ident="")))


def test_translated_text_invariants():
    bad_lang = good_project(titles=(TT("deu", TranslationType.HUMAN, "x"),))
    assert ("titles", "invalid") in fields_of(validate_record(bad_lang))
    no_type = good_project(keywords=(TT("en", None, "x"),))
    assert ("keywords", "invalid") in fields_of(validate_record(no_type))
    empty = good_project(abstracts=(TT(*EN, ""),))
    assert ("abstracts", "invalid") in fields_of(validate_record(empty))


def test_project_relation_invariants():
    key = RecordKey("project", "P1")
    loop = good_project(relations=(Relation(key, key, role="self"),))
    assert ("relations", "invalid") in fields_of(validate_record(loop))
    empty_role = good_project(relations=(
        Relation(key, RecordKey("person", "Q"), role=""),))
    assert ("relations", "invalid") in fields_of(validate_record(empty_role))
    bad_kind = good_project(relations=(
        Relation(key, RecordKey("committee", "C"), role="serves"),))
    assert ("relations", "invalid") in fields_of(validate_record(bad_kind))


def test_relation_fault_messages_of_the_validator_and_the_serializer():
    # the validator lists every fault, in order; the serializer refuses on
    # the first, in its own words, for a nested and a document relation
    key, person = RecordKey("project", "P1"), RecordKey("person", "Q")
    board = RecordKey("board", "")
    cases = [
        (Relation(key, key, role="self"), ["relation with identical endpoints"],
         "relation with identical endpoints"),
        (Relation(key, RecordKey("committee", "C"), role="serves"),
         ["unknown record type 'committee'"], "unknown record type 'committee'"),
        (Relation(key, RecordKey("person", ""), role="r"),
         ["endpoint without an id"], "relation endpoint without id"),
        (Relation(key, person, role=""), ["empty role"], "relation without a role"),
        (Relation(board, board, role=""),
         ["relation with identical endpoints", "unknown record type 'board'",
          "endpoint without an id", "unknown record type 'board'",
          "endpoint without an id", "empty role"],
         "relation with identical endpoints"),
    ]
    for rel, listed, refused in cases:
        project = good_project(relations=(rel,))
        assert [v.message for v in validate_record(project)] == [
            f"relations[0]: {message}" for message in listed]
        nested = RecordSet()
        nested.add(project)
        with pytest.raises(InvariantViolation) as caught:
            serialize_document(nested, validate=False)
        assert str(caught.value) == f"project P1: {refused}"
        document = RecordSet()
        document.relations = [rel]
        with pytest.raises(InvariantViolation) as caught:
            serialize_document(document)
        assert str(caught.value) == f"document relations: {refused}"


def test_person_invariants():
    assert ("family_names", "missing") in fields_of(validate_record(
        Person(id="Q1")))
    assert ("sex", "invalid") in fields_of(validate_record(
        Person(id="Q1", family_names="M", sex="X")))
    assert validate_record(Person(id="Q1", family_names="M", sex=None)) == []
    assert ("expert_skills", "invalid") in fields_of(validate_record(
        Person(id="Q1", family_names="M", expert_skills=(ExpertSkill(""),))))
    assert ("contacts", "invalid") in fields_of(validate_record(
        Person(id="Q1", family_names="M", contacts=(Contact(),))))


def test_orgunit_invariants():
    assert ("names", "missing") in fields_of(validate_record(OrgUnit(id="U1")))
    bad_rel = OrgUnit(id="U1", names=(TT(*EN, "Unit"),),
                      ou_relations=(OuOuRelation(target="", role="parent"),))
    assert ("ou_relations", "invalid") in fields_of(validate_record(bad_rel))
    no_role = OrgUnit(id="U1", names=(TT(*EN, "Unit"),),
                      ou_relations=(OuOuRelation(target="X", role=""),))
    assert ("ou_relations", "invalid") in fields_of(validate_record(no_role))
    bad_desc = OrgUnit(id="U1", names=(TT(*EN, "Unit"),),
                       descriptions=(TT("en", None, "text"),))
    assert ("descriptions", "invalid") in fields_of(validate_record(bad_desc))


# ---------------------------------------------------------------------------
# lint

def test_lint_end_before_start():
    p = good_project(start=PartialDate(2001, 12), end=PartialDate(2000, 2))
    notes = lint_record(p)
    assert len(notes) == 1 and "before" in notes[0]
    # overlapping partial dates are not certainly wrong
    q = good_project(start=PartialDate(2001), end=PartialDate(2001, 1))
    assert lint_record(q) == []


def test_lint_language_assignment():
    p = good_project(titles=(TT("xx", TranslationType.HUMAN, "Title"),),
                     abstracts=(TT("en", TranslationType.HUMAN, "A"),))
    notes = lint_record(p, language_codes={"en", "de"})
    assert any("xx" in note for note in notes)
    assert lint_record(p) == []


# ---------------------------------------------------------------------------
# discard cascade

def test_cascade_follows_mandatory_chain():
    rs = RecordSet()
    rs.add(good_project("A", titles=()))
    rs.add(good_project("B"))
    rs.add(good_project("C"))
    rs.add(good_project("D"))
    a, b, c, d = (RecordKey("project", x) for x in "ABCD")
    rs.add_relation(Relation(b, a, role="needs", mandatory=True))
    rs.add_relation(Relation(c, b, role="needs", mandatory=True))
    rs.add_relation(Relation(d, c, role="needs", mandatory=False))
    report = apply_discard_cascade(rs)
    assert dict(report.discarded) == {
        a: MissingMandatoryField("titles"),
        b: CascadeFrom(a),
        c: CascadeFrom(b),
    }
    assert sorted(report.kept.records) == [d]
    assert not report.ok
    assert report.to_lines() == [
        "DISCARD project A missing-mandatory-field:titles",
        "DISCARD project B cascade-from:project:A",
        "DISCARD project C cascade-from:project:B",
    ]


def test_cascade_ignores_optional_relations():
    rs = RecordSet()
    rs.add(good_project("A", status=None))
    rs.add(good_project("B"))
    rs.add_relation(Relation(RecordKey("project", "B"), RecordKey("project", "A"),
                             role="sees", mandatory=False))
    report = apply_discard_cascade(rs)
    assert sorted(report.kept.records) == [RecordKey("project", "B")]


def test_cascade_dangling_target_is_not_fatal_by_default():
    rs = RecordSet()
    rs.add(good_project("A"))
    rel = Relation(RecordKey("project", "A"), RecordKey("orgunit", "GONE"),
                   role="needs", mandatory=True)
    rs.add_relation(rel)
    report = apply_discard_cascade(rs)
    assert report.ok
    strict = apply_discard_cascade(rs, missing_targets_discard=True)
    assert dict(strict.discarded) == {
        RecordKey("project", "A"): CascadeFrom(RecordKey("orgunit", "GONE"))}


def test_cascade_keeps_valid_cycles():
    rs = RecordSet()
    rs.add(good_project("A"))
    rs.add(good_project("B"))
    a, b = RecordKey("project", "A"), RecordKey("project", "B")
    rs.add_relation(Relation(a, b, role="needs", mandatory=True))
    rs.add_relation(Relation(b, a, role="needs", mandatory=True))
    report = apply_discard_cascade(rs)
    assert report.ok and len(report.kept.records) == 2


def test_cascade_uses_nested_relations_too():
    person = RecordKey("person", "GONE")
    rs = RecordSet()
    rs.add(Person(id="GONE"))  # invalid: no family names
    rs.add(good_project("A", relations=(
        Relation(RecordKey("project", "A"), person, role="head", mandatory=True),)))
    report = apply_discard_cascade(rs)
    assert dict(report.discarded) == {
        person: MissingMandatoryField("family_names"),
        RecordKey("project", "A"): CascadeFrom(person),
    }


def test_kept_relations_drop_discarded_sources():
    rs = RecordSet()
    rs.add(good_project("A", titles=()))
    rs.add(good_project("B"))
    a, b = RecordKey("project", "A"), RecordKey("project", "B")
    dead = Relation(a, b, role="needs", mandatory=False)
    alive = Relation(b, a, role="cites", mandatory=False)
    rs.add_relation(dead)
    rs.add_relation(alive)
    report = apply_discard_cascade(rs)
    assert report.kept.relations == [alive]


def test_cascade_matches_oracle_on_random_sets():
    rng = random.Random(8128)
    for _ in range(200):
        rs = randgen.flawed_record_set(rng)
        strict = rng.random() < 0.5
        report = apply_discard_cascade(rs, missing_targets_discard=strict)
        expected = oracles.cascade_oracle(rs, missing_targets_discard=strict)
        got = dict(report.discarded)
        assert set(got) == set(expected)
        for key, reason in got.items():
            kind = "invalid" if isinstance(reason, MissingMandatoryField) \
                else "cascade"
            assert kind == expected[key]
        assert set(rs.records) - set(expected) == set(report.kept.records)


# ---------------------------------------------------------------------------
# document uniqueness

def _doc(body: str) -> str:
    return ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            f'xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#" '
            f'xmlns:cerif="{CERIF_NS}">{body}</rdf:RDF>')


def test_uniqueness_reports_each_key_once():
    doc = _doc('<cerif:person ID="1"/><cerif:person ID="1"/>'
               '<cerif:person ID="1"/><cerif:orgunit ID="1"/>')
    violations = check_document_uniqueness(doc)
    assert len(violations) == 1
    assert "person 1" in violations[0].message


def test_uniqueness_clean_document():
    doc = _doc('<cerif:person ID="1"/><cerif:orgunit ID="1"/>')
    assert check_document_uniqueness(doc) == []
