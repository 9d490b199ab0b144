"""The store's triple view against a copy of the per-kind walk it replaced.

reference_triples below is Store.to_triples as it stood before the field
table drove it: one hand-written branch per record kind, flattening every
current record on every call.  The store now flattens each record once and
keeps the result next to the record object, so these tests also edit and
merge stores between calls to show the kept triples never go stale.
"""

import random

import pytest

from cerifrdf.model import (
    OrgUnit,
    PartialDate,
    Person,
    Project,
    ProjectStatus,
    RecordKey,
    Relation,
    TranslatedText,
    TranslationType,
    status_token,
)
from cerifrdf.rdfxml import RecordSet, parse_document
from cerifrdf.store import Provenance, SourceKind, Store

import randgen
from conftest import read_data

GOLDEN = ["project_e015.rdf", "person_273.rdf", "orgunit_auseninstitut.rdf"]


# ---------------------------------------------------------------------------
# reference copy of the replaced walk

def _tt_object(tt) -> str:
    code = tt.translation.value if tt.translation else "?"
    return f"[{tt.language}/{code}] {tt.text}"


def _skill_object(skill) -> str:
    return skill.skill if skill.role is None else f"[{skill.role}] {skill.skill}"


def reference_triples(store: Store) -> set:
    triples = set()
    relations = set(store.relations)
    for key, (record, _) in store.current.items():
        subject = f"{key.kind}:{key.id}"
        if isinstance(record, Project):
            relations.update(record.relations)
            if record.status is not None:
                triples.add((subject, "status", status_token(record.status)))
            if record.start is not None:
                triples.add((subject, "start", str(record.start)))
            if record.end is not None:
                triples.add((subject, "end", str(record.end)))
            if record.uri is not None:
                triples.add((subject, "uri", record.uri))
            for prize in record.prize_awards:
                triples.add((subject, "prize_award", prize))
            for tt in record.titles:
                triples.add((subject, "title", _tt_object(tt)))
            for tt in record.abstracts:
                triples.add((subject, "abstract", _tt_object(tt)))
            for tt in record.keywords:
                triples.add((subject, "keywords", _tt_object(tt)))
        elif isinstance(record, Person):
            if record.family_names:
                triples.add((subject, "family_names", record.family_names))
            if record.first_names:
                triples.add((subject, "first_names", record.first_names))
            if record.sex is not None:
                triples.add((subject, "sex", record.sex))
            if record.uri is not None:
                triples.add((subject, "uri", record.uri))
            for prize in record.prize_awards:
                triples.add((subject, "prize_award", prize))
            for skill in record.expert_skills:
                triples.add((subject, "expert_skill", _skill_object(skill)))
            for contact in record.contacts:
                if contact.telephone is not None:
                    triples.add((subject, "telephone", contact.telephone))
                if contact.email is not None:
                    triples.add((subject, "email", contact.email))
                if contact.uri is not None:
                    triples.add((subject, "contact_uri", contact.uri))
        else:
            if record.acronym is not None:
                triples.add((subject, "acronym", record.acronym))
            if record.prize_award is not None:
                triples.add((subject, "prize_award", record.prize_award))
            if record.url is not None:
                triples.add((subject, "url", record.url))
            for tt in record.names:
                triples.add((subject, "name", _tt_object(tt)))
            for rel in record.ou_relations:
                triples.add((subject, rel.role, f"orgunit:{rel.target}"))
            for skill in record.expert_skills:
                triples.add((subject, "expert_skill", _skill_object(skill)))
            for tt in record.descriptions:
                triples.add((subject, "description", _tt_object(tt)))
    for rel in relations:
        triples.add((f"{rel.source.kind}:{rel.source.id}", rel.role,
                     f"{rel.target.kind}:{rel.target.id}"))
    return triples


def assert_matches_reference(store: Store) -> None:
    # twice: the second call answers from the triples kept by the first
    assert store.to_triples() == reference_triples(store)
    assert store.to_triples() == reference_triples(store)


def prov(source: str, date) -> Provenance:
    return Provenance(source, date, SourceKind.ALL)


# ---------------------------------------------------------------------------
# seeded stores

def new_version(rng: random.Random, key: RecordKey, keys: list):
    """Another version of the record under *key*; a project gets fresh
    nested relations to the records seen so far."""
    if key.kind == "project":
        return randgen.rand_project(rng, key.id, targets=keys)
    if key.kind == "person":
        return randgen.rand_person(rng, key.id)
    return randgen.rand_orgunit(rng, key.id,
                                parents=[k.id for k in keys if k.kind == "orgunit"])


def seeded_store(seed: int) -> Store:
    """A store built from 1-4 merges of valid and flawed sets; later sets
    carry new versions of earlier records, which win or lose on the date."""
    rng = random.Random(seed)
    store = Store()
    keys: list[RecordKey] = []
    for step in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            rs = randgen.rand_record_set(rng, max_records=8)
        else:
            rs = randgen.flawed_record_set(rng, max_records=8)
        for key in rng.sample(keys, min(len(keys), rng.randint(0, 3))):
            rs.records[key] = new_version(rng, key, keys)
        store.merge(rs, prov(f"source{step}", randgen.rand_full_date(rng)))
        keys.extend(key for key in rs.records if key not in keys)
        assert_matches_reference(store)
    return store


def superseded_project_with_other_relations(store: Store) -> bool:
    for key, record, _ in store.history:
        if key.kind == "project":
            current, _ = store.current[key]
            if set(record.relations) != set(current.relations):
                return True
    return False


def test_seeded_stores_match_the_reference_walk():
    stores = [seeded_store(seed) for seed in range(320)]
    # the seeds reach the case the kept triples could get wrong: a project
    # whose superseded version nests other relations than the current one
    assert sum(map(superseded_project_with_other_relations, stores)) >= 100
    assert sum(len(store.history) > 0 for store in stores) >= 150


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_fixtures_match_the_reference_walk(name):
    rs, _ = parse_document(read_data(name))
    store = Store()
    store.merge(rs, prov(name, PartialDate(2001, 6, 6)))
    assert store.to_triples()
    assert_matches_reference(store)


def test_golden_fixtures_together_match_the_reference_walk():
    store = Store()
    for name in GOLDEN:
        rs, _ = parse_document(read_data(name))
        store.merge(rs, prov(name, PartialDate(2001, 6, 6)))
    assert_matches_reference(store)


# ---------------------------------------------------------------------------
# staleness

def tt(text: str) -> tuple:
    return (TranslatedText("en", TranslationType.HUMAN, text),)


def project(ident: str, *targets: RecordKey, title: str = "T") -> Project:
    source = RecordKey("project", ident)
    return Project(id=ident, status=ProjectStatus.EXECUTION, titles=tt(title),
                   abstracts=tt("A"),
                   relations=tuple(Relation(source, target, role="partner")
                                   for target in targets))


def test_direct_edits_of_the_current_map_never_see_stale_triples():
    person = RecordKey("person", "273")
    unit = RecordKey("orgunit", "TUWIEN")
    key = RecordKey("project", "P1")
    rs = RecordSet()
    rs.add(project("P1", person, unit))
    rs.add(Person(id="273", family_names="Niedermayer"))
    rs.add(OrgUnit(id="TUWIEN", names=tt("TU Wien")))
    rs.add_relation(Relation(unit, person, role="employs"))
    store = Store()
    store.merge(rs, prov("first", PartialDate(2001, 6, 6)))
    assert_matches_reference(store)
    first_version, first_prov = store.current[key]

    del store.current[person]
    assert_matches_reference(store)
    assert ("person:273", "family_names", "Niedermayer") not in store.to_triples()

    # a version dropping one nested relation, put in place by hand
    store.current[key] = (project("P1", person, title="Other"), first_prov)
    assert_matches_reference(store)
    assert ("project:P1", "partner", "orgunit:TUWIEN") not in store.to_triples()

    # an equal record that is another object, then the first object again
    store.current[key] = (project("P1", person, title="Other"), first_prov)
    assert_matches_reference(store)
    store.current[key] = (first_version, first_prov)
    assert_matches_reference(store)
    assert ("project:P1", "partner", "orgunit:TUWIEN") in store.to_triples()

    del store.current[key]
    assert_matches_reference(store)
    store.current[key] = (first_version, first_prov)
    assert_matches_reference(store)

    newer = RecordSet()
    newer.add(project("P1", title="Newest"))
    newer.add(Person(id="273", family_names="Skalicky"))
    store.merge(newer, prov("second", PartialDate(2002, 1, 1)))
    assert_matches_reference(store)
    triples = store.to_triples()
    assert ("project:P1", "title", "[en/H] Newest") in triples
    assert not any(p == "partner" for _, p, _ in triples)
    assert ("person:273", "family_names", "Skalicky") in triples
