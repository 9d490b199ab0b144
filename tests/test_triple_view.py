"""The store's triple view against a copy of the per-kind walk it replaced.

reference_triples below is Store.to_triples as it stood before the field
table drove it: one hand-written branch per record kind, flattening every
current record on every call.  The store now keeps its flattened triples
until the next merge, so these tests merge new versions of records between
calls to show a merge never leaves stale triples behind.  The later tests
answer random patterns from the indexed view and compare them with
oracles.reference_query, the scan of every triple it replaced, run over
reference_triples; the last one also checks each index, filed while the
store flattens its records, against a rescan of every filed triple.
"""

import random

import pytest

from cerifrdf.model import (
    OrgUnit,
    PartialDate,
    Person,
    Project,
    ProjectStatus,
    Record,
    RecordKey,
    Relation,
    TranslatedText,
    TranslationType,
    status_token,
)
from cerifrdf.rdfxml import RecordSet, parse_document, writer_faults
from cerifrdf.store import EquivalenceMap, Provenance, SourceKind, Store, TriplePattern

import randgen
from conftest import read_data
from oracles import reference_query

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
    # twice: the second call answers from the view the first one built
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


def seeded_store(seed: int) -> tuple[Store, list]:
    """A store built from 1-4 merges of valid and flawed sets, and the log of
    every (key, record) merged; later sets carry new versions of earlier
    records, which win or lose on the date."""
    rng = random.Random(seed)
    store = Store()
    keys: list[RecordKey] = []
    merged: list[tuple[RecordKey, Record]] = []
    for step in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            rs = randgen.rand_record_set(rng, max_records=8)
        else:
            rs = randgen.flawed_record_set(rng, max_records=8)
        for key in rng.sample(keys, min(len(keys), rng.randint(0, 3))):
            rs.records[key] = new_version(rng, key, keys)
        store.merge(rs, prov(f"source{step}", randgen.rand_full_date(rng)))
        merged.extend(rs.records.items())
        keys.extend(key for key in rs.records if key not in keys)
        assert_matches_reference(store)
    return store, merged


def superseded_project_with_other_relations(store: Store, merged: list) -> bool:
    # a merged version whose relations differ from the current one's cannot
    # be the current version, so it was superseded
    return any(key.kind == "project"
               and set(record.relations) != set(store.current[key][0].relations)
               for key, record in merged)


def test_seeded_stores_match_the_reference_walk():
    built = [seeded_store(seed) for seed in range(320)]
    # the seeds reach the case the kept triples could get wrong: a project
    # whose superseded version nests other relations than the current one
    assert sum(superseded_project_with_other_relations(*pair) for pair in built) >= 100
    # a store holds a superseded version when it merged more versions than keys
    assert sum(len(merged) > len(store.current) for store, merged in built) >= 150


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


def test_direct_edits_raise_and_a_superseding_merge_drops_nested_relations():
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
    partners = TriplePattern("P1", "partner", None)
    both = [("project:P1", "partner", "orgunit:TUWIEN"),
            ("project:P1", "partner", "person:273")]
    assert store.query(partners) == both
    assert_matches_reference(store)

    # merge and load are the only ways in
    with pytest.raises(TypeError):
        del store.current[person]
    with pytest.raises(TypeError):
        store.current[key] = store.current[key]
    with pytest.raises(AttributeError):
        store.relations.add(Relation(person, unit, role="knows"))
    with pytest.raises(AttributeError):
        store.current = {}
    assert len(store.current) == 3 and len(store.relations) == 1
    assert store.query(partners) == both

    # a newer version nesting one relation fewer replaces the first
    newer = RecordSet()
    newer.add(project("P1", person, title="Newest"))
    newer.add(Person(id="273", family_names="Skalicky"))
    store.merge(newer, prov("second", PartialDate(2002, 1, 1)))
    assert store.query(partners) == [("project:P1", "partner", "person:273")]
    triples = store.to_triples()
    assert ("project:P1", "partner", "orgunit:TUWIEN") not in triples
    assert ("project:P1", "title", "[en/H] Newest") in triples
    assert ("person:273", "family_names", "Skalicky") in triples
    assert_matches_reference(store)

    # an older version loses and changes no triple
    older = RecordSet()
    older.add(project("P1", person, unit, title="Oldest"))
    store.merge(older, prov("zero", PartialDate(2000, 1, 1)))
    assert store.to_triples() == triples
    assert store.query(partners) == [("project:P1", "partner", "person:273")]


# ---------------------------------------------------------------------------
# queries from the indexed view against the scan

# predicates and their other spellings, as a --eq file would join them
SPELLINGS = [("title", "Titel"), ("partner", "Partner", "collaborator"),
             ("family_names", "surname"), ("employs", "beschaeftigt")]


def colon_records() -> RecordSet:
    """Identifiers holding ':' and literals that look like "kind:id"."""
    rs = RecordSet()
    rs.add(Person(id="a:b", family_names="Colon", uri="http://x"))
    rs.add(Person(id="b", family_names="x"))
    rs.add(Person(id="http", family_names="//x"))
    rs.add_relation(Relation(RecordKey("person", "a:b"), RecordKey("person", "b"),
                             role="knows"))
    return rs


def term_pool(store: Store) -> list[str]:
    """Full and bare subjects and objects, predicates, class spellings and
    terms that name nothing."""
    terms = {"nope", "http://x", "//x", "x", "http", "b", "a:b", "person:a:b", ":", ""}
    for s, p, o in reference_triples(store):
        terms.update((s, s.split(":", 1)[-1], p, o, o.split(":", 1)[-1]))
    terms.update(t for spelling in SPELLINGS for t in spelling)
    return sorted(terms)


def rand_eq(rng: random.Random, pool: list[str]) -> EquivalenceMap:
    eq = EquivalenceMap()
    for spelling in SPELLINGS:
        if rng.random() < 0.7:
            eq.add_class(spelling)
    for _ in range(rng.randint(0, 4)):
        eq.add_class(rng.sample(pool, rng.randint(2, 3)))
    return eq


def rand_pattern(rng: random.Random, pool: list[str]) -> TriplePattern:
    return TriplePattern(*(rng.choice(pool) if rng.random() < 0.5 else None
                           for _ in range(3)))


def edit_store(rng: random.Random, store: Store, step: int) -> None:
    """One merge: a random set, or new versions of current records under a
    date later than every held one (they win) or earlier (they lose)."""
    keys = sorted(store.current)
    if not keys or rng.random() < 0.4:
        store.merge(randgen.rand_record_set(rng, max_records=4),
                    prov(f"edit{step}", randgen.rand_full_date(rng)))
        return
    chosen = rng.sample(keys, min(len(keys), rng.randint(1, 3)))
    years = [store.current[key][1].fetched.year for key in chosen]
    wins = rng.random() < 0.5
    if wins:
        date = PartialDate(max(years) + rng.randint(1, 5), 1, 1)
    else:
        date = PartialDate(min(years) - rng.randint(1, 5), 12, 28)
    rs = RecordSet()
    for key in chosen:
        rs.add(new_version(rng, key, keys))
    store.merge(rs, prov(f"edit{step}", date))
    for key in chosen:
        assert (store.current[key][0] is rs.records[key]) == wins


def test_queries_match_the_reference_scan_across_edits_and_merges():
    answered = 0
    for seed in range(60):
        rng = random.Random(seed)
        store = Store()
        store.merge(randgen.rand_record_set(rng, max_records=10),
                    prov("first", randgen.rand_full_date(rng)))
        store.merge(colon_records(), prov("colons", randgen.rand_full_date(rng)))
        for step in range(6):
            triples = reference_triples(store)
            pool = term_pool(store)
            eq = rand_eq(rng, pool)
            for _ in range(8):
                pattern = rand_pattern(rng, pool)
                for classes in (eq, None):
                    expected = reference_query(triples, pattern, classes or EquivalenceMap())
                    assert store.query(pattern, classes) == expected, (seed, step, pattern)
                    answered += bool(expected)
            assert store.to_triples() == triples
            edit_store(rng, store, step)
    assert answered > 1000


def test_colon_identifiers_and_literals_match_by_their_first_colon():
    store = Store()
    store.merge(colon_records(), prov("colons", PartialDate(2001, 6, 6)))

    def matched(term: str, position: int) -> set:
        pattern = TriplePattern(*(term if i == position else None for i in range(3)))
        return {triple[position] for triple in store.query(pattern)}

    assert matched("a:b", 0) == {"person:a:b"}
    assert matched("b", 0) == {"person:b"}
    assert matched("//x", 2) == {"http://x", "//x"}
    assert matched("x", 2) == {"x"}
    assert matched("a:b", 2) == set()
    assert matched("http", 0) == {"person:http"}
    assert matched("http", 2) == set()


def test_enlarging_an_equivalence_class_only_adds_results():
    for seed in range(40):
        rng = random.Random(seed)
        store = Store()
        store.merge(randgen.rand_record_set(rng, max_records=10),
                    prov("first", randgen.rand_full_date(rng)))
        store.merge(colon_records(), prov("colons", randgen.rand_full_date(rng)))
        pool = term_pool(store)
        small = rand_eq(rng, pool)
        patterns = [rand_pattern(rng, pool) for _ in range(10)]
        before = [set(store.query(pattern, small)) for pattern in patterns]
        for _ in range(3):
            small.add_class(rng.sample(pool, 2))
            after = [set(store.query(pattern, small)) for pattern in patterns]
            for pattern, old, new in zip(patterns, before, after):
                assert old <= new, (seed, pattern)
            before = after


# ---------------------------------------------------------------------------
# the subject index filed while flattening, against a rescan

def entries(held) -> list:
    """What an index or bare map holds under a key, as a list: one item
    stands for itself."""
    return held if isinstance(held, list) else [held]


def assert_indexes_match_a_rescan(store: Store) -> None:
    view = store._triple_view()
    assert set(view.filed) == store.to_triples()
    for position in range(3):
        index, bare = view._index(position)
        rescan: dict = {}
        for triple in view.filed:
            rescan.setdefault(triple[position], []).append(triple)
        assert {value: entries(held) for value, held in index.items()} == rescan
        tails: dict = {}
        if position != 1:
            for value in rescan:
                if ":" in value:
                    tails.setdefault(value.split(":", 1)[1], []).append(value)
        assert {tail: entries(held) for tail, held in bare.items()} == tails


def writable(rs: RecordSet) -> RecordSet:
    """*rs* without what the writer refuses, so that a save can hold it."""
    faulty = {key for key, _ in writer_faults(rs)}
    return RecordSet({key: record for key, record in rs.records.items() if key not in faulty},
                     [] if None in faulty else rs.relations)


def with_shared_relations(rng: random.Random, rs: RecordSet) -> tuple[RecordSet, list]:
    """*rs* with a project nesting a relation whose source is another record,
    and a nested relation listed in the document too, once as it is and
    once with the other mandatory flag, so that three relations give two
    triples; returns the set and the two triples."""
    keys = sorted(rs.records)
    others = [key for key in keys if key.kind != "project"] or keys
    nest = RecordKey("project", f"NEST-{rng.randrange(99)}")
    source = rng.choice(others)
    target = rng.choice([key for key in keys if key != source] or [nest])
    own = Relation(nest, source, role="funds")
    foreign = Relation(source, target, role="cites", mandatory=rng.random() < 0.5)
    rs.add(Project(id=nest.id, status=ProjectStatus.STARTED, titles=tt("Nest"),
                   abstracts=tt("A"), relations=(own, foreign)))
    rs.add_relation(own)
    rs.add_relation(Relation(own.source, own.target, own.role, not own.mandatory))
    return rs, [(f"project:{nest.id}", "funds", f"{source.kind}:{source.id}"),
                (f"{source.kind}:{source.id}", "cites", f"{target.kind}:{target.id}")]


def joining_eq(rng: random.Random, store: Store) -> EquivalenceMap:
    """Predicate spellings, and classes that join the full id of one record
    with the bare id of a record of another kind."""
    eq = EquivalenceMap()
    for spelling in SPELLINGS:
        eq.add_class(spelling)
    keys = sorted(store.current)
    for first in rng.sample(keys, min(3, len(keys))):
        others = [key for key in keys if key.kind != first.kind]
        if others:
            eq.add_class([f"{first.kind}:{first.id}", rng.choice(others).id])
    return eq


SHAPES = [(s, p, o) for s in (False, True) for p in (False, True) for o in (False, True)]


def assert_every_shape_matches_the_scan(rng: random.Random, store: Store) -> int:
    """Each of the eight bound and unbound shapes, with terms that name
    something and terms that name nothing, with and without classes; the
    view is built from the records as the store holds them before
    reference_triples decodes every one."""
    store._triple_view()
    triples = reference_triples(store)
    eq = joining_eq(rng, store)
    pool = term_pool(store)
    answered = 0
    for shape in SHAPES:
        for _ in range(6):
            pattern = TriplePattern(*(rng.choice(pool) if bound else None
                                      for bound in shape))
            for classes in (eq, EquivalenceMap()):
                expected = sorted(set(reference_query(triples, pattern, classes)))
                assert store.query(pattern, classes) == expected, (shape, pattern)
                answered += bool(expected)
    return answered


@pytest.mark.parametrize("seed", range(12))
def test_the_subject_index_is_filed_as_a_rescan_would_file_it(tmp_path, seed):
    rng = random.Random(5200 + seed)
    make = randgen.flawed_record_set if seed % 2 else randgen.rand_record_set
    rs, shared = with_shared_relations(rng, writable(make(rng, 8)))
    store = Store()
    store.merge(rs, prov("first", randgen.rand_full_date(rng)))
    store.save(tmp_path)
    loaded = Store.load(tmp_path)
    # some records decoded since the load, the rest held as snapshot values
    for key in rng.sample(sorted(loaded.current), len(loaded.current) // 2):
        loaded.current[key]
    assert any(type(entry[0]) is dict for entry in loaded._current.values())
    assert_indexes_match_a_rescan(loaded)
    for triple in shared:
        assert loaded.query(TriplePattern(triple[0], None, None)).count(triple) == 1
    answered = assert_every_shape_matches_the_scan(rng, loaded)
    # a merge drops the view; the next one flattens the merged records too
    loaded.merge(make(rng, 6), prov("second", randgen.rand_full_date(rng)))
    assert_indexes_match_a_rescan(loaded)
    answered += assert_every_shape_matches_the_scan(rng, loaded)
    assert answered > 20
