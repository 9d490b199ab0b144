"""The sender chain against copies of the quadratic code it replaced.

The reference functions below are the wave-loop discard cascade, the
per-record relation scan of plan_session and the brute-force registry scan
of check_session, as they stood before relations were indexed.  Unlike
cascade_oracle they pin exact results: discard reasons, the order of each
file's relations and every FLAG line.  The last test counts Relation
comparisons to show the chain stays linear in records and relations.
"""

import dataclasses
import random

from cerifrdf.exchange import (
    ExchangeKind,
    IdRegistry,
    SessionIssue,
    check_session,
    format_name,
    plan_session,
)
from cerifrdf.model import PartialDate, Project, RecordKey, RECORD_TYPES, Relation
from cerifrdf.rdfxml import RecordSet, parse_document, serialize_document
from cerifrdf.validation import (
    CascadeFrom,
    MissingMandatoryField,
    apply_discard_cascade,
    validate_record,
)

import randgen

DATE = PartialDate(2001, 6, 6)


# ---------------------------------------------------------------------------
# reference copies of the replaced code

def reference_all_relations(rs) -> list:
    seen = []
    for key in sorted(rs.records):
        record = rs.records[key]
        if isinstance(record, Project):
            for rel in record.relations:
                if rel not in seen:
                    seen.append(rel)
    for rel in rs.relations:
        if rel not in seen:
            seen.append(rel)
    return seen


def reference_cascade_lines(rs, missing_targets_discard: bool) -> list[str]:
    reasons = {}
    for key in sorted(rs.records):
        problems = validate_record(rs.records[key])
        if problems:
            reasons[key] = MissingMandatoryField(problems[0].field)
    relations = sorted(set(reference_all_relations(rs)), key=Relation.sort_key)
    changed = True
    while changed:
        changed = False
        wave = {}
        for rel in relations:
            if not rel.mandatory:
                continue
            target_down = (rel.target in reasons
                           or (missing_targets_discard and rel.target not in rs.records))
            if (target_down and rel.source in rs.records
                    and rel.source not in reasons and rel.source not in wave):
                wave[rel.source] = CascadeFrom(rel.target)
        if wave:
            reasons.update(wave)
            changed = True
    return [f"DISCARD {key.kind} {key.id} {reasons[key]}" for key in sorted(reasons)]


def reference_plan_relations(rs) -> list[list[Relation]]:
    relations = reference_all_relations(rs)
    out = []
    for key in sorted(rs.records):
        record = rs.records[key]
        nested = set(record.relations) if isinstance(record, Project) else set()
        sub = []
        for rel in relations:
            if key in (rel.source, rel.target) and rel not in nested and rel not in sub:
                sub.append(rel)
        out.append(sub)
    return out


def reference_flag_lines(files, registry) -> list[str]:
    issues = []
    locations = {}
    for index, (_, sub) in enumerate(files):
        for key in sub.records:
            locations.setdefault(key, []).append(index)
    for key, where in sorted(locations.items()):
        if len(where) > 1:
            names = ", ".join(format_name(files[i][0]) for i in where)
            issues.append(SessionIssue(
                "duplicate-in-session", f"{key.kind} {key.id} appears in {names}"))
    views = [set(reference_all_relations(sub)) for _, sub in files]
    union = set().union(*views) if views else set()
    first_location = {key: where[0] for key, where in locations.items()}
    for rel in sorted(union, key=lambda r: r.sort_key()):
        for endpoint in (rel.source, rel.target):
            index = first_location.get(endpoint)
            if index is not None and rel not in views[index]:
                issues.append(SessionIssue(
                    "relation-not-duplicated",
                    f"{rel.source.kind}:{rel.source.id} -[{rel.role}]-> "
                    f"{rel.target.kind}:{rel.target.id} missing from "
                    f"{format_name(files[index][0])}"))
    for name, sub in files:
        for key in sorted(sub.records):
            types = {rtype for (o, rtype, i) in registry.entries
                     if o == name.organization and i == key.id}
            other = types - {key.kind}
            if other:
                issues.append(SessionIssue(
                    "type-drift",
                    f"{key.id} sent as {key.kind} but registered as "
                    f"{', '.join(sorted(other))}"))
    return [str(issue) for issue in issues]


# ---------------------------------------------------------------------------
# seeded inputs

def chain_set(rng: random.Random) -> RecordSet:
    """A flawed set with cycles, self-loops, dangling targets and relations
    listed both nested and at document level."""
    rs = randgen.flawed_record_set(rng, max_records=rng.choice([8, 30, 60]))
    keys = sorted(rs.records)
    for _ in range(rng.randint(0, 3)):
        key = rng.choice(keys)
        rs.relations.append(Relation(key, key, "self", mandatory=rng.random() < 0.7))
    ring = rng.sample(keys, min(len(keys), rng.randint(2, 6)))
    for source, target in zip(ring, ring[1:] + ring[:1]):
        if source != target:
            rs.add_relation(Relation(source, target, "cycle", mandatory=True))
    for _ in range(rng.randint(0, 3)):
        dangling = RecordKey(rng.choice(RECORD_TYPES), f"ELSEWHERE-{rng.randrange(9)}")
        rs.add_relation(Relation(rng.choice(keys), dangling, "cites", mandatory=True))
    for record in list(rs.records.values()):
        if isinstance(record, Project) and record.relations and rng.random() < 0.3:
            rs.add_relation(record.relations[0])
    return rs


def seeded_sets(count: int = 60):
    for seed in range(count):
        yield seed, chain_set(random.Random(seed))


def drifted_registry(rng: random.Random, rs: RecordSet) -> IdRegistry:
    """Entries under the session's org with other and equal types, and under
    other orgs, for some of the set's identifiers."""
    registry = IdRegistry()
    for key in rs.records:
        roll = rng.random()
        if roll < 0.25:
            registry.register("TUWIEN", rng.choice(RECORD_TYPES), key.id, DATE)
        elif roll < 0.5:
            registry.register(rng.choice(["UNIVIE", "JKU"]), rng.choice(RECORD_TYPES),
                              key.id, DATE)
        elif roll < 0.6:
            registry.register("TUWIEN", key.kind, key.id, DATE)
    registry.register("TUWIEN", "person", "NEVER-SENT", DATE)
    return registry


# ---------------------------------------------------------------------------
# differential tests

def test_cascade_reasons_match_wave_loop():
    cascades = 0
    for seed, rs in seeded_sets():
        for flag in (False, True):
            report = apply_discard_cascade(rs, missing_targets_discard=flag)
            assert report.to_lines() == reference_cascade_lines(rs, flag), (seed, flag)
            cascades += sum(isinstance(r, CascadeFrom) for _, r in report.discarded)
    assert cascades > 100


def test_plan_session_relations_match_scan():
    for seed, rs in seeded_sets():
        kept = apply_discard_cascade(rs).kept
        files = plan_session(kept, "TUWIEN", DATE, ExchangeKind.PER_OBJECT)
        assert [sub.relations for _, sub in files] == reference_plan_relations(kept), seed
        # unfiltered too: self-loops and dangling targets reach the files
        files = plan_session(rs, "TUWIEN", DATE, ExchangeKind.PER_OBJECT)
        assert [sub.relations for _, sub in files] == reference_plan_relations(rs), seed


def test_check_session_flags_match_brute_force():
    drift = 0
    for seed, rs in seeded_sets():
        rng = random.Random(seed)
        files = plan_session(rs, "TUWIEN", DATE, ExchangeKind.PER_OBJECT)
        # some files sent under another org, one sent twice, one missing a relation
        files = [(dataclasses.replace(name, organization="UNIVIE"), sub)
                 if rng.random() < 0.2 else (name, sub) for name, sub in files]
        files.append(files[rng.randrange(len(files))])
        for index, (name, sub) in enumerate(files):
            if sub.relations and rng.random() < 0.5:
                files[index] = (name, RecordSet(dict(sub.records), sub.relations[1:]))
                break
        registry = drifted_registry(rng, rs)
        expected = reference_flag_lines(files, registry)
        report = check_session(files, registry)
        assert report.to_lines() == expected, seed
        drift += sum("type-drift" in line for line in expected)
    assert drift > 50


def test_clean_session_registers_the_same_entries():
    for seed, rs in seeded_sets(20):
        kept = apply_discard_cascade(rs).kept
        files = plan_session(kept, "TUWIEN", DATE, ExchangeKind.PER_OBJECT)
        registry = IdRegistry()
        registry.register("UNIVIE", "project", "X", DATE)
        report = check_session(files, registry)
        assert report.ok, seed
        assert set(registry.entries) == {("UNIVIE", "project", "X")} | {
            ("TUWIEN", key.kind, key.id) for key in kept.records}
        assert report.registered == len(kept.records)


# ---------------------------------------------------------------------------
# linearity guard

def _large_document(n: int) -> str:
    rng = random.Random(n)
    kinds = [rng.choice(["project", "person", "orgunit"]) for _ in range(n)]
    keys = [RecordKey(kind, randgen.rand_id(rng, i)) for i, kind in enumerate(kinds)]
    units = [key.id for key in keys if key.kind == "orgunit"]
    rs = RecordSet()
    for key in keys:
        if key.kind == "project":
            record = randgen.rand_project(rng, key.id, targets=rng.sample(keys, 3))
        elif key.kind == "person":
            record = randgen.rand_person(rng, key.id)
        else:
            record = randgen.rand_orgunit(rng, key.id, parents=rng.sample(units, 2))
        if rng.random() < 0.1:
            record = randgen._break_record(rng, record)
        rs.add(record)
    # some nested relations are listed at document level too, so that
    # deduplicating them has equal but distinct objects to compare
    relations = {record.relations[0]: None for record in rs.records.values()
                 if isinstance(record, Project) and record.relations
                 and rng.random() < 0.3}
    while len(relations) < n:
        source, target = rng.sample(keys, 2)
        rel = Relation(source, target, rng.choice(["employs", "requires"]),
                       mandatory=rng.random() < 0.5)
        relations[rel] = None
    rs.relations = list(relations)
    return serialize_document(rs, validate=False)


def test_chain_compares_relations_a_linear_number_of_times(monkeypatch):
    n = 2000
    text = _large_document(n)
    rng = random.Random(7)
    registry = IdRegistry()
    for i in range(n):
        registry.register(rng.choice(["TUWIEN", "UNIVIE"]), rng.choice(RECORD_TYPES),
                          randgen.rand_id(rng, i), DATE)

    calls = 0
    original = Relation.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(Relation, "__eq__", counting_eq)
    rs, _ = parse_document(text)
    report = apply_discard_cascade(rs)
    files = plan_session(report.kept, "TUWIEN", DATE, ExchangeKind.PER_OBJECT)
    check_session(files, registry)
    monkeypatch.undo()

    assert len(report.kept.records) > n // 2
    assert sum(len(sub.relations) for _, sub in files) > n
    # the list-membership chain made about n * n / 2 comparisons
    assert calls < 4 * n
