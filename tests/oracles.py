"""Brute-force reference implementations the fast code is checked against.

These are written straight from the domain rules with no shared helpers, so
agreement with the library is evidence rather than tautology.  They favour
obviousness over speed.
"""

from cerifrdf.model import OrgUnit, Person, Project, ProjectStatus, RECORD_TYPES


def _tt_ok(tt) -> bool:
    lang_ok = (len(tt.language) == 2 and tt.language.isascii()
               and tt.language.isalpha() and tt.language == tt.language.lower())
    return lang_ok and tt.translation is not None and bool(tt.text)


def _relation_ok(rel) -> bool:
    if rel.source == rel.target or not rel.role:
        return False
    for endpoint in (rel.source, rel.target):
        if endpoint.kind not in RECORD_TYPES or not endpoint.id:
            return False
    return True


def record_ok(record) -> bool:
    """Independent restatement of the mandatory-field rules."""
    if not record.id:
        return False
    if isinstance(record, Project):
        if not isinstance(record.status, ProjectStatus):
            return False
        if not record.titles or not record.abstracts:
            return False
        for tt in (*record.titles, *record.abstracts, *record.keywords):
            if not _tt_ok(tt):
                return False
        return all(_relation_ok(rel) for rel in record.relations)
    if isinstance(record, Person):
        if not record.family_names:
            return False
        if record.sex not in (None, "M", "F"):
            return False
        if any(not sk.skill for sk in record.expert_skills):
            return False
        return all(c.telephone or c.email or c.uri for c in record.contacts)
    if isinstance(record, OrgUnit):
        if not record.names:
            return False
        for tt in (*record.names, *record.descriptions):
            if not _tt_ok(tt):
                return False
        if any(not r.target or not r.role for r in record.ou_relations):
            return False
        return all(sk.skill for sk in record.expert_skills)
    return False


def cascade_oracle(rs, missing_targets_discard: bool = False) -> dict:
    """Iterate one relation at a time until nothing changes.

    Returns {key: "invalid" | "cascade"} for every discarded record.  Only
    the resulting set is canonical; the library may attribute a cascade to a
    different (equally discarded) target.
    """
    down = {}
    for key, record in rs.records.items():
        if not record_ok(record):
            down[key] = "invalid"

    rels = []
    for record in rs.records.values():
        if isinstance(record, Project):
            rels.extend(record.relations)
    rels.extend(rs.relations)

    changed = True
    while changed:
        changed = False
        for rel in rels:
            if not rel.mandatory:
                continue
            if rel.source not in rs.records or rel.source in down:
                continue
            target_gone = rel.target in down or (
                missing_targets_discard and rel.target not in rs.records)
            if target_gone:
                down[rel.source] = "cascade"
                changed = True
    return down


def newest_version_oracle(candidates):
    """Winner among (record, provenance) pairs per the documented ordering:
    latest fetched date, then greatest source name, then greatest repr."""
    def rank(pair):
        record, prov = pair
        return (prov.fetched.latest(), prov.source, repr(record))

    best = candidates[0]
    for pair in candidates[1:]:
        if rank(pair) > rank(best):
            best = pair
    return best


def reference_query(triples, pattern, eq) -> list:
    """Store.query as a scan of every triple, as it stood before the store
    indexed its triples: each term is expanded through *eq*, a subject or
    object matches a term whole or by its part after the first ':', and a
    predicate matches exactly."""
    def expand(term):
        return None if term is None else eq.expand(term)

    def endpoint_match(value, terms) -> bool:
        return value in terms or value.split(":", 1)[-1] in terms

    subject_terms = expand(pattern.subject)
    predicate_terms = expand(pattern.predicate)
    object_terms = expand(pattern.object)
    out = []
    for triple in triples:
        s, p, o = triple
        if subject_terms is not None and not endpoint_match(s, subject_terms):
            continue
        if predicate_terms is not None and p not in predicate_terms:
            continue
        if object_terms is not None and not endpoint_match(o, object_terms):
            continue
        out.append(triple)
    return sorted(out)
