"""Computations the benchmark checks the program against, made apart from it.

The triple flattening and the pattern matcher restate the store's documented
rules (subjects "type:id", bracketed language tags, one triple per relation,
terms matching the full or the bare identifier, expansion through disjoint
equivalence classes) without calling the store.  Digests let the workload
process compare large outputs with expectations built by the generator
without holding a second copy of them.
"""

from __future__ import annotations

import hashlib

from cerifrdf.model import OrgUnit, Person, Project


def digest(items) -> str:
    """Hash of the reprs of *items*, in order."""
    h = hashlib.blake2b(digest_size=16)
    for item in items:
        h.update(repr(item).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def digest_set(rs) -> str:
    """Fingerprint of a record set: its records by key and its relation set."""
    records = sorted(rs.records.items())
    return digest([*records, "|", *sorted(repr(r) for r in set(rs.relations))])


def digest_relations(relations) -> str:
    return digest(sorted(repr(r) for r in set(relations)))


def digest_winners(winners: dict) -> dict:
    """Per key: record fingerprint, source, fetch date and source kind."""
    return {key: (digest([record]), prov.source, str(prov.fetched),
                  prov.kind.value)
            for key, (record, prov) in winners.items()}


def digest_answer(triples) -> tuple[int, str]:
    return len(triples), digest(triples)


def _tagged(tt) -> str:
    code = "?" if tt.translation is None else tt.translation.value
    return f"[{tt.language}/{code}] {tt.text}"


def _skill(sk) -> str:
    return sk.skill if sk.role is None else f"[{sk.role}] {sk.skill}"


def _endpoint(key) -> str:
    return f"{key.kind}:{key.id}"


def flatten(records, relations) -> set[tuple[str, str, str]]:
    """Triples of the given current records plus document-level relations."""
    out = set()
    edges = set(relations)
    for record in records:
        s = _endpoint(record.key)
        pairs = []
        if isinstance(record, Project):
            edges.update(record.relations)
            status = record.status
            if status is not None:
                pairs.append(("status", getattr(status, "value", status)))
            for name in ("start", "end"):
                value = getattr(record, name)
                if value is not None:
                    pairs.append((name, str(value)))
            if record.uri is not None:
                pairs.append(("uri", record.uri))
            pairs += [("prize_award", p) for p in record.prize_awards]
            pairs += [("title", _tagged(t)) for t in record.titles]
            pairs += [("abstract", _tagged(t)) for t in record.abstracts]
            pairs += [("keywords", _tagged(t)) for t in record.keywords]
        elif isinstance(record, Person):
            for name in ("family_names", "first_names"):
                if getattr(record, name):
                    pairs.append((name, getattr(record, name)))
            for name in ("sex", "uri"):
                if getattr(record, name) is not None:
                    pairs.append((name, getattr(record, name)))
            pairs += [("prize_award", p) for p in record.prize_awards]
            pairs += [("expert_skill", _skill(k)) for k in record.expert_skills]
            for c in record.contacts:
                for name, value in (("telephone", c.telephone), ("email", c.email),
                                    ("contact_uri", c.uri)):
                    if value is not None:
                        pairs.append((name, value))
        elif isinstance(record, OrgUnit):
            for name in ("acronym", "prize_award", "url"):
                if getattr(record, name) is not None:
                    pairs.append((name, getattr(record, name)))
            pairs += [("name", _tagged(t)) for t in record.names]
            pairs += [(r.role, f"orgunit:{r.target}") for r in record.ou_relations]
            pairs += [("expert_skill", _skill(k)) for k in record.expert_skills]
            pairs += [("description", _tagged(t)) for t in record.descriptions]
        out.update((s, p, o) for p, o in pairs)
    out.update((_endpoint(r.source), r.role, _endpoint(r.target)) for r in edges)
    return out


def _terms(term: str | None, classes) -> set[str] | None:
    if term is None:
        return None
    for cls in classes:
        if term in cls:
            return set(cls)
    return {term}


def _bare(value: str) -> str | None:
    head, colon, tail = value.partition(":")
    return tail if colon else None


def match(triples, query: str, classes) -> list[tuple[str, str, str]]:
    """Brute-force answer to one "(s, p, o)" pattern, "?" being a wildcard."""
    body = query.strip()[1:-1]
    terms = [t.strip() for t in body.split(",")]
    s, p, o = (None if (not t or t.startswith("?")) else t for t in terms)
    st, pt, ot = _terms(s, classes), _terms(p, classes), _terms(o, classes)
    out = []
    for triple in triples:
        ts, tp, to = triple
        if st is not None and ts not in st and _bare(ts) not in st:
            continue
        if pt is not None and tp not in pt:
            continue
        if ot is not None and to not in ot and _bare(to) not in ot:
            continue
        out.append(triple)
    return sorted(out)


def read_registry(text: str) -> dict:
    """Registry file lines as {(org, type, id): date text}."""
    out = {}
    for line in text.splitlines():
        if line:
            org, kind, ident, date = line.split("\t")
            out[(org, kind, ident)] = date
    return out


def rdf_offsets(page: bytes) -> list[int]:
    """Byte offsets of every rdf:RDF start tag, by a plain byte search."""
    out, pos = [], 0
    while True:
        i = page.find(b"<rdf:RDF", pos)
        if i < 0:
            return out
        if page[i + 8:i + 9] in (b" ", b"\n", b"\t", b"\r", b">", b"/"):
            out.append(i)
        pos = i + 8
