"""Seeded input generation for the three benchmark workloads.

Each build function writes the files a user of the command line would hand to the
matching subcommands into one directory, and returns the expectations the
workload checks its outputs against.  Expectations come from the generator's
own objects and from the oracles in ``tests/oracles.py`` and ``oracle.py``,
never from running the code under test on the inputs; the program only
builds the persistent starting states (registry file, saved stores), the
way earlier command-line calls would have left them.

Sizes are given at full scale; the traced run also builds a quarter-scale
copy to estimate how each layer grows.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import reference
import oracles
import randgen
from cerifrdf.exchange import ExchangeKind, ExchangeName, format_name
from cerifrdf.model import (
    OrgUnit,
    PartialDate,
    Project,
    RecordKey,
    Relation,
    format_partial_date,
)
from cerifrdf.rdfxml import RecordSet, serialize_document
from cerifrdf.store import Provenance, SourceKind, Store

ORG = "TUWIEN"
SESSION_DATE = PartialDate(2001, 6, 6)

#: Full-scale input sizes; see README.md for what each one controls.
SIZES = {
    "publish": {
        "site_records": 1000,        # records in the one site document
        "relations_per_record": 1.0,  # document-level relations per record
        "broken_share": 0.12,        # records breaking one mandatory rule
        "cascade_share": 0.12,       # records the cascade takes down with them
        "cascade_levels": 4,         # waves the cascade needs beyond the broken ones
        "mandatory_share": 0.3,      # other document-level relations that are mandatory
        "registry_entries": 20000,   # entries of earlier sessions in the registry
        "sgml_records": 1000,        # records in the legacy export
    },
    "harvest": {
        "universe": 1000,            # distinct records across all inputs
        "base_share": 0.6,           # share of them already in the base store
        "change_share": 0.3,         # share of records changed on each fetch date
        "ties": 20,                  # records with diverging same-day copies
        "single_pages": 100,         # HTML pages holding one record each
        "listing_pages": 2,          # HTML listing pages
        "blocks_per_listing": 300,   # embedded blocks per listing page
        "change_batch": 50,          # CHANGE files applied as the update
    },
    "lookup": {
        "store_records": 1000,       # records in the saved store
        "queries": 120,              # patterns in the query stream
    },
}


#: sizes that shape the inputs rather than scale them; the query stream
#: keeps its length so the growth of store.query is that of one query
_UNSCALED = {"cascade_levels", "listing_pages", "queries"}


def sizes(workload: str, scale: float) -> dict:
    out = {}
    for name, value in SIZES[workload].items():
        scaled = isinstance(value, int) and name not in _UNSCALED
        out[name] = max(2, round(value * scale)) if scaled else value
    return out


def _kinds(rng: random.Random, n: int) -> list[str]:
    """Record kinds in equal thirds, shuffled."""
    kinds = [("project", "person", "orgunit")[i % 3] for i in range(n)]
    rng.shuffle(kinds)
    return kinds


def _record(rng: random.Random, key: RecordKey, targets: list[RecordKey],
            orgunit_ids: list[str]):
    """A valid record; a project relates to some of three random *targets*."""
    if key.kind == "project":
        return randgen.rand_project(rng, key.id, targets=rng.sample(targets, 3))
    if key.kind == "person":
        return randgen.rand_person(rng, key.id)
    return randgen.rand_orgunit(rng, key.id,
                                parents=rng.sample(orgunit_ids, min(2, len(orgunit_ids))))


def _break(rng: random.Random, record):
    """A copy of *record* breaking one mandatory rule in a way that survives
    the wire (the parser drops an org-unit relation without a target, so
    that breakage becomes a missing name instead)."""
    broken = randgen._break_record(rng, record)
    if isinstance(broken, OrgUnit) and broken.names:
        return OrgUnit(id=record.id, names=())
    return broken


def _nested(records) -> set[Relation]:
    return {rel for record in records if isinstance(record, Project)
            for rel in record.relations}


def _doc_relations(rng: random.Random, keys: list[RecordKey], count: int,
                   mandatory_share: float, exclude: set[Relation]) -> list[Relation]:
    seen = set(exclude)
    out = []
    for _ in range(count):
        source, target = rng.sample(keys, 2)
        rel = Relation(source=source, target=target,
                       role=rng.choice(("partner", "requires", "employs")),
                       mandatory=rng.random() < mandatory_share)
        if rel not in seen:
            seen.add(rel)
            out.append(rel)
    return out


def _record_set(records, relations) -> RecordSet:
    rs = RecordSet()
    for record in records:
        rs.records[record.key] = record
    rs.relations = list(relations)
    return rs


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# publish

_SGML_WORDS = ["Forschung", "Dokumentation", "Datenbank", "Wien", "Projekt",
               "Universität", "Österreich", "survey", "online", "multimedia",
               "R&D", "naïve", "groß", "information", "system", "archive"]
_UNIVERSITIES = [
    ("Technische Universität Wien", "Vienna University of Technology"),
    ("Universität Wien", "University of Vienna"),
    ("Johannes Kepler Universität Linz", "Johannes Kepler University Linz"),
    ("Technische Universität Graz", "Graz University of Technology"),
    ("Universität Innsbruck", "University of Innsbruck"),
    ("Montanuniversität Leoben", "University of Leoben"),
]
_FACULTIES = ["Informatik", "Physik", "Chemie", "Bauingenieurwesen",
              "Maschinenbau", "Elektrotechnik"]


def _slug(name: str) -> str:
    # generated names are letters and spaces only, so the identifier the
    # converter derives is the words joined by dots, upper-cased
    return ".".join(name.split()).upper()


def _sgml_text(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(_SGML_WORDS) for _ in range(rng.randint(lo, hi)))


def _sgml_export(rng: random.Random, n: int):
    """Legacy export text plus the keys the converter must produce from it."""
    lines: list[str] = []
    orgunits, heads, stubs = set(), set(), set()
    invalid = set()
    for i in range(n):
        rcn = f"E{i:04d}-{rng.randint(1, 99):02d}"
        lines.append("<RECORD>")
        if rng.random() < 0.85:
            family = "" if rng.random() < 0.04 else f"Nachname{i}"
            suffix = " (Dipl.-Ing.)" if rng.random() < 0.3 else ""
            lines.append(f"<HRU>{family}, Vorname{i % 37}{suffix}")
            heads.add(RecordKey("person", f"{rcn}.head"))
            if not family:
                invalid.add(RecordKey("person", f"{rcn}.head"))
        for tag in ("KUG", "KUE", "RUG"):
            for _ in range(rng.randrange(3)):
                lines.append(f"<{tag}>{_sgml_text(rng, 1, 3)}")
        if rng.random() < 0.6:
            lines.append(f"<DUG>{_sgml_text(rng, 4, 10)}")
            lines.append(_sgml_text(rng, 4, 10))
            lines.append(f"<DUE>{_sgml_text(rng, 4, 10)}")
        if rng.random() < 0.7:
            lines.append("<TAC>+43 1")
            lines.append(f"<TEL>58801 {rng.randint(10000, 99999)}")
        if rng.random() < 0.5:
            lines.append(f"<EML>unit{i}@example.ac.at")
        if rng.random() < 0.3:
            lines.append(f"<STR>Gußhausstraße {rng.randint(1, 99)}")
        lines.append(f"<URL>http://units.example.ac.at/{i}")
        lines.append(f"<RCN>{rcn}")
        univ = None
        if rng.random() < 0.9:
            u = rng.randrange(len(_UNIVERSITIES))
            univ_de, univ_en = _UNIVERSITIES[u]
            lines.append(f"<UNG>{univ_de}")
            lines.append(f"<UNE>{univ_en}")
            univ = u
            stubs.add(RecordKey("orgunit", _slug(univ_de)))
        if rng.random() < 0.7:
            # faculty names carry the university index so two universities
            # never share a faculty stub
            fac = f"Fakultaet {rng.choice(_FACULTIES)} {univ if univ is not None else 'X'}"
            lines.append(f"<FAG>{fac}")
            lines.append(f"<FAE>Faculty {fac.split()[1]}")
            stubs.add(RecordKey("orgunit", _slug(fac)))
        if rng.random() < 0.95:
            lines.append(f"<DEG>Institut {_sgml_text(rng, 1, 2)} {i}")
            lines.append(f"<DEE>Institute {i}")
        else:
            invalid.add(RecordKey("orgunit", rcn))
        lines.append("</RECORD>")
        orgunits.add(RecordKey("orgunit", rcn))
    return "\n".join(lines) + "\n", {
        "orgunits": orgunits, "heads": heads, "stubs": stubs, "invalid": invalid}


def _site_relations(rng: random.Random, size: dict, keys, broken, levels, safe,
                    nested: set[Relation]) -> list[Relation]:
    """Document-level relations with a fixed discard structure: every record
    of cascade level k has one mandatory relation to a record of level k-1
    (level 0 being the broken records), and every other mandatory relation
    targets a record that stays, so each seed discards the same number of
    records in the same number of waves."""
    out, seen = [], set(nested)
    previous = broken
    for level in levels:
        for key in level:
            rel = Relation(key, rng.choice(previous), "requires", True)
            seen.add(rel)
            out.append(rel)
        previous = level
    total = round(len(keys) * size["relations_per_record"])
    while len(out) < total:
        source = rng.choice(keys)
        if rng.random() < size["mandatory_share"]:
            target, mandatory = rng.choice(safe), True
        else:
            target, mandatory = rng.choice(keys), False
        rel = Relation(source, target, rng.choice(("partner", "requires", "employs")),
                       mandatory)
        if source != target and rel not in seen:
            seen.add(rel)
            out.append(rel)
    return out


def build_publish(rng: random.Random, size: dict, root: Path) -> dict:
    n = size["site_records"]
    keys = [RecordKey(kind, randgen.rand_id(rng, i))
            for i, kind in enumerate(_kinds(rng, n))]
    orgunit_ids = [k.id for k in keys if k.kind == "orgunit"]
    order = rng.sample(keys, n)
    n_broken = round(n * size["broken_share"])
    n_cascade = round(n * size["cascade_share"])
    broken = order[:n_broken]
    victims = order[n_broken:n_broken + n_cascade]
    safe = order[n_broken + n_cascade:]
    depth = size["cascade_levels"]
    levels = [victims[i * n_cascade // depth:(i + 1) * n_cascade // depth]
              for i in range(depth)]
    broken_set = set(broken)
    records = []
    for key in keys:
        # nested relations only point at records that stay, so the cascade
        # is driven by the document-level structure alone
        record = _record(rng, key, safe, orgunit_ids)
        if key in broken_set:
            record = _break(rng, record)
        records.append(record)
    relations = _site_relations(rng, size, keys, broken, levels, safe,
                                _nested(records))
    site = _record_set(records, relations)
    _write(root / "site.rdf", serialize_document(site, validate=False))

    down = oracles.cascade_oracle(site)
    kept = [k for k in keys if k not in down]
    kept_relations = {rel for rel in (*_nested(records), *relations)
                      if rel.source not in down}

    # registry of earlier sessions: a share of today's records were sent
    # before under the same type, the rest are other identifiers, some of
    # them from other organizations
    entries: dict[tuple[str, str, str], PartialDate] = {}
    for key in rng.sample(keys, round(0.3 * n)):
        entries[(ORG, key.kind, key.id)] = randgen.rand_full_date(rng)
    m = n
    while len(entries) < size["registry_entries"]:
        org = rng.choice((ORG, ORG, "UNIVIE", "JKU"))
        entries[(org, rng.choice(("project", "person", "orgunit")),
                 randgen.rand_id(rng, m))] = randgen.rand_full_date(rng)
        m += 1
    registry_text = "".join(
        f"{org}\t{kind}\t{ident}\t{format_partial_date(date)}\n"
        for (org, kind, ident), date in sorted(entries.items()))
    _write(root / "registry.tsv", registry_text)
    final_entries = dict(entries)
    for key in kept:
        final_entries.setdefault((ORG, key.kind, key.id), SESSION_DATE)

    sgml_text, sgml_keys = _sgml_export(rng, size["sgml_records"])
    _write(root / "export.sgml", sgml_text)
    return {
        "site_digest": reference.digest_set(site),
        "site_discarded": dict(down),
        "kept_relations": kept_relations,
        "registry_final": {k: format_partial_date(v) for k, v in final_entries.items()},
        "sgml_keys": sgml_keys,
        "records_in": n + size["sgml_records"],
    }


# ---------------------------------------------------------------------------
# harvest

_ORGS = ("TUWIEN", "UNIVIE", "JKU", "TUGRAZ")
# three fetch dates; the HTML pages are fetched between the second and third
_DATES = tuple(PartialDate(2001, month, 1) for month in (2, 4, 6))
BASE_DATE = PartialDate(2001, 1, 15)
HTML_DATE = PartialDate(2001, 4, 15)
CHANGE_DATE = PartialDate(2001, 7, 1)


def _page_head(title: str) -> list[str]:
    return ["<!DOCTYPE html>", '<html lang="de">', "<head>",
            '<meta charset="utf-8"/>', f"<title>{title}</title>", "</head>", "<body>",
            f"<h1>{title} – Übersicht der Forschungsaktivitäten</h1>"]


def build_harvest(rng: random.Random, size: dict, root: Path) -> dict:
    n = size["universe"]
    keys = [RecordKey(kind, randgen.rand_id(rng, i))
            for i, kind in enumerate(_kinds(rng, n))]
    orgunit_ids = [k.id for k in keys if k.kind == "orgunit"]
    owner = {key: _ORGS[i % len(_ORGS)] for i, key in enumerate(keys)}
    version = {key: _record(rng, key, keys, orgunit_ids) for key in keys}

    def changed(key):
        version[key] = _record(rng, key, keys, orgunit_ids)
        return version[key]

    candidates: dict[RecordKey, list] = {key: [] for key in keys}

    chosen = set(rng.sample(keys, round(n * size["base_share"])))
    base_keys = [k for k in keys if k in chosen]
    base = Store()
    for org in _ORGS:
        mine = [version[k] for k in base_keys if owner[k] == org]
        rels = _doc_relations(rng, [r.key for r in mine], len(mine) // 3, 0.3,
                              _nested(mine))
        prov = Provenance(f"{org}.{format_partial_date(BASE_DATE)}.ALL", BASE_DATE,
                          SourceKind.ALL)
        base.merge(_record_set(mine, rels), prov)
        for record in mine:
            candidates[record.key].append((record, prov))
    base.save(root / "base_store")
    relations = set(base.relations)

    inputs = root / "inputs"
    inputs.mkdir()
    records_in = 0
    ties = set(rng.sample(keys, size["ties"]))
    for date in _DATES:
        for o, org in enumerate(_ORGS):
            mine = [k for k in keys if owner[k] == org]
            changing = set(rng.sample(mine, round(len(mine) * size["change_share"])))
            sent = [changed(k) if k in changing else version[k] for k in mine]
            if o < 2:
                # organizations 0 and 1 send full snapshots, and also a
                # diverging same-day copy of some records owned by others
                extra = [_record(rng, k, keys, orgunit_ids) for k in sorted(ties)
                         if owner[k] != org and owner[k] in _ORGS[2:]]
                docs = sent + (extra if date is _DATES[1] else [])
                rels = _doc_relations(rng, mine, len(mine) // 3, 0.3, _nested(docs))
                name = format_name(ExchangeName(ExchangeKind.ALL, org, date))
                prov = Provenance(name, date, SourceKind.ALL)
                _write(inputs / name, serialize_document(_record_set(docs, rels)))
                relations.update(rels)
                records_in += len(docs)
                for record in docs:
                    candidates[record.key].append((record, prov))
            else:
                for record in sent:
                    name = format_name(ExchangeName(
                        ExchangeKind.PER_OBJECT, org, date, record.key.kind,
                        record.key.id))
                    prov = Provenance(name, date, SourceKind.PER_OBJECT)
                    _write(inputs / name, serialize_document(_record_set([record], [])))
                    records_in += 1
                    candidates[record.key].append((record, prov))

    offsets = {}
    # a record may show on several pages, which makes more same-day ties
    pages = [[key] for key in rng.sample(keys, size["single_pages"])]
    pages += [rng.sample(keys, size["blocks_per_listing"])
              for _ in range(size["listing_pages"])]
    for p, page_records in enumerate(pages):
        listing = len(page_records) > 1
        name = f"{'liste' if listing else 'seite'}{p:04d}.html"
        lines = _page_head(f"Seite {p}")
        shown = []
        for i, key in enumerate(page_records):
            record = _record(rng, key, keys, orgunit_ids)
            shown.append(record)
            lines.append(f'<div class="eintrag"><p>Eintrag {i}: {key.kind} – '
                         f'größer als {i}</p>')
            lines.append("<!--CERIF-RDF")
            lines.append(serialize_document(_record_set([record], [])).rstrip("\n"))
            lines.append("-->")
            lines.append("</div>")
        lines += ["</body>", "</html>"]
        data = ("\n".join(lines) + "\n").encode("utf-8")
        (inputs / name).write_bytes(data)
        found = reference.rdf_offsets(data)
        offsets[name] = found
        for record, offset in zip(shown, found):
            candidates[record.key].append(
                (record, Provenance(f"{name}#{offset}", HTML_DATE, SourceKind.EXTRACTED)))
        records_in += len(shown)

    bulk_winners = {key: oracles.newest_version_oracle(c)
                    for key, c in candidates.items() if c}

    changes = root / "changes"
    changes.mkdir()
    update_in = 0
    for key in rng.sample(keys, size["change_batch"]):
        record = _record(rng, key, keys, orgunit_ids)
        name = format_name(ExchangeName(ExchangeKind.CHANGE, owner[key], CHANGE_DATE,
                                        key.kind, key.id))
        _write(changes / name, serialize_document(_record_set([record], [])))
        candidates[key].append((record, Provenance(name, CHANGE_DATE,
                                                   SourceKind.CHANGE)))
        update_in += 1
    final_winners = {key: oracles.newest_version_oracle(c)
                     for key, c in candidates.items() if c}
    return {
        "bulk_winners": reference.digest_winners(bulk_winners),
        "final_winners": reference.digest_winners(final_winners),
        "relations": reference.digest_relations(relations),
        "offsets": offsets,
        "records_in": records_in + update_in,
    }


# ---------------------------------------------------------------------------
# lookup

# classes joining spellings of predicates, plus aliases for record
# identifiers added per seed below
_PREDICATE_CLASSES = [
    ("partner", "Partner", "collaborator"),
    ("employs", "beschaeftigt"),
    ("title", "Titel"),
    ("family_names", "surname", "Familienname"),
    ("expert_skill", "Kompetenz"),
    ("name", "Bezeichnung"),
]
_PREDICATES = ["status", "start", "end", "uri", "prize_award", "title", "abstract",
               "keywords", "family_names", "first_names", "sex", "expert_skill",
               "telephone", "email", "contact_uri", "acronym", "url", "name",
               "description", "parent", "partner", "requires", "employs", "funds",
               "uses", "Titel", "surname", "collaborator", "Bezeichnung"]


def build_lookup(rng: random.Random, size: dict, root: Path) -> dict:
    n = size["store_records"]
    keys = [RecordKey(kind, randgen.rand_id(rng, i))
            for i, kind in enumerate(_kinds(rng, n))]
    orgunit_ids = [k.id for k in keys if k.kind == "orgunit"]
    records = [_record(rng, key, keys, orgunit_ids) for key in keys]
    relations = _doc_relations(rng, keys, n, 0.3, _nested(records))
    store = Store()
    prov = Provenance(f"{ORG}.{format_partial_date(BASE_DATE)}.ALL", BASE_DATE,
                      SourceKind.ALL)
    store.merge(_record_set(records, relations), prov)
    store.save(root / "store")

    classes = [list(c) for c in _PREDICATE_CLASSES]
    aliases = []
    for i, key in enumerate(rng.sample(keys, 20)):
        alias = f"ALIAS-{i}"
        classes.append([alias, key.id])
        aliases.append(alias)
    (root / "synonyms.txt").write_text(
        "# generated equivalence classes\n"
        + "".join(" ≡ ".join(c) + "\n" for c in classes), "utf-8")

    triples = reference.flatten(records, relations)
    objects = sorted({o for _, _, o in triples if "," not in o
                      and not o.startswith("?") and o == o.strip()})
    subjects = [f"{k.kind}:{k.id}" if rng.random() < 0.5 else k.id for k in keys]
    queries = []
    # query mix: 30% subject-bound, 25% object-bound, 20% predicate-only,
    # 15% subject and predicate, 10% predicate and object
    q = size["queries"]
    shapes = ["s"] * round(0.3 * q) + ["o"] * round(0.25 * q) + ["p"] * round(0.2 * q)
    shapes += ["sp"] * round(0.15 * q)
    shapes += ["po"] * (q - len(shapes))
    rng.shuffle(shapes)
    terms = subjects + aliases
    for shape in shapes:
        pattern = (rng.choice(terms) if "s" in shape else None,
                   rng.choice(_PREDICATES) if "p" in shape else None,
                   None if "o" not in shape
                   else rng.choice(objects if shape == "o" else terms))
        queries.append("(" + ", ".join(t if t is not None else "?" for t in pattern)
                       + ")")
    (root / "queries.txt").write_text("\n".join(queries) + "\n", "utf-8")
    with_eq = [reference.match(triples, q, classes) for q in queries]
    without_eq = [reference.match(triples, q, []) for q in queries]
    return {
        "answers": [reference.digest_answer(a) for a in with_eq],
        "answers_plain": [reference.digest_answer(a) for a in without_eq],
        "triples": len(triples),
    }


_BUILD = {"publish": build_publish, "harvest": build_harvest, "lookup": build_lookup}


def flush(root: Path) -> None:
    """fsync every file under *root*, so the kernel does not write them back
    in the middle of the timed rounds."""
    for path in sorted(root.rglob("*")):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def build(workload: str, seed: int, scale: float, root: Path) -> dict:
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:{scale}")
    expect = _BUILD[workload](rng, sizes(workload, scale), root)
    flush(root)
    return expect
