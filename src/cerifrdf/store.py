"""A desk-scale store for gathered records, with provenance and triple queries.

Merging keeps at most one current version per (type, id): the version with
the latest fetched date wins, same-day conflicts fall to the
lexicographically greatest source, and every superseded version stays on an
in-memory history list.  The current map therefore does not depend on the
order files arrive in.  Queries flatten the store to subject-predicate-object
triples and match patterns through optional equivalence classes of terms.

The triple view walks the field table model.RECORD_FIELDS, as the reader and
the writer do; this module only knows how to turn each value shape into
triples.  The store derives one read-only view of its triples, indexed by
subject, by predicate and by object (the SPO/POS/OSP idea of Weiss, Karras
and Bernstein, "Hexastore", VLDB 2008), and answers a pattern from the
smallest candidate set among its bound positions.  Nothing is built by merge
or load: the first query after a change flattens the records, and each
position's index is built the first time a pattern binds it.

Freshness rule: each query first checks that the current map holds, in the
same order, keys and (record, provenance) pairs equal to those the view was
built from, and the relation set equal relations in the same order.  The
comparison tests identity first, so an unchanged store costs one pointer
comparison per element, and an equal replacement flattens to the same
triples.  Otherwise the view is rebuilt, and a record is flattened again
only if it is not the very object flattened before.  A merge, a load or a
caller editing the current map or the relation set directly therefore never
sees stale triples.
"""

from __future__ import annotations

import os
import re
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path

from .errors import EncodingError, FormatError, InvariantViolation
from .model import (
    PartialDate,
    Record,
    RecordKey,
    Relation,
    TranslatedText,
    file_safe_id,
    format_partial_date,
    parse_partial_date,
    present_fields,
    status_token,
)
from .rdfxml import CERIF_NS, RecordSet, parse_document, serialize_document

Triple = tuple[str, str, str]

INDEX_FILE = "provenance.index"
RELATIONS_FILE = "_relations.rdf"


def read_utf8(path: Path) -> str:
    """Text of a UTF-8 file; undecodable bytes raise EncodingError."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path}: not UTF-8: {exc}") from None


def read_rows(path: Path, width: int):
    """(line number, fields) for each non-blank line of a tab-separated
    UTF-8 file; a line without exactly *width* fields raises FormatError."""
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise FormatError(f"{path}:{lineno}: expected {width} tab-separated fields")
        yield lineno, fields


def write_atomic(path: Path, text: str) -> None:
    """Replace *path* with *text* through a temporary file in the same
    directory, so readers see the old content or the new, never a mix."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class SourceKind(Enum):
    ALL = "all"
    PER_OBJECT = "per-object"
    ANNUAL = "annual"
    CHANGE = "change"
    EXTRACTED = "extracted"


@dataclass(frozen=True)
class Provenance:
    source: str
    fetched: PartialDate
    kind: SourceKind

    def __post_init__(self) -> None:
        if not self.source:
            raise InvariantViolation("provenance without a source")
        if not self.fetched.is_full:
            raise InvariantViolation("provenance date must be a full date")


@dataclass(frozen=True)
class TriplePattern:
    """A triple with any position replaced by None as a wildcard."""

    subject: str | None = None
    predicate: str | None = None
    object: str | None = None

    @classmethod
    def parse(cls, text: str) -> "TriplePattern":
        inner = text.strip()
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        parts = [p.strip() for p in inner.split(",")]
        if len(parts) != 3:
            raise FormatError(f"pattern {text!r} does not have three positions")
        terms = [None if p.startswith("?") or not p else p for p in parts]
        return cls(subject=terms[0], predicate=terms[1], object=terms[2])


class EquivalenceMap:
    """Disjoint classes of interchangeable terms.

    The file form is one class per line, terms separated by tabs or the
    equivalence sign, with '#' starting a comment.
    """

    def __init__(self) -> None:
        # term -> its class; the dict keeps each term where it was first
        # added, so a class's first key dates from the oldest class merged in
        self._classes: dict[str, frozenset[str]] = {}

    def add_class(self, terms) -> None:
        cleaned = [t for t in (str(term).strip() for term in terms) if t]
        if not cleaned:
            return
        merged = frozenset(cleaned).union(
            *(self._classes[t] for t in cleaned if t in self._classes))
        for term in merged:
            self._classes[term] = merged

    def expand(self, term: str) -> frozenset[str]:
        return self._classes.get(term, frozenset((term,)))

    def classes(self) -> list[frozenset[str]]:
        """Each class once, the oldest first."""
        return list(dict.fromkeys(self._classes.values()))

    @classmethod
    def from_text(cls, text: str) -> "EquivalenceMap":
        eq = cls()
        for line in text.splitlines():
            body = line.split("#", 1)[0]
            if not body.strip():
                continue
            eq.add_class(re.split(r"[≡\t]", body))
        return eq

    @classmethod
    def load(cls, path: str | os.PathLike) -> "EquivalenceMap":
        return cls.from_text(read_utf8(Path(path)))


def _tt_object(tt: TranslatedText) -> str:
    code = tt.translation.value if tt.translation else "?"
    return f"[{tt.language}/{code}] {tt.text}"


def _skill_object(skill) -> str:
    return skill.skill if skill.role is None else f"[{skill.role}] {skill.skill}"


def _relation_triple(rel: Relation) -> Triple:
    return (str(rel.source), rel.role, str(rel.target))


# shape -> triple maker, which takes the record's subject, the field's
# predicate and a present value.  Contacts, org-unit relations and nested
# relations name their own predicates, and a nested relation its own subject.
_TRIPLES = {
    "status": lambda s, p, value: [(s, p, status_token(value))],
    "date": lambda s, p, value: [(s, p, format_partial_date(value))],
    "text": lambda s, p, value: [(s, p, value)],
    "sex": lambda s, p, value: [(s, p, value)],
    "list": lambda s, p, items: [(s, p, item) for item in items],
    "translated": lambda s, p, items: [(s, p, _tt_object(tt)) for tt in items],
    "skills": lambda s, p, items: [(s, p, _skill_object(sk)) for sk in items],
    "contacts": lambda s, _, items: [
        (s, channel, value) for contact in items
        for channel, value in (("telephone", contact.telephone), ("email", contact.email),
                               ("contact_uri", contact.uri))
        if value is not None],
    "ou_relations": lambda s, _, items: [
        (s, rel.role, str(RecordKey("orgunit", rel.target))) for rel in items],
    "relations": lambda s, _, items: [_relation_triple(rel) for rel in items],
}


def _record_triples(key: RecordKey, record: Record) -> tuple[Triple, ...]:
    subject = str(key)
    out: list[Triple] = []
    for spec, value in present_fields(record):
        out.extend(_TRIPLES[spec.shape](subject, spec.predicate, value))
    return tuple(out)


def _version_key(record: Record, prov: Provenance):
    # repr is deterministic for these frozen dataclasses and breaks the
    # pathological tie of equal date and equal source.
    return (prov.fetched.latest(), prov.source, repr(record))


def _endpoint_match(value: str, terms: frozenset[str]) -> bool:
    """A subject or object matches a term as a whole or by the part after
    its first ':', so "P1" finds "project:P1" and "//x" finds "http://x"."""
    return value in terms or value.split(":", 1)[-1] in terms


class _TripleView:
    """The store's current triples, indexed by subject, predicate and object.

    Each position's index maps a value to the triples holding it there; the
    subject and object positions also map the part of a value after its
    first ':' back to the values it came from.  An index is built the first
    time a pattern binds its position, so a one-shot query pays only for
    the positions it names.  A triple that two sources give, such as a
    relation nested in a project and listed in the document too, may be
    filed twice; match and triples return each once.
    """

    def __init__(self, current: dict[RecordKey, tuple[Record, Provenance]],
                 relations: set[Relation],
                 kept: dict[RecordKey, tuple[Record, tuple[Triple, ...]]]) -> None:
        self.keys = list(current)
        self.pairs = list(current.values())
        self.relations = list(relations)
        # RecordKey -> (record, its triples), reused by the next view for
        # every record that is still the very same object
        self.flat: dict[RecordKey, tuple[Record, tuple[Triple, ...]]] = {}
        for key, (record, _) in zip(self.keys, self.pairs):
            entry = kept.get(key)
            if entry is None or entry[0] is not record:
                entry = (record, _record_triples(key, record))
            self.flat[key] = entry
        self.relation_triples = list(map(_relation_triple, self.relations))
        # position (0 subject, 1 predicate, 2 object) -> (value -> triples,
        # part after the first ':' -> values)
        self._indexes: dict[int, tuple[dict[str, list[Triple]], dict[str, list[str]]]] = {}

    def is_fresh(self, current: dict[RecordKey, tuple[Record, Provenance]],
                 relations: set[Relation]) -> bool:
        """The freshness rule of the module docstring."""
        return (self.keys == list(current) and self.pairs == list(current.values())
                and self.relations == list(relations))

    def _filed(self):
        """Every record and relation triple; one that two sources give
        comes twice."""
        return chain(chain.from_iterable(entry[1] for entry in self.flat.values()),
                     self.relation_triples)

    def triples(self) -> set[Triple]:
        """Every triple."""
        return set(self._filed())

    def _index(self, position: int):
        if position not in self._indexes:
            index: defaultdict[str, list[Triple]] = defaultdict(list)
            for triple in self._filed():
                index[triple[position]].append(triple)
            bare: defaultdict[str, list[str]] = defaultdict(list)
            if position != 1:  # predicates match whole only
                for value in index:
                    if ":" in value:
                        bare[value.split(":", 1)[1]].append(value)
            self._indexes[position] = (dict(index), dict(bare))
        return self._indexes[position]

    def match(self, *terms: frozenset[str] | None) -> set[Triple]:
        """Triples whose subject, predicate and object match their expanded
        terms, None matching anything."""
        found = []
        for position, position_terms in enumerate(terms):
            if position_terms is not None:
                index, bare = self._index(position)
                found.append([index[value] for term in position_terms
                              for value in (term, *bare.get(term, ())) if value in index])
        if not found:
            return self.triples()
        subject_terms, predicate_terms, object_terms = terms
        smallest = min(found, key=lambda lists: sum(map(len, lists)))
        return {triple for triple in chain.from_iterable(smallest)
                if (subject_terms is None or _endpoint_match(triple[0], subject_terms))
                and (predicate_terms is None or triple[1] in predicate_terms)
                and (object_terms is None or _endpoint_match(triple[2], object_terms))}


class Store:
    def __init__(self) -> None:
        self.current: dict[RecordKey, tuple[Record, Provenance]] = {}
        self.history: list[tuple[RecordKey, Record, Provenance]] = []
        self.relations: set[Relation] = set()
        # built by the first query after a change; see _triple_view
        self._view: _TripleView | None = None

    def merge(self, rs: RecordSet, prov: Provenance) -> list[str]:
        """Fold one fetched document into the store; returns merge warnings."""
        warnings: list[str] = []
        for key in sorted(rs.records):
            record = rs.records[key]
            if key not in self.current:
                self.current[key] = (record, prov)
                continue
            held_record, held_prov = self.current[key]
            if (held_prov.fetched.latest() == prov.fetched.latest()
                    and (held_record, held_prov) != (record, prov)):
                warnings.append(f"{key.kind} {key.id}: same-day versions from "
                                f"{held_prov.source} and {prov.source}, "
                                "greatest source wins")
            if _version_key(record, prov) > _version_key(held_record, held_prov):
                self.current[key] = (record, prov)
                self.history.append((key, held_record, held_prov))
            else:
                self.history.append((key, record, prov))
        self.relations.update(rs.relations)
        return warnings

    def versions_of(self, key: RecordKey) -> list[tuple[Record, Provenance]]:
        """Current version first, then every superseded one in arrival order."""
        out = []
        if key in self.current:
            out.append(self.current[key])
        out.extend((record, prov) for k, record, prov in self.history if k == key)
        return out

    def _triple_view(self) -> _TripleView:
        """The indexed view of the current triples, rebuilt first if the
        current map or the relation set no longer holds what it was built
        from."""
        view = self._view
        if view is None or not view.is_fresh(self.current, self.relations):
            view = self._view = _TripleView(self.current, self.relations,
                                            view.flat if view is not None else {})
        return view

    def to_triples(self) -> set[Triple]:
        """Flatten current records to subject-predicate-object triples.

        Subjects are "type:id" strings; language-tagged objects carry their
        annotations in a bracket prefix; relations become one triple each
        with the role as predicate.  The set is the caller's to change.
        """
        return self._triple_view().triples()

    def query(self, pattern: TriplePattern,
              eq: EquivalenceMap | None = None) -> list[Triple]:
        """Triples matching *pattern*, sorted.

        Subject and object terms match either the full "type:id" form or the
        bare identifier; predicates match exactly.  Every term is first
        expanded through its equivalence class, so enlarging a class can only
        add results.

        The bound position with the fewest indexed triples for its expanded
        terms names the candidates, and only they are tested against every
        bound position; a pattern with no bound position returns every
        triple.  The indexed view is rebuilt first if the store fails the
        freshness rule of the module docstring, so a direct edit of the
        current map or the relation set is seen by the next query.
        """
        eq = eq if eq is not None else EquivalenceMap()
        return sorted(self._triple_view().match(
            *(None if term is None else eq.expand(term)
              for term in (pattern.subject, pattern.predicate, pattern.object))))

    # -- persistence --------------------------------------------------------

    def save(self, directory: str | os.PathLike, *, cerif_ns: str = CERIF_NS) -> None:
        """Write one canonical file per current record plus the provenance
        index; stale record files from earlier saves are removed.  An
        identifier that cannot name a file raises before anything is written."""
        keys = sorted(self.current)
        for key in keys:
            if not file_safe_id(key.id):
                raise InvariantViolation(
                    f"{key.kind} {key.id!r}: identifier holds '/', '\\' or a "
                    "control character; store not saved")
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        expected = {RELATIONS_FILE} if self.relations else set()
        for key in keys:
            record, _ = self.current[key]
            rs = RecordSet()
            rs.records[key] = record
            file_name = f"{key.kind}.{key.id}.rdf"
            expected.add(file_name)
            # gathered records may be partial, so persistence skips the
            # mandatory-field check that exchange output enforces
            (root / file_name).write_text(
                serialize_document(rs, cerif_ns=cerif_ns, validate=False),
                "utf-8")
        if self.relations:
            rs = RecordSet()
            rs.relations = sorted(self.relations, key=Relation.sort_key)
            (root / RELATIONS_FILE).write_text(
                serialize_document(rs, cerif_ns=cerif_ns), "utf-8")
        for path in root.glob("*.rdf"):
            if path.name not in expected:
                path.unlink()

        lines = []
        for key in keys:
            _, prov = self.current[key]
            lines.append(f"{key}\t{prov.source}\t"
                         f"{format_partial_date(prov.fetched)}\t{prov.kind.value}")
        write_atomic(root / INDEX_FILE, "".join(line + "\n" for line in lines))

    @classmethod
    def load(cls, directory: str | os.PathLike, *,
             cerif_ns: str = CERIF_NS) -> "Store":
        """Rebuild the current map from a saved directory.

        History is not persisted; a reloaded store starts with an empty one.
        """
        root = Path(directory)
        store = cls()
        index_path = root / INDEX_FILE
        if not index_path.exists():
            return store
        provenance: dict[str, Provenance] = {}
        for lineno, (subject, source, date_text, kind_text) in read_rows(index_path, 4):
            try:
                kind = SourceKind(kind_text)
            except ValueError:
                raise FormatError(f"{index_path}:{lineno}: unknown source kind "
                                  f"{kind_text!r}") from None
            provenance[subject] = Provenance(source, parse_partial_date(date_text), kind)
        for path in sorted(root.glob("*.rdf")):
            rs, _ = parse_document(path.read_bytes(), cerif_ns=cerif_ns)
            store.relations.update(rs.relations)
            for key, record in rs.records.items():
                prov = provenance.get(str(key))
                if prov is None:
                    raise FormatError(f"{path.name}: no provenance index entry "
                                      f"for {key}")
                store.current[key] = (record, prov)
        return store
