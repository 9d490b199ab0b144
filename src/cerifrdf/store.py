"""A desk-scale store for gathered records, with provenance and triple queries.

Merging keeps one version per (type, id) and drops the other: the version
with the latest fetched date wins and same-day conflicts fall to the
lexicographically greatest source, so the current map does not depend on
the order files arrive in, and a store holds nothing its saved directory
does not.  Queries flatten the store to subject-predicate-object triples and
match patterns through optional equivalence classes of terms.

The triple view walks the field table model.RECORD_FIELDS, as the reader and
the writer do; this module only knows how to turn each value shape into
triples.  The store derives one read-only view of its triples, indexed by
subject, by predicate and by object (the SPO/POS/OSP idea of Weiss, Karras
and Bernstein, "Hexastore", VLDB 2008), and answers a pattern from the
smallest candidate set among its bound positions.

Store.merge and Store.load are the only ways into a store: its current map
and its relation set are read-only to callers.  So the view is a plain
cache: a merge drops it, the first query after a load or a merge flattens
the current records once, and each position's index is built the first time
a pattern binds it.

A gatherer merges the same sources again and again, so most records are
unchanged between saves.  A store remembers the directory and namespace its
files on disk describe (the ones it was loaded from or last saved to) and
which keys merge has changed since; a save back to that directory under that
namespace writes only those records' files, and the relation file only when
the relation set grew.  Unchanged records keep the file bytes they were
loaded from; load counts a record as changed when it found it outside its
own file or parsed it with warnings.  Any other target gets every file.

A save also writes _snapshot.jsonl (see the snapshot module), a derived
copy of what each record file holds, keyed by the blake2b-128 digest of the
file's bytes.  Load still reads and hashes every record file, but takes a
file whose name and digest a snapshot line under the load's namespace
names, and which holds exactly its own key (or, for _relations.rdf, only
relations), from that line instead of parsing it; any other file is parsed
as before, with the same refusals, and a missing, torn, foreign or mistyped
snapshot or line only means more parsing.  So while the snapshot matches,
load gives back each record exactly as it was saved, even one built through
the API in a form the reader would normalize (Person(family_names="  a  b ")
parses as "a b"); parsed, it gives what the reader makes of the file.  The
snapshot carries the same trust as the record files it describes, and a
digest of each file's bytes is right whatever an interrupted save left
behind.
"""

from __future__ import annotations

import os
import re
import tempfile
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from types import MappingProxyType

from .errors import CerifError, EncodingError, FormatError, InvariantViolation, located
from .model import (
    PartialDate,
    Record,
    RecordKey,
    Relation,
    SCALAR_TEXT,
    TranslatedText,
    file_safe_id,
    format_partial_date,
    parse_partial_date,
    present_fields,
)
from .rdfxml import (CERIF_NS, RecordSet, check_namespace, parse_document,
                     serialize_document, writer_faults)
from .snapshot import SnapshotReader, file_digest, snapshot_lines

Triple = tuple[str, str, str]

INDEX_FILE = "provenance.index"
RELATIONS_FILE = "_relations.rdf"
SNAPSHOT_FILE = "_snapshot.jsonl"


def read_utf8(path: Path) -> str:
    """Text of a UTF-8 file; undecodable bytes raise EncodingError."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path}: not UTF-8: {exc}") from None


def read_rows(path: Path, width: int, read_row) -> dict:
    """The dict of the (key, value) pairs read_row(*fields) gives for the
    non-blank lines of a tab-separated UTF-8 file.  A line without exactly
    *width* fields, or with the key of an earlier line, raises FormatError,
    and either that or a CerifError from read_row names the file and line."""
    rows: dict = {}
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            if len(fields) != width:
                raise FormatError(f"expected {width} tab-separated fields")
            key, value = read_row(*fields)
            if key in rows:
                raise FormatError(f"{key!r} is listed twice")
        except CerifError as exc:  # as errors.located does, without its per-line cost
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
        rows[key] = value
    return rows


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Replace *path* with *text* through a temporary file in the same
    directory, so readers see the old content or the new, never a mix.
    *text* may also be an iterable of strings, written one at a time, so a
    long file is never built as one string."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if isinstance(text, str):
                handle.write(text)
            else:
                handle.writelines(text)
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
        # load reads the index with str.splitlines and splits each line at tabs
        if "\t" in self.source or self.source.splitlines() != [self.source]:
            raise InvariantViolation(f"provenance source {self.source!r} holds a "
                                     "tab or a line break")
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
    **{shape: lambda s, p, value, text=text: [(s, p, text(value))]
       for shape, text in SCALAR_TEXT.items()},
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


def _record_triples(key: RecordKey, record: Record):
    subject = str(key)
    for spec, value in present_fields(record):
        yield from _TRIPLES[spec.shape](subject, spec.predicate, value)


def _record_file(key: RecordKey) -> str:
    """Name of the store file that holds the record *key*."""
    return f"{key.kind}.{key.id}.rdf"


def _own_file(name: str, rs: RecordSet) -> bool:
    """Whether *rs* is what store file *name* holds when a save wrote it:
    exactly that file's one record, or, in _relations.rdf, only relations."""
    if rs.records:
        return (not rs.relations and len(rs.records) == 1
                and name == _record_file(next(iter(rs.records))))
    return name == RELATIONS_FILE


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
                 relations: set[Relation]) -> None:
        self.filed: list[Triple] = [
            *chain.from_iterable(_record_triples(key, record)
                                 for key, (record, _) in current.items()),
            *map(_relation_triple, relations)]
        # position (0 subject, 1 predicate, 2 object) -> (value -> triples,
        # part after the first ':' -> values)
        self._indexes: dict[int, tuple[dict[str, list[Triple]], dict[str, list[str]]]] = {}

    def triples(self) -> set[Triple]:
        """Every triple."""
        return set(self.filed)

    def _index(self, position: int):
        if position not in self._indexes:
            index: defaultdict[str, list[Triple]] = defaultdict(list)
            for triple in self.filed:
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


def _index_row(subject: str, source: str, date_text: str, kind_text: str):
    try:
        kind = SourceKind(kind_text)
    except ValueError:
        raise FormatError(f"unknown source kind {kind_text!r}") from None
    return subject, Provenance(source, parse_partial_date(date_text), kind)


class Store:
    """Gathered records: the current version of each and its provenance,
    plus the document-level relations.  current and relations are read-only
    to callers; merge and load are the only ways in."""

    def __init__(self) -> None:
        self._current: dict[RecordKey, tuple[Record, Provenance]] = {}
        self._relations: set[Relation] = set()
        # built by the first query after a load or a merge; see _triple_view
        self._view: _TripleView | None = None
        # (resolved directory, namespace) whose files hold every current
        # record except the keys in _changed, and the relation set unless
        # _relations_changed; set by load and by each save that completes
        self._on_disk: tuple[Path, str] | None = None
        self._changed: set[RecordKey] = set()
        self._relations_changed = False
        # what _on_disk's files hold besides: the digest of each unchanged
        # key's file and of an unchanged _relations.rdf, and whether its
        # snapshot describes exactly those files and records
        self._digests: dict[RecordKey, bytes] = {}
        self._relations_digest: bytes | None = None
        self._snapshot_whole = False

    @property
    def current(self) -> MappingProxyType[RecordKey, tuple[Record, Provenance]]:
        """(record, provenance) of each current version, by key."""
        return MappingProxyType(self._current)

    @property
    def relations(self) -> frozenset[Relation]:
        """The document-level relations gathered so far."""
        return frozenset(self._relations)

    def merge(self, rs: RecordSet, prov: Provenance) -> list[str]:
        """Fold one fetched document into the store; returns merge warnings.

        The version with the latest fetched date wins, then the greatest
        source, then the greatest repr(record), which is deterministic for
        these frozen dataclasses and breaks the pathological tie of equal
        date and equal source; the other version is dropped.  A key is
        marked for the next save when it is new or its winning record
        differs from the one it replaces; a newer fetch of equal content
        changes only the provenance index.
        """
        self._view = None
        warnings: list[str] = []
        fetched = prov.fetched.latest()
        for key in sorted(rs.records):
            record = rs.records[key]
            held = self._current.get(key)
            if held is None:
                self._current[key] = (record, prov)
                self._changed.add(key)
                continue
            held_record, held_prov = held
            held_fetched = held_prov.fetched.latest()
            if held_fetched == fetched and held != (record, prov):
                warnings.append(f"{key.kind} {key.id}: same-day versions from "
                                f"{held_prov.source} and {prov.source}, "
                                "greatest source wins")
            rank, held_rank = (fetched, prov.source), (held_fetched, held_prov.source)
            if rank > held_rank or (rank == held_rank and repr(record) > repr(held_record)):
                self._current[key] = (record, prov)
                if record != held_record:
                    self._changed.add(key)
        size = len(self._relations)
        self._relations.update(rs.relations)
        self._relations_changed |= len(self._relations) > size
        return warnings

    def _triple_view(self) -> _TripleView:
        """The indexed view of the current triples, built on first use."""
        if self._view is None:
            self._view = _TripleView(self._current, self._relations)
        return self._view

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
        triple.  The indexed view is built by the first query after a load
        or a merge, the only ways into the store, and kept until the next
        merge.
        """
        eq = eq if eq is not None else EquivalenceMap()
        return sorted(self._triple_view().match(
            *(None if term is None else eq.expand(term)
              for term in (pattern.subject, pattern.predicate, pattern.object))))

    # -- persistence --------------------------------------------------------

    def save(self, directory: str | os.PathLike, *, cerif_ns: str = CERIF_NS) -> None:
        """Write one canonical file per current record, the snapshot and the
        provenance index; stale record files from earlier saves are removed
        and the index is written last.  Gathered records need not be
        complete: only an identifier that cannot name a file, what
        rdfxml.writer_faults finds in the records and relations the save
        would write and a namespace rdfxml.check_namespace refuses raise,
        before anything is written.

        Saved back to the directory the store was loaded from or last saved
        to, under the same namespace, only the records that merge changed
        since are written, _relations.rdf only when the relation set grew,
        and _snapshot.jsonl only when a file was written or removed or the
        snapshot is missing or does not describe the files; unchanged
        records keep the bytes they were loaded with.  Any other directory
        or namespace gets every file.  What is marked changed, and the
        digests remembered for the snapshot, change only once the index is
        written, so a save that raises part way loses nothing for the next
        one.
        """
        keys = sorted(self._current)
        for key in keys:
            if not file_safe_id(key.id):
                raise InvariantViolation(
                    f"{key.kind} {key.id!r}: identifier holds '/', '\\' or a "
                    "control character; store not saved")
        root = Path(directory)
        target = (root.resolve(), check_namespace(cerif_ns))
        write_all = target != self._on_disk
        pending = RecordSet({key: self._current[key][0] for key in keys
                             if write_all or key in self._changed})
        if self._relations and (write_all or self._relations_changed):
            pending.relations = sorted(self._relations, key=Relation.sort_key)
        for key, fault in writer_faults(pending):
            where = "document relations" if key is None else f"{key.kind} {key.id!r}"
            raise InvariantViolation(f"{where}: {fault}; store not saved")
        root.mkdir(parents=True, exist_ok=True)
        expected = {RELATIONS_FILE} if self._relations else set()
        expected.update(map(_record_file, keys))
        digests = {} if write_all else dict(self._digests)
        relations_digest = None if write_all else self._relations_digest
        for key, record in pending.records.items():
            data = serialize_document(RecordSet(records={key: record}),
                                      cerif_ns=cerif_ns).encode("utf-8")
            (root / _record_file(key)).write_bytes(data)
            digests[key] = file_digest(data)
        if pending.relations:
            data = serialize_document(RecordSet(relations=pending.relations),
                                      cerif_ns=cerif_ns).encode("utf-8")
            (root / RELATIONS_FILE).write_bytes(data)
            relations_digest = file_digest(data)
        swept = False
        for path in root.glob("*.rdf"):
            if path.name not in expected:
                path.unlink()
                swept = True
        snapshot = root / SNAPSHOT_FILE
        if (write_all or pending.records or pending.relations or swept
                or not self._snapshot_whole or not snapshot.exists()):
            write_atomic(snapshot, snapshot_lines(cerif_ns, self._snapshot_files(
                keys, digests, relations_digest)))

        lines = []
        for key in keys:
            _, prov = self._current[key]
            lines.append(f"{key}\t{prov.source}\t"
                         f"{format_partial_date(prov.fetched)}\t{prov.kind.value}")
        write_atomic(root / INDEX_FILE, "".join(line + "\n" for line in lines))
        self._on_disk = target
        self._changed.clear()
        self._relations_changed = False
        self._digests, self._relations_digest = digests, relations_digest
        self._snapshot_whole = True

    def _snapshot_files(self, keys, digests: dict[RecordKey, bytes],
                        relations_digest: bytes | None):
        """(name, digest, records, relations) of each file a save leaves,
        in name order."""
        files = [(_record_file(key), key) for key in keys]
        if self._relations:
            files.append((RELATIONS_FILE, None))
        files.sort()  # by name alone, as names are unique
        for name, key in files:
            if key is None:
                yield name, relations_digest, (), sorted(self._relations,
                                                         key=Relation.sort_key)
            else:
                yield name, digests[key], (self._current[key][0],), ()

    @classmethod
    def load(cls, directory: str | os.PathLike, *,
             cerif_ns: str = CERIF_NS) -> "Store":
        """Rebuild a saved store: its current map, provenance and relations.

        A directory without a provenance index gives an empty store.  A key
        that the index lists twice or two record files hold, a record the
        index does not list and an indexed key that no record file holds
        raise FormatError.

        A file the snapshot holds, by name and digest (see the module
        docstring), gives the records saved into it and counts as unchanged:
        its bytes are what the serializer wrote for that very record.  Of a
        file that is parsed instead, a record read from anything but its own
        kind.id.rdf file holding nothing else, relations read from anything
        but _relations.rdf holding no record, and whatever the file gave
        with reader warnings are marked changed: the next save into this
        directory writes them in their canonical file and form, as a save of
        every file would.
        """
        root = Path(directory)
        store = cls()
        index_path = root / INDEX_FILE
        if not index_path.exists():
            return store
        provenance = read_rows(index_path, 4, _index_row)
        held_in: dict[RecordKey, str] = {}
        paths = sorted(root.glob("*.rdf"), key=lambda p: p.name)
        hits = 0
        with SnapshotReader(root / SNAPSHOT_FILE, cerif_ns) as snapshot:
            for path in paths:
                data = path.read_bytes()
                digest = file_digest(data)
                rs = snapshot.take(path.name, digest)
                own_file = rs is not None and _own_file(path.name, rs)
                if own_file:
                    hits += 1
                else:
                    with located(path.name):
                        rs, warnings = parse_document(data, cerif_ns=cerif_ns)
                    own_file = not warnings and _own_file(path.name, rs)
                store._relations.update(rs.relations)
                if rs.relations:
                    if own_file:
                        store._relations_digest = digest
                    else:
                        store._relations_changed = True
                for key, record in rs.records.items():
                    if key in held_in:
                        raise FormatError(f"{key} is held by two record files, "
                                          f"{held_in[key]} and {path.name}")
                    prov = provenance.pop(str(key), None)
                    if prov is None:
                        raise FormatError(f"{path.name}: no provenance index entry "
                                          f"for {key}")
                    held_in[key] = path.name
                    store._current[key] = (record, prov)
                    if own_file:
                        store._digests[key] = digest
                    else:
                        store._changed.add(key)
            store._snapshot_whole = snapshot.whole and hits == len(paths)
        if provenance:
            subject = min(provenance)
            kind, _, ident = subject.partition(":")
            raise FormatError(f"{index_path}: no record file holds {subject}; "
                              f"expected {_record_file(RecordKey(kind, ident))}")
        store._on_disk = (root.resolve(), cerif_ns)
        return store
