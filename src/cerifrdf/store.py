"""A desk-scale store for gathered records, with provenance and triple queries.

Merging keeps one version per (type, id) and drops the other: the version
with the latest fetched date wins and same-day conflicts fall to the
lexicographically greatest source, so the current map does not depend on
the order files arrive in, and a store holds nothing its saved directory
does not.  Queries flatten the store to subject-predicate-object triples and
match patterns through optional equivalence classes of terms.

The triple view walks the field table model.RECORD_FIELDS, as the reader and
the writer do; this module only knows how to turn each value shape, in its
snapshot encoding, into triples.  The store derives one read-only view of its
triples, indexed by subject, by predicate and by object (the SPO/POS/OSP idea
of Weiss, Karras and Bernstein, "Hexastore", VLDB 2008), and answers a
pattern from the smallest candidate set among its bound positions.

Store.merge and Store.load are the only ways into a store: its current map
and its relation set are read-only to callers.  So the view is a plain
cache: a merge drops it, the first query after a load or a merge flattens
the current records once, and each position's index is built the first time
a pattern binds it.  The view flattens the snapshot values a load holds
undecoded, and a record merged in through its encoding, so a query after a
load builds no record.

A gatherer merges the same sources again and again, so most records are
unchanged between saves.  A store remembers the directory and namespace its
files on disk describe (the ones it was loaded from or last saved to) and the
digest and stamp of each file there that holds what the store holds; a save
back to that directory under that namespace writes only the records without
a digest, which merge changed since, and the relation file only when it has
none, as after the relation set grew.  Unchanged records keep the file bytes
they were loaded from; load keeps no digest for a record it found outside
its own file or parsed with warnings, nor for the relation file when a
relation came from anywhere else.  Any other target gets every file.

A save also writes _snapshot.jsonl (see the snapshot module), a derived
copy of what each record file holds, keyed by the blake2b-128 digest of the
file's bytes and by the file's stamp: its size, mtime, ctime and inode, as
fstat gave them on the descriptor the save wrote through, or as the load
before it found them.  Load opens and fstats every record file.  A file
whose stamp its line names, and whose ctime is older than the snapshot's
mtime, is not read: the line vouches for its digest.  Every other file is
read and hashed, and counts as its line's only when the digests agree.  A
line under the load's namespace that holds exactly its file's own key (or,
for _relations.rdf, only relations) is taken instead of parsing the file;
any other file is parsed as before, with the same refusals, and a missing,
torn, foreign or mistyped snapshot or line only means more parsing.  A
copied store has new inodes and ctimes, so its files are hashed, not
trusted; os.utime cannot set a ctime, so an edit whose mtime was put back
is hashed too.  So while the snapshot matches, load gives back each record
exactly as it was saved, even one built through the API in a form the
reader would normalize (Person(family_names="  a  b ") parses as "a b");
parsed, it gives what the reader makes of the file.  The snapshot carries
the same trust as the record files it describes, and a digest of each
file's bytes is right whatever an interrupted save left behind.  A stamp is
trusted as git trusts the stat data in its index, so a file that another
process rewrites to the same size and mtime, in the clock tick in which a
save or a load stamped it, can pass unseen.

Load keeps a taken record's values as JSON decoded them, with their types
unchecked, and decodes them into a Record only when the record is first
used: looked up in current, compared by a merge, or written as a file.  A
query flattens them as they are, and a save writes their line back as it
was.  Values that then prove mistyped make the store parse the record's file
after all, as a load without the snapshot would have, refusing it with
FormatError if its bytes are no longer those load hashed.
"""

from __future__ import annotations

import os
import re
import stat
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path

from .errors import CerifError, FormatError, InvariantViolation, located
from .model import (
    PartialDate,
    Record,
    RecordKey,
    Relation,
    RECORD_FIELDS,
    SCALAR_TEXT,
    file_safe_id,
    format_partial_date,
    parse_partial_date,
)
from .rdfxml import (CERIF_NS, RecordSet, check_namespace, parse_document,
                     serialize_document, writer_faults)
from .snapshot import (CODECS, TRANSLATIONS, UNREADABLE, SnapshotReader, as_optional,
                       as_rows, as_text, decode_record, file_digest, file_mark,
                       file_stamp, record_values, snapshot_lines)

Triple = tuple[str, str, str]

INDEX_FILE = "provenance.index"
RELATIONS_FILE = "_relations.rdf"
SNAPSHOT_FILE = "_snapshot.jsonl"


def read_utf8(path: Path) -> str:
    """Text of a UTF-8 file; undecodable bytes raise FormatError."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8: {exc}") from None


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


def write_file(path: Path, data: bytes) -> list:
    """Write *data* to *path*, as Path.write_bytes does, and return the
    file's stamp (snapshot.file_stamp) from fstat on the written descriptor."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
        return file_stamp(os.fstat(fd))
    finally:
        os.close(fd)


def _read_open(fd: int, size: int) -> bytes:
    """The bytes of the open file *fd*, whose fstat gave *size*: one read,
    and more only if the file grew since."""
    data = os.read(fd, size + 1)
    if len(data) > size:
        chunks = [data]
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
        data = b"".join(chunks)
    return data


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Replace *path* with *text* through a temporary file in the same
    directory, so readers see the old content or the new, never a mix.
    *text* may also be an iterable of strings, written one at a time, so a
    long file is never built as one string.  The new file has the mode of
    the one it replaces, or the umask's, as a file written in place has."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    while True:  # a name a killed process with this pid may have left
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            tmp = tmp.with_name(tmp.name + ".tmp")
    try:
        try:
            os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def _relation_triple(rel: Relation) -> Triple:
    return (":".join(rel.source), rel.role, ":".join(rel.target))


def _relation_row_triple(row: list) -> Triple:
    """The triple of a relation in its snapshot encoding, checked as decoding
    it is; building the Relation first made a query's flattening 1 ms (12%)
    slower on a 1,000-record store."""
    source_kind, source_id, target_kind, target_id, role, mandatory = row
    if type(mandatory) is not bool:
        raise TypeError("mistyped snapshot value")
    return (f"{as_text(source_kind)}:{as_text(source_id)}", as_text(role),
            f"{as_text(target_kind)}:{as_text(target_id)}")


# the bracket text of a translation code; a code no TranslationType has
# raises, as decoding it does
_CODE_TEXT = {None: "?", **{code: code for code in TRANSLATIONS}}

# shape -> triple maker, which takes the record's subject, the field's
# predicate and a present value in its snapshot encoding, and raises one of
# snapshot.UNREADABLE for a mistyped one, as decoding it does.  Contacts,
# org-unit relations and nested relations name their own predicates, and a
# nested relation its own subject.
_TRIPLES = {
    **{shape: lambda s, p, value, text=text, decode=CODECS[shape][1]:
       [(s, p, text(decode(value)))] for shape, text in SCALAR_TEXT.items()},
    "list": lambda s, p, items: [(s, p, as_text(item)) for item in as_rows(items)],
    "translated": lambda s, p, items: [
        (s, p, f"[{as_text(language)}/{_CODE_TEXT[code]}] {as_text(text)}")
        for language, code, text in as_rows(items, 3)],
    "skills": lambda s, p, items: [
        (s, p, as_text(skill) if role is None else f"[{as_text(role)}] {as_text(skill)}")
        for skill, role in as_rows(items, 2)],
    "contacts": lambda s, _, items: [
        (s, channel, value) for row in as_rows(items, 3)
        for channel, value in zip(("telephone", "email", "contact_uri"),
                                  map(as_optional, row))
        if value is not None],
    "ou_relations": lambda s, _, items: [
        (s, as_text(role), f"orgunit:{as_text(target)}") for target, role in as_rows(items, 2)],
    "relations": lambda s, _, items: list(map(_relation_row_triple, as_rows(items, 6))),
}

# record kind -> attribute -> (triple maker, predicate, default) of its field
_FIELDS = {cls.kind: {spec.attr: (_TRIPLES[spec.shape], spec.predicate, spec.default)
                      for spec in table}
           for cls, table in RECORD_FIELDS.items()}


def _record_triples(key: RecordKey, values: dict) -> list[Triple]:
    """The triples of record *key*, whose present fields have the snapshot
    encoding *values*; a value decoding would refuse raises as it does."""
    subject, fields = ":".join(key), _FIELDS[key.kind]
    triples = []
    for attr, value in values.items():
        make, predicate, default = fields[attr]
        made = make(subject, predicate, value)
        if value != default:  # decoded, it would be no present field
            triples += made
    return triples


def _record_file(key: RecordKey) -> str:
    """Name of the store file that holds the record *key*."""
    return f"{key.kind}.{key.id}.rdf"


def _own_file(name: str, records: dict, relations) -> bool:
    """Whether *records* and *relations* are what store file *name* holds
    when a save wrote it: exactly that file's one record, or, in
    _relations.rdf, only relations."""
    if records:
        return (not relations and len(records) == 1
                and name == _record_file(next(iter(records))))
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

    def __init__(self, filed: list[Triple]) -> None:
        self.filed = filed
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


def _read_index(path: Path) -> dict[str, Provenance]:
    """Provenance by subject from the index at *path*.  Lines with the same
    source, date and kind share one Provenance, and each date text is parsed
    once."""
    provenances: dict[tuple[str, str, str], Provenance] = {}
    dates: dict[str, PartialDate] = {}

    def read_row(subject: str, *fields: str):
        prov = provenances.get(fields)
        if prov is None:
            source, date_text, kind_text = fields
            try:
                kind = SourceKind(kind_text)
            except ValueError:
                raise FormatError(f"unknown source kind {kind_text!r}") from None
            if date_text not in dates:
                dates[date_text] = parse_partial_date(date_text)
            prov = provenances[fields] = Provenance(source, dates[date_text], kind)
        return subject, prov

    return read_rows(path, 4, read_row)


def _index_lines(keys, current: dict[RecordKey, tuple]):
    """The index line of each of *keys*, in order, from its provenance in
    *current*; each distinct Provenance is formatted once."""
    texts: dict[Provenance, str] = {}
    for key in keys:
        prov = current[key][1]
        text = texts.get(prov)
        if text is None:
            text = texts[prov] = (f"{prov.source}\t{format_partial_date(prov.fetched)}"
                                  f"\t{prov.kind.value}\n")
        yield f"{key}\t{text}"


class _Current(Mapping):
    """A store's current map, read-only; looking a key up decodes the
    snapshot values its store holds for it (see Store.current)."""

    __slots__ = ("_store",)

    def __init__(self, store: "Store") -> None:
        self._store = store

    def __getitem__(self, key: RecordKey) -> tuple[Record, Provenance]:
        return self._store._entry(key)

    def __contains__(self, key) -> bool:
        return key in self._store._current

    def __iter__(self):
        return iter(self._store._current)

    def __len__(self) -> int:
        return len(self._store._current)


class Store:
    """Gathered records: the current version of each and its provenance,
    plus the document-level relations.  current and relations are read-only
    to callers; merge and load are the only ways in."""

    def __init__(self) -> None:
        # key -> (record, provenance); a load puts the snapshot values of a
        # record, a dict, where the record goes, until _entry decodes them
        self._current: dict[RecordKey, tuple[Record | dict, Provenance]] = {}
        self._relations: set[Relation] = set()
        # built by the first query after a load or a merge; see _triple_view
        self._view: _TripleView | None = None
        # (resolved directory, namespace) whose files the digests describe;
        # set by load and by each save that completes
        self._on_disk: tuple[Path, str] | None = None
        # the mark (snapshot.file_mark: digest and stamp) of the file of each
        # key whose file holds its current record, and of _relations.rdf when
        # it holds the relation set; a key or relation set without one must
        # be written.  _snapshot_whole tells whether the snapshot describes
        # exactly those files, stamps and records
        self._marks: dict[RecordKey, bytes] = {}
        self._relations_mark: bytes | None = None
        self._snapshot_whole = False

    @property
    def current(self) -> Mapping[RecordKey, tuple[Record, Provenance]]:
        """(record, provenance) of each current version, by key.  Looking a
        key up, or reading the values or items, decodes the snapshot values
        of each record so far held undecoded; iterating over the keys, len
        and `in` do not."""
        return _Current(self)

    def _entry(self, key: RecordKey) -> tuple[Record, Provenance]:
        """(record, provenance) of *key*, decoding held values on first use."""
        record, prov = entry = self._current[key]
        if type(record) is dict:
            entry = self._current[key] = (self._decode(key, record), prov)
        return entry

    def _decode(self, key: RecordKey, values: dict) -> Record:
        """The record *key* from the snapshot values load held for it, or,
        when they prove mistyped, parsed from its file in the loaded
        directory, with what a load that parsed the file would have made of
        it; the file must still have the bytes load hashed."""
        try:
            return decode_record(key, values)
        except UNREADABLE:
            pass
        self._snapshot_whole = False
        root, cerif_ns = self._on_disk
        name = _record_file(key)
        with open(os.path.join(root, name), "rb") as handle:
            data = handle.read()
        if file_digest(data) != self._marks[key][:16]:
            raise FormatError(f"{root / name}: changed since the store was loaded")
        with located(name):
            rs, warnings = parse_document(data, cerif_ns=cerif_ns)
        if list(rs.records) != [key]:
            raise FormatError(f"{root / name}: holds other records than {key} alone")
        if warnings or rs.relations:
            del self._marks[key]
        if rs.relations:
            self._view, self._relations_mark = None, None
            self._relations.update(rs.relations)
        return rs.records[key]

    @property
    def relations(self) -> frozenset[Relation]:
        """The document-level relations gathered so far."""
        return frozenset(self._relations)

    def merge(self, rs: RecordSet, prov: Provenance) -> list[str]:
        """Fold one fetched document into the store; returns merge warnings.

        The version with the latest fetched date wins, then the greatest
        source, then the greatest repr(record), which is deterministic for
        these frozen dataclasses and breaks the pathological tie of equal
        date and equal source; the other version is dropped.  A key loses
        its digest, so the next save writes it, when its winning record
        differs from the one it replaces; a newer fetch of equal content
        changes only the provenance index.
        """
        self._view = None
        warnings: list[str] = []
        fetched = prov.fetched.latest()
        # a held record that may win or tie is decoded before anything
        # changes, as its values may prove mistyped and its file changed
        for key in rs.records:
            held = self._current.get(key)
            if held is not None and (fetched, prov.source) >= (
                    held[1].fetched.latest(), held[1].source):
                self._entry(key)
        for key in sorted(rs.records):
            record = rs.records[key]
            held = self._current.get(key)
            if held is None:
                self._current[key] = (record, prov)
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
                    self._marks.pop(key, None)
        size = len(self._relations)
        self._relations.update(rs.relations)
        if len(self._relations) > size:
            self._relations_mark = None
        return warnings

    def _triple_view(self) -> _TripleView:
        """The indexed view of the current triples, built on first use from
        held snapshot values as they are and from each record's encoding."""
        if self._view is None:
            filed: list[Triple] = []
            for key, (record, _) in self._current.items():
                if type(record) is dict:
                    try:
                        filed += _record_triples(key, record)
                        continue
                    except UNREADABLE:
                        record = self._entry(key)[0]
                filed += _record_triples(key, record_values(record))
            filed += map(_relation_triple, self._relations)
            self._view = _TripleView(filed)
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
        to, under the same namespace, only the records without a digest
        (see the module docstring) are written, _relations.rdf only when it
        has none, and _snapshot.jsonl only when a file was written or
        removed or the snapshot is missing or does not describe the files;
        unchanged records keep the bytes they were loaded with, and a record
        whose snapshot values load still holds undecoded gets its line back
        as it was.  Any other directory or namespace gets every file, which
        decodes every held record first.  The digests change only
        once the index is written, so a save that raises part way loses
        nothing for the next one.
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
        pending = RecordSet({key: self._entry(key)[0] for key in keys
                             if write_all or key not in self._marks})
        if self._relations and (write_all or self._relations_mark is None):
            pending.relations = sorted(self._relations, key=Relation.sort_key)
        for key, fault in writer_faults(pending):
            where = "document relations" if key is None else f"{key.kind} {key.id!r}"
            raise InvariantViolation(f"{where}: {fault}; store not saved")
        root.mkdir(parents=True, exist_ok=True)
        expected = {RELATIONS_FILE} if self._relations else set()
        expected.update(map(_record_file, keys))
        marks = {} if write_all else dict(self._marks)
        relations_mark = None if write_all else self._relations_mark
        for key, record in pending.records.items():
            data = serialize_document(RecordSet(records={key: record}),
                                      cerif_ns=cerif_ns).encode("utf-8")
            marks[key] = file_mark(file_digest(data),
                                   write_file(root / _record_file(key), data))
        if pending.relations:
            data = serialize_document(RecordSet(relations=pending.relations),
                                      cerif_ns=cerif_ns).encode("utf-8")
            relations_mark = file_mark(file_digest(data),
                                       write_file(root / RELATIONS_FILE, data))
        swept = False
        for name in os.listdir(root):
            if name.endswith(".rdf") and name not in expected:
                (root / name).unlink()
                swept = True
        snapshot = root / SNAPSHOT_FILE
        if (write_all or pending.records or pending.relations or swept
                or not self._snapshot_whole or not snapshot.exists()):
            write_atomic(snapshot, snapshot_lines(cerif_ns, self._snapshot_files(
                keys, marks, relations_mark)))

        write_atomic(root / INDEX_FILE, _index_lines(keys, self._current))
        self._on_disk = target
        self._marks, self._relations_mark = marks, relations_mark
        self._snapshot_whole = True

    def _snapshot_files(self, keys, marks: dict[RecordKey, bytes],
                        relations_mark: bytes | None):
        """(name, mark, records, relations) of each file a save leaves, in
        name order."""
        files = [(_record_file(key), key) for key in keys]
        if self._relations:
            files.append((RELATIONS_FILE, None))
        files.sort()  # by name alone, as names are unique
        for name, key in files:
            if key is None:
                yield name, relations_mark, (), sorted(self._relations,
                                                       key=Relation.sort_key)
            else:
                yield name, marks[key], ((key, self._current[key][0]),), ()

    @classmethod
    def load(cls, directory: str | os.PathLike, *,
             cerif_ns: str = CERIF_NS) -> "Store":
        """Rebuild a saved store: its current map, provenance and relations.

        A directory without a provenance index gives an empty store.  A key
        that the index lists twice or two record files hold, a record the
        index does not list and an indexed key that no record file holds
        raise FormatError.

        A file the snapshot holds, by name and by stamp or digest (see the
        module docstring), gives the records saved into it and keeps its
        digest and stamp: its bytes are what the serializer wrote for that
        very record.  Its line is JSON-decoded and its name, digest and key
        checked here, but the record's values stay undecoded until the
        record is first used (see current); a query flattens them as they
        are.  Of a file that is parsed instead, a record read from anything but its own
        kind.id.rdf file holding nothing else, and whatever the file gave
        with reader warnings, get no digest, nor does _relations.rdf when a
        relation came from any other file: the next save into this directory
        writes them in their canonical file and form, as a save of every
        file would.
        """
        root = Path(directory)
        store = cls()
        index_path = root / INDEX_FILE
        if not index_path.exists():
            return store
        provenance = _read_index(index_path)
        held_in: dict[RecordKey, str] = {}
        relations_mark, relations_elsewhere = None, False
        names = sorted(name for name in os.listdir(root) if name.endswith(".rdf"))
        prefix = os.path.join(root, "")
        hits = 0
        with SnapshotReader(root / SNAPSHOT_FILE, cerif_ns) as snapshot:
            for name in names:
                fd = os.open(prefix + name, os.O_RDONLY)
                try:
                    stamp = file_stamp(os.fstat(fd))
                    line = snapshot.line(name)
                    digest, data = snapshot.vouched(line, stamp), None
                    if digest is None:
                        data = _read_open(fd, stamp[0])
                        digest = file_digest(data)
                    taken = snapshot.take(line, digest, stamp)
                    if taken is not None and _own_file(name, *taken):
                        hits += 1
                        own_file = True
                        records, relations = taken
                    else:
                        if data is None:  # vouched for, but its line unusable
                            data = _read_open(fd, stamp[0])
                            digest = file_digest(data)
                        with located(name):
                            rs, warnings = parse_document(data, cerif_ns=cerif_ns)
                        records, relations = rs.records, rs.relations
                        own_file = not warnings and _own_file(name, records, relations)
                finally:
                    os.close(fd)
                store._relations.update(relations)
                if relations:
                    if own_file:
                        relations_mark = file_mark(digest, stamp)
                    else:
                        relations_elsewhere = True
                for key, record in records.items():
                    if key in held_in:
                        raise FormatError(f"{key} is held by two record files, "
                                          f"{held_in[key]} and {name}")
                    prov = provenance.pop(str(key), None)
                    if prov is None:
                        raise FormatError(f"{name}: no provenance index entry "
                                          f"for {key}")
                    held_in[key] = name
                    store._current[key] = (record, prov)
                    if own_file:
                        store._marks[key] = file_mark(digest, stamp)
            store._snapshot_whole = snapshot.whole and hits == len(names)
        if provenance:
            subject = min(provenance)
            kind, _, ident = subject.partition(":")
            raise FormatError(f"{index_path}: no record file holds {subject}; "
                              f"expected {_record_file(RecordKey(kind, ident))}")
        if not relations_elsewhere:
            store._relations_mark = relations_mark
        store._on_disk = (root.resolve(), cerif_ns)
        return store
