"""The store's snapshot: what each record file holds, by the digest of its bytes.

Store.save writes the snapshot and Store.load reads it; the store module says
when a file is taken from it.  The first line is the header, a JSON list of
the format name and the cerif namespace.  Each later line is a JSON list of
one record file's name, the blake2b-128 digest of its bytes in hex, its
records and its document-level relations, in file-name order.  A record is
[kind, id, {attribute: value}] over its present fields, each value encoded
by its field's shape in model.RECORD_FIELDS, so this module names no record
class and no record field.  Strings are JSON strings escaped to ASCII, so
every string a record can hold reads back as it was.

Reading a line JSON-decodes it and checks its name, digest, kind and id and
the types of its relations.  The values of a record stay as JSON decoded
them until decode_record builds the record or the store flattens them into
triples; either one checks each value's types with the as_* helpers here
and raises one of UNREADABLE for a mistyped value.  The encoding is
canonical, so encoding a decoded line gives back its bytes, and a save writes
a line it holds undecoded as it was.

It is a module of its own so that the store module does not grow: a process
that cannot cache bytecode compiles each module it imports, and compiling
one store module this much larger raised the peak memory of a one-shot
query by about 0.4 MiB.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from .errors import CerifError
from .model import (
    Contact,
    ExpertSkill,
    OuOuRelation,
    PartialDate,
    ProjectStatus,
    Record,
    RecordKey,
    Relation,
    RECORD_CLASSES,
    RECORD_FIELDS,
    STATUS_BY_TOKEN,
    TranslatedText,
    TranslationType,
    present_fields,
)

FORMAT = "cerifrdf-snapshot/1"

# records hold no cycles, and a cycle raises RecursionError (see snapshot_lines)
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)
# the wire token of each enum member, without the member's slow .value
_TOKENS = {member: member.value for enum in (ProjectStatus, TranslationType)
           for member in enum}
TRANSLATIONS = {code.value: code for code in TranslationType}
# what decoding a torn, foreign or mistyped line raises
UNREADABLE = (ValueError, TypeError, KeyError, AttributeError, RecursionError,
              CerifError)


def file_digest(data: bytes) -> bytes:
    """The 16-byte blake2b digest that names a record file's bytes."""
    return hashlib.blake2b(data, digest_size=16).digest()


def _row(value, width: int) -> list:
    """*value*, which must be a JSON list of *width* values."""
    if type(value) is not list or len(value) != width:
        raise TypeError("mistyped snapshot value")
    return value


def as_rows(value, width: int | None = None) -> list:
    """*value*, which must be a JSON list (of lists of *width* values)."""
    if type(value) is not list:
        raise TypeError("mistyped snapshot value")
    if width is not None:
        for row in value:
            if type(row) is not list or len(row) != width:
                raise TypeError("mistyped snapshot value")
    return value


def as_text(value) -> str:
    if type(value) is not str:
        raise TypeError("mistyped snapshot value")
    return value


def as_optional(value) -> str | None:
    return None if value is None else as_text(value)


# bounded, unlike sys.intern, whose table grew as loads added and freed words
@lru_cache(maxsize=1024)
def _word(value) -> str:
    """A string that repeats across records (a kind, a role, a language
    code), shared with its other copies."""
    if type(value) is not str:
        raise TypeError("mistyped snapshot value")
    return value


def _number(value) -> int | None:
    if value is not None and type(value) is not int:
        raise TypeError("mistyped snapshot value")
    return value


def _relation_row(rel: Relation) -> list:
    return [rel.source.kind, rel.source.id, rel.target.kind, rel.target.id,
            rel.role, rel.mandatory]


def _relation(row: list) -> Relation:
    source_kind, source_id, target_kind, target_id, role, mandatory = row
    if type(mandatory) is not bool:
        raise TypeError("mistyped snapshot value")
    return Relation(RecordKey(_word(source_kind), as_text(source_id)),
                    RecordKey(_word(target_kind), as_text(target_id)), _word(role),
                    mandatory)


# shape -> (JSON value of a present value, that value from its JSON value).
# A status outside the accepted tokens is a one-string list, so a plain
# string and the enum member of the same token stay apart.
CODECS = {
    "status": (lambda status: _TOKENS[status] if status in _TOKENS else [status],
               lambda value: STATUS_BY_TOKEN[value] if type(value) is str
               else as_text(_row(value, 1)[0])),
    "date": (lambda date: [date.year, date.month, date.day],
             lambda value: PartialDate(*map(_number, _row(value, 3)))),
    "text": (lambda text: text, as_text),
    "sex": (lambda sex: sex, _word),
    "list": (list, lambda value: tuple(map(as_text, as_rows(value)))),
    "translated": (
        lambda items: [[tt.language, _TOKENS.get(tt.translation), tt.text]
                       for tt in items],
        lambda value: tuple(
            TranslatedText(_word(language),
                           None if code is None else TRANSLATIONS[code], as_text(text))
            for language, code, text in as_rows(value, 3))),
    "skills": (
        lambda items: [[sk.skill, sk.role] for sk in items],
        lambda value: tuple(ExpertSkill(as_text(skill),
                                        None if role is None else _word(role))
                            for skill, role in as_rows(value, 2))),
    "contacts": (
        lambda items: [[c.telephone, c.email, c.uri] for c in items],
        lambda value: tuple(Contact(*map(as_optional, row)) for row in as_rows(value, 3))),
    "ou_relations": (
        lambda items: [[rel.target, rel.role] for rel in items],
        lambda value: tuple(OuOuRelation(as_text(target), _word(role))
                            for target, role in as_rows(value, 2))),
    "relations": (lambda items: [_relation_row(rel) for rel in items],
                  lambda value: tuple(map(_relation, as_rows(value, 6)))),
}

# record kind -> attribute -> the decoder of its field's shape
_DECODERS = {cls.kind: {spec.attr: CODECS[spec.shape][1] for spec in table}
             for cls, table in RECORD_FIELDS.items()}


def record_values(record: Record) -> dict:
    """{attribute: JSON value} of the present fields of *record*."""
    return {spec.attr: CODECS[spec.shape][0](value)
            for spec, value in present_fields(record)}


def decode_record(key: RecordKey, values: dict) -> Record:
    """The record *key* whose present fields record_values gave as *values*."""
    decoders = _DECODERS[key.kind]
    return RECORD_CLASSES[key.kind](
        id=key.id, **{attr: decoders[attr](value) for attr, value in values.items()})


def snapshot_lines(cerif_ns: str, files):
    """The header for *cerif_ns*, then a line for each (name, digest,
    records, relations) of *files*, taken in file-name order; records are
    (key, record) pairs, or (key, values) for values a line held undecoded.
    A file whose values JSON cannot hold, which only a record built through
    the API can, gets no line, so load parses it."""
    yield _JSON.encode([FORMAT, cerif_ns]) + "\n"
    for name, digest, records, relations in files:
        try:
            yield _JSON.encode([
                name, digest.hex(),
                [[key.kind, key.id, held if type(held) is dict else record_values(held)]
                 for key, held in records],
                [_relation_row(rel) for rel in relations]]) + "\n"
        except (TypeError, ValueError, AttributeError, RecursionError):
            continue


class SnapshotReader:
    """The lines of a snapshot file, read one at a time in file-name order.

    A missing snapshot, or one whose header names another format or
    namespace, has no lines.  whole tells whether the header matched and
    take gave what every line read holds, with no line left over.
    """

    def __init__(self, path: Path, cerif_ns: str) -> None:
        self._handle = None
        self._held: list | None = None
        self._clean = False
        try:
            self._handle = path.open("rb")
            header = json.loads(self._handle.readline())
        except (OSError, *UNREADABLE):
            return
        if header == [FORMAT, cerif_ns]:
            self._clean = True
            self._advance()

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            self._handle.close()

    @property
    def whole(self) -> bool:
        return self._clean and self._held is None

    def _advance(self) -> None:
        """Hold the next line that reads as [name, digest, records,
        relations], or None at the end."""
        self._held = None
        for line in self._handle:
            try:
                held = _row(json.loads(line), 4)
                as_text(held[0])
            except UNREADABLE:
                self._clean = False
                continue
            self._held = held
            return

    def take(self, name: str, digest: bytes):
        """What the line for file *name* holds, when it is the next line and
        names *digest*: ({key: values}, []) for one record and no relation,
        its values undecoded, or ({}, relations) for relations alone; else
        None.  Lines for names before *name* are passed over."""
        while self._held is not None and self._held[0] < name:
            self._clean = False
            self._advance()
        if self._held is None or self._held[0] != name:
            self._clean = False
            return None
        _, hex_digest, rows, relation_rows = self._held
        self._advance()
        if hex_digest == digest.hex():
            try:
                if rows == []:
                    return {}, [_relation(row) for row in as_rows(relation_rows, 6)]
                kind, ident, values = _row(_row(rows, 1)[0], 3)
                key = RecordKey(_word(kind), as_text(ident))
                if relation_rows == [] and type(values) is dict and kind in RECORD_CLASSES:
                    return {key: values}, []
            except UNREADABLE:
                pass
        self._clean = False
        return None
