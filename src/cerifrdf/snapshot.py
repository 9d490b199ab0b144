"""The store's snapshot: what each record file holds, by the digest of its bytes.

Store.save writes the snapshot and Store.load reads it; the store module says
when a file is taken from it.  The first line is the header, a JSON list of
the format name, cerifrdf-snapshot/3, and the cerif namespace.  Each later
line but the last is a JSON list of one record file's name, the blake2b-128
digest of its bytes in hex, its stamp, its records and its document-level
relations, in file-name order.  The stamp is [st_size, st_mtime_ns,
st_ctime_ns, st_ino] of the file the digest was taken of, or null.  A record
is [kind, id, {attribute: value}] over its present fields, each value encoded
by its field's shape in model.RECORD_FIELDS, so this module names no record
class and no record field.  Strings are JSON strings escaped to ASCII, so
every string a record can hold reads back as it was.  The last line is the
seal: the blake2b-128 digest, in hex, of every byte before it, as git's index
ends in a checksum of its content.

A line vouches for its digest without the file being read when the file's
stamp is the line's and the file's ctime is strictly older than the
snapshot's own mtime.  That is git's racy-git rule: a file changed in the
clock tick the snapshot was written in could change again in that tick
without its stamp showing it, so such a file is hashed, as is every file
whose stamp differs.

read_snapshot checks the seal and the header, then gives the snapshot's
mtime and its lines one at a time as it reads them, so a load never holds
the whole snapshot.  A snapshot without a matching seal (torn, hand-edited,
of an older format) or that is not a regular file gives nothing, as a
missing one does.  Reading a sealed line JSON-decodes it and checks its
name, digest, kind and id and its relations; a record's values stay as JSON
decoded them until decode_record, with the as_* helpers here, or the store's
triple view checks their types.  The seal has no key, so a forged line can
be sealed again, and these checks keep it from code that assumes its types.
The encoding is canonical, so encoding a decoded line gives back its bytes.

It is a module of its own so that the store module does not grow: a process
that cannot cache bytecode compiles each module it imports, and compiling
one store module this much larger raised the peak memory of a one-shot
query by about 0.4 MiB.
"""
from __future__ import annotations

import hashlib
import json
import os
import stat
import struct
from functools import lru_cache
from itertools import chain
from pathlib import Path

from .errors import CerifError, FormatError
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

FORMAT = "cerifrdf-snapshot/3"

# no line holds a cycle, as it holds only values decode_record accepts
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)
# decodes the str of a line; json.loads would first sniff the bytes' encoding
_DECODER = json.JSONDecoder()
# the wire token of each enum member, without the member's slow .value
_TOKENS = {member: member.value for enum in (ProjectStatus, TranslationType)
           for member in enum}
TRANSLATIONS = {code.value: code for code in TranslationType}
# what decoding a forged line or a mistyped value raises
UNREADABLE = (ValueError, TypeError, KeyError, AttributeError, RecursionError,
              CerifError)


def file_digest(data: bytes) -> bytes:
    """The 16-byte blake2b digest that names a record file's bytes."""
    return hashlib.blake2b(data, digest_size=16).digest()


def file_stamp(st: os.stat_result) -> list:
    """The stamp of a file, from its stat result."""
    return [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]


# a stamp in 32 bytes: a store holds each file's digest and stamp as one
# 48-byte string, where a list of four ints held about 0.25 MiB more for
# 1,000 files
_STAMP = struct.Struct("<qqqQ")


def file_mark(digest: bytes, stamp: list) -> bytes:
    """The mark of a file: its 16-byte digest, then its stamp; the digest
    alone when a number of the stamp does not fit in 64 bits (a time past
    the year 2262), so that its line names no stamp."""
    try:
        return digest + _STAMP.pack(*stamp)
    except struct.error:
        return digest


def _mark_stamp(mark: bytes) -> list | None:
    return list(_STAMP.unpack_from(mark, 16)) if len(mark) > 16 else None


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
    """The header for *cerif_ns*, then a line for each (name, mark, records,
    relations) of *files*, taken in file-name order, then the seal; records
    are (key, record) pairs, or (key, values) for values a line held
    undecoded.  Store.save writes no value decode_record refuses, so every
    line decodes."""
    seal = hashlib.blake2b(digest_size=16)
    for entry in chain([[FORMAT, cerif_ns]], ([
            name, mark[:16].hex(), _mark_stamp(mark),
            [[key.kind, key.id, held if type(held) is dict else record_values(held)]
             for key, held in records],
            [_relation_row(rel) for rel in relations]]
            for name, mark, records, relations in files)):
        line = _JSON.encode(entry) + "\n"
        seal.update(line.encode("ascii"))
        yield line
    yield seal.hexdigest() + "\n"


def _read_seal(handle, size: int) -> bytes | None:
    """The last line of the snapshot open as *handle*, *size* bytes long, when
    it seals every byte before it, hashed a chunk at a time; else None."""
    seal, left = hashlib.blake2b(digest_size=16), size - 33  # 32 hex digits, "\n"
    while left > 0 and (chunk := handle.read(min(left, 1 << 16))):
        seal.update(chunk)
        left -= len(chunk)
    last = handle.read(34)
    handle.seek(0)
    return last if left == 0 and last == f"{seal.hexdigest()}\n".encode() else None


def open_regular(path) -> tuple[int, os.stat_result]:
    """A descriptor open for reading on *path*, and its fstat result.  The
    open does not wait for a writer, as opening a FIFO would, and anything
    but a regular file raises FormatError naming *path*."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    st = os.fstat(fd)
    if not stat.S_ISREG(st.st_mode):
        os.close(fd)
        raise FormatError(f"{path}: not a regular file")
    return fd, st


def read_snapshot(path: Path, cerif_ns: str):
    """The mtime_ns of the snapshot at *path*, then (name, digest, stamp,
    {key: values}, relations) of each of its lines in file-name order, its
    values undecoded, read as they are asked for.

    A missing snapshot, one that is not a regular file, one whose last line
    is not its seal and one whose header names another format or namespace
    give nothing.  A sealed line that does not hold what snapshot_lines
    writes raises FormatError.  Closing the generator closes the file.
    """
    try:
        fd, st = open_regular(path)
    except (OSError, FormatError):
        return
    with open(fd, "rb") as handle:
        try:
            seal = _read_seal(handle, st.st_size)
            header = handle.readline()
        except OSError:
            return
        if seal is None or header != (_JSON.encode([FORMAT, cerif_ns]) + "\n").encode():
            return
        yield st.st_mtime_ns
        while (line := handle.readline()) != seal:
            try:
                entry = _DECODER.decode(line.decode("utf-8"))
                name, digest, stamp, rows, relation_rows = _row(entry, 5)
                records = {}
                for kind, ident, values in as_rows(rows, 3):
                    if type(values) is not dict or kind not in RECORD_CLASSES:
                        raise TypeError("mistyped snapshot value")
                    records[RecordKey(_word(kind), as_text(ident))] = values
                digest = bytes.fromhex(as_text(digest))
                if len(digest) != 16:
                    raise ValueError("not a file digest")
                held = (as_text(name), digest, stamp, records,
                        [_relation(row) for row in as_rows(relation_rows, 6)])
            except UNREADABLE:
                raise FormatError(f"{path}: sealed, but holds a line no save "
                                  "writes") from None
            yield held
