"""Seeded mutation fuzz of the CERIF-RDF reader.

Byte flips, truncations and tag splices of the golden documents and of
serialized random sets, valid and flawed.  Each mutant must parse or raise a
CerifError, and streaming it a chunk at a time must give what the whole
parse gives.  Every record a mutant parses to, and its document relations,
must read back as written when the writer accepts them.  The seeds are
fixed and were not chosen for their outcome.
"""

import random
import re

from cerifrdf.errors import CerifError, DuplicateId, MissingId, XmlError
from cerifrdf.rdfxml import RecordSet, serialize_document

import randgen
from conftest import DATA_DIR
from test_rdfxml import assert_each_record_reads_back
from test_rdfxml_stream import GOLDEN, assert_streams

_TAG = re.compile(rb"<[^<>]*>")
_ATTRIBUTE = re.compile(rb' [\w:]+="[^"]*"')
_RECORD = re.compile(rb"\n  <cerif:(\w+) ID=.*?\n  </cerif:\1>", re.S)
_TOP_LEVEL = re.compile(rb"\n  <cerif:|\n</rdf:RDF>")


def _splice(rng: random.Random, out: bytearray, pattern: re.Pattern) -> None:
    """Cut a random match of *pattern* out of *out*, or copy it to a random
    place; a record is copied to where a top-level child may begin."""
    found = list(pattern.finditer(out))
    if not found:
        return
    hit = rng.choice(found)
    if pattern is _RECORD:
        at = rng.choice(list(_TOP_LEVEL.finditer(out))).start()
        out[at:at] = hit.group()
    elif rng.random() < 0.5:
        del out[hit.start():hit.end()]
    else:
        at = rng.randrange(len(out) + 1)
        out[at:at] = hit.group()


def mutate(rng: random.Random, data: bytes) -> bytes:
    """*data* after one or two byte flips, truncations and splices of a tag,
    an attribute or a whole record."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(5)
        if op == 0 and out:
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        elif op == 1:
            del out[rng.randrange(len(out) + 1):]
        else:
            _splice(rng, out, (_TAG, _ATTRIBUTE, _RECORD)[op - 2])
    return bytes(out)


def _documents(rng: random.Random) -> list[bytes]:
    docs = [(DATA_DIR / name).read_bytes() for name in GOLDEN]
    for i in range(60):
        rs = (randgen.rand_record_set(rng, 6) if i % 2 == 0
              else randgen.flawed_record_set(rng, 6))
        try:
            docs.append(serialize_document(rs).encode("utf-8"))
        except CerifError:
            continue  # a set the writer refuses has no document to mutate
    return docs


def test_mutants_parse_or_refuse_the_same_whole_and_streamed():
    rng = random.Random(1501)
    docs = _documents(rng)
    assert len(docs) > 50
    kinds = set()
    for doc in docs:
        for _ in range(12):
            mutant = mutate(rng, doc)
            results = assert_streams(mutant, chunk=rng.choice((7, 64, 509)))
            kinds.update(result[0] if isinstance(result[0], type) else "parsed"
                         for result in results)
            for result in results:
                if not isinstance(result[0], type):
                    assert_each_record_reads_back(RecordSet(dict(result[0]), result[1]))
    # the mutants reach every refusal of the reader, not only its happy path
    assert kinds == {"parsed", XmlError, MissingId, DuplicateId}

