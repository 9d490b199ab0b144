"""Seeded mutation fuzz of the store's snapshot.

Byte flips, truncations, value swaps and dropped, copied or swapped lines of
the _snapshot.jsonl of saved stores, each sealed again as a forger could.
A load of each mutant, and each use of the store it gives (current, query,
merge, a save elsewhere), raises nothing but a CerifError and parses no
record file once load has returned; every refusal but the writer's names the
snapshot.  Through the command line, query and gather exit 0, 1 or 2.  The
same mutants under the seal they had are ignored whole, so they load as a
load without the snapshot does.  The seeds are fixed and were not chosen for
their outcome.
"""

import json
import random
import shutil
from collections import Counter

from cerifrdf import store as store_module
from cerifrdf.cli import main
from cerifrdf.errors import FormatError, InvariantViolation
from cerifrdf.rdfxml import RecordSet, serialize_document
from cerifrdf.store import SNAPSHOT_FILE, Store, TriplePattern

from test_snapshot import (REPLACEMENTS, json_paths, names_the_snapshot, replaced,
                           resealed, seal_of, seeded_store, snapshot_lines)
from test_store import D, built_store, load_alike, prov


def _swap_value(rng: random.Random, line: bytes) -> bytes:
    """*line* with one value inside it replaced by one of REPLACEMENTS; a
    line that is no longer JSON as it was."""
    try:
        entry = json.loads(line)
    except ValueError:
        return line
    paths = list(json_paths(entry))
    if not paths:
        return line
    entry = replaced(entry, rng.choice(paths), rng.choice(REPLACEMENTS))
    return json.dumps(entry, separators=(",", ":")).encode() + b"\n"


def mutate(rng: random.Random, lines: list[bytes]) -> list[bytes]:
    """The lines of a snapshot before its seal, the header among them,
    after one or two byte flips, truncations, value swaps or dropped,
    copied or swapped lines."""
    lines = list(lines)
    for _ in range(rng.randint(1, 2)):
        if not lines:
            break
        op, at, other = rng.randrange(6), rng.randrange(len(lines)), rng.randrange(len(lines))
        if op == 0:
            line = bytearray(lines[at])
            line[rng.randrange(len(line))] ^= 1 << rng.randrange(8)
            lines[at] = bytes(line)
        elif op == 1:
            body = b"".join(lines)
            lines = body[:rng.randrange(len(body) + 1)].splitlines(keepends=True)
        elif op == 2:
            lines[at] = _swap_value(rng, lines[at])
        elif op == 3:
            del lines[at]
        elif op == 4:
            lines.insert(at, lines[other])
        else:
            lines[at], lines[other] = lines[other], lines[at]
    return lines


def _parsed_after_load(*args, **kwargs):
    raise AssertionError("a record file was parsed after load")


def _uses(newer: RecordSet, away):
    """Each use of a loaded store, by name."""
    return {
        "current": lambda store: dict(store.current),
        "query": lambda store: [store.query(TriplePattern(*terms)) for terms in (
            (), ("273",), (None, "family_names"), (None, None, "TUWIEN"))],
        "merge": lambda store: store.merge(newer, prov("fuzz", D(2001, 6, 7))),
        "save": lambda store: store.save(away),
    }


def test_resealed_mutants_are_used_or_refused_without_a_traceback(tmp_path, monkeypatch,
                                                                   capsys):
    rng = random.Random(2701)
    outcomes = Counter()
    stores = [built_store(), seeded_store(*range(2701, 2704), flawed=True),
              seeded_store(2704, 2705, flawed=False)]
    for n, store in enumerate(stores):
        home = tmp_path / f"home{n}"
        store.save(home)
        lines = snapshot_lines(home)
        # the newer version of half the records, which a merge decodes
        newer = RecordSet({key: record for key, (record, _) in sorted(store.current.items())[::2]})
        document = tmp_path / f"newer{n}.rdf"
        document.write_text(serialize_document(newer), "utf-8")
        for m in range(25):
            mutant, work = mutate(rng, lines), tmp_path / f"work{n}.{m}"
            shutil.copytree(home, work)
            (work / SNAPSHOT_FILE).write_bytes(resealed(mutant))
            for use, make in _uses(newer, tmp_path / "away").items():
                try:
                    loaded = Store.load(work)
                except FormatError as exc:
                    assert names_the_snapshot(exc, work), exc
                    outcomes["refused by load"] += 1
                    continue
                try:
                    with monkeypatch.context() as patch:
                        patch.setattr(store_module, "parse_document", _parsed_after_load)
                        make(loaded)
                except InvariantViolation as exc:  # a value the writer refuses
                    assert use == "save" and str(exc).endswith("; store not saved"), exc
                    outcomes["refused by the writer"] += 1
                except FormatError as exc:
                    assert names_the_snapshot(exc, work), exc
                    outcomes[f"refused by {use}"] += 1
                else:
                    outcomes[f"{use} made"] += 1
                shutil.rmtree(tmp_path / "away", ignore_errors=True)
            assert main(["query", "(?, ?, ?)", "--store", str(work)]) in (0, 1, 2)
            # under the seal it had, the mutant is ignored whole
            (work / SNAPSHOT_FILE).write_bytes(b"".join(mutant) + seal_of(lines))
            load_alike(work)
            (work / SNAPSHOT_FILE).write_bytes(resealed(mutant))
            assert main(["gather", str(document), "--store", str(work),
                         "--date", "07.06.2001"]) in (0, 1, 2)
            shutil.rmtree(work)
    capsys.readouterr()
    # the mutants reach each refusal and each use, not only the happy path
    assert set(outcomes) >= {"refused by load", "refused by current", "refused by query",
                             "refused by merge", "refused by save", "current made",
                             "query made", "merge made", "save made"}, outcomes

