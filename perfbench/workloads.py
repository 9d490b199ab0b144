"""The three workloads: each round calls the library in the order of the
matching command-line subcommands, and its outputs are checked afterwards.

A workload object has five steps per round.  ``prepare`` restores the
persistent starting state on disk and is not timed.  ``setup`` loads that
state, as every command-line call does, and is timed as set-up.
``work(full)`` is the rest of the round and returns its outputs plus any
seconds it spent on benchmark-only bookkeeping, which are taken off the round
time.  Where the command line would end one process and start another, work
reduces the outputs so far to counts, fingerprints and check findings, and
lets the objects go, so peak memory is that of one command.  ``count``
records the per-layer counts of the outputs, untimed.  ``check`` compares
the outputs with the generator's expectations: all of them when *full*, on
the first round, and on later rounds a fingerprint of the outputs against the
first round's, plus every check that costs little.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from pathlib import Path

import gen
import reference
import oracles
from cerifrdf.exchange import (
    ExchangeKind,
    IdRegistry,
    check_session,
    format_name,
    parse_name,
    plan_session,
)
from cerifrdf.htmlbridge import EMBED_MARKER, extract_rdf, render_html
from cerifrdf.model import Project
from cerifrdf.rdfxml import parse_document, serialize_document
from cerifrdf.sgml import build_record_set, map_record, parse_sgml
from cerifrdf.store import EquivalenceMap, Provenance, SourceKind, Store, TriplePattern
from cerifrdf.validation import (
    CascadeFrom,
    apply_discard_cascade,
    check_document_uniqueness,
    validate_record,
)


def _discards(report) -> dict:
    return {key: "cascade" if isinstance(reason, CascadeFrom) else "invalid"
            for key, reason in report.discarded}


class Publish:
    """Sender side: ``package --registry`` of the site document, ``render`` of
    its kept records, and ``convert-sgml`` of the legacy export.

    The site's outputs are counted, checked and let go before the export is
    converted.  Rendering shares the site's phase, as it takes the kept
    records the cascade left."""

    def __init__(self, root: Path, expect: dict, tracer) -> None:
        self.root, self.expect, self.t = root, expect, tracer
        self.registry_bytes = (root / "registry.tsv").read_bytes()
        self.registry_path = root / "registry.work.tsv"
        self.registry = None
        self.first = None

    def prepare(self) -> None:
        # check_session saves the registry; every round starts from the old one
        self.registry = None
        self.registry_path.write_bytes(self.registry_bytes)

    def setup(self) -> None:
        self.registry = None
        self.registry = self.t.call("exchange.registry_load", IdRegistry.load,
                                    self.registry_path)
        self.t.count("exchange.registry_entries", len(self.registry.entries))

    def work(self, full: bool) -> dict:
        t, date, kind = self.t, gen.SESSION_DATE, ExchangeKind.PER_OBJECT
        out = {"excluded_s": 0.0, "problems": [], "fingerprint": []}

        data = (self.root / "site.rdf").read_bytes()
        rs, _ = t.call("rdfxml.parse_document", parse_document, data)
        duplicates = t.call("validation.check_document_uniqueness",
                            check_document_uniqueness, data)
        violations = {key: t.call("validation.validate_record", validate_record,
                                  rs.records[key]) for key in sorted(rs.records)}
        report = t.call("validation.apply_discard_cascade", apply_discard_cascade, rs)
        files = t.call("exchange.plan_session", plan_session, report.kept, gen.ORG,
                       date, kind)
        texts = [t.call("rdfxml.serialize_document", serialize_document, sub)
                 for _, sub in files]
        names = [t.call("exchange.format_name", format_name, name) for name, _ in files]
        session = t.call("exchange.check_session", check_session, files, self.registry)
        pages = [t.call("htmlbridge.render_html", render_html, report.kept.records[key])
                 for key in sorted(report.kept.records)]
        started = time.perf_counter()
        self._site(out, full, data, rs, duplicates, violations, report, files, texts,
                   names, session, pages)
        del data, rs, duplicates, violations, report, files, texts, names, session, pages
        out["excluded_s"] += time.perf_counter() - started

        legacy_data = (self.root / "export.sgml").read_bytes()
        legacy, _ = t.call("sgml.parse_sgml", parse_sgml, legacy_data)
        converted = [t.call("sgml.map_record", map_record, lr, date) for lr in legacy]
        rs2, _ = t.call("sgml.build_record_set", build_record_set, converted)
        report2 = t.call("validation.apply_discard_cascade", apply_discard_cascade, rs2)
        files2 = t.call("exchange.plan_session", plan_session, report2.kept, gen.ORG,
                        date, kind)
        texts2 = [t.call("rdfxml.serialize_document", serialize_document, sub)
                  for _, sub in files2]
        names2 = [t.call("exchange.format_name", format_name, name)
                  for name, _ in files2]
        started = time.perf_counter()
        self._legacy(out, full, legacy, rs2, report2, files2, texts2, names2)
        out["excluded_s"] += time.perf_counter() - started
        return out

    def _count_files(self, files, texts) -> None:
        t = self.t
        t.count("rdfxml.serialize_document.bytes_out",
                sum(len(x.encode("utf-8")) for x in texts))
        t.count("exchange.files_planned", len(files))
        for _, sub in files:
            nested = sum(len(r.relations) for r in sub.records.values()
                         if isinstance(r, Project))
            t.count("exchange.relations_planned", nested + len(sub.relations))

    def _site(self, out, full, data, rs, duplicates, violations, report, files, texts,
              names, session, pages) -> None:
        t, problems = self.t, out["problems"]
        discards = _discards(report)
        t.count("rdfxml.parse_document.bytes_in", len(data))
        for kind in discards.values():
            t.count(f"validation.discarded_{kind}")
        self._count_files(files, texts)
        t.count("htmlbridge.pages_rendered", len(pages))
        out["fingerprint"].append(reference.digest([
            sorted(discards.items()), names, texts, session.to_lines(), pages,
            self.registry_path.read_bytes()]))
        if not full:
            return
        exp = self.expect
        if reference.digest_set(rs) != exp["site_digest"]:
            problems.append("parsed site document differs from the generated one")
        if duplicates:
            problems.append(f"uniqueness check flagged {duplicates[:3]}")
        if discards != exp["site_discarded"]:
            problems.append(f"site discards {len(discards)} differ from cascade_oracle "
                            f"{len(exp['site_discarded'])}")
        invalid = {k for k, v in violations.items() if v}
        if invalid != {k for k, v in exp["site_discarded"].items() if v == "invalid"}:
            problems.append("validate_record findings differ from the oracle's")

        kept = report.kept.records
        by_key = {}
        for (name, sub), text in zip(files, texts):
            if list(sub.records) != [(name.record_type, name.identifier)]:
                problems.append(f"file {format_name(name)} holds {list(sub.records)}")
                continue
            by_key[next(iter(sub.records))] = set(sub.all_relations())
            if parse_document(text)[0] != sub:
                problems.append(f"round trip of {format_name(name)} changed it")
        if set(by_key) != set(kept):
            problems.append("session files do not match the kept records")
        for rel in exp["kept_relations"]:
            for endpoint in (rel.source, rel.target):
                if endpoint in by_key and rel not in by_key[endpoint]:
                    problems.append(f"relation {rel} missing from {endpoint}'s file")
        stray = set().union(*by_key.values()) - exp["kept_relations"] if by_key else set()
        if stray:
            problems.append(f"{len(stray)} session relations not in the kept set")
        if session.issues:
            problems.append(f"clean session flagged {session.to_lines()[:3]}")
        saved = reference.read_registry(self.registry_path.read_text("utf-8"))
        if saved != exp["registry_final"]:
            problems.append("saved registry is not the old entries plus the session's")
        if len(pages) != len(kept) or not all(EMBED_MARKER in page for page in pages):
            problems.append("not one embedding page per kept record")

    def _legacy(self, out, full, legacy, rs2, report2, files2, texts2, names2) -> None:
        t, problems = self.t, out["problems"]
        discards2 = _discards(report2)
        t.count("sgml.records_in", len(legacy))
        for kind in discards2.values():
            t.count(f"validation.discarded_{kind}")
        self._count_files(files2, texts2)
        out["fingerprint"].append(reference.digest([
            sorted(rs2.records), sorted(discards2.items()), names2, texts2]))
        if not full:
            return
        keys = self.expect["sgml_keys"]
        got = set(rs2.records)
        if {k for k in got if k.kind == "person"} != keys["heads"]:
            problems.append("converted head persons differ from the generator's")
        if {k for k in got if k.kind == "orgunit"} != keys["orgunits"] | keys["stubs"]:
            problems.append("converted units and parent stubs differ from the generator's")
        if discards2 != oracles.cascade_oracle(rs2) or set(discards2) != keys["invalid"]:
            problems.append("legacy export discards differ from the oracle")
        for (name, sub), text in zip(files2, texts2):
            if parse_document(text)[0] != sub:
                problems.append(f"round trip of converted {format_name(name)} changed it")

    def count(self, out: dict) -> None:
        self.t.count("bench.records_in", self.expect["records_in"])

    def check(self, out: dict, full: bool) -> list[str]:
        fingerprint = reference.digest(out["fingerprint"])
        if full:
            self.first = fingerprint
        elif fingerprint != self.first:
            return ["publish outputs differ from the checked first round"]
        return out["problems"]


def _snapshot(directory: Path) -> dict:
    return {p.name: (p.stat().st_mtime_ns, hashlib.blake2b(p.read_bytes()).digest())
            for p in directory.iterdir()}


def _state(store: Store) -> tuple:
    """Fingerprint of a store's current versions and relations."""
    return reference.digest_winners(store.current), reference.digest_relations(store.relations)


class Harvest:
    """Aggregator write path: one bulk ``gather`` into the base store, then a
    ``gather`` of the CHANGE batch into the saved store.

    As on the command line, where each gather is a process of its own, the
    bulk store is fingerprinted and let go before the update loads its own."""

    def __init__(self, root: Path, expect: dict, tracer) -> None:
        self.root, self.expect, self.t = root, expect, tracer
        self.base = root / "base_store"
        self.store_dir = root / "store"
        self.inputs = sorted((root / "inputs").iterdir())
        self.changes = sorted((root / "changes").iterdir())
        self.store = None

    def prepare(self) -> None:
        self.store = None
        if self.store_dir.exists():
            shutil.rmtree(self.store_dir)
        # not fsynced: the bulk save rewrites every file of the copy, so its
        # data never needs to reach the disk, and 600 fsyncs a round would
        # load the disk that the timed saves write to
        shutil.copytree(self.base, self.store_dir)

    def setup(self) -> None:
        self.store = None
        self.t.count("store.load.files_read", len(os.listdir(self.store_dir)))
        self.store = self.t.call("store.load", Store.load, self.store_dir)

    def _gather(self, store: Store, paths) -> list:
        """Merge every file of *paths*; returns (page, bytes, block offsets,
        whether any block was odd) for each HTML page."""
        t = self.t
        extracted = []
        for path in paths:
            data = path.read_bytes()
            if path.suffix == ".html":
                result = t.call("htmlbridge.extract_rdf", extract_rdf, data,
                                page_uri=str(path))
                odd = bool(result.warnings) or any(
                    len(rs.records) != 1 for rs, _ in result.documents)
                extracted.append((path.name, len(data),
                                  [offset for _, offset in result.documents], odd))
                for rs, offset in result.documents:
                    prov = Provenance(f"{path.name}#{offset}", gen.HTML_DATE,
                                      SourceKind.EXTRACTED)
                    t.call("store.merge", store.merge, rs, prov)
                    t.count("store.records_merged", len(rs.records))
            else:
                name = t.call("exchange.parse_name", parse_name, path.name)
                rs, _ = t.call("rdfxml.parse_document", parse_document, data)
                t.count("rdfxml.parse_document.bytes_in", len(data))
                prov = Provenance(path.name, name.date, SourceKind(name.kind.value))
                t.call("store.merge", store.merge, rs, prov)
                t.count("store.records_merged", len(rs.records))
        return extracted

    def _save(self, store: Store, excluded: list) -> None:
        t = self.t
        if t.enabled:
            started = time.perf_counter()
            before = _snapshot(self.store_dir)
            excluded.append(time.perf_counter() - started)
        t.call("store.save", store.save, self.store_dir)
        if t.enabled:
            started = time.perf_counter()
            after = _snapshot(self.store_dir)
            written = [n for n, (mtime, _) in after.items()
                       if n not in before or before[n][0] != mtime]
            changed = {n for n in after.keys() | before.keys()
                       if before.get(n, (0, None))[1] != after.get(n, (0, None))[1]}
            t.count("store.save.files_written", len(written))
            t.count("store.save.files_changed", len(changed))
            t.count("store.save.bytes_written",
                    sum((self.store_dir / n).stat().st_size for n in written))
            excluded.append(time.perf_counter() - started)

    def work(self, full: bool) -> dict:
        t, excluded = self.t, []
        store, self.store = self.store, None
        extracted = self._gather(store, self.inputs)
        self._save(store, excluded)
        started = time.perf_counter()
        bulk = _state(store)
        del store
        excluded.append(time.perf_counter() - started)

        started, bulk_excluded = time.perf_counter(), len(excluded)
        with t.span("bench.update"):
            t.count("store.load.files_read", len(os.listdir(self.store_dir)))
            updated = t.call("store.load", Store.load, self.store_dir)
            mark = time.perf_counter()
            loaded = _state(updated)
            excluded.append(time.perf_counter() - mark)
            self._gather(updated, self.changes)
            self._save(updated, excluded)
        update_s = time.perf_counter() - started - sum(excluded[bulk_excluded:])
        return {"excluded_s": sum(excluded), "update_s": update_s, "bulk": bulk,
                "loaded": loaded, "updated": updated, "extracted": extracted}

    def count(self, out: dict) -> None:
        t = self.t
        for _, size, offsets, _ in out["extracted"]:
            t.count("htmlbridge.extract_bytes_in", size)
            t.count("htmlbridge.blocks_extracted", len(offsets))
        t.count("bench.records_in", t.counts["store.records_merged"])

    def check(self, out: dict, full: bool) -> list[str]:
        problems = []
        exp = self.expect
        bulk_winners, bulk_relations = out["bulk"]
        # the updated store is let go before the full check loads a fresh one
        final_winners, final_relations = _state(out.pop("updated"))
        if self.t.counts["store.records_merged"] != exp["records_in"]:
            problems.append("records merged differ from the records generated")
        for name, _, offsets, odd in out["extracted"]:
            if offsets != exp["offsets"][name] or odd:
                problems.append(f"extraction from {name} differs from a byte search")
        if bulk_winners != exp["bulk_winners"]:
            problems.append("current versions after gather differ from the oracle")
        if bulk_relations != exp["relations"]:
            problems.append("store relations after gather differ from the inputs'")
        if out["loaded"] != out["bulk"]:
            problems.append("store read back after save differs from the saved one")
        if final_winners != exp["final_winners"]:
            problems.append("current versions after the update differ from the oracle")
        if final_relations != bulk_relations:
            problems.append("the update changed the relation set")
        if full and _state(Store.load(self.store_dir)) != (final_winners,
                                                            final_relations):
            problems.append("store read back after the update differs")
        return problems


class Lookup:
    """Read path: ``query --eq`` over a saved store, one pattern after another."""

    def __init__(self, root: Path, expect: dict, tracer) -> None:
        self.root, self.expect, self.t = root, expect, tracer
        self.store_dir = root / "store"
        self.queries = (root / "queries.txt").read_text("utf-8").splitlines()
        self.store = self.eq = None

    def prepare(self) -> None:
        self.store = self.eq = None

    def setup(self) -> None:
        self.store = self.eq = None
        self.t.count("store.load.files_read", len(os.listdir(self.store_dir)))
        self.store = self.t.call("store.load", Store.load, self.store_dir)
        self.eq = self.t.call("store.equivalence_load", EquivalenceMap.load,
                              self.root / "synonyms.txt")

    def work(self, full: bool) -> dict:
        t, store, eq = self.t, self.store, self.eq
        answers, latencies = [], []
        for text in self.queries:
            started = time.perf_counter()
            pattern = t.call("store.parse_pattern", TriplePattern.parse, text)
            answers.append(t.call("store.query", store.query, pattern, eq))
            latencies.append(time.perf_counter() - started)
        return {"excluded_s": 0.0, "answers": answers, "latencies": latencies}

    def count(self, out: dict) -> None:
        self.t.count("store.query.results", sum(len(a) for a in out["answers"]))
        if self.t.enabled:
            self.t.count("store.triples", len(self.store.to_triples()))

    def check(self, out: dict, full: bool) -> list[str]:
        problems = []
        exp = self.expect
        for text, answer, expected in zip(self.queries, out["answers"], exp["answers"]):
            if reference.digest_answer(answer) != expected:
                problems.append(f"answer to {text} differs from brute force")
        if full:
            if len(self.store.to_triples()) != exp["triples"]:
                problems.append("store triples differ from the flattened records")
            plain = EquivalenceMap()
            for text, answer, expected in zip(self.queries, out["answers"],
                                              exp["answers_plain"]):
                without = self.store.query(TriplePattern.parse(text), plain)
                if reference.digest_answer(without) != expected:
                    problems.append(f"answer to {text} without classes differs")
                if not set(without) <= set(answer):
                    problems.append(f"equivalence classes removed answers to {text}")
        return problems


WORKLOADS = {"publish": Publish, "harvest": Harvest, "lookup": Lookup}
