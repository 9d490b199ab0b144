"""Command-line front end.

Exit codes follow one convention everywhere: 0 clean, 1 the command ran but
validation produced findings, 2 the input could not be processed at all.
Diagnostics go to stderr; data and report lines go to stdout or to files.
The CERIF_RDF_NS environment variable overrides the cerif namespace URI.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import (CerifError, DuplicateObject, FormatError, InvariantViolation,
                     UnrecognizedName)
from .exchange import (
    ExchangeKind,
    IdRegistry,
    check_session,
    format_name,
    parse_name,
    plan_session,
)
from .htmlbridge import extract_rdf, render_html
from .model import PartialDate, parse_partial_date
from .rdfxml import CERIF_NS, parse_document, parse_with_duplicates, serialize_document
from .sgml import build_record_set, map_record, parse_sgml
from .store import EquivalenceMap, Provenance, SourceKind, Store, TriplePattern
from .validation import (
    apply_discard_cascade,
    duplicate_violations,
    lint_record,
    validate_record,
)


def _cerif_ns() -> str:
    return os.environ.get("CERIF_RDF_NS") or CERIF_NS


def _warn(messages) -> None:
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)


def _session_date(text: str) -> PartialDate:
    date = parse_partial_date(text)
    if not date.is_full:
        raise FormatError(f"--date needs a full DD.MM.YYYY date, got {text!r}")
    return date


def _write_files(out_dir: str, files, ns: str) -> None:
    """Write each planned exchange file into *out_dir* and print its name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, sub in files:
        file_name = format_name(name)
        (out / file_name).write_text(serialize_document(sub, cerif_ns=ns), "utf-8")
        print(file_name)


def cmd_validate(args) -> int:
    ns = _cerif_ns()
    findings = False
    for path in args.paths:
        rs, warnings, duplicates = parse_with_duplicates(Path(path).read_bytes(),
                                                         cerif_ns=ns)
        _warn(f"{path}: {w}" for w in warnings)
        for violation in duplicate_violations(duplicates):
            print(f"VIOLATION document - {violation.message}")
            findings = True
        for key in sorted(rs.records):
            record = rs.records[key]
            for violation in validate_record(record):
                print(f"VIOLATION {key.kind} {key.id} {violation.message}")
            _warn(lint_record(record))
        report = apply_discard_cascade(rs)
        for line in report.to_lines():
            print(line)
        if not report.ok:
            findings = True
    return 1 if findings else 0


def cmd_convert_sgml(args) -> int:
    ns = _cerif_ns()
    date = _session_date(args.date)
    records, warnings = parse_sgml(Path(args.path).read_bytes(), encoding=args.encoding)
    _warn(warnings)
    converted = []
    skipped = False
    for index, legacy in enumerate(records):
        try:
            cv = map_record(legacy, date)
        except CerifError as exc:
            _warn([f"record {index + 1} skipped: {exc}"])
            skipped = True
            continue
        _warn(f"record {index + 1}: {w}" for w in cv.warnings)
        converted.append(cv)
    rs, merge_warnings = build_record_set(converted)
    _warn(merge_warnings)
    report = apply_discard_cascade(rs)
    for line in report.to_lines():
        print(line)
    _write_files(args.out, plan_session(report.kept, args.org, date,
                                        ExchangeKind.PER_OBJECT), ns)
    return 1 if (skipped or not report.ok) else 0


def cmd_extract(args) -> int:
    ns = _cerif_ns()
    out = Path(args.out) if args.out else None
    if out:
        # block files are named stem.offset, so each page needs its own stem
        stems: set[str] = set()
        for path in args.paths:
            stem = Path(path).stem
            if stem in stems:
                raise DuplicateObject(f"two pages share the stem {stem!r}, so their "
                                      f"blocks would overwrite each other in {out}")
            stems.add(stem)
        out.mkdir(parents=True, exist_ok=True)
    failures = False
    for path in args.paths:
        result = extract_rdf(Path(path).read_bytes(), page_uri=path, cerif_ns=ns)
        _warn(f"{path}: {w}" for w in result.warnings)
        if result.warnings:
            failures = True
        for (rs, offset), block in zip(result.documents, result.blocks):
            print(f"EXTRACTED {path} {offset} {len(rs.records)}")
            if out:
                target = out / f"{Path(path).stem}.{offset}.rdf"
                # extraction is not validation, so canonical output keeps
                # partial records a page may embed
                target.write_text(
                    serialize_document(rs, cerif_ns=ns, validate=False)
                    if args.canonical else block + "\n", "utf-8")
    return 1 if failures else 0


def cmd_render(args) -> int:
    ns = _cerif_ns()
    rs, warnings = parse_document(Path(args.path).read_bytes(), cerif_ns=ns)
    _warn(f"{args.path}: {w}" for w in warnings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    skipped = False
    for key in sorted(rs.records):
        try:
            page = render_html(rs.records[key], cerif_ns=ns)
        except InvariantViolation as exc:
            _warn([f"skipped {exc}"])
            skipped = True
            continue
        file_name = f"{key.kind}.{key.id}.html"
        (out / file_name).write_text(page, "utf-8")
        print(file_name)
    return 1 if skipped else 0


def cmd_package(args) -> int:
    ns = _cerif_ns()
    date = _session_date(args.date)
    rs, warnings = parse_document(Path(args.path).read_bytes(), cerif_ns=ns)
    _warn(f"{args.path}: {w}" for w in warnings)
    report = apply_discard_cascade(rs)
    for line in report.to_lines():
        print(line)
    kind = ExchangeKind.ALL if args.mode == "all" else ExchangeKind.PER_OBJECT
    files = plan_session(report.kept, args.org, date, kind)
    _write_files(args.out, files, ns)
    flagged = False
    if args.registry:
        registry = IdRegistry.load(args.registry)
        session = check_session(files, registry)
        for line in session.to_lines():
            print(line)
        flagged = not session.ok
    return 1 if (flagged or not report.ok) else 0


def _provenance_for(path: Path, date_flag: str | None) -> tuple[PartialDate, SourceKind]:
    try:
        name = parse_name(path.name)
    except UnrecognizedName:
        name = None
    if name is not None and name.date.is_full:
        return name.date, SourceKind(name.kind.value)
    if date_flag is None:
        raise FormatError(f"{path.name} carries no usable date; pass --date")
    return _session_date(date_flag), SourceKind.ALL


def cmd_gather(args) -> int:
    ns = _cerif_ns()
    store = Store.load(args.store, cerif_ns=ns)
    for raw in args.inputs:
        path = Path(raw)
        data = path.read_bytes()
        if path.suffix.lower() in (".html", ".htm"):
            if args.date is None:
                raise FormatError("HTML inputs need --date for the fetch date")
            date = _session_date(args.date)
            result = extract_rdf(data, page_uri=raw, cerif_ns=ns)
            _warn(f"{raw}: {w}" for w in result.warnings)
            for index, (rs, offset) in enumerate(result.documents):
                prov = Provenance(f"{path.name}#{offset}", date, SourceKind.EXTRACTED)
                _warn(store.merge(rs, prov))
                print(f"MERGED {prov.source} {len(rs.records)}")
        else:
            date, kind = _provenance_for(path, args.date)
            rs, warnings = parse_document(data, cerif_ns=ns)
            _warn(f"{raw}: {w}" for w in warnings)
            prov = Provenance(path.name, date, kind)
            _warn(store.merge(rs, prov))
            print(f"MERGED {prov.source} {len(rs.records)}")
    store.save(args.store, cerif_ns=ns)
    return 0


def cmd_query(args) -> int:
    ns = _cerif_ns()
    store = Store.load(args.store, cerif_ns=ns)
    eq = EquivalenceMap.load(args.eq) if args.eq else EquivalenceMap()
    pattern = TriplePattern.parse(args.pattern)
    for subject, predicate, obj in store.query(pattern, eq):
        print(f"{subject}\t{predicate}\t{obj}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cerifrdf",
        description="Validate, convert, exchange and query CERIF-RDF records.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse documents and run the discard cascade")
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert-sgml",
                       help="convert a legacy export to per-object exchange files")
    p.add_argument("path", metavar="FILE")
    p.add_argument("--org", required=True)
    p.add_argument("--date", required=True, metavar="DD.MM.YYYY")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--encoding", default="utf-8")
    p.set_defaults(func=cmd_convert_sgml)

    p = sub.add_parser("extract", help="pull CERIF-RDF blocks out of web pages")
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--canonical", action="store_true",
                   help="write re-serialized canonical documents instead of "
                        "the verbatim blocks")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("render", help="render records as HTML pages with "
                                      "embedded CERIF-RDF")
    p.add_argument("path", metavar="FILE")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("package", help="lay a document out as exchange files")
    p.add_argument("path", metavar="FILE")
    p.add_argument("--mode", choices=("all", "per-object"), required=True)
    p.add_argument("--org", required=True)
    p.add_argument("--date", required=True, metavar="DD.MM.YYYY")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--registry", metavar="PATH")
    p.set_defaults(func=cmd_package)

    p = sub.add_parser("gather", help="merge fetched files into a store")
    p.add_argument("inputs", nargs="*", metavar="FILE")
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument("--date", metavar="DD.MM.YYYY",
                   help="fetch date for inputs whose names carry none")
    p.set_defaults(func=cmd_gather)

    p = sub.add_parser("query", help="match a triple pattern against a store")
    p.add_argument("pattern", metavar="PATTERN",
                   help="e.g. '(tuwien, rector, ?)'")
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument("--eq", metavar="PATH", help="equivalence map file")
    p.set_defaults(func=cmd_query)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CerifError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
