"""End-to-end tests for the command-line front end."""

import os
import subprocess
import sys

import pytest

from cerifrdf.cli import main
from cerifrdf.htmlbridge import render_html
from cerifrdf.model import (
    PartialDate,
    Person,
    Project,
    ProjectStatus,
    RecordKey,
    Relation,
    TranslatedText,
    TranslationType,
)
from cerifrdf.rdfxml import RecordSet, parse_document, serialize_document
from cerifrdf.store import Provenance, SourceKind, Store

from conftest import DATA_DIR, cli_env


def write_doc(path, rs, ns=None):
    kwargs = {} if ns is None else {"cerif_ns": ns}
    path.write_text(serialize_document(rs, **kwargs), "utf-8")
    return str(path)


def linked_pair() -> RecordSet:
    rs = RecordSet()
    rs.add(Project(
        id="E015-01-08",
        status=ProjectStatus.EXECUTION,
        titles=(TranslatedText("en", TranslationType.HUMAN, "Title"),),
        abstracts=(TranslatedText("en", TranslationType.HUMAN, "Abstract"),),
        relations=(Relation(RecordKey("project", "E015-01-08"),
                            RecordKey("person", "273"), role="contact"),),
    ))
    rs.add(Person(id="273", family_names="Niedermayer"))
    return rs


# ---------------------------------------------------------------------------
# validate

def test_validate_clean_document(capsys):
    code = main(["validate", str(DATA_DIR / "project_e015.rdf")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    # the fixture's empty keyword items surface as warnings, not findings
    assert "warning:" in captured.err and "empty list item" in captured.err


def test_validate_reports_violations_and_discards(tmp_path, capsys):
    doc = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:cerif="http://derpi.tuwien.ac.at/~andrei/cerif-rdf#">
  <cerif:project ID="P1">
    <cerif:proj_status>Execution</cerif:proj_status>
  </cerif:project>
</rdf:RDF>
"""
    path = tmp_path / "bad.rdf"
    path.write_text(doc, "utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.splitlines()
    assert "VIOLATION project P1 no titles" in lines
    assert "DISCARD project P1 missing-mandatory-field:titles" in lines


def test_validate_unreadable_input(tmp_path, capsys):
    path = tmp_path / "junk.rdf"
    path.write_text("this is not xml", "utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    code = main(["validate", str(tmp_path / "absent.rdf")])
    assert code == 2


def test_validate_reports_duplicate_ids(tmp_path, capsys):
    doc = """<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:cerif="http://derpi.tuwien.ac.at/~andrei/cerif-rdf#">
  <cerif:person ID="1">
    <cerif:person.per_family_names>First</cerif:person.per_family_names>
  </cerif:person>
  <cerif:person ID="1">
    <cerif:person.per_sex>X</cerif:person.per_sex>
  </cerif:person>
</rdf:RDF>
"""
    path = tmp_path / "twice.rdf"
    path.write_text(doc, "utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    # the first copy is the one validated, and it is clean
    assert captured.out == "VIOLATION document - person 1 declared more than once\n"
    assert "error:" not in captured.err


# ---------------------------------------------------------------------------
# convert-sgml

def test_convert_sgml_writes_exchange_files(tmp_path, capsys):
    out = tmp_path / "session"
    code = main(["convert-sgml", str(DATA_DIR / "fodok_record.sgml"),
                 "--org", "TUWIEN", "--date", "06.06.2001",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    expected = {
        "TUWIEN.06.06.2001.ORGUNIT.E015-01",
        "TUWIEN.06.06.2001.ORGUNIT.DIENSTLEISTUNGSEINRICHTUNGEN.UND."
        "SENATSINSTITUTE",
        "TUWIEN.06.06.2001.ORGUNIT.TECHNISCHE.UNIVERSITÄT.WIEN",
        "TUWIEN.06.06.2001.PERSON.E015-01.head",
    }
    assert set(captured.out.splitlines()) == expected
    assert {p.name for p in out.iterdir()} == expected
    rs, warnings = parse_document(
        (out / "TUWIEN.06.06.2001.ORGUNIT.E015-01").read_text("utf-8"))
    assert warnings == []
    assert sorted(rs.records) == [RecordKey("orgunit", "E015-01")]


def test_convert_sgml_skips_a_record_without_an_rcn(tmp_path, capsys):
    sgml = tmp_path / "export.sgml"
    sgml.write_text("<RECORD>\n<RCN>7\n<DEG>Institut\n</RECORD>\n"
                    "<RECORD>\n<DEG>Ohne Kennung\n</RECORD>\n"
                    "<RECORD>\n<RCN>8\n<DEG>Labor\n</RECORD>\n", "utf-8")
    out = tmp_path / "converted"
    code = main(["convert-sgml", str(sgml), "--org", "TUWIEN", "--date", "06.06.2001",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("warning: record 2 skipped: legacy record without an "
                            "RCN identifier\n")
    written = ["TUWIEN.06.06.2001.ORGUNIT.7", "TUWIEN.06.06.2001.ORGUNIT.8"]
    assert captured.out.splitlines() == written
    assert sorted(p.name for p in out.iterdir()) == written


def test_convert_sgml_rejects_partial_date(tmp_path, capsys):
    code = main(["convert-sgml", str(DATA_DIR / "fodok_record.sgml"),
                 "--org", "TUWIEN", "--date", "06.2001",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "full DD.MM.YYYY" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# extract and render

def test_extract_page_with_broken_trailing_block(tmp_path, capsys):
    out = tmp_path / "blocks"
    page = DATA_DIR / "auris_page.html"
    code = main(["extract", str(page), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "never closed" in captured.err
    assert captured.out.splitlines() == [
        f"EXTRACTED {page} 475 1",
        f"EXTRACTED {page} 908 1",
    ]
    raw = (out / "auris_page.475.rdf").read_text("utf-8")
    assert raw.startswith("<rdf:RDF") and raw.rstrip().endswith("</rdf:RDF>")


def test_extract_canonical_blocks_parse_cleanly(tmp_path):
    out = tmp_path / "blocks"
    main(["extract", str(DATA_DIR / "auris_page.html"),
          "--out", str(out), "--canonical"])
    text = (out / "auris_page.908.rdf").read_text("utf-8")
    rs, warnings = parse_document(text)
    assert warnings == []
    assert sorted(rs.records) == [RecordKey("person", "273")]
    assert serialize_document(rs) == text


def test_render_then_extract_round_trip(tmp_path, capsys):
    pages = tmp_path / "pages"
    code = main(["render", str(DATA_DIR / "project_e015.rdf"),
                 "--out", str(pages)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == ["project.E015-01-08.html"]
    page = pages / "project.E015-01-08.html"
    assert "<html" in page.read_text("utf-8")

    code = main(["extract", str(page)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith(f"EXTRACTED {page} ")
    assert captured.out.strip().endswith(" 1")


def test_render_skips_invalid_record(tmp_path, capsys):
    rs = RecordSet()
    rs.add(Person(id="1", family_names="One"))
    rs.add(Person(id="2", sex="X"))
    rs.add(Person(id="3", family_names="Three"))
    doc = tmp_path / "people.rdf"
    doc.write_text(serialize_document(rs), "utf-8")
    pages = tmp_path / "pages"
    code = main(["render", str(doc), "--out", str(pages)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == ["person.1.html", "person.3.html"]
    assert sorted(p.name for p in pages.iterdir()) == ["person.1.html", "person.3.html"]
    assert captured.err.splitlines()[-1] == (
        "warning: skipped person 2: no family names; "
        "sex code 'X' is neither M nor F")


def test_extract_out_writes_blocks_verbatim(tmp_path, capsys):
    rs = RecordSet()
    rs.add(Person(id="273", family_names="Niedermayer"))
    block = serialize_document(rs).rstrip("\n")
    page = "".join(f"<p>Größe {i} – ü</p>\n<!--CERIF-RDF\n{block}\n-->\n"
                   for i in range(3))
    path = tmp_path / "page.html"
    path.write_bytes(page.encode("utf-8"))
    out = tmp_path / "blocks"
    code = main(["extract", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    data = page.encode("utf-8")
    offsets, start = [], data.find(b"<rdf:RDF")
    while start >= 0:
        offsets.append(start)
        start = data.find(b"<rdf:RDF", start + 1)
    assert captured.out.splitlines() == [
        f"EXTRACTED {path} {offset} 1" for offset in offsets]
    for offset in offsets:
        assert (out / f"page.{offset}.rdf").read_text("utf-8") == block + "\n"


def test_extract_out_names_blocks_by_byte_offset_on_a_page_not_utf8(tmp_path, capsys):
    block = '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>'
    path = tmp_path / "page.html"
    path.write_bytes(b"<p>\xff\xfe</p>" + block.encode())
    out = tmp_path / "blocks"
    code = main(["extract", str(path), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [f"EXTRACTED {path} 9 0"]
    assert [p.name for p in out.iterdir()] == ["page.9.rdf"]
    assert (out / "page.9.rdf").read_text("utf-8") == block + "\n"


# ---------------------------------------------------------------------------
# package

def test_package_per_object_with_registry(tmp_path, capsys):
    doc = write_doc(tmp_path / "site.rdf", linked_pair())
    registry = tmp_path / "registry.tsv"
    out = tmp_path / "out1"
    code = main(["package", doc, "--mode", "per-object", "--org", "TUWIEN",
                 "--date", "06.06.2001", "--out", str(out),
                 "--registry", str(registry)])
    captured = capsys.readouterr()
    assert code == 0
    assert set(captured.out.splitlines()) == {
        "TUWIEN.06.06.2001.PROJECT.E015-01-08",
        "TUWIEN.06.06.2001.PERSON.273",
    }
    assert registry.exists()

    # a later session reusing id 273 for a different record type gets flagged
    drifted = RecordSet()
    drifted.add(Project(
        id="273",
        status=ProjectStatus.EXECUTION,
        titles=(TranslatedText("en", TranslationType.HUMAN, "T"),),
        abstracts=(TranslatedText("en", TranslationType.HUMAN, "A"),),
    ))
    doc2 = write_doc(tmp_path / "drift.rdf", drifted)
    code = main(["package", doc2, "--mode", "per-object", "--org", "TUWIEN",
                 "--date", "01.07.2001", "--out", str(tmp_path / "out2"),
                 "--registry", str(registry)])
    captured = capsys.readouterr()
    assert code == 1
    flags = [l for l in captured.out.splitlines() if l.startswith("FLAG")]
    assert len(flags) == 1 and flags[0].startswith("FLAG type-drift")


@pytest.mark.parametrize("registry_text, refusal", [
    ("TUWIEN\tperson\n", "{path}:1: expected 4 tab-separated fields"),
    ("TUWIEN\tperson\t273\t01.01.1999\nTUWIEN\tperson\t273\t05.05.2000\n",
     "{path}:2: ('TUWIEN', 'person', '273') is listed twice"),
    (None, "[Errno 21] Is a directory: '{path}'"),
], ids=["malformed line", "key listed twice", "directory"])
def test_package_reads_the_registry_before_it_writes(tmp_path, capsys,
                                                     registry_text, refusal):
    doc = write_doc(tmp_path / "site.rdf", linked_pair())
    registry = tmp_path / "registry.tsv"
    if registry_text is None:
        registry.mkdir()
    else:
        registry.write_text(registry_text, "utf-8")
    out = tmp_path / "out"
    code = main(["package", doc, "--mode", "all", "--org", "TUWIEN",
                 "--date", "06.06.2001", "--out", str(out), "--registry", str(registry)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _errors(captured.err) == ["error: " + refusal.format(path=registry)]
    assert not out.exists()
    if registry_text is not None:
        assert registry.read_text("utf-8") == registry_text


def test_package_all_mode(tmp_path, capsys):
    doc = write_doc(tmp_path / "site.rdf", linked_pair())
    out = tmp_path / "out"
    code = main(["package", doc, "--mode", "all", "--org", "TUWIEN",
                 "--date", "06.06.2001", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == ["TUWIEN.06.06.2001.ALL"]
    rs, _ = parse_document((out / "TUWIEN.06.06.2001.ALL").read_text("utf-8"))
    assert rs == linked_pair()


# ---------------------------------------------------------------------------
# gather and query

def test_gather_then_query(tmp_path, capsys):
    doc = write_doc(tmp_path / "site.rdf", linked_pair())
    out = tmp_path / "session"
    main(["package", doc, "--mode", "per-object", "--org", "TUWIEN",
          "--date", "06.06.2001", "--out", str(out)])
    capsys.readouterr()

    store_dir = tmp_path / "store"
    files = sorted(str(p) for p in out.iterdir())
    code = main(["gather", *files, "--store", str(store_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [
        f"MERGED {name} 1" for name in sorted(p.name for p in out.iterdir())]

    code = main(["query", "(E015-01-08, ?, ?)", "--store", str(store_dir)])
    captured = capsys.readouterr()
    assert code == 0
    rows = [line.split("\t") for line in captured.out.splitlines()]
    assert ["project:E015-01-08", "contact", "person:273"] in rows
    assert ["project:E015-01-08", "status", "Execution"] in rows

    eq_file = tmp_path / "eq.txt"
    eq_file.write_text("ansprechpartner ≡ contact\n", "utf-8")
    code = main(["query", "(?, ansprechpartner, ?)", "--store", str(store_dir),
                 "--eq", str(eq_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "project:E015-01-08\tcontact\tperson:273\n"


def test_gather_html_needs_date(tmp_path, capsys):
    page = DATA_DIR / "auris_page.html"
    store_dir = tmp_path / "store"
    code = main(["gather", str(page), "--store", str(store_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert "need --date" in captured.err

    code = main(["gather", str(page), "--store", str(store_dir),
                 "--date", "06.06.2001"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [
        "MERGED auris_page.html#475 1",
        "MERGED auris_page.html#908 1",
    ]

    code = main(["query", "(?, family_names, ?)", "--store", str(store_dir)])
    captured = capsys.readouterr()
    assert captured.out == "person:273\tfamily_names\tNiedermayer\n"


def test_gather_plain_file_without_date_fails(tmp_path, capsys):
    doc = write_doc(tmp_path / "plain.rdf", linked_pair())
    code = main(["gather", doc, "--store", str(tmp_path / "store")])
    captured = capsys.readouterr()
    assert code == 2
    assert "no usable date" in captured.err


def test_gather_falls_back_to_date_for_an_annual_year_out_of_range(tmp_path, capsys):
    # four digits, but no year a date holds: the name is refused as any
    # other unparseable name is, so --date dates the file
    doc = write_doc(tmp_path / "ANNUAL.ORG.0999.rdf", linked_pair())
    store_dir = tmp_path / "store"
    code = main(["gather", doc, "--store", str(store_dir), "--date", "01.02.2003"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == "MERGED ANNUAL.ORG.0999.rdf 2\n"
    prov = Provenance("ANNUAL.ORG.0999.rdf", PartialDate(2003, 2, 1), SourceKind.ALL)
    assert {p for _, p in Store.load(store_dir).current.values()} == {prov}


def test_query_into_a_closed_pipe_stops_quietly(tmp_path, capsys):
    rs = RecordSet()
    for i in range(400):
        rs.add(Person(id=f"p{i}", family_names="N" * 500))
    store_dir = tmp_path / "store"
    doc = write_doc(tmp_path / "site.rdf", rs)
    assert main(["gather", doc, "--store", str(store_dir), "--date", "06.06.2001"]) == 0
    capsys.readouterr()
    # more than a pipe buffer (64 KiB) of answers, so the query is still
    # writing when the reader goes
    with subprocess.Popen(
            [sys.executable, "-m", "cerifrdf.cli", "query", "(?, ?, ?)",
             "--store", str(store_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env()) as proc:
        assert proc.stdout.read(10) == b"person:p0\t"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == 141


def test_query_into_a_pipe_closed_before_it_writes_stops_quietly(tmp_path):
    # an answer short enough to wait in stdout's buffer until the command
    # has returned, into a pipe whose reader is gone from the start; the
    # buffer is there only when stdout is buffered
    store_dir = tmp_path / "store"
    doc = write_doc(tmp_path / "site.rdf", linked_pair())
    assert main(["gather", doc, "--store", str(store_dir), "--date", "06.06.2001"]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cerifrdf.cli", "query", "(?, ?, ?)",
             "--store", str(store_dir)],
            stdout=write_end, stderr=subprocess.PIPE,
            env={k: v for k, v in cli_env().items() if k != "PYTHONUNBUFFERED"})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def _tree(root):
    """Every path under *root* with the bytes of each file, for comparing a
    directory before and after a command."""
    return {path.relative_to(root): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


def test_query_and_gather_refuse_a_key_listed_twice_in_the_index(tmp_path, capsys):
    store_dir = tmp_path / "store"
    good = write_doc(tmp_path / "site.rdf", linked_pair())
    assert main(["gather", good, "--store", str(store_dir), "--date", "06.06.2001"]) == 0
    index = store_dir / "provenance.index"
    first = index.read_text("utf-8").splitlines()[0]
    index.write_text(index.read_text("utf-8") + first + "\n", "utf-8")
    before = _tree(store_dir)
    subject = first.split("\t")[0]
    refusal = f"error: {index}:3: {subject!r} is listed twice"
    capsys.readouterr()
    assert main(["query", "(?, ?, ?)", "--store", str(store_dir)]) == 2
    assert _errors(capsys.readouterr().err) == [refusal]
    assert main(["gather", good, "--store", str(store_dir), "--date", "07.07.2001"]) == 2
    assert _errors(capsys.readouterr().err) == [refusal]
    assert _tree(store_dir) == before


def test_gather_refuses_an_id_that_cannot_name_a_file(tmp_path, capsys):
    store_dir = tmp_path / "store"
    good = write_doc(tmp_path / "site.rdf", linked_pair())
    assert main(["gather", good, "--store", str(store_dir), "--date", "06.06.2001"]) == 0
    before = _tree(store_dir)

    bad = RecordSet()
    for ident in ("z/../escaped", "300", "273"):
        bad.add(Person(id=ident, family_names=f"Newer {ident}"))
    path = tmp_path / "fetched.rdf"
    path.write_text(serialize_document(bad), "utf-8")
    capsys.readouterr()
    code = main(["gather", str(path), "--store", str(store_dir), "--date", "07.06.2001"])
    err = capsys.readouterr().err
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: person 'z/../escaped': identifier holds '/', '\\' or a control "
        "character; store not saved"]
    assert _tree(store_dir) == before
    assert not (tmp_path / "escaped.rdf").exists()

    code = main(["query", "(273, family_names, ?)", "--store", str(store_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "person:273\tfamily_names\tNiedermayer\n"


@pytest.mark.parametrize("name", ["a\tb.rdf", "a\u2028b.rdf", "a\tb.html", "a\x85b.html"])
def test_gather_refuses_a_source_name_the_index_cannot_hold(tmp_path, capsys, name):
    # the index is tab-separated, one line per record, so such a source
    # would leave a store that every later load refuses
    store_dir = tmp_path / "store"
    good = write_doc(tmp_path / "site.rdf", linked_pair())
    assert main(["gather", good, "--store", str(store_dir), "--date", "06.06.2001"]) == 0
    before = _tree(store_dir)
    fetched = tmp_path / name
    if name.endswith(".html"):
        fetched.write_bytes((DATA_DIR / "auris_page.html").read_bytes())
        source = f"{name}#475"
    else:
        fetched.write_text((tmp_path / "site.rdf").read_text("utf-8"), "utf-8")
        source = name
    capsys.readouterr()
    code = main(["gather", str(fetched), "--store", str(store_dir), "--date", "07.06.2001"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        f"error: provenance source {source!r} holds a tab or a line break"]
    assert _tree(store_dir) == before
    assert main(["query", "(273, family_names, ?)", "--store", str(store_dir)]) == 0
    assert capsys.readouterr().out == "person:273\tfamily_names\tNiedermayer\n"


RDF_HEAD = ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
            '    xmlns:cerif="http://derpi.tuwien.ac.at/~andrei/cerif-rdf#">\n')
ZZ9 = ('<cerif:person ID="zz9"><cerif:person.per_family_names>Zed'
       '</cerif:person.per_family_names></cerif:person>\n')


def _bag(container: str, item: str, relation: str) -> str:
    return (f"<cerif:{container}><rdf:Bag><rdf:li><cerif:{item}>{relation}"
            f"</cerif:{item}></rdf:li></rdf:Bag></cerif:{container}>")


# documents the reader reads but the writer refuses to write back, with
# the refusal: a document relation without a role or with identical
# endpoints, and a nested relation without a role behind a new record that
# sorts before it
FAULTY = {
    "no role": (ZZ9 + _bag("relations", "relation",
                           '<cerif:rel.from.person resource="zz9"/>'
                           '<cerif:rel.to.project resource="E015-01-08"/>'),
                "document relations: relation without a role"),
    "identical endpoints": (ZZ9 + _bag("relations", "relation",
                                       '<cerif:rel.from.person resource="zz9"/>'
                                       '<cerif:rel.to.person resource="zz9"/>'
                                       "<cerif:rel.role>self</cerif:rel.role>"),
                            "document relations: relation with identical endpoints"),
    "nested, no role": ('<cerif:orgunit ID="A1"/>\n<cerif:project ID="P9">'
                        + _bag("project-relations", "Project-relation",
                               '<cerif:rel.from.project resource="P9"/>'
                               '<cerif:rel.to.person resource="273"/>')
                        + "</cerif:project>\n",
                        "project 'P9': relation without a role"),
}


def _errors(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("case", FAULTY)
def test_gather_refuses_what_the_writer_refuses_before_writing(tmp_path, capsys, case):
    store_dir = tmp_path / "store"
    good = write_doc(tmp_path / "site.rdf", linked_pair())
    assert main(["gather", good, "--store", str(store_dir), "--date", "06.06.2001"]) == 0
    before = _tree(store_dir)
    body, refusal = FAULTY[case]
    fetched = tmp_path / "fetched.rdf"
    fetched.write_text(RDF_HEAD + body + "</rdf:RDF>\n", "utf-8")
    capsys.readouterr()
    code = main(["gather", str(fetched), "--store", str(store_dir), "--date", "07.06.2001"])
    assert code == 2
    assert _errors(capsys.readouterr().err) == [f"error: {refusal}; store not saved"]
    assert _tree(store_dir) == before
    assert main(["query", "(273, family_names, ?)", "--store", str(store_dir)]) == 0
    assert capsys.readouterr().out == "person:273\tfamily_names\tNiedermayer\n"


@pytest.mark.parametrize("case", ["no role", "identical endpoints"])
def test_package_and_extract_refuse_before_the_first_file(tmp_path, capsys, case):
    body, refusal = FAULTY[case]
    doc = tmp_path / "site.rdf"
    doc.write_text(RDF_HEAD + body + "</rdf:RDF>\n", "utf-8")
    for mode in ("all", "per-object"):
        out = tmp_path / mode
        code = main(["package", str(doc), "--mode", mode, "--org", "TUW",
                     "--date", "01.01.2001", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert _errors(captured.err) == [f"error: {refusal}"]
        assert not out.exists()
    # validate names what package refuses
    assert main(["validate", str(doc)]) == 1
    assert (f"VIOLATION document - relations: {refusal.split(': ')[1]}"
            in capsys.readouterr().out.splitlines())
    # a good block before the faulty one is not written either
    page = tmp_path / "page.html"
    page.write_text("<p>" + serialize_document(linked_pair()) + "</p>"
                    + RDF_HEAD + body + "</rdf:RDF>\n", "utf-8")
    out = tmp_path / "blocks"
    assert main(["extract", str(page), "--out", str(out), "--canonical"]) == 2
    assert _errors(capsys.readouterr().err) == [f"error: {refusal}"]
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["validate", "in.rdf"],
    ["convert-sgml", "in.sgml", "--org", "TUW", "--date", "01.01.2001", "--out", "out"],
    ["extract", "in.html", "--out", "out"],
    ["render", "in.rdf", "--out", "out"],
    ["package", "in.rdf", "--mode", "all", "--org", "TUW", "--date", "01.01.2001",
     "--out", "out"],
    ["gather", "in.rdf", "--store", "out", "--date", "01.01.2001"],
    ["query", "(?, ?, ?)", "--store", "out"],
])
def test_namespace_that_does_not_read_back_is_refused_first(tmp_path, capsys,
                                                            monkeypatch, args):
    # ElementTree splits tags at '}', so no document under this URI parses;
    # the inputs do not exist, so any read would fail differently
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CERIF_RDF_NS", "http://example.org/a}b#")
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _errors(captured.err) == [
        "error: cerif namespace URI 'http://example.org/a}b#' is empty or holds '}', "
        "so documents under it would not read back"]
    assert list(tmp_path.iterdir()) == []


def test_unsafe_id_is_discarded_by_validate_package_render_and_convert(tmp_path, capsys):
    rs = linked_pair()
    rs.add(Person(id="z/../escaped", family_names="Escaped"))
    doc = tmp_path / "site.rdf"
    doc.write_text(serialize_document(rs), "utf-8")
    violation = ("VIOLATION person z/../escaped identifier 'z/../escaped' holds "
                 "'/', '\\' or a control character")
    discard = "DISCARD person z/../escaped missing-mandatory-field:id"

    assert main(["validate", str(doc)]) == 1
    assert capsys.readouterr().out.splitlines() == [violation, discard]

    out = tmp_path / "session" / "deep"
    code = main(["package", str(doc), "--mode", "per-object", "--org", "TUWIEN",
                 "--date", "06.06.2001", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        discard, "TUWIEN.06.06.2001.PERSON.273", "TUWIEN.06.06.2001.PROJECT.E015-01-08"]
    assert sorted(p.name for p in (tmp_path / "session").rglob("*")) == [
        "TUWIEN.06.06.2001.PERSON.273", "TUWIEN.06.06.2001.PROJECT.E015-01-08", "deep"]

    code = main(["render", str(doc), "--out", str(tmp_path / "pages")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == ["person.273.html", "project.E015-01-08.html"]
    assert "skipped person z/../escaped" in captured.err

    sgml = tmp_path / "export.sgml"
    sgml.write_text("<RECORD>\n<RCN>E/15\n<DEG>Institut\n<HRU>Muster, Max\n"
                    "</RECORD>\n", "utf-8")
    code = main(["convert-sgml", str(sgml), "--org", "TUWIEN", "--date", "06.06.2001",
                 "--out", str(tmp_path / "converted")])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "DISCARD orgunit E/15 missing-mandatory-field:id",
        "DISCARD person E/15.head missing-mandatory-field:id"]
    assert list((tmp_path / "converted").iterdir()) == []


def test_extract_out_refuses_pages_sharing_a_stem(tmp_path, capsys):
    pages = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        page = tmp_path / name / "index.html"
        page.write_text(render_html(Person(id=name, family_names=name.upper())), "utf-8")
        pages.append(str(page))
    out = tmp_path / "blocks"
    code = main(["extract", *pages, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: two pages share the stem 'index', so their "
                            f"blocks would overwrite each other in {out}\n")
    assert not out.exists()

    # without --out nothing is written, so a shared stem does no harm
    assert main(["extract", *pages]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


# ---------------------------------------------------------------------------
# namespace override and process-level behaviour

def test_namespace_env_override(tmp_path, capsys, monkeypatch):
    ns = "http://example.org/schema#"
    doc = write_doc(tmp_path / "custom.rdf", linked_pair(), ns=ns)
    pages = tmp_path / "pages"

    monkeypatch.delenv("CERIF_RDF_NS", raising=False)
    main(["render", doc, "--out", str(pages)])
    assert capsys.readouterr().out == ""

    monkeypatch.setenv("CERIF_RDF_NS", ns)
    main(["render", doc, "--out", str(pages)])
    out = capsys.readouterr().out.splitlines()
    assert "project.E015-01-08.html" in out
    assert ns in (pages / "project.E015-01-08.html").read_text("utf-8")


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["validate"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cerifrdf.cli", "validate",
         str(DATA_DIR / "person_273.rdf")],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0
    assert "warning:" in proc.stderr


@pytest.mark.parametrize("ident", [".x", "a..b", "v.rdf"])
def test_package_per_object_refuses_an_id_its_file_name_would_not_keep(
        tmp_path, capsys, ident):
    # validate_record reports the identifier, so the cascade discards the
    # record in both packaging modes, as it does an identifier holding '/'
    rs = linked_pair()
    rs.add(Person(id=ident, family_names="Dotted"))
    doc = tmp_path / "site.rdf"
    doc.write_text(serialize_document(rs), "utf-8")
    discard = f"DISCARD person {ident} missing-mandatory-field:id"

    assert main(["validate", str(doc)]) == 1
    violation, *rest = capsys.readouterr().out.splitlines()
    assert violation.startswith(f"VIOLATION person {ident} identifier {ident!r} ")
    assert rest == [discard]

    out = tmp_path / "session"
    code = main(["package", str(doc), "--mode", "per-object", "--org", "TUWIEN",
                 "--date", "06.06.2001", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" not in captured.err
    written = ["TUWIEN.06.06.2001.PERSON.273", "TUWIEN.06.06.2001.PROJECT.E015-01-08"]
    assert captured.out.splitlines() == [discard, *written]
    assert sorted(p.name for p in out.iterdir()) == written

    code = main(["package", str(doc), "--mode", "all", "--org", "TUWIEN",
                 "--date", "06.06.2001", "--out", str(tmp_path / "all")])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [discard, "TUWIEN.06.06.2001.ALL"]
    assert "Dotted" not in (tmp_path / "all" / "TUWIEN.06.06.2001.ALL").read_text("utf-8")


def test_convert_sgml_discards_an_id_no_file_name_keeps(tmp_path, capsys):
    sgml = tmp_path / "export.sgml"
    sgml.write_text("".join(f"<RECORD>\n<RCN>{rcn}\n<DEG>Institut\n</RECORD>\n"
                            for rcn in (".x", "v.rdf", "7")), "utf-8")
    code = main(["convert-sgml", str(sgml), "--org", "TUWIEN", "--date", "06.06.2001",
                 "--out", str(tmp_path / "converted")])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "DISCARD orgunit .x missing-mandatory-field:id",
        "DISCARD orgunit v.rdf missing-mandatory-field:id",
        "TUWIEN.06.06.2001.ORGUNIT.7"]
