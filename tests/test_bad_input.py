"""Inputs that cannot be decoded or name unknown values end in exit 2.

Each case of the first test runs the command in a child process, so an
exception escaping main() would show as a traceback with exit status 1, the
status that means "findings", and a command that blocks fails at a timeout.
The second test runs in process and checks that a refusal of one input among
many names that input, in every command.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cerifrdf.cli import main
from cerifrdf.store import SNAPSHOT_FILE, Store

from conftest import cli_env

DOCUMENT = """<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    xmlns:cerif="http://derpi.tuwien.ac.at/~andrei/cerif-rdf#">
  <cerif:orgunit ID="OU"/>
</rdf:RDF>
"""
INDEX_LINE = "orgunit:OU\tsrc\t01.01.2001\tall\n"
LATIN1_SGML = "<RECORD>\n<RCN>1\n<DEG>Institut für Groß\n</RECORD>\n".encode("latin-1")


def _store(tmp_path, index: bytes, record: bytes = DOCUMENT.encode()) -> str:
    store = tmp_path / "st"
    store.mkdir()
    (store / "provenance.index").write_bytes(index)
    (store / "orgunit.OU.rdf").write_bytes(record)
    return str(store)


def _sgml_not_utf8(tmp_path):
    path = tmp_path / "export.sgml"
    path.write_bytes(LATIN1_SGML)
    return ["convert-sgml", str(path), "--org", "TUWIEN", "--date", "06.06.2001",
            "--out", str(tmp_path / "out")]


def _sgml_unknown_encoding(tmp_path):
    path = tmp_path / "export.sgml"
    path.write_bytes(LATIN1_SGML)
    return ["convert-sgml", str(path), "--org", "TUWIEN", "--date", "06.06.2001",
            "--out", str(tmp_path / "out"), "--encoding", "no-such-codec"]


def _index_unknown_kind(tmp_path):
    index = INDEX_LINE.replace("\tall", "\tbogus").encode()
    return ["query", "(?, ?, ?)", "--store", _store(tmp_path, index)]


def _index_not_utf8(tmp_path):
    index = INDEX_LINE.replace("src", "s\xe9rc").encode("latin-1")
    return ["query", "(?, ?, ?)", "--store", _store(tmp_path, index)]


def _record_file_not_utf8(tmp_path):
    record = DOCUMENT.replace('ID="OU"/>', 'ID="OU"><cerif:orgunit.org_acronym>'
                              'Gr\xf6\xdfe</cerif:orgunit.org_acronym></cerif:orgunit>')
    store = _store(tmp_path, INDEX_LINE.encode(), record.encode("latin-1"))
    return ["query", "(?, ?, ?)", "--store", store]


def _eq_map_not_utf8(tmp_path):
    eq = tmp_path / "eq.txt"
    eq.write_bytes("Rektor\trector\tRekt\xf6r\n".encode("latin-1"))
    return ["query", "(?, ?, ?)", "--store", _store(tmp_path, INDEX_LINE.encode()),
            "--eq", str(eq)]


def _record_key_in_two_files(tmp_path):
    store = _store(tmp_path, INDEX_LINE.encode())
    (Path(store) / "zz.rdf").write_text(DOCUMENT, "utf-8")
    return ["query", "(OU, ?, ?)", "--store", store]


def _indexed_key_without_record_file(tmp_path):
    index = INDEX_LINE + "person:273\tsrc\t01.01.2001\tall\n"
    return ["query", "(?, ?, ?)", "--store", _store(tmp_path, index.encode())]


def _record_file_a_fifo(tmp_path):
    # opening it to read would wait for a writer
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    store = _store(tmp_path, INDEX_LINE.encode())
    os.mkfifo(Path(store) / "person.3.rdf")
    return ["query", "(?, ?, ?)", "--store", store]


def _snapshot_value_forged_and_resealed(tmp_path):
    # text where a list of names goes, under a seal made to match; the line
    # names the org unit's file by its digest, and the query flattens it
    store = _store(tmp_path, INDEX_LINE.encode())
    Store.load(store).save(store)
    snapshot = Path(store) / SNAPSHOT_FILE
    header, line, _ = snapshot.read_bytes().splitlines(keepends=True)
    entry = json.loads(line)
    entry[3][0][2] = {"names": "OU"}
    body = header + json.dumps(entry).encode() + b"\n"
    seal = hashlib.blake2b(body, digest_size=16).hexdigest().encode() + b"\n"
    snapshot.write_bytes(body + seal)
    return ["query", "(?, ?, ?)", "--store", store]


def _date_with_superscript_digit(tmp_path):
    doc = tmp_path / "site.rdf"
    doc.write_text(DOCUMENT, "utf-8")
    return ["gather", str(doc), "--store", str(tmp_path / "st"), "--date", "²"]


def _store_without_index(tmp_path):
    return ["query", "(?, ?, ?)", "--store", str(tmp_path / "no-such-store")]


def _registry_not_utf8(tmp_path):
    doc = tmp_path / "site.rdf"
    doc.write_text(DOCUMENT.replace('ID="OU"/>', 'ID="OU"><cerif:orgunit.orgunit_names>'
                                    '<rdf:Bag><rdf:li><cerif:orgunit.orgunit_name>'
                                    '<cerif:orgunit.oun.language>de</cerif:orgunit.oun.language>'
                                    '<cerif:orgunit.oun.translation>O</cerif:orgunit.oun.translation>'
                                    '<cerif:orgunit.oun.name>Institut</cerif:orgunit.oun.name>'
                                    '</cerif:orgunit.orgunit_name></rdf:li></rdf:Bag>'
                                    '</cerif:orgunit.orgunit_names></cerif:orgunit>'), "utf-8")
    registry = tmp_path / "registry.tsv"
    registry.write_bytes("TUWIEN\torgunit\tInstitut f\xfcr\t01.01.2000\n".encode("latin-1"))
    return ["package", str(doc), "--mode", "all", "--org", "TUWIEN", "--date",
            "06.06.2001", "--out", str(tmp_path / "out"), "--registry", str(registry)]


@pytest.mark.parametrize("make_args", [
    _sgml_not_utf8,
    _sgml_unknown_encoding,
    _index_unknown_kind,
    _index_not_utf8,
    _record_file_not_utf8,
    _eq_map_not_utf8,
    _record_key_in_two_files,
    _indexed_key_without_record_file,
    _record_file_a_fifo,
    _snapshot_value_forged_and_resealed,
    _date_with_superscript_digit,
    _store_without_index,
    _registry_not_utf8,
])
def test_bad_input_exits_2_without_traceback(tmp_path, make_args):
    proc = subprocess.run([sys.executable, "-m", "cerifrdf.cli", *make_args(tmp_path)],
                          capture_output=True, text=True, env=cli_env(), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("error: ") for line in proc.stderr.splitlines())


def _record_file_truncated(tmp_path):
    store = _store(tmp_path, INDEX_LINE.encode(), DOCUMENT[:-12].encode())
    return ["query", "(?, ?, ?)", "--store", store], "orgunit.OU.rdf: not well-formed: "


def _index_date_unreadable(tmp_path):
    index = INDEX_LINE + "person:273\tsrc\t06.xx.2001\tall\n"
    store = _store(tmp_path, index.encode())
    return (["query", "(?, ?, ?)", "--store", store],
            f"{Path(store) / 'provenance.index'}:2: non-numeric date field")


def _index_date_partial(tmp_path):
    store = _store(tmp_path, INDEX_LINE.replace("01.01.2001", "2001").encode())
    return (["query", "(?, ?, ?)", "--store", store],
            f"{Path(store) / 'provenance.index'}:1: provenance date must be a full date")


def _registry_date_unreadable(tmp_path):
    doc = tmp_path / "site.rdf"
    doc.write_text(DOCUMENT, "utf-8")
    registry = tmp_path / "registry.tsv"
    registry.write_text("TUWIEN\torgunit\tA\t01.01.2000\nTUWIEN\torgunit\tB\t0.1.2000\n",
                        "utf-8")
    return (["package", str(doc), "--mode", "all", "--org", "TUWIEN", "--date",
             "06.06.2001", "--out", str(tmp_path / "out"), "--registry", str(registry)],
            f"{registry}:2: ")


def _gather_input_truncated(tmp_path):
    good, bad = tmp_path / "good.rdf", tmp_path / "bad.rdf"
    good.write_text(DOCUMENT, "utf-8")
    bad.write_text(DOCUMENT[:-12], "utf-8")
    return (["gather", str(good), str(bad), "--store", str(tmp_path / "st"),
             "--date", "06.06.2001"], f"{bad}: not well-formed: ")


def _validate_input_truncated(tmp_path):
    good, bad = tmp_path / "good.rdf", tmp_path / "bad.rdf"
    good.write_text(DOCUMENT, "utf-8")
    bad.write_text(DOCUMENT[:-12], "utf-8")
    return ["validate", str(good), str(bad)], f"{bad}: not well-formed: "


def _render_input_truncated(tmp_path):
    bad = tmp_path / "trunc.rdf"
    bad.write_text(DOCUMENT[:-12], "utf-8")
    return ["render", str(bad), "--out", str(tmp_path / "pages")], f"{bad}: not well-formed: "


def _package_input_truncated(tmp_path):
    bad = tmp_path / "trunc.rdf"
    bad.write_text(DOCUMENT[:-12], "utf-8")
    return (["package", str(bad), "--mode", "per-object", "--org", "TUWIEN", "--date",
             "06.06.2001", "--out", str(tmp_path / "out")], f"{bad}: not well-formed: ")


def _sgml_export_not_utf8(tmp_path):
    args = _sgml_not_utf8(tmp_path)
    return args, f"{args[1]}: "


def _index_date_not_in_its_month(tmp_path):
    index = INDEX_LINE + "person:273\tsrc\t31.02.2001\tall\n"
    store = _store(tmp_path, index.encode())
    return (["query", "(?, ?, ?)", "--store", store],
            f"{Path(store) / 'provenance.index'}:2: day 31 outside 1-28")


@pytest.mark.parametrize("make_case", [
    _record_file_truncated,
    _index_date_unreadable,
    _index_date_partial,
    _registry_date_unreadable,
    _gather_input_truncated,
    _validate_input_truncated,
    _render_input_truncated,
    _package_input_truncated,
    _sgml_export_not_utf8,
    _index_date_not_in_its_month,
])
def test_refusal_names_the_file_it_came_from(tmp_path, capsys, make_case):
    args, where = make_case(tmp_path)
    assert main(args) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {where}"), errors
