"""Inputs that cannot be decoded or name unknown values end in exit 2.

Each case runs the command in a child process, so an exception escaping
main() would show as a traceback with exit status 1, the status that means
"findings".
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

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
    _registry_not_utf8,
])
def test_bad_input_exits_2_without_traceback(tmp_path, make_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "cerifrdf.cli", *make_args(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("error: ") for line in proc.stderr.splitlines())
