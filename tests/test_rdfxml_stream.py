"""The reader gives the same result whether a document is parsed whole or
streamed a chunk at a time: the same records in the same order, relations
in the same order and the same warnings, or the same exception class and
text.  Test documents fit in one chunk, so these tests shrink the chunk."""

import sys
import tracemalloc

import pytest

from cerifrdf import rdfxml
from cerifrdf.errors import CerifError, DuplicateId, MissingId, XmlError
from cerifrdf.model import RecordKey
from cerifrdf.rdfxml import CERIF_NS, parse_document, parse_with_duplicates

import test_rdfxml
from conftest import read_data
from test_linear_chain import _large_document
from test_rdfxml import wrap

# characters per chunk when streaming; every test document is longer
STREAMED = 7

GOLDEN = ["project_e015.rdf", "person_273.rdf", "orgunit_auseninstitut.rdf"]


def outcome(data, chunk: int) -> list:
    """What parse_document and parse_with_duplicates give for *data* with
    texts of more than *chunk* characters streamed."""
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rdfxml, "_CHUNK", chunk)
        for parse in (parse_document, parse_with_duplicates):
            try:
                rs, *rest = parse(data)
            except CerifError as exc:
                results.append((type(exc), str(exc)))
            else:
                results.append((list(rs.records.items()), rs.relations, *rest))
    return results


def assert_streams(data, chunk: int = STREAMED) -> list:
    """The whole parse of *data*, checked equal to the streamed one."""
    whole = outcome(data, max(len(data), 1))
    assert outcome(data, chunk) == whole
    return whole


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_documents_stream(name):
    text = read_data(name)
    assert len(text) > STREAMED
    assert_streams(text)
    assert_streams(text.encode("utf-8"), chunk=1)


# Literal recovery-path tests of test_rdfxml, each run with its documents
# streamed: every pinned record, warning and refusal must still hold.
RECOVERY_TESTS = [
    "test_missing_id_raises",
    "test_duplicate_key_raises_and_scan_reports",
    "test_wrong_root_rejected",
    "test_not_xml_rejected",
    "test_unknown_elements_warn_but_parse",
    "test_duplicate_property_keeps_first",
    "test_unrecognized_status_kept_verbatim",
    "test_unusable_date_becomes_warning",
    "test_bag_oddities_warn",
    "test_tabular_spellings_accepted",
    "test_nested_and_document_relations",
    "test_relation_without_endpoint_dropped",
    "test_foreign_element_in_contact_warns",
    "test_foreign_element_in_ou_relation_warns",
    "test_foreign_element_in_relation_warns",
    "test_foreign_element_warnings_keep_their_place",
    "test_document_relations_deduplicated_in_order",
    "test_translated_bag_recovery",
    "test_ou_relation_without_resource_dropped",
    "test_relation_item_recovery",
    "test_empty_id_raises",
    "test_mixed_content_text_and_empty_scalars",
    "test_round_trip_random_sets",
    "test_item_warnings_name_their_record",
    "test_a_repeated_element_in_an_item_keeps_the_first",
]


@pytest.mark.parametrize("name", RECOVERY_TESTS)
def test_recovery_paths_hold_streamed(name, monkeypatch):
    monkeypatch.setattr(rdfxml, "_CHUNK", STREAMED)
    getattr(test_rdfxml, name)()


def test_golden_recoveries_hold_streamed(monkeypatch):
    monkeypatch.setattr(rdfxml, "_CHUNK", STREAMED)
    test_rdfxml.test_golden_project(read_data("project_e015.rdf"))
    test_rdfxml.test_golden_person_recovers_missing_prefix(read_data("person_273.rdf"))
    test_rdfxml.test_golden_orgunit_quirks(read_data("orgunit_auseninstitut.rdf"))


@pytest.mark.parametrize("doc, message", test_rdfxml.REPAIR_REFUSALS)
def test_namespace_repair_refusals_stream(doc, message):
    assert assert_streams(doc)[0] == (XmlError, message)


# ---------------------------------------------------------------------------
# which refusal wins, when mapping has begun before the text ends

RECORDS = "".join(f'<cerif:person ID="{i}"><cerif:person.per_sex>M</cerif:person.per_sex>'
                  "</cerif:person>" for i in range(20))


def test_parse_error_late_beats_missing_id_early():
    doc = wrap("<cerif:project></cerif:project>" + RECORDS)[:-5]
    for result in assert_streams(doc):
        assert result[0] is XmlError
        assert result[1].startswith("not well-formed: ")


def test_duplicate_key_early_loses_to_parse_error_late():
    doc = wrap('<cerif:person ID="0"/>' + RECORDS + "<cerif:person ID='9'>")
    for result in assert_streams(doc):
        assert result[0] is XmlError


def test_duplicate_key_without_parse_error_is_refused_streamed():
    doc = wrap(RECORDS + '<cerif:person ID="3"/>')
    document, with_duplicates = assert_streams(doc)
    assert document == (DuplicateId, "person 3 declared more than once")
    assert with_duplicates[3] == [RecordKey("person", "3")]


def test_missing_id_is_refused_streamed():
    document, with_duplicates = assert_streams(wrap(RECORDS + "<cerif:orgunit/>"))
    assert document == with_duplicates == (MissingId,
                                           "cerif:orgunit node without ID attribute")


def test_unbound_prefix_late_restarts_with_repair_warnings_first():
    # the early records are mapped, with a warning each, before the parser
    # meets the undeclared rdfs prefix; the repaired text is read afresh
    doc = (f'<rdf:RDF xmlns:rdf="{rdfxml.RDF_NS}" xmlns:cerif="{CERIF_NS}">'
           + RECORDS.replace(">M<", ">X<") + "<rdfs:comment>late</rdfs:comment></rdf:RDF>")
    rs_items, relations, warnings = assert_streams(doc)[0]
    assert len(rs_items) == 20 and relations == []
    assert warnings == [f"assumed namespace {rdfxml.RDFS_NS} for undeclared prefix rdfs:",
                        *(f"person {i}: unrecognized sex code 'X'" for i in range(20)),
                        "non-CERIF element under rdf:RDF ignored"]


def test_wrong_root_loses_to_parse_error():
    doc = (f'<cerif:project xmlns:cerif="{CERIF_NS}" ID="1">'
           + RECORDS + "<cerif:person ID='x'></cerif:project>")
    for result in assert_streams(doc):
        assert result[0] is XmlError
        assert result[1].startswith("not well-formed: mismatched tag")
    well_formed = f'<cerif:project xmlns:cerif="{CERIF_NS}" ID="1">{RECORDS}</cerif:project>'
    assert assert_streams(well_formed)[0] == (
        XmlError, f"root element is {{{CERIF_NS}}}project, expected rdf:RDF")


def test_root_that_begins_in_the_last_chunk():
    # expat may give a token that spans chunks, and every event after it,
    # only when the parser is closed
    doc = "<!--" + "x" * 200 + "-->" + wrap(RECORDS)
    for chunk in (STREAMED, 150, len(doc) - 10):
        rs_items, _, warnings = assert_streams(doc, chunk)[0]
        assert len(rs_items) == 20 and warnings == []


def test_lone_surrogate_in_text_is_refused_whole_and_streamed():
    doc = wrap(RECORDS.replace('ID="5"', 'ID="5\ud800"'))
    assert assert_streams(doc)[0] == (
        XmlError, "document text holds lone surrogate '\\ud800' at character "
                  f"{doc.index(chr(0xD800))}, which UTF-8 cannot encode")


# ---------------------------------------------------------------------------
# memory

def test_streamed_parse_does_not_hold_the_whole_tree():
    """Past one chunk, the parse holds the text and the top-level children
    not yet mapped, not a tree of the whole text, which is about three
    times the text's size."""
    text = _large_document(600)
    assert len(text) > 10 * rdfxml._CHUNK
    size = sys.getsizeof(text)
    parse_document(text)  # warm the reader's tag memo
    tracemalloc.start()
    try:
        result = parse_document(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0].records) == 600
    assert peak - held < 1.5 * size
