"""Tests for dates, translation codes and the record value types."""

import dataclasses
import random
import re

import pytest

from cerifrdf.errors import FormatError, UnknownCode
from cerifrdf.model import (
    Contact,
    OrgUnit,
    PartialDate,
    Person,
    Project,
    ProjectStatus,
    RecordKey,
    Relation,
    TranslationType,
    collapse_ws,
    file_safe_id,
    format_partial_date,
    join_semicolon_list,
    normalize_translation_code,
    parse_iso_date,
    parse_partial_date,
    split_semicolon_list,
)


# ---------------------------------------------------------------------------
# identifiers in file names

@pytest.mark.parametrize("ident", ["273", "E015-01-08", "a.b", "..x", ".", "ä ü", "a:b"])
def test_file_safe_ids(ident):
    assert file_safe_id(ident)


@pytest.mark.parametrize("ident", ["z/../escaped", "/", "a\\b", "a\x00b", "a\x1fb",
                                   "a\x7f", "a\x85", "\x9f"])
def test_ids_that_cannot_name_a_file(ident):
    assert not file_safe_id(ident)


# ---------------------------------------------------------------------------
# partial dates

def test_parse_month_precision():
    d = parse_partial_date("06.2000")
    assert (d.year, d.month, d.day) == (2000, 6, None)
    assert not d.is_full
    assert not d.is_year_only


def test_parse_full_date():
    d = parse_partial_date("06.06.2001")
    assert (d.year, d.month, d.day) == (2001, 6, 6)
    assert d.is_full


def test_parse_year_only():
    d = parse_partial_date("2001")
    assert (d.year, d.month, d.day) == (2001, None, None)
    assert d.is_year_only


def test_zero_fields_rejected():
    with pytest.raises(FormatError):
        parse_partial_date("00.06.2000")
    with pytest.raises(FormatError):
        parse_partial_date("00.2000")


@pytest.mark.parametrize("text", ["", "  ", "a.b.c", "1.2.3.4", "06..2000",
                                  "31.13.2001", "32.01.2001", "01.01.0999",
                                  "²", "06.06.²⁰⁰¹"])
def test_malformed_dates_rejected(text):
    with pytest.raises(FormatError):
        parse_partial_date(text)


@pytest.mark.parametrize("text", ["31.02.2001", "30.02.2000", "29.02.2001",
                                  "29.02.1900", "31.04.2001", "31.11.2001"])
def test_day_its_month_does_not_have_rejected(text):
    with pytest.raises(FormatError, match="outside 1-"):
        parse_partial_date(text)
    with pytest.raises(FormatError):
        parse_iso_date("-".join(reversed(text.split("."))))


@pytest.mark.parametrize("text", ["29.02.2000", "29.02.2004", "28.02.2001",
                                  "30.04.2001", "31.12.2001"])
def test_last_day_of_each_month_accepted(text):
    assert str(parse_partial_date(text)) == text


def test_day_without_month_not_representable():
    with pytest.raises(FormatError):
        PartialDate(year=2001, month=None, day=6)


def test_format_is_zero_padded():
    assert format_partial_date(PartialDate(2000, 2)) == "02.2000"
    assert format_partial_date(PartialDate(2001, 6, 6)) == "06.06.2001"
    assert format_partial_date(PartialDate(2001)) == "2001"


@pytest.mark.parametrize("text", ["02.2000", "12.2001", "06.06.2001",
                                  "01.05.2001", "2001"])
def test_date_round_trip(text):
    assert str(parse_partial_date(text)) == text


def test_parse_tolerates_whitespace():
    assert str(parse_partial_date("  06.06.2001 ")) == "06.06.2001"


def test_iso_date_is_year_first():
    d = parse_iso_date("2001-02-20")
    assert (d.year, d.month, d.day) == (2001, 2, 20)
    assert str(d) == "20.02.2001"
    assert parse_iso_date("2001-02").month == 2
    assert parse_iso_date("2001").is_year_only


def test_certainly_before_uses_bounds():
    december = parse_partial_date("12.2000")
    january = parse_partial_date("01.2001")
    year = parse_partial_date("2000")
    assert december.certainly_before(january)
    assert not january.certainly_before(december)
    # a bare year overlaps every month inside it
    assert not year.certainly_before(december)
    assert year.certainly_before(parse_partial_date("2001"))


def test_earliest_latest():
    d = parse_partial_date("06.2000")
    assert d.earliest() == (2000, 6, 1)
    # the upper bound is deliberately coarse; 31 is safe for every month
    assert d.latest() == (2000, 6, 31)


# ---------------------------------------------------------------------------
# text helpers

def test_collapse_ws():
    assert collapse_ws("  a \t b\n c ") == "a b c"
    assert collapse_ws("\n") == ""


def test_collapse_ws_equals_the_regex_form_on_every_code_point():
    whitespace_run = re.compile(r"\s+")

    def regex_form(text):
        return whitespace_run.sub(" ", text).strip()

    chars = list(map(chr, range(0x110000)))
    assert list(map(collapse_ws, chars)) == list(map(regex_form, chars))
    # between letters, 4096 code points to a text: a letter never collapses,
    # so the texts agree exactly when every code point's pair does
    for start in range(0, len(chars), 4096):
        text = "".join(f"a{c}b" for c in chars[start:start + 4096])
        assert collapse_ws(text) == regex_form(text)


def test_semicolon_lists_round_trip():
    items = split_semicolon_list(" Wittgenstein Prize ;  ; City of Vienna Award ")
    assert items == ["Wittgenstein Prize", "City of Vienna Award"]
    assert join_semicolon_list(items) == "Wittgenstein Prize; City of Vienna Award"
    assert split_semicolon_list("") == []


# ---------------------------------------------------------------------------
# translation codes

def test_translation_codes():
    assert normalize_translation_code("O") is TranslationType.ORIGINAL
    assert normalize_translation_code("h") is TranslationType.HUMAN
    assert normalize_translation_code(" M ") is TranslationType.MACHINE


def test_zero_translation_code_warns():
    warnings = []
    assert normalize_translation_code("0", warnings) is TranslationType.ORIGINAL
    assert len(warnings) == 1 and "0" in warnings[0]
    # without a warning list the value is still accepted
    assert normalize_translation_code("0") is TranslationType.ORIGINAL


def test_unknown_translation_code_raises():
    with pytest.raises(UnknownCode):
        normalize_translation_code("X")
    with pytest.raises(UnknownCode):
        normalize_translation_code("")


# ---------------------------------------------------------------------------
# record value types

def test_records_are_frozen_and_hashable():
    p = Project(id="P1", status=ProjectStatus.EXECUTION)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.id = "P2"
    assert hash(p) == hash(Project(id="P1", status=ProjectStatus.EXECUTION))


def test_sequence_fields_coerced_to_tuples():
    p = Project(id="P1", prize_awards=["a", "b"], titles=[])
    assert p.prize_awards == ("a", "b")
    assert isinstance(p.titles, tuple)
    o = OrgUnit(id="O1", names=[])
    assert isinstance(o.names, tuple)


def test_record_keys():
    assert Project(id="P1").key == RecordKey("project", "P1")
    assert Person(id="42").key == ("person", "42")
    assert OrgUnit(id="U").key.kind == "orgunit"


def test_contact_is_empty():
    assert Contact().is_empty
    assert not Contact(email="x@example.org").is_empty


def test_relation_sort_key_orders_deterministically():
    rng = random.Random(4711)
    rels = [Relation(RecordKey("project", f"P{i}"), RecordKey("person", f"Q{i}"),
                     role="r", mandatory=bool(i % 2)) for i in range(10)]
    shuffled = rels[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled, key=Relation.sort_key) == \
        sorted(rels, key=Relation.sort_key)
