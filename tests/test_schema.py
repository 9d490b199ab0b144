"""The field table in model.py covers every record field and every shape."""

from dataclasses import fields

import pytest

from cerifrdf import htmlbridge, rdfxml, store, validation
from cerifrdf.model import RECORD_CLASSES, RECORD_FIELDS, RecordKey, present_fields
from cerifrdf.rdfxml import resolve_alias


@pytest.mark.parametrize("kind", sorted(RECORD_CLASSES))
def test_specs_follow_dataclass_fields(kind):
    cls = RECORD_CLASSES[kind]
    names = [f.name for f in fields(cls) if f.name != "id"]
    assert [spec.attr for spec in RECORD_FIELDS[cls]] == names
    defaults = {f.name: f.default for f in fields(cls)}
    assert all(spec.default == defaults[spec.attr] for spec in RECORD_FIELDS[cls])


def test_every_used_shape_has_reader_writer_and_row():
    used = {spec.shape for table in RECORD_FIELDS.values() for spec in table}
    for shape in used:
        reader, writer = rdfxml._SHAPES[shape]
        assert callable(reader) and callable(writer), shape
        assert callable(htmlbridge._ROWS[shape]), shape
        assert shape in validation._SHAPES, shape


@pytest.mark.parametrize("kind", sorted(RECORD_CLASSES))
def test_spec_elements_are_canonical(kind):
    for spec in RECORD_FIELDS[RECORD_CLASSES[kind]]:
        for element in (spec.element, *spec.parts):
            assert resolve_alias(element) == (element, True)


def test_bag_shapes_and_only_they_name_parts():
    for table in RECORD_FIELDS.values():
        for spec in table:
            assert bool(spec.parts) == (spec.shape not in
                                        ("status", "date", "text", "sex", "list"))


def test_every_used_shape_has_a_triple_maker():
    used = {spec.shape for table in RECORD_FIELDS.values() for spec in table}
    for shape in used:
        assert callable(store._TRIPLES[shape]), shape


def test_predicate_is_set_exactly_where_the_field_names_its_triples():
    # contacts, org-unit relations and nested relations name their own
    # predicates; a scalar field's triples carry its attribute name
    for table in RECORD_FIELDS.values():
        for spec in table:
            own = spec.shape in ("contacts", "ou_relations", "relations")
            assert (spec.predicate is None) == own, spec.attr
            if spec.shape in ("status", "date", "text", "sex"):
                assert spec.predicate == spec.attr


@pytest.mark.parametrize("kind", sorted(RECORD_CLASSES))
def test_each_class_carries_its_kind_and_keys_by_it(kind):
    cls = RECORD_CLASSES[kind]
    assert cls.kind == kind
    assert cls(id="x").key == RecordKey(kind, "x")


@pytest.mark.parametrize("kind", sorted(RECORD_CLASSES))
def test_list_inputs_come_back_as_tuples(kind):
    cls = RECORD_CLASSES[kind]
    names = [f.name for f in fields(cls) if f.default == ()]
    assert names
    record = cls(id="x", **{name: ["a", "b"] for name in names})
    assert all(getattr(record, name) == ("a", "b") for name in names)
    hash(record)


def test_record_key_str_is_the_kind_id_form():
    key = RecordKey("person", "a.b:c")
    assert str(key) == f"{key}" == "person:a.b:c"
    assert repr(key) == "RecordKey(kind='person', id='a.b:c')"


@pytest.mark.parametrize("kind", sorted(RECORD_CLASSES))
def test_present_fields_are_those_off_their_default(kind):
    cls = RECORD_CLASSES[kind]
    assert list(present_fields(cls(id="x"))) == []
    table = RECORD_FIELDS[cls]
    first, last = table[0], table[-1]
    record = cls(id="x", **{first.attr: "v", last.attr: ("w",)})
    assert list(present_fields(record)) == [(first, "v"), (last, ("w",))]
