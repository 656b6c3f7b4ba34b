import json

import pytest

from seknow.errors import DomainNotFoundError, LoadError
from seknow.kb import (
    Document,
    Domain,
    Entity,
    KnowledgeBase,
    load_knowledge_base,
    validate_knowledge_base,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_load_toy_kb(toy_kb):
    assert sorted(toy_kb.domains) == ["hotel", "restaurant", "taxi", "train"]
    assert len(toy_kb.domains["restaurant"].entities) == 3
    pizza = toy_kb.entity("restaurant", "pizza hut")
    assert [d.doc_id for d in pizza.documents] == ["d1", "d2"]
    assert pizza.attributes["food"] == "italian"


def test_direct_fusion_single_entity(tmp_path):
    db = write_json(tmp_path / "db.json", {
        "restaurant": {"slots": ["name", "food"], "entities": [
            {"id": "pizza hut", "name": "pizza hut",
             "attributes": {"name": "pizza hut", "food": "italian"}}]}})
    docs = write_json(tmp_path / "docs.json", [
        {"domain": "restaurant", "entity_id": "pizza hut", "doc_id": "a",
         "title": "t", "body": "good pizza ."},
        {"domain": "restaurant", "entity_id": "pizza hut", "doc_id": "b",
         "title": "t", "body": "cheap pizza ."},
    ])
    kb = load_knowledge_base(db, docs)
    entity = kb.entity("restaurant", "pizza hut")
    assert len(entity.documents) == 2
    assert entity.bookable is False  # default when the key is absent


def test_fusion_by_name_fallback(tmp_path):
    db = write_json(tmp_path / "db.json", {
        "hotel": {"slots": ["name"], "entities": [
            {"id": "h-17", "name": "Acorn Guest House", "attributes": {}}]}})
    docs = write_json(tmp_path / "docs.json", [
        {"domain": "hotel", "entity_id": "ACORN GUEST house", "doc_id": "d",
         "title": "t", "body": "b"}])
    kb = load_knowledge_base(db, docs)
    assert len(kb.entity("hotel", "h-17").documents) == 1


def test_fusion_orphan_listed(tmp_path):
    db = write_json(tmp_path / "db.json", {
        "hotel": {"slots": ["name"], "entities": [
            {"id": "acorn", "name": "acorn", "attributes": {}}]}})
    docs = write_json(tmp_path / "docs.json", [
        {"domain": "hotel", "entity_id": "ghost inn", "doc_id": "d",
         "title": "t", "body": "b"}])
    with pytest.raises(LoadError) as err:
        load_knowledge_base(db, docs)
    assert str(err.value) == f"{docs}: documents reference unknown entities: ('hotel', 'ghost inn')"


def test_fusion_ambiguous_name(tmp_path):
    db = write_json(tmp_path / "db.json", {
        "hotel": {"slots": ["name"], "entities": [
            {"id": "h1", "name": "twin lodge", "attributes": {}},
            {"id": "h2", "name": "twin lodge", "attributes": {}}]}})
    docs = write_json(tmp_path / "docs.json", [
        {"domain": "hotel", "entity_id": "twin lodge", "doc_id": "d",
         "title": "t", "body": "b"}])
    with pytest.raises(LoadError, match="ambiguous") as err:
        load_knowledge_base(db, docs)
    assert err.value.file == docs


def test_schema_violation_names_file(tmp_path):
    db = write_json(tmp_path / "db.json", {"hotel": {"slots": "oops", "entities": []}})
    with pytest.raises(LoadError) as err:
        load_knowledge_base(db)
    assert "db.json" in str(err.value)


@pytest.mark.parametrize("attributes, slot", [
    ({"food": ""}, "food"), ({"food": " \t "}, "food"), ({"  ": "italian"}, "  ")])
def test_empty_attribute_is_refused_at_load(tmp_path, attributes, slot):
    db = write_json(tmp_path / "db.json", {"restaurant": {"slots": ["food"], "entities": [
        {"id": "Pizza Hut", "name": "pizza hut", "attributes": attributes}]}})
    with pytest.raises(LoadError) as err:
        load_knowledge_base(db)
    assert str(err.value) == \
        f"{db}: domain 'restaurant': entity 'Pizza Hut' attribute '{slot}' is empty"


@pytest.mark.parametrize("doc_id", ["", "   ", "d\t1", "d\n1", "d\r1"])
def test_doc_id_blank_or_with_tab_or_line_break_is_refused(tmp_path, doc_id):
    db = write_json(tmp_path / "db.json", {"hotel": {"slots": ["name"], "entities": [
        {"id": "acorn", "name": "acorn", "attributes": {}}]}})
    docs = write_json(tmp_path / "docs.json", [
        {"domain": "hotel", "entity_id": "acorn", "doc_id": "d0", "title": "t", "body": "b"},
        {"domain": "hotel", "entity_id": "acorn", "doc_id": doc_id, "title": "t", "body": "b"}])
    with pytest.raises(LoadError) as err:
        load_knowledge_base(db, docs)
    assert str(err.value) == f"{docs}: document #1 'doc_id' is blank or holds a tab or line break"


def test_doc_id_is_stripped(tmp_path):
    db = write_json(tmp_path / "db.json", {"hotel": {"slots": ["name"], "entities": [
        {"id": "acorn", "name": "acorn", "attributes": {}}]}})
    docs = write_json(tmp_path / "docs.json", [
        {"domain": "hotel", "entity_id": "acorn", "doc_id": "\t d 1 \n", "title": "t",
         "body": "b"}])
    assert [d.doc_id for d in load_knowledge_base(db, docs).entity("hotel", "acorn").documents] \
        == ["d 1"]


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "db.json"
    path.write_text('{\n  "hotel": {\n', encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_knowledge_base(str(path))
    assert err.value.line is not None
    assert "db.json" in str(err.value)


def test_validate_toy_kb_clean(toy_kb):
    report = validate_knowledge_base(toy_kb)
    assert not report.violations
    entities = [ent for domain in toy_kb.domains.values() for ent in domain.entities]
    assert len(entities) == 7
    assert sum(len(ent.documents) for ent in entities) == 9


def test_validate_schema_foreign_attribute():
    kb = KnowledgeBase(domains={"hotel": Domain(
        name="hotel", slot_schema=frozenset({"name"}),
        entities=(Entity(id="a", name="a", attributes={"rooms": "3"}),))})
    kinds = [v.kind for v in validate_knowledge_base(kb).violations]
    assert kinds == ["schema-foreign"]


def test_validate_duplicate_ids():
    kb = KnowledgeBase(domains={"hotel": Domain(
        name="hotel", slot_schema=frozenset({"name"}),
        entities=(Entity(id="a", name="x", attributes={}),
                  Entity(id="a", name="y", attributes={})))})
    kinds = [v.kind for v in validate_knowledge_base(kb).violations]
    assert kinds == ["duplicate-id"]


def test_load_refuses_duplicate_ids(tmp_path):
    db = write_json(tmp_path / "db.json", {"hotel": {"slots": ["name"], "entities": [
        {"id": "a", "name": "x", "attributes": {}},
        {"id": " A", "name": "y", "attributes": {}}]}})
    with pytest.raises(LoadError) as err:
        load_knowledge_base(db)
    assert str(err.value) == f"{db}: duplicate-id: domain 'hotel': entity id 'a'"


def test_validate_empty_body_and_duplicate_doc():
    kb = KnowledgeBase(domains={"hotel": Domain(
        name="hotel", slot_schema=frozenset({"name"}),
        entities=(Entity(id="a", name="a", attributes={}, documents=(
            Document("d", "t", "   "), Document("d", "t", "ok"))),))})
    kinds = sorted(v.kind for v in validate_knowledge_base(kb).violations)
    assert kinds == ["duplicate-doc-id", "empty-body"]


def test_id_order_ascending(toy_kb):
    ids = [e.id for e in toy_kb.domain("restaurant").id_order]
    assert ids == sorted(ids) == ["golden wok", "pizza hut", "roma ristorante"]
    assert len(toy_kb.domain("taxi").id_order) == 1


def test_unknown_domain_is_domain_not_found(toy_kb):
    with pytest.raises(DomainNotFoundError):
        toy_kb.domain("moon")


def test_documents_have_unique_paths(toy_kb):
    paths = [(dom, ent.id, doc.doc_id)
             for dom, domain in toy_kb.domains.items()
             for ent in domain.entities
             for doc in ent.documents]
    assert len(paths) == len(set(paths)) == 9
