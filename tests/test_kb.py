import json

import pytest

from seknow import (
    Document,
    Domain,
    Entity,
    KnowledgeBase,
    list_entities,
    load_knowledge_base,
    parse_belief_span,
    structured_query,
    validate_knowledge_base,
    write_knowledge_base,
)
from seknow.errors import DomainNotFoundError, FusionError, LoadError


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
    with pytest.raises(FusionError) as err:
        load_knowledge_base(db, docs)
    assert "'hotel'" in str(err.value) and "'ghost inn'" in str(err.value)


def test_fusion_ambiguous_name(tmp_path):
    db = write_json(tmp_path / "db.json", {
        "hotel": {"slots": ["name"], "entities": [
            {"id": "h1", "name": "twin lodge", "attributes": {}},
            {"id": "h2", "name": "twin lodge", "attributes": {}}]}})
    docs = write_json(tmp_path / "docs.json", [
        {"domain": "hotel", "entity_id": "twin lodge", "doc_id": "d",
         "title": "t", "body": "b"}])
    with pytest.raises(FusionError, match="ambiguous"):
        load_knowledge_base(db, docs)


def test_schema_violation_names_file(tmp_path):
    db = write_json(tmp_path / "db.json", {"hotel": {"slots": "oops", "entities": []}})
    with pytest.raises(LoadError) as err:
        load_knowledge_base(db)
    assert "db.json" in str(err.value)


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "db.json"
    path.write_text('{\n  "hotel": {\n', encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_knowledge_base(str(path))
    assert err.value.line is not None
    assert "db.json" in str(err.value)


def test_validate_toy_kb_clean(toy_kb):
    report = validate_knowledge_base(toy_kb)
    assert report.ok
    assert report.violations == ()
    assert report.entity_count == 7
    assert report.document_count == 9


def test_validate_entity_counts_consistent(toy_kb):
    report = validate_knowledge_base(toy_kb)
    assert sum(report.per_domain_entities.values()) == report.entity_count


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


def test_validate_empty_body_and_duplicate_doc():
    kb = KnowledgeBase(domains={"hotel": Domain(
        name="hotel", slot_schema=frozenset({"name"}),
        entities=(Entity(id="a", name="a", attributes={}, documents=(
            Document("d", "t", "   "), Document("d", "t", "ok"))),))})
    kinds = sorted(v.kind for v in validate_knowledge_base(kb).violations)
    assert kinds == ["duplicate-doc-id", "empty-body"]


def test_list_entities_ordered(toy_kb):
    ids = [e.id for e in list_entities(toy_kb, "restaurant")]
    assert ids == sorted(ids) == ["golden wok", "pizza hut", "roma ristorante"]
    assert len(list_entities(toy_kb, "taxi")) == 1


def test_shared_id_keeps_file_order():
    first = Entity(id="b", name="first", attributes={"area": "north"})
    other = Entity(id="a", name="other", attributes={"area": "north"})
    second = Entity(id="b", name="second", attributes={"area": "north"})
    domain = Domain(name="hotel", slot_schema=frozenset({"area"}),
                    entities=(first, other, second))
    kb = KnowledgeBase(domains={"hotel": domain})
    assert domain.entity("b") is first
    assert domain.id_order == (other, first, second)
    assert list_entities(kb, "hotel") == [other, first, second]
    matches = structured_query(kb, parse_belief_span("hotel { area = north }"))
    assert matches.per_domain["hotel"].entity_ids == ("a", "b", "b")


def test_list_entities_unknown_domain(toy_kb):
    with pytest.raises(DomainNotFoundError):
        list_entities(toy_kb, "moon")


def test_reload_roundtrip(toy_kb, tmp_path):
    db = tmp_path / "db.json"
    docs = tmp_path / "docs.json"
    write_knowledge_base(toy_kb, str(db), str(docs))
    again = load_knowledge_base(str(db), str(docs))
    assert again == toy_kb


def test_documents_have_unique_paths(toy_kb):
    paths = [(dom, ent.id, doc.doc_id)
             for dom, domain in toy_kb.domains.items()
             for ent in domain.entities
             for doc in ent.documents]
    assert len(paths) == len(set(paths)) == 9
