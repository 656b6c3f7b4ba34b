"""Semi-structured knowledge base: data model, ingestion, fusion, validation.

A knowledge base fuses two sources: a structured database of per-domain
entity records, and a document base of free-text documents that each declare
the domain and entity they describe. After loading, the knowledge base is
immutable and safe to share across threads.

File formats (committed toy example under ``data/toy/``):

* db file: JSON object mapping domain name to ``{"slots": [...],
  "entities": [{"id", "name", "bookable", "attributes"}, ...]}``.
* doc-base file: JSON array of ``{"domain", "entity_id", "doc_id", "title",
  "body"}`` records. ``entity_id`` may also hold an entity name; name lookup
  is case-insensitive and must be unambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import DomainNotFoundError, FusionError, LoadError
from .text import normalize, open_input, open_output


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    body: str


@dataclass(frozen=True)
class Entity:
    id: str
    name: str
    attributes: dict[str, str]
    bookable: bool = False
    documents: tuple[Document, ...] = ()


@dataclass(frozen=True)
class Domain:
    name: str
    slot_schema: frozenset[str]
    entities: tuple[Entity, ...]  # file order

    @cached_property
    def id_order(self) -> tuple[Entity, ...]:
        """Entities ascending by id; equal ids keep their file order."""
        return tuple(sorted(self.entities, key=lambda e: e.id))

    @cached_property
    def _by_id(self) -> dict[str, Entity]:
        return {ent.id: ent for ent in reversed(self.entities)}  # first of equal ids wins

    def entity(self, entity_id: str) -> Entity | None:
        return self._by_id.get(entity_id)


@dataclass(frozen=True)
class KnowledgeBase:
    domains: dict[str, Domain]

    def domain(self, name: str) -> Domain:
        try:
            return self.domains[name]
        except KeyError:
            raise DomainNotFoundError(f"unknown domain '{name}'") from None

    def entity(self, domain: str, entity_id: str) -> Entity | None:
        return self.domain(domain).entity(entity_id)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()
    entity_count: int = 0
    per_domain_entities: dict[str, int] = field(default_factory=dict)
    document_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def expect(cond: bool, detail: str, file: str, line: int | None = None):
    """Raise a :class:`LoadError` at ``file`` (and ``line``) unless ``cond`` holds."""
    if not cond:
        raise LoadError(detail, file=file, line=line)


def read_json(path: str):
    try:
        with open_input(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise LoadError(exc.msg, file=path, line=exc.lineno) from exc


def _parse_db(path: str) -> dict[str, Domain]:
    raw = read_json(path)
    expect(isinstance(raw, dict), "db file must be a JSON object keyed by domain", path)
    domains: dict[str, Domain] = {}
    for dom_name, dom_obj in raw.items():
        name = normalize(dom_name)
        expect(bool(name), "empty domain name", path)
        expect(name not in domains, f"duplicate domain '{name}'", path)
        expect(isinstance(dom_obj, dict), f"domain '{name}' must be an object", path)
        slots = dom_obj.get("slots")
        ents = dom_obj.get("entities")
        expect(isinstance(slots, list) and all(isinstance(s, str) for s in slots),
               f"domain '{name}': 'slots' must be an array of strings", path)
        expect(isinstance(ents, list), f"domain '{name}': 'entities' must be an array", path)
        schema = frozenset(normalize(s) for s in slots)
        entities = []
        for k, ent in enumerate(ents):
            expect(isinstance(ent, dict), f"domain '{name}': entity #{k} must be an object", path)
            expect(isinstance(ent.get("id"), str) and ent["id"].strip(),
                   f"domain '{name}': entity #{k} missing 'id'", path)
            expect(isinstance(ent.get("name"), str) and ent["name"].strip(),
                   f"domain '{name}': entity #{k} missing 'name'", path)
            attrs = ent.get("attributes", {})
            expect(isinstance(attrs, dict) and all(
                isinstance(s, str) and isinstance(v, str) for s, v in attrs.items()),
                f"domain '{name}': entity '{ent['id']}' attributes must map strings to strings",
                path)
            bookable = ent.get("bookable", False)
            expect(isinstance(bookable, bool),
                   f"domain '{name}': entity '{ent['id']}' 'bookable' must be a boolean", path)
            entities.append(Entity(
                id=normalize(ent["id"]),
                name=normalize(ent["name"]),
                attributes={normalize(s): normalize(v) for s, v in attrs.items()},
                bookable=bookable,
            ))
        domains[name] = Domain(name=name, slot_schema=schema, entities=tuple(entities))
    return domains


def _parse_docs(path: str) -> list[dict]:
    raw = read_json(path)
    expect(isinstance(raw, list), "doc-base file must be a JSON array", path)
    records = []
    for k, rec in enumerate(raw):
        expect(isinstance(rec, dict), f"document #{k} must be an object", path)
        for key in ("domain", "entity_id", "doc_id", "title", "body"):
            expect(isinstance(rec.get(key), str), f"document #{k} missing '{key}'", path)
        records.append(rec)
    return records


def _locate_owner(domain: Domain, ref: str, record_no: int) -> Entity | None:
    """Resolve a document's entity reference: id first, then exact name."""
    ent = domain.entity(ref)
    if ent is not None:
        return ent
    by_name = [e for e in domain.entities if e.name == ref]
    if len(by_name) > 1:
        raise FusionError(
            f"document #{record_no}: entity reference '{ref}' is ambiguous in "
            f"domain '{domain.name}' ({len(by_name)} entities share that name)")
    return by_name[0] if by_name else None


def load_knowledge_base(db_source: str, doc_source: str | None = None) -> KnowledgeBase:
    """Load and fuse the structured db and the document base.

    Every document is attached to the entity it declares via
    ``(domain, entity_id)``, falling back to a case-insensitive exact name
    match. Documents referencing unknown entities make the whole load fail
    with a fusion error listing the orphans.
    """
    domains = _parse_db(db_source)
    if doc_source is None:
        return KnowledgeBase(domains=domains)

    records = _parse_docs(doc_source)
    attached: dict[tuple[str, str], list[Document]] = {}
    orphans = []
    for k, rec in enumerate(records):
        dom_name = normalize(rec["domain"])
        ref = normalize(rec["entity_id"])
        domain = domains.get(dom_name)
        owner = _locate_owner(domain, ref, k) if domain is not None else None
        if owner is None:
            orphans.append((dom_name, ref))
            continue
        doc = Document(doc_id=rec["doc_id"].strip(), title=rec["title"], body=rec["body"])
        attached.setdefault((dom_name, owner.id), []).append(doc)
    if orphans:
        listed = ", ".join(f"({d!r}, {e!r})" for d, e in orphans)
        raise FusionError(f"documents reference unknown entities: {listed}")

    fused = {}
    for name, domain in domains.items():
        entities = tuple(
            replace(ent, documents=tuple(attached.get((name, ent.id), ())))
            for ent in domain.entities)
        fused[name] = replace(domain, entities=entities)
    return KnowledgeBase(domains=fused)


def write_knowledge_base(kb: KnowledgeBase, db_path: str, doc_path: str | None = None):
    """Re-serialize a knowledge base into the two source formats."""
    db_obj = {}
    doc_records = []
    for name, domain in kb.domains.items():
        db_obj[name] = {
            "slots": sorted(domain.slot_schema),
            "entities": [
                {"id": e.id, "name": e.name, "bookable": e.bookable,
                 "attributes": dict(sorted(e.attributes.items()))}
                for e in domain.entities
            ],
        }
        for ent in domain.entities:
            for doc in ent.documents:
                doc_records.append({"domain": name, "entity_id": ent.id,
                                    "doc_id": doc.doc_id, "title": doc.title,
                                    "body": doc.body})
    with open_output(db_path) as fh:
        json.dump(db_obj, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
    if doc_path is not None:
        with open_output(doc_path) as fh:
            json.dump(doc_records, fh, indent=2, ensure_ascii=False)
            fh.write("\n")


def validate_knowledge_base(kb: KnowledgeBase) -> ValidationReport:
    """Report every invariant violation; a valid KB yields an empty report."""
    violations = []
    per_domain = {}
    doc_count = 0
    for name, domain in kb.domains.items():
        if not name or name != normalize(name):
            violations.append(Violation("bad-domain-name", f"domain '{name}'"))
        seen_ids = set()
        per_domain[name] = len(domain.entities)
        for ent in domain.entities:
            if ent.id in seen_ids:
                violations.append(Violation(
                    "duplicate-id", f"domain '{name}': entity id '{ent.id}'"))
            seen_ids.add(ent.id)
            for slot, value in ent.attributes.items():
                if slot not in domain.slot_schema:
                    violations.append(Violation(
                        "schema-foreign",
                        f"domain '{name}': entity '{ent.id}' attribute '{slot}'"))
                if value != normalize(value):
                    violations.append(Violation(
                        "bad-value",
                        f"domain '{name}': entity '{ent.id}' value for '{slot}'"))
            if ent.attributes.get("name") not in (None, ent.name):
                violations.append(Violation(
                    "name-mismatch",
                    f"domain '{name}': entity '{ent.id}' name attribute "
                    f"'{ent.attributes['name']}'"))
            seen_docs = set()
            for doc in ent.documents:
                doc_count += 1
                if not doc.body.strip():
                    violations.append(Violation(
                        "empty-body",
                        f"domain '{name}': entity '{ent.id}' document '{doc.doc_id}'"))
                if doc.doc_id in seen_docs:
                    violations.append(Violation(
                        "duplicate-doc-id",
                        f"domain '{name}': entity '{ent.id}' document '{doc.doc_id}'"))
                seen_docs.add(doc.doc_id)
    return ValidationReport(
        violations=tuple(violations),
        entity_count=sum(per_domain.values()),
        per_domain_entities=per_domain,
        document_count=doc_count,
    )


def list_entities(kb: KnowledgeBase, domain: str) -> list[Entity]:
    """Entities of ``domain`` in deterministic order (ascending by id)."""
    return list(kb.domain(domain).id_order)


def build_ontology(kb: KnowledgeBase, include_ruk: bool = False) -> dict[tuple[str, str], tuple[str, ...]]:
    """Collect every attribute value per (domain, slot) pair.

    With ``include_ruk`` the pseudo-slot ``ruk`` maps to the domain's entity
    ids, which is what corruption needs to swap entity references.
    """
    values: dict[tuple[str, str], set[str]] = {}
    for name, domain in kb.domains.items():
        for ent in domain.entities:
            for slot, value in ent.attributes.items():
                values.setdefault((name, slot), set()).add(value)
            if include_ruk:
                values.setdefault((name, "ruk"), set()).add(ent.id)
    return {key: tuple(sorted(vals)) for key, vals in sorted(values.items())}
