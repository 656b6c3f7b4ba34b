"""Semi-structured knowledge base: data model, ingestion, fusion, validation.

A knowledge base fuses two sources: a structured database of per-domain
entity records, and a document base of free-text documents that each declare
the domain and entity they describe. After loading, the knowledge base is
immutable and safe to share across threads.

:func:`load_knowledge_base` refuses each fault of either file, up to the first
invariant violation of the fused KB, as a load error naming the file it lies
in. A loaded KB therefore has unique entity ids per domain.

File formats (committed toy example under ``data/toy/``):

* db file: JSON object mapping domain name to ``{"slots": [...],
  "entities": [{"id", "name", "bookable", "attributes"}, ...]}``.
* doc-base file: JSON array of ``{"domain", "entity_id", "doc_id", "title",
  "body"}`` records. ``entity_id`` may also hold an entity name; name lookup
  is case-insensitive and must be unambiguous.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import DomainNotFoundError, LoadError
from .text import normalize, open_input

_WORD_RE = re.compile(r"\w+")


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
        """Entities ascending by id."""
        return tuple(sorted(self.entities, key=lambda e: e.id))

    @cached_property
    def _by_id(self) -> dict[str, Entity]:
        return {ent.id: ent for ent in self.entities}

    def entity(self, entity_id: str) -> Entity | None:
        return self._by_id.get(entity_id)

    @cached_property
    def _postings(self) -> dict[tuple[str, str], int]:
        """(slot, value) -> bitmask of the ``id_order`` positions carrying that value."""
        masks: dict[tuple[str, str], int] = {}
        for pos, ent in enumerate(self.id_order):
            for pair in ent.attributes.items():
                masks[pair] = masks.get(pair, 0) | 1 << pos
        return masks

    def matching(self, constraints: dict[str, str]) -> list[Entity]:
        """Entities equal to every constraint, in ``id_order``; a missing attribute fails."""
        mask = (1 << len(self.id_order)) - 1
        for pair in constraints.items():
            mask &= self._postings.get(pair, 0)
        matched = []
        while mask:
            low = mask & -mask
            matched.append(self.id_order[low.bit_length() - 1])
            mask ^= low
        return matched

    @cached_property
    def match_keys(self) -> tuple[tuple[str, Entity], ...]:
        """(key, entity) in ``id_order``: each normalized name, then the id where it differs."""
        return tuple((key, ent) for ent in self.id_order
                     for key in dict.fromkeys((normalize(ent.name), normalize(ent.id))))

    @cached_property
    def first_by_key(self) -> dict[str, Entity]:
        """Each :attr:`match_keys` key -> the first entity in ``id_order`` that has it."""
        first: dict[str, Entity] = {}
        for key, ent in self.match_keys:
            first.setdefault(key, ent)
        return first


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

    @cached_property
    def _ontology(self) -> tuple[list, dict[str, list[int]]]:
        """Attribute values longest-first (ties by value) with their (domain, slot) pairs,
        and their positions keyed by the first ``\\w+`` run ("" for a non-word start)."""
        by_value: dict[str, set[tuple[str, str]]] = {}
        for name, domain in self.domains.items():
            for ent in domain.entities:
                for slot, value in ent.attributes.items():
                    by_value.setdefault(value, set()).add((name, slot))
        values = [(value, tuple(sorted(by_value[value])))
                  for value in sorted(by_value, key=lambda v: (-len(v), v))]
        index: dict[str, list[int]] = {}
        for pos, (value, _) in enumerate(values):
            word = _WORD_RE.match(value)
            index.setdefault(word.group() if word else "", []).append(pos)
        return values, index

    def ontology_candidates(self, text: str) -> list[tuple[str, tuple[tuple[str, str], ...]]]:
        """Longest-first values that may occur as whole words of ``text``: those whose
        first word run is a word of ``text`` (a ``\\b``-bounded match starts such a
        word) and those starting with a non-word character."""
        values, index = self._ontology
        words = {"", *_WORD_RE.findall(text)}
        return [values[pos] for pos in sorted(p for w in words for p in index.get(w, ()))]


# validation kinds that lie in the doc-base file; every other kind lies in the db file
_DOC_VIOLATIONS = ("empty-body", "duplicate-doc-id")


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()


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
            attributes = {}
            for slot, value in attrs.items():
                key, value = normalize(slot), normalize(value)
                if not (key and value):
                    raise LoadError(f"domain '{name}': entity '{ent['id']}' attribute "
                                    f"'{slot}' is empty", file=path)
                attributes[key] = value
            bookable = ent.get("bookable", False)
            expect(isinstance(bookable, bool),
                   f"domain '{name}': entity '{ent['id']}' 'bookable' must be a boolean", path)
            entities.append(Entity(
                id=normalize(ent["id"]),
                name=normalize(ent["name"]),
                attributes=attributes,
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
        # an index row holds the doc_id between tabs, on one line
        doc_id = rec["doc_id"] = rec["doc_id"].strip()
        if not doc_id or "\t" in doc_id or "\n" in doc_id or "\r" in doc_id:
            raise LoadError(f"document #{k} 'doc_id' is blank or holds a tab or line break",
                            file=path)
        records.append(rec)
    return records


def _locate_owner(domain: Domain, ref: str, record_no: int, path: str) -> Entity | None:
    """Resolve a document's entity reference: id first, then exact name."""
    ent = domain.entity(ref)
    if ent is not None:
        return ent
    by_name = [e for e in domain.entities if e.name == ref]
    if len(by_name) > 1:
        raise LoadError(
            f"document #{record_no}: entity reference '{ref}' is ambiguous in "
            f"domain '{domain.name}' ({len(by_name)} entities share that name)", file=path)
    return by_name[0] if by_name else None


def _fuse(domains: dict[str, Domain], doc_source: str) -> dict[str, Domain]:
    """``domains`` with every document of ``doc_source`` attached to its entity."""
    attached: dict[tuple[str, str], list[Document]] = {}
    orphans = []
    for k, rec in enumerate(_parse_docs(doc_source)):
        dom_name = normalize(rec["domain"])
        ref = normalize(rec["entity_id"])
        domain = domains.get(dom_name)
        owner = _locate_owner(domain, ref, k, doc_source) if domain is not None else None
        if owner is None:
            orphans.append((dom_name, ref))
            continue
        doc = Document(doc_id=rec["doc_id"], title=rec["title"], body=rec["body"])
        attached.setdefault((dom_name, owner.id), []).append(doc)
    if orphans:
        listed = ", ".join(f"({d!r}, {e!r})" for d, e in orphans)
        raise LoadError(f"documents reference unknown entities: {listed}", file=doc_source)

    fused = {}
    for name, domain in domains.items():
        entities = tuple(
            replace(ent, documents=tuple(attached.get((name, ent.id), ())))
            for ent in domain.entities)
        fused[name] = replace(domain, entities=entities)
    return fused


def load_knowledge_base(db_source: str, doc_source: str | None = None) -> KnowledgeBase:
    """Load, fuse and check the structured db and the document base.

    Every document is attached to the entity it declares via
    ``(domain, entity_id)``, falling back to a case-insensitive exact name
    match. Documents referencing unknown entities make the whole load fail,
    listing the orphans. The first violation of the fused KB is refused as
    ``<kind>: <detail>``, naming the doc-base file for the kinds that lie in
    it and the db file for the others.
    """
    domains = _parse_db(db_source)
    kb = KnowledgeBase(domains=domains if doc_source is None else _fuse(domains, doc_source))
    report = validate_knowledge_base(kb)
    if report.violations:
        first = report.violations[0]
        raise LoadError(f"{first.kind}: {first.detail}",
                        file=doc_source if first.kind in _DOC_VIOLATIONS else db_source)
    return kb


def validate_knowledge_base(kb: KnowledgeBase) -> ValidationReport:
    """Report every invariant violation; a valid KB yields an empty report."""
    violations = []
    for name, domain in kb.domains.items():
        seen_ids = set()
        for ent in domain.entities:
            if ent.id in seen_ids:
                violations.append(Violation(
                    "duplicate-id", f"domain '{name}': entity id '{ent.id}'"))
            seen_ids.add(ent.id)
            for slot in ent.attributes:
                if slot not in domain.slot_schema:
                    violations.append(Violation(
                        "schema-foreign",
                        f"domain '{name}': entity '{ent.id}' attribute '{slot}'"))
            if ent.attributes.get("name") not in (None, ent.name):
                violations.append(Violation(
                    "name-mismatch",
                    f"domain '{name}': entity '{ent.id}' name attribute "
                    f"'{ent.attributes['name']}'"))
            seen_docs = set()
            for doc in ent.documents:
                if not doc.body.strip():
                    violations.append(Violation(
                        "empty-body",
                        f"domain '{name}': entity '{ent.id}' document '{doc.doc_id}'"))
                if doc.doc_id in seen_docs:
                    violations.append(Violation(
                        "duplicate-doc-id",
                        f"domain '{name}': entity '{ent.id}' document '{doc.doc_id}'"))
                seen_docs.add(doc.doc_id)
    return ValidationReport(violations=tuple(violations))
