"""Semi-structured knowledge base: data model, ingestion, fusion, validation.

A knowledge base fuses two sources: a structured database of per-domain
entity records, and a document base of free-text documents that each declare
the domain and entity they describe. After loading, its records do not
change and it is safe to share across threads; what it gains later changes
no result: each domain's last structured query, replaced whole by one
assignment, and lookups built on first use, never at load (``cached_property``:
postings, the match table of keys with their LCS packs, each entity's
``{doc_id: body}``).

:func:`load_knowledge_base` refuses the first fault it meets as a load error
naming the file it lies in, raised where the check is made. It reads the db
file in file order, then walks the doc-base file once, checking each record
and attaching it to its entity; documents naming no entity are listed
together after that walk, and the first invariant violation of the fused KB
comes last. A loaded KB therefore has unique entity ids per domain.

File formats (committed toy example under ``data/toy/``):

* db file: JSON object mapping domain name to ``{"slots": [...],
  "entities": [{"id", "name", "bookable", "attributes"}, ...]}``. The slot
  name ``ruk`` is reserved for the belief-state extension. ``bookable``, if
  present, must be a boolean; nothing reads it.
* doc-base file: JSON array of ``{"domain", "entity_id", "doc_id", "title",
  "body"}`` records. ``entity_id`` may also hold an entity name; name lookup
  is case-insensitive and must be unambiguous.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

from .belief import RUK_SLOT
from .errors import DomainNotFoundError, LoadError
from .text import KeyPack, is_one_field, normalize, open_input, pack_keys

_WORD_RE = re.compile(r"\w+")
# A JSON escape of a surrogate code point; a valid pair of them decodes to one code point.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


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
    documents: tuple[Document, ...] = ()

    @cached_property
    def bodies(self) -> dict[str, str]:
        """doc_id -> body of each document."""
        return {doc.doc_id: doc.body for doc in self.documents}


@dataclass(frozen=True)
class Domain:
    name: str
    slot_schema: frozenset[str]
    entities: tuple[Entity, ...]  # file order
    # (constraints, matched ids) of the last knowops.structured_query on this domain
    last_query: tuple = field(default=(None, ()), init=False, compare=False, repr=False)

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
    def match_table(self) -> tuple[dict[str, Entity],
                                   dict[int, tuple[tuple[tuple[int, Entity], ...], KeyPack]]]:
        """The entity-match keys, walked once: each normalized name, then the id where it
        differs, of each entity in ``id_order``. Gives each key -> the first entity that
        has it, and key length -> (position in that walk, entity) of each key that long,
        in walk order, with the :func:`~seknow.text.pack_keys` pack of those keys."""
        first: dict[str, Entity] = {}
        groups: dict[int, list[tuple[int, str, Entity]]] = {}
        keys = ((key, ent) for ent in self.id_order
                for key in dict.fromkeys((normalize(ent.name), normalize(ent.id))))
        for pos, (key, ent) in enumerate(keys):
            first.setdefault(key, ent)
            groups.setdefault(len(key), []).append((pos, key, ent))
        return first, {length: (tuple((pos, ent) for pos, _, ent in group),
                                pack_keys(key for _, key, _ in group))
                       for length, group in groups.items()}


@dataclass(frozen=True)
class KnowledgeBase:
    domains: dict[str, Domain]

    def domain(self, name: str) -> Domain:
        try:
            return self.domains[name]
        except KeyError:
            raise DomainNotFoundError(f"unknown domain {name!r}") from None

    def entity(self, domain: str, entity_id: str) -> Entity | None:
        return self.domain(domain).entity(entity_id)

    @cached_property
    def document_domains(self) -> frozenset[str]:
        """Names of the domains where some entity has documents."""
        return frozenset(name for name, domain in self.domains.items()
                         if any(ent.documents for ent in domain.entities))

    @cached_property
    def _ontology(self) -> tuple[list, dict[str, list[int]]]:
        """Attribute values longest-first (ties by value) with their (domain, slot) pairs,
        and their positions keyed by the value's rarest ``\\w+`` run: the one the fewest
        values hold, the first of them on a tie ("" for a value with no word run)."""
        by_value: dict[str, set[tuple[str, str]]] = {}
        for name, domain in self.domains.items():
            for ent in domain.entities:
                for slot, value in ent.attributes.items():
                    by_value.setdefault(value, set()).add((name, slot))
        values = [(value, tuple(sorted(by_value[value])))
                  for value in sorted(by_value, key=lambda v: (-len(v), v))]
        runs = [_WORD_RE.findall(value) for value, _ in values]
        holders = Counter(word for run in runs for word in set(run))
        index: dict[str, list[int]] = {}
        for pos, run in enumerate(runs):
            index.setdefault(min(run, key=holders.__getitem__, default=""), []).append(pos)
        return values, index

    def ontology_candidates(self, text: str) -> list[tuple[str, tuple[tuple[str, str], ...]]]:
        """Longest-first values that may occur as whole words of ``text``: those whose
        rarest word run is a word of ``text`` and those with no word run. A ``\\b``-bounded
        match makes each word run of the value a whole word of ``text``."""
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


def parse_json(text: str, file: str, line: int | None = None):
    """The JSON value of ``text``, all of ``file`` or its ``line``. Malformed JSON, nesting
    deeper than the interpreter's recursion limit, an integer longer than its digit limit,
    and a string or key holding a lone surrogate escape, which no UTF-8 output can hold,
    are load errors. The value is encoded only when the text holds a surrogate escape."""
    try:
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(value, ensure_ascii=False).encode()
    except json.JSONDecodeError as exc:
        raise LoadError(exc.msg, file=file, line=exc.lineno if line is None else line) from exc
    except UnicodeEncodeError as exc:
        raise LoadError(f"the lone surrogate escape \\u{ord(exc.object[exc.start]):04x} "
                        "is not valid Unicode text", file=file, line=line) from exc
    except RecursionError:
        raise LoadError("JSON nested too deeply", file=file, line=line) from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise LoadError(f"integer too long: {str(exc).partition(';')[0]}",
                        file=file, line=line) from exc
    return value


def read_json(path: str):
    with open_input(path) as fh:
        return parse_json(fh.read(), path)


def _parse_db(path: str) -> dict[str, Domain]:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise LoadError("db file must be a JSON object keyed by domain", file=path)
    domains: dict[str, Domain] = {}
    for dom_name, dom_obj in raw.items():
        name = normalize(dom_name)
        if not name:
            raise LoadError("empty domain name", file=path)
        if name in domains:
            raise LoadError(f"duplicate domain {name!r}", file=path)
        if not isinstance(dom_obj, dict):
            raise LoadError(f"domain {name!r} must be an object", file=path)
        slots = dom_obj.get("slots")
        ents = dom_obj.get("entities")
        if not (isinstance(slots, list) and all(isinstance(s, str) for s in slots)):
            raise LoadError(f"domain {name!r}: 'slots' must be an array of strings", file=path)
        if not isinstance(ents, list):
            raise LoadError(f"domain {name!r}: 'entities' must be an array", file=path)
        schema = frozenset(normalize(s) for s in slots)
        if RUK_SLOT in schema:
            raise LoadError(f"domain {name!r}: slot {RUK_SLOT!r} is reserved for the "
                            "belief-state extension", file=path)
        entities = []
        for k, ent in enumerate(ents):
            if not isinstance(ent, dict):
                raise LoadError(f"domain {name!r}: entity #{k} must be an object", file=path)
            for key in ("id", "name"):
                if not (isinstance(ent.get(key), str) and ent[key].strip()):
                    raise LoadError(f"domain {name!r}: entity #{k} missing {key!r}", file=path)
            attrs = ent.get("attributes", {})
            if not (isinstance(attrs, dict) and all(
                    isinstance(s, str) and isinstance(v, str) for s, v in attrs.items())):
                raise LoadError(f"domain {name!r}: entity {ent['id']!r} attributes must map "
                                "strings to strings", file=path)
            attributes = {}
            for slot, value in attrs.items():
                key, value = normalize(slot), normalize(value)
                if not (key and value):
                    raise LoadError(f"domain {name!r}: entity {ent['id']!r} attribute "
                                    f"{slot!r} is empty", file=path)
                if key in attributes:
                    raise LoadError(f"domain {name!r}: entity {ent['id']!r}: duplicate "
                                    f"attribute {key!r}", file=path)
                attributes[key] = value
            if not isinstance(ent.get("bookable", False), bool):
                raise LoadError(f"domain {name!r}: entity {ent['id']!r} 'bookable' must be a "
                                "boolean", file=path)
            entities.append(Entity(
                id=normalize(ent["id"]),
                name=normalize(ent["name"]),
                attributes=attributes,
            ))
        domains[name] = Domain(name=name, slot_schema=schema, entities=tuple(entities))
    return domains


def _locate_owner(domain: Domain, ref: str, record_no: int, path: str) -> Entity | None:
    """Resolve a document's entity reference: id first, then exact name."""
    ent = domain.entity(ref)
    if ent is not None:
        return ent
    by_name = [e for e in domain.entities if e.name == ref]
    if len(by_name) > 1:
        raise LoadError(
            f"document #{record_no}: entity reference {ref!r} is ambiguous in "
            f"domain {domain.name!r} ({len(by_name)} entities share that name)", file=path)
    return by_name[0] if by_name else None


def _fuse(domains: dict[str, Domain], doc_source: str) -> dict[str, Domain]:
    """``domains`` with every document of ``doc_source`` attached to its entity, each
    record checked, resolved and attached in one walk of the file."""
    raw = read_json(doc_source)
    if not isinstance(raw, list):
        raise LoadError("doc-base file must be a JSON array", file=doc_source)
    attached: dict[tuple[str, str], list[Document]] = {}
    orphans = []
    for k, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise LoadError(f"document #{k} must be an object", file=doc_source)
        for key in ("domain", "entity_id", "doc_id", "title", "body"):
            if not isinstance(rec.get(key), str):
                raise LoadError(f"document #{k} missing {key!r}", file=doc_source)
        # an index row holds the doc_id between tabs, on one line
        doc_id = rec["doc_id"].strip()
        if not is_one_field(doc_id):
            raise LoadError(f"document #{k} 'doc_id' is blank or holds a tab or line break",
                            file=doc_source)
        dom_name, ref = normalize(rec["domain"]), normalize(rec["entity_id"])
        domain = domains.get(dom_name)
        owner = _locate_owner(domain, ref, k, doc_source) if domain is not None else None
        if owner is None:
            orphans.append((dom_name, ref))
            continue
        doc = Document(doc_id=doc_id, title=rec["title"], body=rec["body"])
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
                    "duplicate-id", f"domain {name!r}: entity id {ent.id!r}"))
            seen_ids.add(ent.id)
            for slot in ent.attributes:
                if slot not in domain.slot_schema:
                    violations.append(Violation(
                        "schema-foreign",
                        f"domain {name!r}: entity {ent.id!r} attribute {slot!r}"))
            if ent.attributes.get("name") not in (None, ent.name):
                violations.append(Violation(
                    "name-mismatch",
                    f"domain {name!r}: entity {ent.id!r} name attribute "
                    f"{ent.attributes['name']!r}"))
            seen_docs = set()
            for doc in ent.documents:
                if not doc.body.strip():
                    violations.append(Violation(
                        "empty-body",
                        f"domain {name!r}: entity {ent.id!r} document {doc.doc_id!r}"))
                if doc.doc_id in seen_docs:
                    violations.append(Violation(
                        "duplicate-doc-id",
                        f"domain {name!r}: entity {ent.id!r} document {doc.doc_id!r}"))
                seen_docs.add(doc.doc_id)
    return ValidationReport(violations=tuple(violations))
