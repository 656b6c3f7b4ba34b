"""Knowledge operations: exact-match query, fuzzy entity match, doc retrieval.

The structured query selects entities whose attributes exactly equal every
belief-state constraint for their domain. When the state carries a ruk
triple and a topic, the ruk value fuzzy-matches entity names/ids within the
ruk domain, and the topic fuzzy-matches the topic index of the chosen
entity's documents; otherwise the retrieved document is none.

Fuzzy similarity is the character-level longest-common-subsequence ratio
``2 * LCS(a, b) / (len(a) + len(b))`` after lowercasing and whitespace
collapsing, giving scores in [0, 1] with 1 exactly on equal strings. The
entity match and the document ranking score one query against many keys, so
each builds the query's LCS bit masks once per call.

The steps read lookups built on first use. Each :class:`~seknow.kb.Domain`
holds per-(slot, value) postings, bitmasks over the id order, which the query
ANDs; and its pre-normalized names and ids, with a map from each to the first
entity having it. The entity match takes a query equal to a key from that
map, since only equal strings score 1.0; otherwise it scans the keys and
skips one whose length bound ``2 * min(len) / (len + len)`` cannot beat the
best score so far. The document ranking reads each entity's normalized
space-joined topic words from :meth:`~seknow.topics.TopicIndex.entity_docs`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .belief import ExtendedBeliefState
from .errors import QueryError
from .kb import Entity, KnowledgeBase
from .text import normalize
from .topics import TopicIndex

# Fuzzy scores below this floor are treated as no match at all.
MATCH_FLOOR = 0.6


@dataclass(frozen=True)
class DomainMatches:
    entity_ids: tuple[str, ...]


@dataclass(frozen=True)
class QueryResult:
    per_domain: dict[str, DomainMatches] = field(default_factory=dict)


@dataclass(frozen=True)
class RetrievedDocument:
    domain: str
    entity_id: str
    doc_id: str
    body: str
    score: float

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.domain, self.entity_id, self.doc_id)


def structured_query(kb: KnowledgeBase, state: ExtendedBeliefState) -> QueryResult:
    """Match every constrained domain's entities against the belief state.

    Domains without constraints are omitted; matched entities are ordered
    ascending by id. A constraint on a slot outside the domain schema is a
    query error.
    """
    per_domain: dict[str, DomainMatches] = {}
    for dom_name, constraints in state.constraints().items():
        domain = kb.domain(dom_name)
        for slot in constraints:
            if slot not in domain.slot_schema:
                raise QueryError(f"slot '{slot}' is not in the schema of domain '{dom_name}'")
        ids = tuple(e.id for e in domain.matching(constraints))
        per_domain[dom_name] = DomainMatches(entity_ids=ids)
    return QueryResult(per_domain=per_domain)


def format_query_span(result: QueryResult) -> str:
    """Render match counts as a text span, e.g. ``restaurant 2 match``."""
    parts = []
    for domain, matches in result.per_domain.items():
        if matches.entity_ids:
            parts.append(f"{domain} {len(matches.entity_ids)} match")
        else:
            parts.append(f"{domain} no match")
    return " , ".join(parts)


def _lcs_masks(a: Sequence) -> dict:
    """Bit ``i`` of ``masks[x]`` is set where ``a[i] == x``."""
    masks: dict = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | 1 << i
    return masks


def _lcs_scan(masks: dict, n: int, b: Sequence) -> int:
    """LCS length of ``b`` and the length-``n`` sequence whose :func:`_lcs_masks` is ``masks``."""
    full = v = (1 << n) - 1
    for y in b:
        if y in masks:
            u = v & masks[y]
            v = ((v + u) | (v - u)) & full
    return n - v.bit_count()


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Longest-common-subsequence length of two strings or token sequences.

    Bit-vector LCS (Allison & Dix 1986; Crochemore, Iliopoulos, Pinzon & Reid
    2001): one pass over ``b`` updates the row vector ``v`` from the
    per-symbol masks of ``a``, and its cleared bits count the LCS. Python
    ints are unbounded, so no 64-symbol blocking is needed.
    """
    return _lcs_scan(_lcs_masks(a), len(a), b)


def _ratio(common: int, total: int) -> float:
    """``2 * common / total``; two empty strings (total 0) are equal and score 1."""
    return 2.0 * common / total if total else 1.0


def fuzzy_similarity(a: str, b: str) -> float:
    """LCS ratio of the normalized strings; empty vs nonempty scores 0."""
    a, b = normalize(a), normalize(b)
    return _ratio(lcs_length(a, b), len(a) + len(b))


def match_entity(kb: KnowledgeBase, domain: str, ruk_value: str) -> Entity | None:
    """Best fuzzy match of ``ruk_value`` against entity names and ids.

    Only the single best-matched entity is selected; ties break by ascending
    id, and a best score below :data:`MATCH_FLOOR` returns None. Only equal strings
    score 1.0, so a query equal to some key takes the first entity in id
    order that has it (``Domain.first_by_key``) without a scan. Otherwise a
    key is skipped when its length bound ``2 * min / (len + len)``, which no
    LCS ratio exceeds, cannot beat the best score so far.
    """
    query = normalize(ruk_value)
    dom = kb.domain(domain)
    exact = dom.first_by_key.get(query)
    if exact is not None:
        return exact
    n, masks = len(query), _lcs_masks(query)
    best: Entity | None = None
    best_score = -1.0
    for key, ent in dom.match_keys:
        total = n + len(key)
        if _ratio(min(n, len(key)), total) <= best_score:
            continue
        score = _ratio(_lcs_scan(masks, n, key), total)
        if score > best_score:
            best, best_score = ent, score
    if best is None or best_score < MATCH_FLOOR:
        return None
    return best


def retrieve_document(index: TopicIndex, domain: str, entity: Entity,
                      topic: Sequence[str]) -> list[RetrievedDocument]:
    """Rank the entity's indexed documents against the topic words.

    Scores are the fuzzy similarity between the space-joined topic words and
    each document's space-joined index topics; descending score, ties by
    ascending doc_id. An entity with no indexed documents yields an empty
    list; an empty topic is a query error since retrieval is only meaningful
    with a topic. When the entity has documents, an index row naming none of
    them is a query error; without documents every body is empty.
    """
    if not topic:
        raise QueryError("document retrieval needs a nonempty topic")
    query = normalize(" ".join(topic))
    n, masks = len(query), _lcs_masks(query)
    bodies = {doc.doc_id: doc.body for doc in entity.documents}
    scored = []
    for doc_id, _, key in index.entity_docs(domain, entity.id):
        if bodies and doc_id not in bodies:
            raise QueryError(f"index row ({domain}, {entity.id}, {doc_id}) names no "
                             f"document of entity '{entity.id}'")
        score = _ratio(_lcs_scan(masks, n, key), n + len(key))
        scored.append(RetrievedDocument(domain=domain, entity_id=entity.id,
                                        doc_id=doc_id, body=bodies.get(doc_id, ""),
                                        score=score))
    scored.sort(key=lambda d: (-d.score, d.doc_id))
    return scored


def knowledge_operation(kb: KnowledgeBase, index: TopicIndex,
                        state: ExtendedBeliefState, query: QueryResult | None = None,
                        ) -> tuple[QueryResult, RetrievedDocument | None,
                                   tuple[RetrievedDocument, ...]]:
    """Structured query plus document retrieval for one belief state.

    Returns the query result, the retrieved document and the full document
    ranking. ``query``, when given, must be ``structured_query(kb, state)``
    and is used as is; otherwise the query runs here. The document is none
    unless the state has both a ruk triple and a topic, an entity clears
    :data:`MATCH_FLOOR`, and the best-ranked document's score clears it as
    well.
    """
    result = structured_query(kb, state) if query is None else query
    ruk = state.ruk_triple()
    if ruk is None or not state.topic:
        return result, None, ()
    entity = match_entity(kb, ruk.domain, ruk.value)
    if entity is None:
        return result, None, ()
    ranking = tuple(retrieve_document(index, ruk.domain, entity, state.topic))
    if not ranking or ranking[0].score < MATCH_FLOOR:
        return result, None, ranking
    return result, ranking[0], ranking
