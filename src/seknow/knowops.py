"""Knowledge operations: exact-match query, fuzzy entity match, doc retrieval.

The structured query selects entities whose attributes exactly equal every
belief-state constraint for their domain. When the state carries a ruk
triple and a topic, the ruk value fuzzy-matches entity names/ids within the
ruk domain, and the topic fuzzy-matches the topic index of the chosen
entity's documents; otherwise the retrieved document is none.

Fuzzy similarity is the character-level longest-common-subsequence ratio
``2 * LCS(a, b) / (len(a) + len(b))`` after lowercasing and whitespace
collapsing, giving scores in [0, 1] with 1 exactly on equal strings.
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

_BUCKETS = ("0", "1", "2", "3", "4+")


@dataclass(frozen=True)
class DomainMatches:
    count: int
    entity_ids: tuple[str, ...]
    bookable_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class QueryResult:
    per_domain: dict[str, DomainMatches] = field(default_factory=dict)
    booking_available: bool = False


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


@dataclass(frozen=True)
class QueryVector:
    """Match-count bucket plus booking flag for the active domain."""

    bucket: str  # one of "0", "1", "2", "3", "4+"
    booking: bool

    def as_vector(self) -> tuple[int, ...]:
        """Fixed 6-position 0/1 encoding: five count buckets, one booking bit."""
        return tuple(int(self.bucket == b) for b in _BUCKETS) + (int(self.booking),)


def entity_matches(entity: Entity, constraints: dict[str, str]) -> bool:
    """Exact attribute equality on every constraint; missing attribute fails."""
    return all(entity.attributes.get(slot) == value for slot, value in constraints.items())


def structured_query(kb: KnowledgeBase, state: ExtendedBeliefState) -> QueryResult:
    """Match every constrained domain's entities against the belief state.

    Domains without constraints are omitted; matched entities are ordered
    ascending by id. A constraint on a slot outside the domain schema is a
    query error.
    """
    per_domain: dict[str, DomainMatches] = {}
    booking = False
    for dom_name, constraints in state.constraints().items():
        domain = kb.domain(dom_name)
        for slot in constraints:
            if slot not in domain.slot_schema:
                raise QueryError(f"slot '{slot}' is not in the schema of domain '{dom_name}'")
        matched = [e for e in domain.id_order if entity_matches(e, constraints)]
        ids = tuple(e.id for e in matched)
        bookable = tuple(e.id for e in matched if e.bookable)
        booking = booking or bool(bookable)
        per_domain[dom_name] = DomainMatches(count=len(ids), entity_ids=ids,
                                             bookable_ids=bookable)
    return QueryResult(per_domain=per_domain, booking_available=booking)


def format_query_span(result: QueryResult) -> str:
    """Render match counts as a text span, e.g. ``restaurant 2 match``."""
    parts = []
    for domain, matches in result.per_domain.items():
        if matches.count > 0:
            parts.append(f"{domain} {matches.count} match")
        else:
            parts.append(f"{domain} no match")
    return " , ".join(parts)


def map_query_vector(result: QueryResult, active_domain: str) -> QueryVector:
    """Bucket the active domain's match count and derive the booking flag."""
    matches = result.per_domain.get(active_domain)
    count = matches.count if matches else 0
    bucket = _BUCKETS[count] if count < 4 else "4+"
    booking = bool(matches and matches.bookable_ids)
    return QueryVector(bucket=bucket, booking=booking)


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Longest-common-subsequence length of two strings or token sequences."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def fuzzy_similarity(a: str, b: str) -> float:
    """LCS ratio of the normalized strings; empty vs nonempty scores 0."""
    a, b = normalize(a), normalize(b)
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 2.0 * lcs_length(a, b) / (len(a) + len(b))


def match_entity(kb: KnowledgeBase, domain: str, ruk_value: str,
                 floor: float = MATCH_FLOOR) -> Entity | None:
    """Best fuzzy match of ``ruk_value`` against entity names and ids.

    Only the single best-matched entity is selected; ties break by ascending
    id, and a best score below ``floor`` returns None.
    """
    best: Entity | None = None
    best_score = -1.0
    for ent in kb.domain(domain).id_order:
        score = max(fuzzy_similarity(ruk_value, ent.name),
                    fuzzy_similarity(ruk_value, ent.id))
        if score > best_score:
            best, best_score = ent, score
    if best is None or best_score < floor:
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
    query = " ".join(topic)
    bodies = {doc.doc_id: doc.body for doc in entity.documents}
    scored = []
    for doc_id, doc_topics in index.docs_for_entity(domain, entity.id):
        if bodies and doc_id not in bodies:
            raise QueryError(f"index row ({domain}, {entity.id}, {doc_id}) names no "
                             f"document of entity '{entity.id}'")
        score = fuzzy_similarity(query, " ".join(doc_topics))
        scored.append(RetrievedDocument(domain=domain, entity_id=entity.id,
                                        doc_id=doc_id, body=bodies.get(doc_id, ""),
                                        score=score))
    scored.sort(key=lambda d: (-d.score, d.doc_id))
    return scored


def knowledge_operation(kb: KnowledgeBase, index: TopicIndex,
                        state: ExtendedBeliefState,
                        ) -> tuple[QueryResult, RetrievedDocument | None,
                                   tuple[RetrievedDocument, ...]]:
    """Structured query plus document retrieval for one belief state.

    Returns the query result, the retrieved document and the full document
    ranking. The document is none unless the state has both a ruk triple and
    a topic, an entity clears :data:`MATCH_FLOOR`, and the best-ranked
    document's score clears it as well.
    """
    result = structured_query(kb, state)
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
