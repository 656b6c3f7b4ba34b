"""Knowledge operations: exact-match query, fuzzy entity match, doc retrieval.

The structured query selects entities whose attributes exactly equal every
belief-state constraint for their domain. When the state carries a ruk
triple and a topic, the ruk value fuzzy-matches entity names/ids within the
ruk domain, and the topic fuzzy-matches the topic index of the chosen
entity's documents; otherwise the retrieved document is none.

Fuzzy similarity is the character-level longest-common-subsequence ratio
``2 * LCS(a, b) / (len(a) + len(b))`` after lowercasing and whitespace
collapsing, giving scores in [0, 1] with 1 exactly on equal strings. The
entity match and the document ranking score one query against many keys:
each makes one bit-parallel pass over the query per packed key set
(:func:`~seknow.text.packed_lcs`), which gives every key's LCS at once.

The steps read lookups built on first use. Each :class:`~seknow.kb.Domain`
holds per-(slot, value) postings, bitmasks over the id order, which the query
ANDs when the domain's constraints differ from its last query's; and one
match table (:attr:`~seknow.kb.Domain.match_table`) of its pre-normalized
names and ids: a map from each key to the first entity having it, and the
keys grouped by length, each group packed. The entity match takes a query
equal to a key from that map, since only equal strings score 1.0; otherwise
it makes one pass per key length, by non-increasing bound
``2 * min(len) / (len + len)``, until a bound cannot reach the best score
(Ukkonen 1992's length filter). The document ranking reads the entity's one
index record (:meth:`~seknow.topics.TopicIndex.entity_docs`): its documents
with their normalized space-joined topic words, and the pack of those, over
which it makes one pass; and the entity's ``{doc_id: body}`` map
(:attr:`~seknow.kb.Entity.bodies`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .belief import ExtendedBeliefState
from .errors import QueryError
from .kb import Entity, KnowledgeBase
from .text import normalize, pack_keys, packed_lcs
from .topics import TopicIndex

# Fuzzy scores below this floor are treated as no match at all.
MATCH_FLOOR = 0.6


# Constrained domain -> ids of its matched entities, ascending; domains in first-mention order.
EntityMatches = dict[str, tuple[str, ...]]


@dataclass(frozen=True, slots=True)
class RetrievedDocument:
    domain: str
    entity_id: str
    doc_id: str
    body: str
    score: float

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.domain, self.entity_id, self.doc_id)


def structured_query(kb: KnowledgeBase, state: ExtendedBeliefState) -> EntityMatches:
    """Match every constrained domain's entities against the belief state.

    Domains without constraints are omitted; matched entities are ordered
    ascending by id. A constraint on a slot outside the domain schema is a
    query error. Each domain remembers its last constraints and their ids,
    so a domain whose constraints did not change since its last query (the
    usual next turn of a dialog) skips :meth:`~seknow.kb.Domain.matching`.
    """
    result: EntityMatches = {}
    for dom_name, constraints in state.constraints().items():
        domain = kb.domain(dom_name)
        for slot in constraints:
            if slot not in domain.slot_schema:
                raise QueryError(f"slot {slot!r} is not in the schema of domain {dom_name!r}")
        last = domain.last_query
        if last[0] != constraints:
            last = (constraints, tuple(e.id for e in domain.matching(constraints)))
            # one assignment: a thread sharing the KB sees the old pair or the new one
            object.__setattr__(domain, "last_query", last)
        result[dom_name] = last[1]
    return result


def format_query_span(result: EntityMatches) -> str:
    """Render match counts as a text span, e.g. ``restaurant 2 match``."""
    parts = []
    for domain, ids in result.items():
        if ids:
            parts.append(f"{domain} {len(ids)} match")
        else:
            parts.append(f"{domain} no match")
    return " , ".join(parts)


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Longest-common-subsequence length of two strings or token sequences: the
    one-key case of :func:`~seknow.text.packed_lcs`."""
    return packed_lcs(pack_keys((a,)), b)[0]


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
    order that has it (from ``Domain.match_table``) without a scan. Otherwise
    key lengths ``L`` are scanned, one packed pass each, by non-increasing
    bound ``2 * min(n, L) / (n + L)`` until one is below the best score; an
    equal bound can only tie, so its length is scanned only when it has a key
    before the best one in the table's walk. A length's best key is its first
    of greatest LCS.
    """
    query = normalize(ruk_value)
    first_by_key, by_length = kb.domain(domain).match_table
    exact = first_by_key.get(query)
    if exact is not None:
        return exact
    n = len(query)
    best: Entity | None = None
    best_score, best_pos = -1.0, 0
    for bound, total, entries, pack in sorted(
            ((_ratio(min(n, length), n + length), n + length, *bucket)
             for length, bucket in by_length.items()),
            key=itemgetter(0), reverse=True):
        if bound < best_score:
            break
        if bound == best_score and entries[0][0] > best_pos:
            continue
        common = packed_lcs(pack, query)
        top = max(common)
        pos, ent = entries[common.index(top)]
        score = _ratio(top, total)
        if score > best_score or score == best_score and pos < best_pos:
            best, best_score, best_pos = ent, score, pos
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
    with a topic, and so is an index row naming no document of the entity.
    """
    if not topic:
        raise QueryError("document retrieval needs a nonempty topic")
    query = normalize(" ".join(topic))
    n = len(query)
    bodies = entity.bodies
    docs, pack = index.entity_docs(domain, entity.id)
    scored = []
    for (doc_id, _, key), common in zip(docs, packed_lcs(pack, query)):
        if doc_id not in bodies:
            raise QueryError(f"index row {(domain, entity.id, doc_id)} names no "
                             f"document of entity {entity.id!r}")
        scored.append(RetrievedDocument(domain, entity.id, doc_id, bodies[doc_id],
                                        _ratio(common, n + len(key))))
    scored.sort(key=attrgetter("score"), reverse=True)  # stable: entity_docs is in doc_id order
    return scored


def knowledge_operation(kb: KnowledgeBase, index: TopicIndex, state: ExtendedBeliefState,
                        ) -> tuple[EntityMatches, RetrievedDocument | None,
                                   tuple[RetrievedDocument, ...]]:
    """Structured query plus document retrieval for one belief state.

    Returns the query result, the retrieved document and the full document
    ranking. The query always runs here; a domain that a predictor already
    queried with the same constraints answers from its query memo. The
    document is none unless the state has both a ruk triple and a topic, an
    entity clears :data:`MATCH_FLOOR`, and the best-ranked document's score
    clears it as well.
    """
    result = structured_query(kb, state)
    ruk = state.ruk()
    if ruk is None or not state.topic:
        return result, None, ()
    domain, name = ruk
    entity = match_entity(kb, domain, name)
    if entity is None:
        return result, None, ()
    ranking = tuple(retrieve_document(index, domain, entity, state.topic))
    if not ranking or ranking[0].score < MATCH_FLOOR:
        return result, None, ranking
    return result, ranking[0], ranking
