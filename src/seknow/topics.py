"""Topic index construction: TF-IDF candidates filtered by cumulative-average score.

Each document gets one to three topic words that serve as its retrieval
index. Per domain, the top three tokens by TF-IDF are taken as candidates,
ties going to the token that occurs first; a candidate survives when its
cumulative average score (the sum of its TF-IDF scores over every document
where it is a candidate, divided by the number of entities in the domain)
clears the domain threshold. Documents whose candidates are all filtered out
keep their single best candidate so every document ends up with at least one
topic word.

TF-IDF here is the unsmoothed textbook form: raw term count times
``ln(N / df)`` with ``N`` the number of documents in the domain and ``df``
the number of those documents containing the token. A document's token
stream is its title and body tokenized as one text, title first; it is
scored once, as its distinct tokens in first-occurrence order with aligned
scores, and one stable sort of their positions by score ranks the candidates.

An index groups its rows by entity on first use, not at load, into one
record per entity: its documents in doc_id order, each with its topic words
normalized and space-joined as its key, and the LCS pack of those keys
(:func:`~seknow.text.pack_keys`). Document retrieval scores an entity's
keys in one pass over that pack.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, repeat
from operator import mul, truediv

from .errors import ConfigError, IndexingError, LoadError, shown_path
from .kb import KnowledgeBase, read_json
from .text import (KeyPack, load_stopwords, normalize, open_input, open_output, pack_keys,
                   stopwords_digest, tokenize)

# Per-domain filter thresholds: restaurant, hotel, taxi, train.
DEFAULT_THRESHOLDS: dict[str, float] = {
    "restaurant": 2.3,
    "hotel": 2.7,
    "taxi": 6.9,
    "train": 7.3,
}

MAX_TOPICS = 3

DocKey = tuple[str, str, str]  # (domain, entity_id, doc_id)
# (doc_id, topic words, the topic words space-joined and normalized)
EntityDoc = tuple[str, tuple[str, ...], str]
_NO_DOCS: tuple[tuple[EntityDoc, ...], KeyPack] = ((), pack_keys(()))


@dataclass(frozen=True)
class TopicWord:
    token: str


@dataclass(frozen=True)
class TopicIndex:
    entries: dict[DocKey, tuple[TopicWord, ...]]
    thresholds: dict[str, float]

    @cached_property
    def _by_entity(self) -> dict[tuple[str, str], tuple[tuple[EntityDoc, ...], KeyPack]]:
        grouped: dict[tuple[str, str], list[EntityDoc]] = {}
        for (domain, entity_id, doc_id), words in sorted(self.entries.items()):
            topics = tuple(tw.token for tw in words)
            grouped.setdefault((domain, entity_id), []).append(
                (doc_id, topics, normalize(" ".join(topics))))
        return {key: (tuple(docs), pack_keys(doc_key for _, _, doc_key in docs))
                for key, docs in grouped.items()}

    def entity_docs(self, domain: str, entity_id: str) -> tuple[tuple[EntityDoc, ...], KeyPack]:
        """One entity's documents, ascending by doc_id, and the :func:`~seknow.text.pack_keys`
        pack of their normalized keys in that order; every entity's are built in one walk of
        the rows, on the index's first use."""
        return self._by_entity.get((domain, entity_id), _NO_DOCS)

    def docs_for_entity(self, domain: str, entity_id: str) -> list[tuple[str, tuple[str, ...]]]:
        """(doc_id, topic words) pairs for one entity, ascending by doc_id."""
        return [(doc_id, topics) for doc_id, topics, _ in self.entity_docs(domain, entity_id)[0]]


def compute_tfidf(doc_tokens: Mapping) -> dict[object, tuple[tuple[str, ...], list[float]]]:
    """Score every token of every document of one domain.

    ``doc_tokens`` maps an opaque document key to its token stream; the
    result maps that key to two aligned sequences: the document's distinct
    tokens in first-occurrence order, and each one's ``tf * ln(N / df)`` with
    raw counts. A token present in every document scores zero.
    """
    counts = [Counter(tokens) for tokens in doc_tokens.values()]
    df = Counter(chain.from_iterable(counts))
    idf = dict(zip(df, map(math.log, map(truediv, repeat(len(counts)), df.values()))))
    return {key: (tuple(tf), list(map(mul, tf.values(), map(idf.__getitem__, tf))))
            for key, tf in zip(doc_tokens, counts)}


def extract_candidates(tokens: Sequence[str],
                       scores: Sequence[float]) -> list[tuple[str, float]]:
    """Top three ``(token, tfidf)`` pairs of one document.

    ``tokens`` and ``scores`` are one document's aligned sequences from
    :func:`compute_tfidf`. Ties break by earlier first occurrence: the stable
    sort ranks positions, which follow that order.
    """
    if not tokens:
        raise IndexingError("document has no usable tokens")
    ranked = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)[:MAX_TOPICS]
    return [(tokens[i], scores[i]) for i in ranked]


def compute_ca_tfidf(candidates: Mapping[object, Sequence[tuple[str, float]]],
                     entity_count: int) -> dict[str, float]:
    """Cumulative average score per candidate token of one domain.

    Sums the TF-IDF score of each occurrence of a token across every
    document's candidate list and divides by the number of entities in the
    domain (not the number of documents).
    """
    if entity_count < 1:
        raise ConfigError("entity_count must be at least 1")
    totals: dict[str, float] = {}
    for words in candidates.values():
        for token, tfidf in words:
            totals[token] = totals.get(token, 0.0) + tfidf
    return {token: total / entity_count for token, total in totals.items()}


def build_topic_index(kb: KnowledgeBase, thresholds: Mapping[str, float],
                      stopwords: frozenset[str] | None = None) -> TopicIndex:
    """Index every document of the knowledge base with 1-3 topic words.

    ``thresholds`` must give every domain that has documents a finite value
    (the CLI starts from :data:`DEFAULT_THRESHOLDS`). ``stopwords``, if given,
    must be the list in effect.
    """
    in_effect = load_stopwords()
    if stopwords is not None and stopwords != in_effect:
        raise ConfigError("stopwords passed to build_topic_index differ from the list "
                          f"in effect (sha256 {stopwords_digest()})")
    entries: dict[DocKey, tuple[TopicWord, ...]] = {}
    topic_word = cache(TopicWord)  # one instance per distinct token
    for dom_name, domain in kb.domains.items():
        doc_tokens = {(ent.id, doc.doc_id): tokenize(f"{doc.title} {doc.body}", in_effect)
                      for ent in domain.entities for doc in ent.documents}
        if not doc_tokens:
            continue
        if dom_name not in thresholds:
            raise ConfigError(f"no topic threshold configured for domain {dom_name!r}")
        threshold = thresholds[dom_name]
        if not abs(threshold) <= sys.float_info.max:  # NaN, the infinities, huge ints
            raise ConfigError(f"topic threshold {threshold} for domain {dom_name!r} "
                              "is not finite")

        scores = compute_tfidf(doc_tokens)
        candidates: dict[tuple[str, str], list[tuple[str, float]]] = {}
        for key, (tokens, tfidf) in scores.items():
            try:
                candidates[key] = extract_candidates(tokens, tfidf)
            except IndexingError as exc:
                raise IndexingError(
                    f"domain {dom_name!r} entity {key[0]!r} document {key[1]!r}: "
                    f"{exc.detail}") from exc
        ca = compute_ca_tfidf(candidates, entity_count=len(domain.entities))

        for (entity_id, doc_id), words in candidates.items():
            kept = [token for token, _ in words if ca[token] >= threshold]
            if not kept:  # keep the best candidate so the doc stays indexed
                kept = [words[0][0]]
            entries[(dom_name, entity_id, doc_id)] = tuple(map(topic_word, kept))

    used = {dom: float(thresholds[dom]) for dom in sorted(
        {key[0] for key in entries})}
    return TopicIndex(entries=entries, thresholds=used)


def write_index(index: TopicIndex, path: str):
    """Write the index file plus its ``<path>.meta.json`` sidecar, which records the
    thresholds and the digest of the stopword list in effect.

    Index lines are ``domain<TAB>entity_id<TAB>doc_id<TAB>topic1[,topic2[,topic3]]``
    sorted lexicographically, so identical indexes are byte-identical files.
    """
    lines = []
    for (domain, entity_id, doc_id), words in sorted(index.entries.items()):
        topics = ",".join(tw.token for tw in words)
        lines.append(f"{domain}\t{entity_id}\t{doc_id}\t{topics}")
    with open_output(path) as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    sidecar = {
        "thresholds": {k: index.thresholds[k] for k in sorted(index.thresholds)},
        "stopwords_sha256": stopwords_digest(),
    }
    with open_output(sidecar_path(path)) as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sidecar_path(index_path: str) -> str:
    return index_path + ".meta.json"


def read_index(path: str, kb: KnowledgeBase | None = None) -> TopicIndex:
    """Load an index file written by :func:`write_index`, with its sidecar.

    Rows keep one string per distinct domain and entity id. A repeated (domain,
    entity, doc) row is refused; given the checked ``kb``, so is a row naming no
    entity of it or no document of that entity. The sidecar must give finite
    ``thresholds`` and the ``stopwords_sha256`` of the list in effect.
    """
    doc_ids = None if kb is None else {
        (name, ent.id): {doc.doc_id for doc in ent.documents}
        for name, dom in kb.domains.items() for ent in dom.entities}
    entries: dict[DocKey, tuple[TopicWord, ...]] = {}
    topic_word = cache(TopicWord)  # one instance per distinct token
    share = {}.setdefault  # one string per distinct domain and entity id
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4 or not parts[3]:
                raise LoadError("expected 'domain\\tentity\\tdoc\\ttopics'",
                                file=path, line=lineno)
            topics = tuple(map(topic_word, parts[3].split(",")))
            if not 1 <= len(topics) <= MAX_TOPICS:
                raise LoadError(f"{len(topics)} topic words (expected 1-{MAX_TOPICS})",
                                file=path, line=lineno)
            if not all(tw.token.strip() for tw in topics):
                raise LoadError("empty topic word", file=path, line=lineno)
            key = (share(parts[0], parts[0]), share(parts[1], parts[1]), parts[2])
            if key in entries:
                raise LoadError(f"duplicate row {key}", file=path, line=lineno)
            if doc_ids is not None:
                ids = doc_ids.get(key[:2])
                if ids is None:
                    raise LoadError(f"row {key} names no entity of the knowledge base",
                                    file=path, line=lineno)
                if key[2] not in ids:
                    raise LoadError(f"row {key} names no document of that entity",
                                    file=path, line=lineno)
            entries[key] = topics
    meta = sidecar_path(path)
    raw = read_json(meta)
    if not isinstance(raw, dict):
        raise LoadError("sidecar must be a JSON object", file=meta)
    thresholds = raw.get("thresholds")
    # the bound refuses NaN, the infinities and ints too large for a float
    if not (isinstance(thresholds, dict)
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                    for v in thresholds.values())):
        raise LoadError("'thresholds' must map domain names to finite numbers", file=meta)
    digest = raw.get("stopwords_sha256")
    if not isinstance(digest, str):
        raise LoadError("'stopwords_sha256' must be a string", file=meta)
    if digest != stopwords_digest():
        raise ConfigError(f"{shown_path(meta)}: index was built with stopwords sha256 {digest!r}, "
                          f"but the list in effect has {stopwords_digest()}")
    return TopicIndex(entries=entries, thresholds={k: float(v) for k, v in thresholds.items()})
