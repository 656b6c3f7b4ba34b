"""End-to-end turn processing with pluggable predictors and a template generator.

Per turn: predict the extended belief state from the dialog history, run the
knowledge operation, render a delexicalized response from the committed
template set, then lexicalize it against the entity it offers. Belief
prediction is an injected callable so that learned models can replace the
built-in oracle and heuristic without touching any knowledge logic.

This module also hosts the consistency-corruption procedure used to build
labeled (consistent vs corrupted) training samples.
"""

from __future__ import annotations

import random
import re
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cache
from importlib import resources

from .belief import (
    ExtendedBeliefState,
    canonical_state,
    extend_state,
    make_state,
    parse_belief_span,
    serialize_belief,
)
from .errors import CorruptionError, LoadError, OracleError, TemplateError
from .kb import KnowledgeBase
from .knowops import (
    EntityMatches,
    RetrievedDocument,
    knowledge_operation,
    structured_query,
)
from .text import load_stopwords, normalize, open_input, tokenize
from .topics import TopicIndex

History = tuple[tuple[str, str], ...]  # the (speaker, text) turns, ending with the user's
# (history, previous belief) -> belief; the knowledge operation runs on the belief alone
Predictor = Callable[[History, ExtendedBeliefState], ExtendedBeliefState]
Generator = Callable[[ExtendedBeliefState, EntityMatches, RetrievedDocument | None], str]

_PLACEHOLDER_RE = re.compile(r"\[([a-z][a-z0-9_ ]*)\]")
_EDGE_RE = re.compile(r"\b")  # .match(text, pos) tests a word boundary at pos


@dataclass(frozen=True)
class TurnOutput:
    belief: ExtendedBeliefState
    query: EntityMatches
    document: RetrievedDocument | None
    delexicalized_response: str
    lexicalized_response: str
    ranking: tuple[RetrievedDocument, ...] = ()


@dataclass
class Session:
    """Single-owner dialog state accumulator across turns."""

    utterances: list[tuple[str, str]] = field(default_factory=list)
    prev_belief: ExtendedBeliefState = ExtendedBeliefState()
    turn_index: int = 0


def active_domain(state: ExtendedBeliefState) -> str | None:
    """The ruk triple's domain when present, else the last-mentioned domain."""
    ruk = state.ruk()
    if ruk is not None:
        return ruk[0]
    domains = state.domains()
    return domains[-1] if domains else None


# The template set read when no file is named.
PACKAGED_TEMPLATES = str(resources.files("seknow.data").joinpath("templates.tsv"))


@cache
def _packaged_templates() -> dict[tuple[str, str], str]:
    """Entries of the packaged ``templates.tsv``, read once per process."""
    return _read_templates(PACKAGED_TEMPLATES)


def _read_templates(path: str) -> dict[tuple[str, str], str]:
    with open_input(path) as fh:
        text = fh.read()
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise LoadError("template row is not 3 tab-separated fields",
                            file=path, line=lineno)
        if (parts[0], parts[1]) in entries:
            raise LoadError(f"duplicate {parts[1]!r} template for domain {parts[0]!r}",
                            file=path, line=lineno)
        if not parts[2].strip():
            raise LoadError("empty template text", file=path, line=lineno)
        entries[(parts[0], parts[1])] = parts[2]
    return entries


def load_templates(path: str | None = None, kb: KnowledgeBase | None = None,
                   ) -> dict[tuple[str, str], str]:
    """``(domain, condition) -> text`` of each ``domain<TAB>condition<TAB>text`` row.

    A ``path`` is read on every call; the packaged set, read when none is
    named, is read once per process, and every caller shares its dict (not
    to be mutated). A row with blank text or a repeated (domain, condition)
    is refused; given the checked ``kb``, so is a set lacking a row some
    turn over it may need: general/nomatch, each domain's offer and nomatch,
    and doc where the domain has documents.
    """
    if path is None:
        path, entries = PACKAGED_TEMPLATES, _packaged_templates()
    else:
        entries = _read_templates(path)
    if kb is not None:
        needed = [("general", "nomatch")]
        for name in kb.domains:
            needed += [(name, "offer"), (name, "nomatch")]
            needed += [(name, "doc")] if name in kb.document_domains else []
        for domain, condition in needed:
            if (domain, condition) not in entries:
                raise LoadError(f"no {condition!r} template for domain {domain!r}", file=path)
    return entries


def _template(templates: dict[tuple[str, str], str], domain: str, condition: str) -> str:
    try:
        return templates[(domain, condition)]
    except KeyError:
        raise TemplateError(f"no {condition!r} template for domain {domain!r}") from None


def template_generate(belief: ExtendedBeliefState, query: EntityMatches,
                      document: RetrievedDocument | None,
                      templates: dict[tuple[str, str], str]) -> str:
    """Pick and fill the delexicalized response template for this turn.

    A retrieved document wins and embeds its body; otherwise a positive
    match count selects the offer template and zero matches the apology.
    """
    if document is not None:
        return _template(templates, document.domain, "doc").replace("{body}", document.body)
    domain = active_domain(belief)
    if domain is None:
        return _template(templates, "general", "nomatch")
    ids = query.get(domain)
    if ids:
        return _template(templates, domain, "offer").replace("{count}", str(len(ids)))
    return _template(templates, domain, "nomatch")


def make_template_generator(templates: dict[tuple[str, str], str] | None = None,
                            ) -> Generator:
    if templates is None:
        templates = load_templates()
    return lambda belief, query, document: template_generate(
        belief, query, document, templates)


def lexicalize(delex: str, belief: ExtendedBeliefState, query: EntityMatches,
               kb: KnowledgeBase) -> str:
    """Fill ``[slot]`` placeholders from the active domain's first matched entity.

    That is the domain whose match count the offer template states. A
    placeholder that cannot be resolved stays verbatim.
    """
    domain = active_domain(belief)
    ids = query.get(domain)
    entity = kb.entity(domain, ids[0]) if ids else None

    def fill(match: re.Match) -> str:
        slot = match.group(1)
        if entity is not None:
            if slot == "name":
                return entity.name
            if slot in entity.attributes:
                return entity.attributes[slot]
        return match.group(0)

    return _PLACEHOLDER_RE.sub(fill, delex)


def run_turn(session: Session, user_utterance: str, predictor: Predictor,
             generator: Generator, kb: KnowledgeBase, index: TopicIndex) -> TurnOutput:
    """Process one dialog turn and advance the session.

    Gold annotations are only reachable through the predictor; the knowledge
    operation and the generator see nothing but the belief state it returns.
    """
    session.utterances.append(("user", user_utterance))
    belief = predictor(tuple(session.utterances), session.prev_belief)
    query, document, ranking = knowledge_operation(kb, index, belief)
    delex = generator(belief, query, document)
    text = lexicalize(delex, belief, query, kb)
    session.utterances.append(("system", text))
    session.prev_belief = belief
    session.turn_index += 1
    return TurnOutput(
        belief=belief,
        query=query,
        document=document,
        delexicalized_response=delex,
        lexicalized_response=text,
        ranking=ranking,
    )


def make_oracle_predictor(golds: Sequence[ExtendedBeliefState]) -> Predictor:
    """Predictor that replays per-turn gold states verbatim; a turn beyond the
    last state is an error."""
    cursor = iter(list(golds))

    def predict(history: History, prev: ExtendedBeliefState) -> ExtendedBeliefState:
        try:
            gold = next(cursor)
        except StopIteration:
            raise OracleError("more turns than gold annotations") from None
        return gold

    return predict


def make_heuristic_predictor(kb: KnowledgeBase, index: TopicIndex) -> Predictor:
    """Deterministic keyword predictor standing in for a learned tracker.

    Constraints: every ontology value appearing verbatim (whole words) in the
    latest user utterance is added for each (domain, slot) that carries it,
    longest match first so short values cannot claim text inside longer ones.
    Only values whose rarest word run is a word of the utterance, or that have
    no word run, are tested: the KB's rarest-run index
    (:meth:`~seknow.kb.KnowledgeBase.ontology_candidates`) finds them, and each
    is found with ``str.find`` and a ``\\b`` test at both edges.
    Extension: the single best-matching entity of the current structured
    query is checked for documents whose index topics share a token with the
    utterance; the first overlap sets the ruk triple and the shared topic
    words. The extension changes no constraint, so the turn's knowledge
    operation finds this query in each domain's query memo.

    Every field is canonical already (``prev``, the KB's and the index's
    words), so states are built without normalizing again.
    """
    stopwords = load_stopwords()

    def predict(history: History, prev: ExtendedBeliefState) -> ExtendedBeliefState:
        utterance = normalize(history[-1][1])
        claimed: list[tuple[int, int]] = []
        latest = {(domain, slot): value for domain, slot, value in prev.triples}
        for value, pairs in kb.ontology_candidates(utterance):
            span = _find_unclaimed(utterance, value, claimed)
            if span is None:
                continue
            claimed.append(span)
            for pair in pairs:
                latest[pair] = value
        state = canonical_state(latest, prev.topic)

        hit = _topic_overlap(index, structured_query(kb, state),
                             set(tokenize(utterance, stopwords)))
        if hit is None:
            return state
        # from state, not latest: a ruk-only domain of prev would reorder latest's domains
        return extend_state(state, *hit)

    return predict


def _find_unclaimed(utterance: str, value: str,
                    claimed: list[tuple[int, int]]) -> tuple[int, int] | None:
    """The first occurrence of ``value`` with a ``\\b`` at both edges that overlaps no
    claimed span, as ``re.finditer`` finds them: after such an occurrence the search
    resumes at its end (the next index if it is empty), after any other at the next index."""
    start = utterance.find(value)
    while start >= 0:
        end, resume = start + len(value), start + 1
        if _EDGE_RE.match(utterance, start) and _EDGE_RE.match(utterance, end):
            if all(end <= lo or start >= hi for lo, hi in claimed):
                return start, end
            resume = max(end, resume)
        start = utterance.find(value, resume)
    return None


def _topic_overlap(index: TopicIndex, query: EntityMatches, tokens: set[str],
                   ) -> tuple[str, str, tuple[str, ...]] | None:
    if not tokens:
        return None
    for domain, ids in query.items():
        for entity_id in ids:
            docs, _ = index.entity_docs(domain, entity_id)
            if not docs:
                continue
            # only the best-matching entity (first with documents) is checked
            for _, doc_topics, _ in docs:
                shared = tuple(t for t in doc_topics if t in tokens)
                if shared:
                    return domain, entity_id, shared
            return None
    return None


@dataclass(frozen=True)
class CorruptionSample:
    """One labeled consistency-detection sample."""

    context: History
    belief_span: str
    query_span: str
    document: str | None
    response: str
    y_c: int = 1
    corruption_type: str = "none"  # none | replace_state | replace_values | replace_response


def corrupt_samples(samples: Sequence[CorruptionSample], seed: int,
                    ontology: Mapping[tuple[str, str], Sequence[str]],
                    ) -> list[CorruptionSample]:
    """Label-corrupt exactly half of the samples, three types equally likely.

    A seeded shuffle picks ``n // 2`` samples; each gets one of: its belief
    span wholly replaced by another sample's, each slot value that has an
    alternative replaced by a different ontology value (topic kept intact),
    or its response replaced by another sample's. A donor is drawn again
    until its field differs, so no corrupted sample equals its original;
    that kind is refused only when every sample has the same one. The same
    seed reproduces the output byte for byte.
    """
    n = len(samples)
    if n < 2:
        raise CorruptionError("corruption needs at least 2 samples")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    chosen = set(order[: n // 2])
    distinct = {name: len({getattr(s, name) for s in samples})
                for name in ("belief_span", "response")}

    out: list[CorruptionSample] = []
    for i, sample in enumerate(samples):
        if i not in chosen:
            out.append(replace(sample, y_c=1, corruption_type="none"))
            continue
        kind = ("replace_state", "replace_values", "replace_response")[rng.randrange(3)]
        name = "response" if kind == "replace_response" else "belief_span"
        if kind == "replace_values":
            value = _swap_values(sample.belief_span, ontology, rng)
        elif distinct[name] < 2:
            raise CorruptionError(f"{kind} needs a sample whose {name} differs, "
                                  f"but every sample has the same {name}")
        else:
            value = getattr(sample, name)
            while value == getattr(sample, name):
                value = getattr(samples[_other_index(rng, n, i)], name)
        out.append(replace(sample, **{name: value}, y_c=0, corruption_type=kind))
    return out


def _other_index(rng: random.Random, n: int, i: int) -> int:
    j = rng.randrange(n - 1)
    return j if j < i else j + 1


def _swap_values(span: str, ontology: Mapping[tuple[str, str], Sequence[str]],
                 rng: random.Random) -> str:
    state = parse_belief_span(span)
    if not state.triples:
        raise CorruptionError("cannot value-corrupt a sample with an empty belief span")
    swapped = []
    for domain, slot, value in state.triples:
        alternatives = [v for v in ontology.get((domain, slot), ()) if v != value]
        if alternatives:
            value = alternatives[rng.randrange(len(alternatives))]
        swapped.append((domain, slot, value))
    if swapped == list(state.triples):
        raise CorruptionError(f"no slot of belief span {span!r} has an alternative value")
    return serialize_belief(make_state(swapped, state.topic))
