"""End-to-end turn processing with pluggable predictors and a template generator.

Per turn: predict the extended belief state from the dialog context, run the
knowledge operation, render a delexicalized response from the committed
template set, then lexicalize it against the first matched entity. Belief
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
from importlib import resources

from .belief import (
    EMPTY_STATE,
    RUK_SLOT,
    DialogContext,
    DsvTriple,
    ExtendedBeliefState,
    canonical_state,
    make_state,
    parse_belief_span,
    serialize_belief,
)
from .errors import CorruptionError, LoadError, OracleError, PipelineError, TemplateError
from .kb import KnowledgeBase
from .knowops import (
    QueryResult,
    RetrievedDocument,
    knowledge_operation,
    structured_query,
)
from .text import load_stopwords, normalize, open_input, tokenize
from .topics import TopicIndex

# (context, previous belief) -> (belief, its structured query or None to have it run)
Predictor = Callable[[DialogContext, ExtendedBeliefState],
                     tuple[ExtendedBeliefState, QueryResult | None]]
Generator = Callable[[ExtendedBeliefState, QueryResult, RetrievedDocument | None], str]

_PLACEHOLDER_RE = re.compile(r"\[([a-z][a-z0-9_ ]*)\]")


@dataclass(frozen=True)
class TurnOutput:
    belief: ExtendedBeliefState
    query: QueryResult
    document: RetrievedDocument | None
    delexicalized_response: str
    lexicalized_response: str
    unresolved_placeholders: tuple[str, ...] = ()
    ranking: tuple[RetrievedDocument, ...] = ()


@dataclass
class Session:
    """Single-owner dialog state accumulator across turns."""

    utterances: list[tuple[str, str]] = field(default_factory=list)
    prev_belief: ExtendedBeliefState = EMPTY_STATE
    turn_index: int = 0

    def context(self) -> DialogContext:
        return DialogContext(utterances=tuple(self.utterances))


def active_domain(state: ExtendedBeliefState) -> str | None:
    """The ruk triple's domain when present, else the last-mentioned domain."""
    ruk = state.ruk_triple()
    if ruk is not None:
        return ruk.domain
    domains = state.domains()
    return domains[-1] if domains else None


@dataclass(frozen=True)
class TemplateSet:
    entries: dict[tuple[str, str], str]

    def get(self, domain: str, condition: str) -> str:
        try:
            return self.entries[(domain, condition)]
        except KeyError:
            raise TemplateError(
                f"no '{condition}' template for domain '{domain}'") from None


def _packaged_templates() -> str:
    return str(resources.files("seknow.data").joinpath("templates.tsv"))


def load_templates(path: str | None = None, kb: KnowledgeBase | None = None) -> TemplateSet:
    """Load ``domain<TAB>condition<TAB>text`` rows (defaults to the packaged set).

    A repeated (domain, condition) row is refused; given the checked ``kb``, so is
    a set lacking a row some turn over it may need: general/nomatch, each domain's
    offer and nomatch, and doc where the domain has documents.
    """
    if path is None:
        path = _packaged_templates()
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
            raise LoadError(f"duplicate '{parts[1]}' template for domain '{parts[0]}'",
                            file=path, line=lineno)
        entries[(parts[0], parts[1])] = parts[2]
    if kb is not None:
        needed = [("general", "nomatch")]
        for name, domain in kb.domains.items():
            needed += [(name, "offer"), (name, "nomatch")]
            needed += [(name, "doc")] if any(ent.documents for ent in domain.entities) else []
        for domain, condition in needed:
            if (domain, condition) not in entries:
                raise LoadError(f"no '{condition}' template for domain '{domain}'", file=path)
    return TemplateSet(entries=entries)


def template_generate(belief: ExtendedBeliefState, query: QueryResult,
                      document: RetrievedDocument | None,
                      templates: TemplateSet) -> str:
    """Pick and fill the delexicalized response template for this turn.

    A retrieved document wins and embeds its body; otherwise a positive
    match count selects the offer template and zero matches the apology.
    """
    if document is not None:
        return templates.get(document.domain, "doc").replace("{body}", document.body)
    domain = active_domain(belief)
    if domain is None:
        return templates.get("general", "nomatch")
    matches = query.per_domain.get(domain)
    if matches is not None and matches.entity_ids:
        return templates.get(domain, "offer").replace("{count}", str(len(matches.entity_ids)))
    return templates.get(domain, "nomatch")


def make_template_generator(templates: TemplateSet | None = None) -> Generator:
    if templates is None:
        templates = load_templates()
    return lambda belief, query, document: template_generate(
        belief, query, document, templates)


def lexicalize(delex: str, query: QueryResult,
               kb: KnowledgeBase) -> tuple[str, tuple[str, ...]]:
    """Fill ``[slot]`` placeholders from the first matched entity.

    The first matched entity is the first id of the first domain with a
    match. Returns the text and the placeholders that could not be
    resolved, which stay verbatim.
    """
    entity = None
    for domain, matches in query.per_domain.items():
        if matches.entity_ids:
            entity = kb.entity(domain, matches.entity_ids[0])
            break
    unresolved = []

    def fill(match: re.Match) -> str:
        slot = match.group(1)
        if entity is not None:
            if slot == "name":
                return entity.name
            if slot in entity.attributes:
                return entity.attributes[slot]
        unresolved.append(slot)
        return match.group(0)

    return _PLACEHOLDER_RE.sub(fill, delex), tuple(unresolved)


def run_turn(session: Session, user_utterance: str, predictor: Predictor,
             generator: Generator, kb: KnowledgeBase, index: TopicIndex) -> TurnOutput:
    """Process one dialog turn and advance the session.

    Gold annotations are only reachable through the predictor; the knowledge
    operation and the generator see nothing but its output. A query the
    predictor hands back must be ``structured_query(kb, belief)``; the
    knowledge operation then reuses it instead of querying again.
    """
    session.utterances.append(("user", user_utterance))
    turn = session.turn_index
    try:
        belief, query = predictor(session.context(), session.prev_belief)
        query, document, ranking = knowledge_operation(kb, index, belief, query)
        delex = generator(belief, query, document)
    except Exception as exc:
        raise PipelineError(f"turn {turn}: {exc}") from exc
    text, unresolved = lexicalize(delex, query, kb)
    session.utterances.append(("system", text))
    session.prev_belief = belief
    session.turn_index += 1
    return TurnOutput(
        belief=belief,
        query=query,
        document=document,
        delexicalized_response=delex,
        lexicalized_response=text,
        unresolved_placeholders=unresolved,
        ranking=ranking,
    )


def make_oracle_predictor(golds: Sequence[ExtendedBeliefState]) -> Predictor:
    """Predictor that replays per-turn gold states verbatim, with no query; a turn
    beyond the last state is an error."""
    cursor = iter(list(golds))

    def predict(context: DialogContext, prev: ExtendedBeliefState,
                ) -> tuple[ExtendedBeliefState, None]:
        try:
            gold = next(cursor)
        except StopIteration:
            raise OracleError("more turns than gold annotations") from None
        return gold, None

    return predict


def make_heuristic_predictor(kb: KnowledgeBase, index: TopicIndex) -> Predictor:
    """Deterministic keyword predictor standing in for a learned tracker.

    Constraints: every ontology value appearing verbatim (whole words) in the
    latest user utterance is added for each (domain, slot) that carries it,
    longest match first so short values cannot claim text inside longer ones.
    Only values whose first word run is a word of the utterance, or that start
    with a non-word character, are tested: the KB's first-word index
    (:meth:`~seknow.kb.KnowledgeBase.ontology_candidates`) finds them.
    Extension: the single best-matching entity of the current structured
    query is checked for documents whose index topics share a token with the
    utterance; the first overlap sets the ruk triple and the shared topic
    words. The query is handed back, since the extension changes no
    constraint.

    Every field is canonical already (``prev``, the KB's and the index's
    words), so states are built without normalizing again.
    """
    stopwords = load_stopwords()

    def predict(context: DialogContext, prev: ExtendedBeliefState,
                ) -> tuple[ExtendedBeliefState, QueryResult]:
        utterance = normalize(context.latest_user())
        claimed: list[tuple[int, int]] = []
        latest = {(t.domain, t.slot): t.value for t in prev.triples}
        for value, pairs in kb.ontology_candidates(utterance):
            span = _find_unclaimed(utterance, value, claimed)
            if span is None:
                continue
            claimed.append(span)
            for pair in pairs:
                latest[pair] = value
        state = canonical_state(latest, prev.topic)
        query = structured_query(kb, state)

        hit = _topic_overlap(index, query, set(tokenize(utterance, stopwords)))
        if hit is None:
            return state, query
        domain, entity_id, shared = hit
        # from state, not latest: a ruk-only domain of prev would reorder latest's domains
        base = {(t.domain, t.slot): t.value for t in state.triples if t.slot != RUK_SLOT}
        base[(domain, RUK_SLOT)] = entity_id
        return canonical_state(base, shared), query

    return predict


def _find_unclaimed(utterance: str, value: str,
                    claimed: list[tuple[int, int]]) -> tuple[int, int] | None:
    # Exact, since a whole-word match is a substring. It keeps most patterns
    # out of re's 512-entry cache, which a real-size ontology (~900 values)
    # overflows when every value is compiled on every turn.
    if value not in utterance:
        return None
    for match in re.finditer(rf"\b{re.escape(value)}\b", utterance):
        span = (match.start(), match.end())
        if all(span[1] <= lo or span[0] >= hi for lo, hi in claimed):
            return span
    return None


def _topic_overlap(index: TopicIndex, query: QueryResult, tokens: set[str],
                   ) -> tuple[str, str, tuple[str, ...]] | None:
    if not tokens:
        return None
    for domain, matches in query.per_domain.items():
        for entity_id in matches.entity_ids:
            docs = index.docs_for_entity(domain, entity_id)
            if not docs:
                continue
            # only the best-matching entity (first with documents) is checked
            for doc_id, doc_topics in docs:
                shared = tuple(t for t in doc_topics if t in tokens)
                if shared:
                    return domain, entity_id, shared
            return None
    return None


@dataclass(frozen=True)
class CorruptionSample:
    """One labeled consistency-detection sample."""

    context: tuple[tuple[str, str], ...]
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
    span wholly replaced by another sample's, every slot value replaced by a
    different ontology value (topic kept intact), or its response replaced
    by another sample's. The same seed reproduces the output byte for byte.
    """
    n = len(samples)
    if n < 2:
        raise CorruptionError("corruption needs at least 2 samples")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    chosen = set(order[: n // 2])

    out: list[CorruptionSample] = []
    for i, sample in enumerate(samples):
        if i not in chosen:
            out.append(replace(sample, y_c=1, corruption_type="none"))
            continue
        kind = ("replace_state", "replace_values", "replace_response")[rng.randrange(3)]
        if kind == "replace_state":
            donor = _other_index(rng, n, i)
            out.append(replace(sample, belief_span=samples[donor].belief_span,
                               y_c=0, corruption_type=kind))
        elif kind == "replace_values":
            out.append(replace(sample, belief_span=_swap_values(
                sample.belief_span, ontology, rng), y_c=0, corruption_type=kind))
        else:
            donor = _other_index(rng, n, i)
            out.append(replace(sample, response=samples[donor].response,
                               y_c=0, corruption_type=kind))
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
    for t in state.triples:
        alternatives = [v for v in ontology.get((t.domain, t.slot), ()) if v != t.value]
        if not alternatives:
            raise CorruptionError(
                f"no alternative value for slot '{t.domain}-{t.slot}'")
        swapped.append(DsvTriple(t.domain, t.slot, alternatives[rng.randrange(len(alternatives))]))
    return serialize_belief(make_state(swapped, state.topic))
