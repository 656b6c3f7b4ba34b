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
    make_state,
    parse_belief_span,
    serialize_belief,
)
from .errors import CorruptionError, LoadError, OracleError, PipelineError, TemplateError
from .kb import KnowledgeBase
from .knowops import (
    QueryResult,
    RetrievedDocument,
    format_query_span,
    knowledge_operation,
    structured_query,
)
from .text import normalize, open_input, tokenize
from .topics import TopicIndex

Predictor = Callable[[DialogContext, ExtendedBeliefState], ExtendedBeliefState]
Generator = Callable[[ExtendedBeliefState, QueryResult, RetrievedDocument | None], str]

_PLACEHOLDER_RE = re.compile(r"\[([a-z][a-z0-9_ ]*)\]")


@dataclass(frozen=True)
class TurnOutput:
    belief: ExtendedBeliefState
    query: QueryResult
    query_span: str
    document: RetrievedDocument | None
    delexicalized_response: str
    lexicalized_response: str
    unresolved_placeholders: tuple[str, ...] = ()
    ranking: tuple[RetrievedDocument, ...] = ()


@dataclass
class Session:
    """Single-owner dialog state accumulator across turns."""

    window: int | None = None
    utterances: list[tuple[str, str]] = field(default_factory=list)
    prev_belief: ExtendedBeliefState = EMPTY_STATE
    turn_index: int = 0

    def context(self) -> DialogContext:
        return DialogContext(utterances=tuple(self.utterances), window=self.window)


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


def load_templates(path: str | None = None) -> TemplateSet:
    """Load ``domain<TAB>condition<TAB>text`` rows (defaults to the packaged set)."""
    if path is None:
        text = resources.files("seknow.data").joinpath("templates.tsv").read_text("utf-8")
    else:
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
        entries[(parts[0], parts[1])] = parts[2]
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
    if matches is not None and matches.count > 0:
        return templates.get(domain, "offer").replace("{count}", str(matches.count))
    return templates.get(domain, "nomatch")


def make_template_generator(templates: TemplateSet | None = None) -> Generator:
    if templates is None:
        templates = load_templates()
    return lambda belief, query, document: template_generate(
        belief, query, document, templates)


@dataclass(frozen=True)
class LexicalizedResponse:
    text: str
    unresolved: tuple[str, ...] = ()


def lexicalize(delex: str, query: QueryResult, kb: KnowledgeBase) -> LexicalizedResponse:
    """Fill ``[slot]`` placeholders from the first matched entity.

    The first matched entity is the first id of the first domain with a
    positive count. Placeholders that cannot be resolved stay verbatim and
    are reported.
    """
    entity = None
    for domain, matches in query.per_domain.items():
        if matches.count > 0:
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

    return LexicalizedResponse(text=_PLACEHOLDER_RE.sub(fill, delex),
                               unresolved=tuple(unresolved))


def run_turn(session: Session, user_utterance: str, predictor: Predictor,
             generator: Generator, kb: KnowledgeBase, index: TopicIndex) -> TurnOutput:
    """Process one dialog turn and advance the session.

    Gold annotations are only reachable through the predictor; the knowledge
    operation and the generator see nothing but its output.
    """
    session.utterances.append(("user", user_utterance))
    turn = session.turn_index
    try:
        belief = predictor(session.context(), session.prev_belief)
        query, document, ranking = knowledge_operation(kb, index, belief)
        delex = generator(belief, query, document)
    except Exception as exc:
        raise PipelineError(f"turn {turn}: {exc}") from exc
    lexed = lexicalize(delex, query, kb)
    session.utterances.append(("system", lexed.text))
    session.prev_belief = belief
    session.turn_index += 1
    return TurnOutput(
        belief=belief,
        query=query,
        query_span=format_query_span(query),
        document=document,
        delexicalized_response=delex,
        lexicalized_response=lexed.text,
        unresolved_placeholders=lexed.unresolved,
        ranking=ranking,
    )


def make_oracle_predictor(golds: Sequence[ExtendedBeliefState | None]) -> Predictor:
    """Predictor that replays per-turn gold states verbatim; a missing one is an error."""
    cursor = iter(list(golds))

    def predict(context: DialogContext, prev: ExtendedBeliefState) -> ExtendedBeliefState:
        try:
            gold = next(cursor)
        except StopIteration:
            raise OracleError("more turns than gold annotations") from None
        if gold is None:
            raise OracleError("turn has no gold belief annotation")
        return gold

    return predict


def make_heuristic_predictor(kb: KnowledgeBase, index: TopicIndex) -> Predictor:
    """Deterministic keyword predictor standing in for a learned tracker.

    Constraints: every ontology value appearing verbatim (whole words) in the
    latest user utterance is added for each (domain, slot) that carries it,
    longest match first so short values cannot claim text inside longer ones.
    Extension: the single best-matching entity of the current structured
    query is checked for documents whose index topics share a token with the
    utterance; the first overlap sets the ruk triple and the shared topic
    words.
    """
    ontology = build_ontology_values(kb)

    def predict(context: DialogContext, prev: ExtendedBeliefState) -> ExtendedBeliefState:
        utterance = normalize(context.latest_user())
        claimed: list[tuple[int, int]] = []
        new_triples = list(prev.triples)
        for value, pairs in ontology:
            span = _find_unclaimed(utterance, value, claimed)
            if span is None:
                continue
            claimed.append(span)
            for domain, slot in pairs:
                new_triples.append(DsvTriple(domain, slot, value))
        state = make_state(new_triples, prev.topic)

        hit = _topic_overlap(kb, index, state, utterance)
        if hit is None:
            return state
        domain, entity_id, shared = hit
        base = [t for t in state.triples if t.slot != RUK_SLOT]
        base.append(DsvTriple(domain, RUK_SLOT, entity_id))
        return make_state(base, shared)

    return predict


def build_ontology_values(kb: KnowledgeBase) -> list[tuple[str, tuple[tuple[str, str], ...]]]:
    """Attribute values sorted longest-first with their (domain, slot) pairs."""
    by_value: dict[str, set[tuple[str, str]]] = {}
    for name, domain in kb.domains.items():
        for ent in domain.entities:
            for slot, value in ent.attributes.items():
                by_value.setdefault(value, set()).add((name, slot))
    return [(value, tuple(sorted(by_value[value])))
            for value in sorted(by_value, key=lambda v: (-len(v), v))]


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


def _topic_overlap(kb: KnowledgeBase, index: TopicIndex,
                   state: ExtendedBeliefState, utterance: str,
                   ) -> tuple[str, str, tuple[str, ...]] | None:
    tokens = set(tokenize(utterance))
    if not tokens:
        return None
    query = structured_query(kb, state)
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
