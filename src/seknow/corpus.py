"""Dialog corpus formats, loaders, stats, and a synthetic corpus generator.

A corpus file holds one dialog per line as a JSON object::

    {"dialog_id": ..., "goal": {domain: {"constraints": {slot: value},
     "requestables": [slot, ...]}}, "turns": [{"user": ..., "response": ...,
     "belief_span": ..., "doc": {"domain", "entity_id", "doc_id"}?,
     "delex"?: ...}]}

Gold belief spans are stored already extended: turns annotated with a
document carry the ruk triple and topic; the raw original state is
recoverable by dropping the extension.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .belief import extend_gold_label, make_state, parse_belief_span, serialize_belief
from .errors import GenerationError, LoadError
from .kb import KnowledgeBase, expect, read_json
from .pipeline import (Session, TemplateSet, make_oracle_predictor,
                       make_template_generator, run_turn)
# Unused here; benchmarks/tracer.py patches these two names on this module.
from .pipeline import lexicalize, template_generate  # noqa: F401
from .text import open_input, open_output
from .topics import TopicIndex


@dataclass(frozen=True)
class DomainGoal:
    constraints: dict[str, str] = field(default_factory=dict)
    requestables: tuple[str, ...] = ()


@dataclass(frozen=True)
class GoalSpec:
    domains: dict[str, DomainGoal] = field(default_factory=dict)


@dataclass(frozen=True)
class DialogTurn:
    user: str
    response: str
    gold_belief_span: str
    doc_annotation: tuple[str, str, str] | None = None
    delex_response: str | None = None


@dataclass(frozen=True)
class Dialog:
    dialog_id: str
    goal: GoalSpec
    turns: tuple[DialogTurn, ...]


@dataclass(frozen=True)
class DialogCorpus:
    dialogs: tuple[Dialog, ...]


@dataclass(frozen=True)
class CorpusStats:
    dialog_count: int
    turn_count: int
    mean_turns: float
    slot_types: int  # distinct (slot) names excluding ruk
    slot_values: int  # distinct values over non-ruk triples
    doc_turn_fraction: float


@dataclass(frozen=True)
class CorpusSpec:
    """Size parameters for the synthetic generator."""

    dialogs: int = 10
    original_turns: int = 2
    inserted_turns: int = 1
    requestables: tuple[str, ...] = ()


def load_corpus(path: str) -> DialogCorpus:
    """Load a corpus file, parsing every belief span eagerly."""
    dialogs = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LoadError(exc.msg, file=path, line=lineno) from exc
            dialogs.append(_parse_dialog(raw, path, lineno))
    return DialogCorpus(dialogs=tuple(dialogs))


def load_goals(path: str) -> dict[str, GoalSpec]:
    """Load a goal file: a JSON object mapping dialog ids to goals."""
    raw = read_json(path)
    expect(isinstance(raw, dict), "goal file must be a JSON object keyed by dialog id", path)
    return {dialog_id: parse_goal(goal, f"dialog '{dialog_id}'", path)
            for dialog_id, goal in raw.items()}


def parse_goal(raw, where: str, path: str, lineno: int | None = None) -> GoalSpec:
    """Parse ``{domain: {"constraints": {slot: value}, "requestables": [slot]}}``."""
    expect(isinstance(raw, dict), f"{where}: goal is not an object", path, lineno)
    domains = {}
    for dom, obj in raw.items():
        expect(isinstance(obj, dict), f"{where}: goal domain '{dom}' is not an object",
               path, lineno)
        constraints = obj.get("constraints", {})
        requestables = obj.get("requestables", [])
        expect(isinstance(constraints, dict) and isinstance(requestables, list)
               and all(isinstance(v, str) for v in (*constraints.values(), *requestables)),
               f"{where}: goal domain '{dom}' needs an object of string 'constraints' "
               "and an array of string 'requestables'", path, lineno)
        domains[dom] = DomainGoal(constraints=dict(constraints),
                                  requestables=tuple(requestables))
    return GoalSpec(domains=domains)


def _parse_dialog(raw, path: str, lineno: int) -> Dialog:
    expect(isinstance(raw, dict), "dialog is not a JSON object", path, lineno)
    dialog_id = raw.get("dialog_id")
    expect(isinstance(dialog_id, str), "dialog missing 'dialog_id'", path, lineno)
    goal = parse_goal(raw.get("goal", {}), f"dialog '{dialog_id}'", path, lineno)
    raw_turns = raw.get("turns", [])
    expect(isinstance(raw_turns, list) and all(isinstance(t, dict) for t in raw_turns),
           f"dialog '{dialog_id}': 'turns' is not an array of objects", path, lineno)
    turns = []
    for k, t in enumerate(raw_turns):
        where = f"dialog '{dialog_id}' turn {k}"
        delex = t.get("delex")
        expect(isinstance(t.get("user", ""), str) and isinstance(t.get("response", ""), str)
               and (delex is None or isinstance(delex, str)),
               f"{where}: 'user', 'response' and 'delex' must be strings", path, lineno)
        span = t.get("belief_span", "")
        try:
            state = parse_belief_span(span)
        except Exception as exc:
            raise LoadError(f"{where}: {exc}", file=path, line=lineno) from exc
        doc = t.get("doc")
        annotation = None
        if doc is not None:
            keys = ("domain", "entity_id", "doc_id")
            expect(isinstance(doc, dict) and all(isinstance(doc.get(key), str) for key in keys),
                   f"{where}: 'doc' needs string 'domain', 'entity_id' and 'doc_id'",
                   path, lineno)
            annotation = tuple(doc[key] for key in keys)
            expect(state.has_ruk(), f"{where}: document annotation without a ruk triple "
                   "in the belief span", path, lineno)
        turns.append(DialogTurn(
            user=t.get("user", ""),
            response=t.get("response", ""),
            gold_belief_span=span,
            doc_annotation=annotation,
            delex_response=delex,
        ))
    return Dialog(dialog_id=dialog_id, goal=goal, turns=tuple(turns))


def save_corpus(corpus: DialogCorpus, path: str):
    """Write one dialog per line; inverse of :func:`load_corpus`."""
    with open_output(path) as fh:
        for dialog in corpus.dialogs:
            fh.write(json.dumps(_dialog_to_obj(dialog), ensure_ascii=False,
                                sort_keys=True))
            fh.write("\n")


def _dialog_to_obj(dialog: Dialog) -> dict:
    goal = {dom: {"constraints": dict(g.constraints),
                  "requestables": list(g.requestables)}
            for dom, g in dialog.goal.domains.items()}
    turns = []
    for t in dialog.turns:
        obj = {"user": t.user, "response": t.response, "belief_span": t.gold_belief_span}
        if t.doc_annotation is not None:
            obj["doc"] = {"domain": t.doc_annotation[0],
                          "entity_id": t.doc_annotation[1],
                          "doc_id": t.doc_annotation[2]}
        if t.delex_response is not None:
            obj["delex"] = t.delex_response
        turns.append(obj)
    return {"dialog_id": dialog.dialog_id, "goal": goal, "turns": turns}


def corpus_stats(corpus: DialogCorpus) -> CorpusStats:
    """Aggregate corpus statistics; ruk triples are excluded from slot counts."""
    turn_count = 0
    doc_turns = 0
    slots = set()
    values = set()
    for dialog in corpus.dialogs:
        for turn in dialog.turns:
            turn_count += 1
            doc_turns += turn.doc_annotation is not None
            state = parse_belief_span(turn.gold_belief_span)
            for t in state.non_ruk_triples():
                slots.add(t.slot)
                values.add(t.value)
    n = len(corpus.dialogs)
    return CorpusStats(
        dialog_count=n,
        turn_count=turn_count,
        mean_turns=turn_count / n if n else 0.0,
        slot_types=len(slots),
        slot_values=len(values),
        doc_turn_fraction=doc_turns / turn_count if turn_count else 0.0,
    )


def generate_synthetic_corpus(kb: KnowledgeBase, index: TopicIndex,
                              spec: CorpusSpec, seed: int,
                              templates: TemplateSet | None = None) -> DialogCorpus:
    """Build a deterministic desk-scale corpus over the knowledge base.

    Each dialog targets one entity that has indexed documents: first
    constraint turns whose gold states accumulate that entity's own
    attribute values (so the structured query always matches it), then
    inserted turns asking about distinct documents, with gold states
    extended via the document's index topics. Reference responses come from
    replaying the gold states through :func:`run_turn` with the template
    generator, so they match what a faithful system would produce.
    """
    generator = make_template_generator(templates)
    rng = random.Random(seed)
    candidates = []
    for dom_name in sorted(kb.domains):
        for ent in kb.domains[dom_name].id_order:
            if index.docs_for_entity(dom_name, ent.id):
                candidates.append((dom_name, ent))
    if not candidates:
        raise GenerationError("knowledge base has no entities with indexed documents")

    dialogs = []
    for i in range(spec.dialogs):
        domain, entity = candidates[i % len(candidates)]
        docs = index.docs_for_entity(domain, entity.id)
        if spec.inserted_turns > len(docs):
            raise GenerationError(
                f"spec asks for {spec.inserted_turns} inserted turns but entity "
                f"'{entity.id}' has only {len(docs)} indexed documents")
        slots = sorted(s for s in entity.attributes if s != "name")
        rng.shuffle(slots)
        plan = []  # (user utterance, gold state, doc annotation) per turn
        accumulated: list = []
        for j in range(spec.original_turns):
            if j < len(slots):
                slot = slots[j]
                value = entity.attributes[slot]
                accumulated.append((domain, slot, value))
                user = f"i am looking for a {domain} with {slot} {value}"
            else:
                user = "what else can you tell me ?"
            plan.append((user, make_state(accumulated), None))
        base_state = make_state(accumulated)
        for doc_id, topics in docs[: spec.inserted_turns]:
            annotation = (domain, entity.id, doc_id)
            plan.append((f"what about the {' '.join(topics)} ?",
                         extend_gold_label(base_state, annotation, index), annotation))
        session = Session()
        predictor = make_oracle_predictor([state for _, state, _ in plan])
        turns = []
        for user, state, annotation in plan:
            out = run_turn(session, user, predictor, generator, kb, index)
            turns.append(DialogTurn(
                user=user,
                response=out.lexicalized_response,
                gold_belief_span=serialize_belief(state),
                doc_annotation=annotation,
                delex_response=out.delexicalized_response,
            ))
        requestables = tuple(r for r in spec.requestables if r in entity.attributes)
        goal = GoalSpec(domains={domain: DomainGoal(
            constraints={s: v for _, s, v in accumulated},
            requestables=requestables)})
        dialogs.append(Dialog(dialog_id=f"dlg{i:04d}", goal=goal, turns=tuple(turns)))
    return DialogCorpus(dialogs=tuple(dialogs))
