"""Dialog corpus formats, loaders, stats, and a synthetic corpus generator.

A corpus file holds one dialog per line as a JSON object::

    {"dialog_id": ..., "goal": {domain: {"constraints": {slot: value},
     "requestables": [slot, ...]}}, "turns": [{"user": ..., "response": ...,
     "belief_span": ..., "doc": {"domain", "entity_id", "doc_id"}?,
     "delex"?: ...}]}

Gold belief spans are stored already extended: turns annotated with a
document carry the ruk triple and topic; the state's ``constraints()`` are
the original state without the extension.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .belief import RUK_SLOT, extend_state, make_state, ruk_domain, serialize_belief
from .belief import span_fields
from .errors import GenerationError, LoadError, ParseError
from .kb import KnowledgeBase, parse_json, read_json
from .pipeline import Session, make_oracle_predictor, make_template_generator, run_turn
from .text import is_one_field, normalize, open_input, open_output
from .topics import TopicIndex

# Unused here; benchmarks/tracer.py patches these three names on this module.
from .belief import parse_belief_span  # noqa: F401
from .pipeline import lexicalize, template_generate  # noqa: F401


@dataclass(frozen=True, slots=True)
class DomainGoal:
    constraints: dict[str, str] = field(default_factory=dict)
    requestables: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class DialogTurn:
    user: str
    response: str
    gold_belief_span: str
    doc_annotation: tuple[str, str, str] | None = None
    delex_response: str | None = None

    @property
    def reference(self) -> str:
        """The text a response is scored against: ``delex_response``, else ``response``."""
        return self.response if self.delex_response is None else self.delex_response


@dataclass(frozen=True, slots=True)
class Dialog:
    dialog_id: str
    goal: dict[str, DomainGoal]  # goal domain -> its goal
    turns: tuple[DialogTurn, ...]


@dataclass(frozen=True)
class DialogCorpus:
    dialogs: tuple[Dialog, ...]


@dataclass(frozen=True)
class CorpusStats:
    dialogs: int
    turns: int
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


def load_corpus(path: str, kb: KnowledgeBase | None = None,
                index: TopicIndex | None = None) -> DialogCorpus:
    """Load a corpus file, checking each distinct belief span against the grammar once.

    Dialog ids must be unique and references nonempty, and a ``doc``
    annotation needs a ruk triple in its domain. Given the checked ``kb`` and
    ``index``, goals and spans must fit the KB schema, and each ``doc``
    annotation must name an index row. Spans stay text: the states are built
    where they are read (scoring, the oracle predictor). Equal turn texts, annotation
    fields and goal names are kept once, through a table of this load (``sys.intern``'s
    strings would outlive the corpus); a span's repeats reuse its checks' outcome.
    """
    dialogs = []
    seen = set()
    strings: dict[str, str] = {}
    checked: dict[str, str | None] = {}  # only spans that passed: a refused one raises
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            dialog = _parse_dialog(parse_json(line, path, lineno), path, lineno, kb, index,
                                   strings, checked)
            if dialog.dialog_id in seen:
                raise LoadError(f"duplicate dialog id {dialog.dialog_id!r}", file=path,
                                line=lineno)
            seen.add(dialog.dialog_id)
            dialogs.append(dialog)
    return DialogCorpus(dialogs=tuple(dialogs))


def load_goals(path: str, kb: KnowledgeBase,
               corpus: DialogCorpus) -> dict[str, dict[str, DomainGoal]]:
    """Load a goal file: a JSON object mapping dialog ids of the checked ``corpus`` to
    goals over the checked ``kb``. The corpus dialogs it leaves out are not judged."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise LoadError("goal file must be a JSON object keyed by dialog id", file=path)
    ids = {dialog.dialog_id for dialog in corpus.dialogs}
    goals = {}
    strings: dict[str, str] = {}
    for dialog_id, goal in raw.items():
        if dialog_id not in ids:
            raise LoadError(f"goal for dialog {dialog_id!r} names no dialog of the corpus",
                            file=path)
        goals[dialog_id] = parse_goal(goal, f"dialog {dialog_id!r}", path, strings, kb=kb)
    return goals


def parse_goal(raw, where: str, path: str, strings: dict[str, str], lineno: int | None = None,
               kb: KnowledgeBase | None = None) -> dict[str, DomainGoal]:
    """Parse ``{domain: {"constraints": {slot: value}, "requestables": [slot]}}``.

    Domain, slot, value and requestable names are normalized as the db file's
    are, and kept as the one object the load's table ``strings`` holds for it; one
    that normalizes to empty, or a domain or slot that normalizes like another of
    the goal, is refused; given the checked ``kb``, so is a domain or a constraint
    or requestable slot outside its schema.
    """
    def refused(detail: str) -> LoadError:
        return LoadError(detail, file=path, line=lineno)

    def shared(text: str) -> str:
        name = normalize(text)
        return strings.setdefault(name, name)

    if not isinstance(raw, dict):
        raise refused(f"{where}: goal is not an object")
    domains = {}
    for dom, obj in raw.items():
        if not isinstance(obj, dict):
            raise refused(f"{where}: goal domain {dom!r} is not an object")
        constraints = obj.get("constraints", {})
        requestables = obj.get("requestables", [])
        if not (isinstance(constraints, dict) and isinstance(requestables, list)
                and all(isinstance(v, str) for v in (*constraints.values(), *requestables))):
            raise refused(f"{where}: goal domain {dom!r} needs an object of string "
                          "'constraints' and an array of string 'requestables'")
        name = shared(dom)
        if not name:
            raise refused(f"{where}: empty goal domain name")
        if name in domains:
            raise refused(f"{where}: duplicate goal domain {name!r}")
        normalized = {}
        for slot, value in constraints.items():
            key, value = shared(slot), shared(value)
            if not (key and value):
                raise refused(f"{where}: goal domain {name!r}: constraint {slot!r} is empty")
            if key in normalized:
                raise refused(f"{where}: goal domain {name!r}: duplicate constraint {key!r}")
            normalized[key] = value
        requested = tuple(map(shared, requestables))
        if not all(requested):
            raise refused(f"{where}: goal domain {name!r}: empty requestable")
        if kb is not None:
            if name not in kb.domains:
                raise refused(f"goal of {where} references unknown domain {name!r}")
            for slot in (*normalized, *requested):
                if slot not in kb.domains[name].slot_schema:
                    raise refused(f"goal of {where} uses slot {slot!r} outside the schema of "
                                  f"domain {name!r}")
        domains[name] = DomainGoal(constraints=normalized, requestables=requested)
    return domains


def _parse_dialog(raw, path: str, lineno: int, kb: KnowledgeBase | None,
                  index: TopicIndex | None, strings: dict[str, str],
                  checked: dict[str, str | None]) -> Dialog:
    if not isinstance(raw, dict):
        raise LoadError("dialog is not a JSON object", file=path, line=lineno)
    dialog_id = raw.get("dialog_id")
    if not isinstance(dialog_id, str):
        raise LoadError("dialog missing 'dialog_id'", file=path, line=lineno)
    # run writes the id in the first of its tab-separated fields, on one line
    if not is_one_field(dialog_id):
        raise LoadError("'dialog_id' is blank or holds a tab or line break", file=path,
                        line=lineno)

    where = f"dialog {dialog_id!r}"

    def refused(detail: str, turn: int | None = None) -> LoadError:
        at = where if turn is None else f"{where} turn {turn}"
        return LoadError(f"{at}: {detail}", file=path, line=lineno)

    goal = parse_goal(raw.get("goal", {}), where, path, strings, lineno, kb)
    raw_turns = raw.get("turns", [])
    if not (isinstance(raw_turns, list) and all(isinstance(t, dict) for t in raw_turns)):
        raise refused("'turns' is not an array of objects")
    turns = []
    share = strings.setdefault
    for k, t in enumerate(raw_turns):
        user, response, delex = t.get("user", ""), t.get("response", ""), t.get("delex")
        if not (isinstance(user, str) and isinstance(response, str)
                and (delex is None or isinstance(delex, str))):
            raise refused("'user', 'response' and 'delex' must be strings", k)
        span = t.get("belief_span", "")
        if not isinstance(span, str):
            raise refused("'belief_span' must be a string", k)
        if span not in checked:
            try:
                latest, _ = span_fields(span)
            except ParseError as exc:
                raise refused(str(exc), k) from exc
            fault = None if kb is None else _schema_fault(latest, kb)
            if fault is not None:
                raise refused(fault, k)
            checked[span] = ruk_domain(latest)
        doc = t.get("doc")
        annotation = None
        if doc is not None:
            keys = ("domain", "entity_id", "doc_id")
            if not (isinstance(doc, dict) and all(isinstance(doc.get(key), str) for key in keys)):
                raise refused("'doc' needs string 'domain', 'entity_id' and 'doc_id'", k)
            annotation = tuple(share(doc[key], doc[key]) for key in keys)
            domain = checked[span]
            if domain is None:
                raise refused("document annotation without a ruk triple in the belief span", k)
            if index is not None and annotation not in index.entries:
                raise refused(f"annotated document {annotation} is not in the index", k)
            if annotation[0] != domain:
                raise refused(f"document annotation in domain {annotation[0]!r} but the ruk "
                              f"triple is in domain {domain!r}", k)
        turn = DialogTurn(user=share(user, user), response=share(response, response),
                          gold_belief_span=share(span, span), doc_annotation=annotation,
                          delex_response=delex and share(delex, delex))
        if not turn.reference.strip():
            raise refused("empty reference response", k)
        turns.append(turn)
    return Dialog(dialog_id=dialog_id, goal=goal, turns=tuple(turns))


def _schema_fault(latest: dict[tuple[str, str], str], kb: KnowledgeBase) -> str | None:
    """What is wrong with the first triple, in canonical order, outside ``kb``'s schema."""
    outside = [(domain, slot) for domain, slot in latest if domain not in kb.domains
               or slot != RUK_SLOT and slot not in kb.domains[domain].slot_schema]
    if not outside:
        return None
    rank = {domain: r for r, domain in enumerate(dict.fromkeys(d for d, _ in latest))}
    domain, slot = min(outside, key=lambda key: (rank[key[0]], key[1]))
    if domain not in kb.domains:
        return f"unknown domain {domain!r}"
    return f"slot {slot!r} is not in the schema of domain {domain!r}"


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
            for dom, g in dialog.goal.items()}
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
            latest, _ = span_fields(turn.gold_belief_span)
            for (_, slot), value in latest.items():
                if slot != RUK_SLOT:
                    slots.add(slot)
                    values.add(value)
    n = len(corpus.dialogs)
    return CorpusStats(
        dialogs=n,
        turns=turn_count,
        mean_turns=turn_count / n if n else 0.0,
        slot_types=len(slots),
        slot_values=len(values),
        doc_turn_fraction=doc_turns / turn_count if turn_count else 0.0,
    )


def generate_synthetic_corpus(kb: KnowledgeBase, index: TopicIndex,
                              spec: CorpusSpec, seed: int) -> DialogCorpus:
    """Build a deterministic desk-scale corpus over the knowledge base.

    Each dialog targets one entity that has indexed documents: first
    constraint turns whose gold states accumulate that entity's own
    attribute values (so the structured query always matches it), then
    inserted turns asking about distinct documents, with gold states
    extended via the document's index topics. Reference responses come from
    replaying the gold states through :func:`run_turn` with the packaged
    template generator, so they match what a faithful system would produce.
    """
    generator = make_template_generator()
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
                f"{entity.id!r} has only {len(docs)} indexed documents")
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
            plan.append((f"what about the {' '.join(topics)} ?",
                         extend_state(base_state, domain, entity.id, topics),
                         (domain, entity.id, doc_id)))
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
        goal = {domain: DomainGoal(constraints={s: v for _, s, v in accumulated},
                                   requestables=requestables)}
        dialogs.append(Dialog(dialog_id=f"dlg{i:04d}", goal=goal, turns=tuple(turns)))
    return DialogCorpus(dialogs=tuple(dialogs))
