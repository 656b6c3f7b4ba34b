"""Extended belief state: data model, text-span grammar, ruk extension.

A belief state is a set of domain-slot-value triples plus an optional topic
word sequence. The reserved slot ``ruk`` marks a turn that needs free-text
knowledge; its value names the entity of interest, and the topic words
abstract what the user asked about. :func:`extend_state` builds that
extension, for gold labels and predictions alike. A state's views (its
domains, its constraints grouped by domain and its ruk) are derived from the
triples once, on first use, and shared by every reader.

Span grammar (normative for corpus files and CLI I/O)::

    span   := block* topic?
    block  := DOMAIN '{' pair (',' pair)* '}'
    pair   := SLOT... '=' VALUE...
    topic  := '||' WORD...

All delimiters are whitespace-separated tokens; ``{ } , = ||`` are reserved
and cannot appear inside names or values. Canonical order is: domains in
first-mention order, slots alphabetical within their domain with ``ruk``
last, topic words in given order. A repeated (domain, slot) pair keeps the
last occurrence.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .errors import ParseError
from .text import normalize

RUK_SLOT = "ruk"

_RESERVED = {"{", "}", ",", "=", "||"}
TOPIC_SEPARATOR = "||"


@dataclass(frozen=True)
class ExtendedBeliefState:
    """Canonical (domain, slot, value) triples and the topic words.

    The views :meth:`domains`, :meth:`constraints` and :meth:`ruk` are derived
    from the triples once, on first use, and every call returns the same
    objects: callers must not mutate them.
    """

    triples: tuple[tuple[str, str, str], ...] = ()
    topic: tuple[str, ...] = ()

    _views = None  # (domains, constraints, ruk) once derived; not a field

    def _derive(self) -> tuple[tuple[str, ...], dict[str, dict[str, str]],
                               tuple[str, str] | None]:
        domains: dict[str, None] = {}
        grouped: dict[str, dict[str, str]] = {}
        ruk = None
        for domain, slot, value in self.triples:
            domains[domain] = None
            if slot != RUK_SLOT:
                grouped.setdefault(domain, {})[slot] = value
            elif ruk is None:
                ruk = (domain, value)
        views = (tuple(domains), grouped, ruk)
        object.__setattr__(self, "_views", views)
        return views

    def domains(self) -> tuple[str, ...]:
        """Domains in first-mention order."""
        return (self._views or self._derive())[0]

    def constraints(self) -> dict[str, dict[str, str]]:
        """Non-ruk triples grouped by domain, in canonical order."""
        return (self._views or self._derive())[1]

    def ruk(self) -> tuple[str, str] | None:
        """(domain, entity) of the first ruk triple, or None."""
        return (self._views or self._derive())[2]


def make_state(triples: Iterable[tuple[str, str, str]],
               topic: Iterable[str] = ()) -> ExtendedBeliefState:
    """Build a canonical state: normalized fields, deduplicated, ordered.

    A repeated (domain, slot) keeps its last value. A nonempty topic
    requires a ruk triple.
    """
    latest: dict[tuple[str, str], str] = {}
    for domain, slot, value in triples:
        domain, slot, value = normalize(domain), normalize(slot), normalize(value)
        if not (domain and slot and value):
            raise ValueError("belief triples need nonempty domain, slot and value")
        latest[(domain, slot)] = value
    topic = tuple(filter(None, map(normalize, topic)))
    if topic and ruk_domain(latest) is None:
        raise ValueError("a topic requires a ruk triple")
    return canonical_state(latest, topic)


def canonical_state(latest: dict[tuple[str, str], str],
                    topic: Iterable[str]) -> ExtendedBeliefState:
    """:func:`make_state` for callers that guarantee, unchecked, normalized nonempty fields,
    ``latest`` mapping each (domain, slot) to its value in mention order, and a topic only
    with a ruk key."""
    slots_of: dict[str, list[str]] = {}  # domains in first-mention order
    for domain, slot in latest:
        slots_of.setdefault(domain, []).append(slot)
    for slots in slots_of.values():
        slots.sort()
        if RUK_SLOT in slots:  # at most once per domain: the keys are distinct
            slots.remove(RUK_SLOT)
            slots.append(RUK_SLOT)
    ordered = [(domain, s, latest[(domain, s)]) for domain, slots in slots_of.items()
               for s in slots]
    return ExtendedBeliefState(triples=tuple(ordered), topic=tuple(topic))


def ruk_domain(latest: dict[tuple[str, str], str]) -> str | None:
    """The domain of :meth:`ExtendedBeliefState.ruk` of the state ``latest`` builds:
    the first-mentioned domain with a ruk key, so the domain of the first key that has one."""
    for domain, _ in latest:
        if (domain, RUK_SLOT) in latest:
            return domain
    return None


def serialize_belief(state: ExtendedBeliefState) -> str:
    """Render a state as its canonical text span (empty state gives '')."""
    blocks = []
    for domain, group in groupby(state.triples, key=itemgetter(0)):
        inner = " , ".join(f"{slot} = {value}" for _, slot, value in group)
        blocks.append(f"{domain} {{ {inner} }}")
    out = " ".join(blocks)
    if state.topic:
        out = f"{out} {TOPIC_SEPARATOR} {' '.join(state.topic)}" if out \
            else f"{TOPIC_SEPARATOR} {' '.join(state.topic)}"
    return out


def _offset(text: str, k: int) -> int:
    """Byte offset of the ``k``-th whitespace token of ``text``, or of its end."""
    for j, match in enumerate(re.finditer(r"\S+", text)):
        if j == k:
            return len(text[:match.start()].encode("utf-8"))
    return len(text.encode("utf-8"))


def parse_belief_span(text: str) -> ExtendedBeliefState:
    """Parse a belief span; inverse of :func:`serialize_belief` on its image."""
    return canonical_state(*span_fields(text))


def span_fields(text: str) -> tuple[dict[tuple[str, str], str], list[str]]:
    """Check a belief span against the grammar and return its lowercased fields, unordered:
    ``latest`` maps each (domain, slot) to its last value in mention order, and the topic
    words follow in given order. :func:`canonical_state` orders them into the state.

    Tolerates repeated whitespace. Raises :class:`ParseError` with a byte
    offset on malformed input (unbalanced braces, a block with no pair,
    missing ``=``, empty values, stray tokens outside a ``||`` topic segment,
    a topic without a ruk triple, text that is not valid UTF-8). One pass over
    the whitespace tokens; the offset is only computed for the error.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError("span is not valid UTF-8",
                         len(text[:exc.start].encode("utf-8"))) from None
    toks = [*text.split(), None]  # None marks the end
    i = 0

    def words(stop: set[str], what: str) -> str:
        nonlocal i
        start = i
        while toks[i] is not None and toks[i] not in _RESERVED:
            i += 1
        if i == start:
            found = toks[i]
            raise ParseError(f"empty {what}" if found in stop or found is None
                             else f"expected {what}, found {found!r}", _offset(text, i))
        return " ".join(toks[start:i])

    # Fields are single-spaced runs of whitespace-free tokens, so str.lower normalizes
    # them: no non-whitespace code point lowercases to text containing whitespace.
    latest: dict[tuple[str, str], str] = {}
    while toks[i] is not None and toks[i] != TOPIC_SEPARATOR:
        domain = words({"{"}, "domain name")
        if toks[i] != "{":
            raise ParseError(f"expected '{{' after domain {domain!r}", _offset(text, i))
        i += 1
        while True:  # a block holds at least one pair: "d { }" has no slot name
            if toks[i] is None:
                raise ParseError("unbalanced braces: missing '}'", _offset(text, i))
            slot = words({"="}, "slot name")
            if toks[i] != "=":
                raise ParseError(f"missing '=' after slot {slot!r}", _offset(text, i))
            i += 1
            latest[(domain.lower(), slot.lower())] = words({",", "}"}, "value").lower()
            if toks[i] == ",":
                i += 1
                if toks[i] == "}":
                    raise ParseError("trailing ',' before '}'", _offset(text, i))
            elif toks[i] == "}":
                break
        i += 1
    topic = toks[i + 1:-1]
    if toks[i] == TOPIC_SEPARATOR:
        if not topic:
            raise ParseError("empty topic segment", _offset(text, i + 1))
        for k, token in enumerate(topic, start=i + 1):
            if token in _RESERVED:
                raise ParseError(f"reserved token {token!r} in topic", _offset(text, k))
        if ruk_domain(latest) is None:
            raise ParseError("a topic requires a ruk triple", len(text.encode("utf-8")))
    return latest, [token.lower() for token in topic]


def extend_state(state: ExtendedBeliefState, domain: str, entity_id: str,
                 topic: Iterable[str]) -> ExtendedBeliefState:
    """``state`` with every ruk triple dropped, ``(domain, ruk, entity_id)`` added and the
    topic set to ``topic``; the constraints are kept, so it is idempotent. As for
    :func:`canonical_state`, the fields must be normalized and nonempty already."""
    latest = {(d, s): v for d, s, v in state.triples if s != RUK_SLOT}
    latest[(domain, RUK_SLOT)] = entity_id
    return canonical_state(latest, topic)


def joint_goal_match(pred: ExtendedBeliefState, gold: ExtendedBeliefState) -> bool:
    """Exact match of the non-ruk triple sets; extension and topic ignored."""
    return pred.constraints() == gold.constraints()


def prf_counts(pred: ExtendedBeliefState, gold: ExtendedBeliefState) -> tuple[bool, ...]:
    """One turn's (correct, predicted, gold) counts of the ruk triple, then of the topic:
    a ruk is correct when its (domain, value) equals the gold one, a topic its token set."""
    p_ruk, g_ruk = pred.ruk(), gold.ruk()
    ruk_correct = p_ruk is not None and p_ruk == g_ruk
    topic_correct = bool(pred.topic) and bool(gold.topic) and set(pred.topic) == set(gold.topic)
    return (ruk_correct, p_ruk is not None, g_ruk is not None,
            topic_correct, bool(pred.topic), bool(gold.topic))

