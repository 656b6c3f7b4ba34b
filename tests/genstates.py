"""Seeded random generators for property tests: valid (canonical) belief states, and belief
spans that are mostly well formed."""

from __future__ import annotations

import random

from seknow.belief import ExtendedBeliefState, make_state

DOMAINS = ["restaurant", "hotel", "train", "taxi", "attraction"]
SLOTS = ["area", "food", "pricerange", "stars", "type", "parking",
         "internet", "day", "departure", "destination", "book stay"]
WORDS = ["italian", "chinese", "north", "center", "cheap", "expensive",
         "guesthouse", "pizza", "hut", "acorn", "guest", "house", "yes",
         "no2", "saturday", "london", "cambridge", "moderate", "04", "17"]
TOPICS = ["breakfast", "parking", "favorite", "vegetarian", "luggage",
          "romantic", "dinner", "wifi", "takeaway"]


def random_state(rng: random.Random) -> ExtendedBeliefState:
    triples = []
    domains = rng.sample(DOMAINS, rng.randint(0, 3))
    for domain in domains:
        for slot in rng.sample(SLOTS, rng.randint(1, 3)):
            value = " ".join(rng.sample(WORDS, rng.randint(1, 2)))
            triples.append((domain, slot, value))
    topic: list[str] = []
    if domains and rng.random() < 0.5:
        ruk_domain = rng.choice(domains)
        entity = " ".join(rng.sample(WORDS, rng.randint(1, 3)))
        triples.append((ruk_domain, "ruk", entity))
        if rng.random() < 0.8:
            topic = rng.sample(TOPICS, rng.randint(1, 3))
    return make_state(triples, topic)


def random_near_pair(rng: random.Random) -> tuple[ExtendedBeliefState, ExtendedBeliefState]:
    """A random state and a copy with 0-2 edits (a new value, a dropped triple, an added
    triple, a ruk set in a mentioned domain), in random order: most pairs share most
    triples, and both joint goal and ruk outcomes are common."""
    state = random_state(rng)
    triples, topic = list(state.triples), list(state.topic)
    for _ in range(rng.choice((0, 1, 1, 2))):
        edit = rng.choice((0, 1, 2, 3, 3))
        if edit == 0 and triples:
            k = rng.randrange(len(triples))
            triples[k] = (*triples[k][:2], rng.choice(WORDS))
        elif edit == 1 and triples:
            del triples[rng.randrange(len(triples))]
        elif edit == 2:
            triples.append((rng.choice(DOMAINS), rng.choice(SLOTS), rng.choice(WORDS)))
        else:
            domain = rng.choice([d for d, _, _ in triples] or DOMAINS)
            triples.append((domain, "ruk", rng.choice(WORDS)))
    if not any(slot == "ruk" for _, slot, _ in triples):
        topic = []
    pair = (state, make_state(triples, topic))
    return pair if rng.random() < 0.5 else pair[::-1]


# "ǅ", "ẞ" and "ΣΑΣ" change under lowercasing (title case, ß, final sigma); "RUK" is ruk
PARSE_WORDS = ["restaurant", "hotel", "food", "area", "ruk", "pizza", "hut", "Área", "日本",
               "İ", "x{", "a=b", "||x", "ǅ", "ẞ", "ΣΑΣ", "RUK"]
PARSE_TOKENS = PARSE_WORDS + ["{", "}", ",", "=", "||"]
PARSE_SPACES = [" ", "  ", "\t", "\n", "\u3000", "\x1c", "\u00a0"]


def random_span(rng: random.Random) -> str:
    """A mostly well-formed span, mutated by 0-2 token edits and joined by mixed whitespace."""
    def words():
        return rng.choices(PARSE_WORDS, k=rng.randint(1, 2))

    toks = []
    for _ in range(rng.randint(0, 3)):
        toks += [*words(), "{"]
        for k in range(rng.randint(1, 3)):
            toks += ([","] if k else []) + words() + ["="] + words()
        toks.append("}")
    if rng.random() < 0.4:
        toks += ["||", *rng.choices(PARSE_WORDS, k=rng.randint(0, 3))]
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randrange(len(toks) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            toks.insert(at, rng.choice(PARSE_TOKENS))
        elif at < len(toks):
            toks[at:at + 1] = [] if edit == 1 else [rng.choice(PARSE_TOKENS)]
    gaps = [rng.choice(PARSE_SPACES) for _ in range(len(toks) + 1)]
    gaps[0], gaps[-1] = rng.choice(("", *PARSE_SPACES)), rng.choice(("", *PARSE_SPACES))
    return "".join(gap + tok for gap, tok in zip(gaps, toks)) + gaps[-1]
