"""Seeded random generator of valid (canonical) belief states for property tests."""

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
