"""Seeded inputs at the scale of the real MultiWOZ-style export.

``make_kb`` makes a db and a doc base: 5 domains, 291 entities, 10
documents of about 40 words per entity (2,910 documents). ``make_corpus``
makes an eval corpus over that KB: per dialog 4 constraint turns, then 3
knowledge-seeking turns whose ``ruk`` value is exact or, for half of them,
inexact (one character dropped, or the name shortened). The same seed
always gives the same bytes. Nothing here imports seknow: the corpus needs
the topic words of a built index, which the caller passes in.
"""

from __future__ import annotations

import json
import random
import re

# Entities per domain; 291 in total, as in the real export.
ENTITIES = {"restaurant": 110, "attraction": 79, "hotel": 33, "train": 40, "taxi": 29}
DOCS_PER_ENTITY = 10
CONSTRAINT_TURNS = 4
KNOWLEDGE_TURNS = 3
BLOCK = 10  # dialogs per block of fixed domain mix; eval slices are one block

# Explicit thresholds for every domain: seknow's DEFAULT_THRESHOLDS has no
# ``attraction`` entry, and build_topic_index raises ConfigError without one.
THRESHOLDS = {"restaurant": 2.3, "hotel": 2.7, "attraction": 2.3, "taxi": 6.9, "train": 7.3}

_AREAS = ("north", "south", "east", "west", "centre")
_PRICES = ("cheap", "moderate", "expensive")
_FOODS = ("italian", "chinese", "indian", "thai", "french", "british", "korean",
          "turkish", "spanish", "mexican", "greek", "lebanese", "japanese",
          "vietnamese", "african", "portuguese", "european", "seafood",
          "gastropub", "mediterranean")
_STARS = ("1", "2", "3", "4", "5")
_CITIES = ("cambridge", "london kings cross", "stansted airport", "ely", "norwich",
           "peterborough", "leicester", "broxbourne", "bishops stortford", "birmingham")
_DAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")
_COLORS = ("black", "white", "red", "blue", "grey", "silver", "yellow", "green")
_CARS = ("toyota", "skoda", "ford", "audi", "bmw", "volvo", "tesla", "honda")
_ATTRACTION_TYPES = ("museum", "college", "park", "theatre", "gallery", "church",
                     "cinema", "boat", "pool", "nightclub")
_FEES = ("free", "2 pounds", "3 pounds", "4 pounds", "5 pounds", "6 pounds",
         "7 pounds", "8 pounds", "10 pounds", "12 pounds")
_STREETS = ("street", "road", "lane", "avenue", "way", "close", "hill", "row")

SLOTS = {
    "restaurant": ("name", "food", "area", "pricerange", "phone", "address"),
    "hotel": ("name", "type", "area", "stars", "parking", "internet", "pricerange",
              "phone", "address"),
    "attraction": ("name", "type", "area", "entrance fee", "phone", "address"),
    "train": ("name", "departure", "destination", "day", "leaveat", "price"),
    "taxi": ("name", "type", "color", "area", "phone"),
}

# Per domain, 16 document topics; each entity gets 10 of them.
_TOPICS = {
    "restaurant": ("menu", "vegetarian", "dessert", "wine", "breakfast", "terrace",
                   "delivery", "children", "music", "parking", "reservations",
                   "gluten", "seafood", "coffee", "lunch", "brunch"),
    "hotel": ("breakfast", "parking", "wifi", "pool", "gym", "spa", "pets",
              "checkin", "laundry", "shuttle", "balcony", "restaurant", "bar",
              "garden", "accessibility", "luggage"),
    "attraction": ("tickets", "tours", "exhibits", "cafe", "accessibility",
                   "photography", "parking", "children", "shop", "history",
                   "garden", "events", "audio", "groups", "lockers", "toilets"),
    "train": ("luggage", "bicycles", "wifi", "catering", "seating", "tickets",
              "delays", "accessibility", "pets", "quiet", "firstclass",
              "refunds", "sockets", "toilets", "platform", "railcard"),
    "taxi": ("luggage", "payment", "booking", "airport", "children", "pets",
             "wheelchair", "nightfare", "cancellation", "waiting", "music",
             "receipts", "groups", "bicycles", "tipping", "routes"),
}
_ASPECTS = ("options", "policy", "details", "information", "service", "facilities",
            "rules", "hours")
_FILLER = ("guests", "visitors", "staff", "friendly", "available", "daily",
           "usually", "always", "offer", "provide", "please", "note", "request",
           "advance", "extra", "charge", "included", "popular", "local", "quality",
           "small", "large", "nearby", "evening", "morning", "weekend", "season",
           "price", "helpful", "welcome", "enjoy", "simple", "modern", "classic",
           "quiet", "busy", "central", "historic", "fresh", "warm")
_GLUE = ("the", "is", "are", "and", "for", "with", "our", "all", "on", "at", "of", "a")

_NAME_SUFFIX = {
    "restaurant": ("", "", "kitchen", "bistro", "grill", "house"),
    "hotel": ("hotel", "guest house", "lodge", "inn"),
    "attraction": ("museum", "college", "park", "gallery", "hall", "gardens"),
    "taxi": ("cabs", "taxis", "cars"),
}
# A word is one syllable of each length, in either order, so every word has 5 letters.
_SYL2 = ("ka", "lo", "mi", "ra", "sa", "do", "ri", "an", "el", "ly", "na", "mo")
_SYL3 = ("ven", "tor", "bel", "mar", "wic", "ton", "ber", "gor", "fen", "ash", "ham",
         "pel", "cor", "vin", "del", "tha", "rin", "sel")


def _word(rng: random.Random) -> str:
    pair = [rng.choice(_SYL2), rng.choice(_SYL3)]
    rng.shuffle(pair)
    return "".join(pair)


def _entity_name(rng: random.Random, domain: str, k: int, taken: set[str]) -> str:
    """A unique name whose length depends on ``k`` only.

    Fuzzy matching costs the product of the name lengths, so every seed gets
    the same mix of lengths and only the letters vary.
    """
    while True:
        if domain == "train":
            name = f"tr{rng.randint(1000, 9999)}"
        else:
            suffixes = _NAME_SUFFIX[domain]
            words = [_word(rng) for _ in range(1 + k % 2)]
            suffix = suffixes[k % len(suffixes)]
            name = " ".join(words + ([suffix] if suffix else []))
        if name not in taken:
            taken.add(name)
            return name


def _attributes(rng: random.Random, domain: str, name: str, k: int) -> dict[str, str]:
    phone = f"01223 {rng.randint(100000, 999999)}"
    address = f"{rng.randint(1, 99)} {_word(rng)} {rng.choice(_STREETS)}"
    if domain == "restaurant":
        return {"name": name, "food": rng.choice(_FOODS), "area": rng.choice(_AREAS),
                "pricerange": rng.choice(_PRICES), "phone": phone, "address": address}
    if domain == "hotel":
        return {"name": name, "type": rng.choice(("hotel", "guesthouse")),
                "area": rng.choice(_AREAS), "stars": rng.choice(_STARS),
                "parking": rng.choice(("yes", "no")), "internet": rng.choice(("yes", "no")),
                "pricerange": rng.choice(_PRICES), "phone": phone, "address": address}
    if domain == "attraction":
        return {"name": name, "type": rng.choice(_ATTRACTION_TYPES),
                "area": rng.choice(_AREAS), "entrance fee": rng.choice(_FEES),
                "phone": phone, "address": address}
    if domain == "train":
        departure, destination = rng.sample(_CITIES, 2)
        return {"name": name, "departure": departure, "destination": destination,
                "day": rng.choice(_DAYS), "leaveat": f"{5 + k % 18:02d}:{rng.choice(('00', '15', '30', '45'))}",
                "price": f"{rng.randint(4, 40)}.{rng.choice(('10', '50', '80'))} pounds"}
    return {"name": name, "type": rng.choice(_CARS), "color": rng.choice(_COLORS),
            "area": rng.choice(_AREAS), "phone": phone}


def _document(rng: random.Random, topic: str) -> tuple[str, str]:
    title = f"{topic} {rng.choice(_ASPECTS)}"
    words: list[str] = []
    while len(words) < 40:
        sentence = [rng.choice(_GLUE), topic if rng.random() < 0.35 else rng.choice(_FILLER)]
        sentence += [rng.choice(_FILLER) if rng.random() < 0.6 else rng.choice(_GLUE)
                     for _ in range(rng.randint(3, 7))]
        words += sentence + ["."]
    return title, " ".join(words)


def make_kb(seed: int, entities: dict[str, int] = ENTITIES,
            docs_per_entity: int = DOCS_PER_ENTITY) -> tuple[dict, list[dict]]:
    """The db object and the doc-base records for ``seed``."""
    rng = random.Random(f"kb-{seed}")
    taken: set[str] = set()
    db: dict = {}
    docs: list[dict] = []
    for domain, count in entities.items():
        records = []
        for k in range(count):
            name = _entity_name(rng, domain, k, taken)
            records.append({"id": name, "name": name, "bookable": rng.random() < 0.5,
                            "attributes": _attributes(rng, domain, name, k)})
            for j, topic in enumerate(rng.sample(_TOPICS[domain], docs_per_entity)):
                title, body = _document(rng, topic)
                docs.append({"domain": domain, "entity_id": name,
                             "doc_id": f"{domain[:2]}{k:03d}-{j}",
                             "title": title, "body": body})
        db[domain] = {"slots": list(SLOTS[domain]), "entities": records}
    return db, docs


def _inexact(rng: random.Random, name: str, shorten: bool) -> str:
    """One character dropped, or the name shortened by its last word or its tail."""
    if not shorten:
        i = rng.choice([i for i, c in enumerate(name) if c != " "])
        out = name[:i] + name[i + 1:]
    elif " " in name:
        out = name.rsplit(" ", 1)[0]
    else:
        out = name[: max(3, len(name) * 3 // 4)]
    return " ".join(out.split())


def make_corpus(seed: int, db: dict, docs: list[dict],
                topics: dict[tuple[str, str, str], tuple[str, ...]],
                dialogs: int) -> tuple[list[dict], dict]:
    """Eval dialogs over ``db`` plus the properties that decide their cost.

    ``topics`` maps (domain, entity_id, doc_id) to the index topic words,
    which become the gold topic of a knowledge-seeking turn. Every block of
    ``BLOCK`` consecutive dialogs has the same domain mix (proportional to
    the entity counts) and every other knowledge-seeking turn is inexact, so
    equal-sized slices of the corpus cost about the same to evaluate.
    """
    rng = random.Random(f"corpus-{seed}")
    by_entity: dict[tuple[str, str], list[dict]] = {}
    for doc in docs:
        by_entity.setdefault((doc["domain"], doc["entity_id"]), []).append(doc)
    pattern = _domain_block(db)
    out = []
    inexact = knowledge = turns_total = 0
    for i in range(dialogs):
        if i % BLOCK == 0:
            rng.shuffle(pattern)
        domain = pattern[i % BLOCK]
        entities = db[domain]["entities"]
        ent = rng.choice(entities)
        slots = sorted(s for s in ent["attributes"] if s != "name")
        rng.shuffle(slots)
        constraints: dict[str, str] = {}
        turns = []
        for slot in slots[:CONSTRAINT_TURNS]:
            value = ent["attributes"][slot]
            constraints[slot] = value
            matched = sorted(e["id"] for e in entities
                             if all(e["attributes"].get(s) == v for s, v in constraints.items()))
            first = next(e for e in entities if e["id"] == matched[0])
            delex = f"i found {len(matched)} options . [name] is a nice choice ."
            turns.append({"user": f"i am looking for a {domain} with {slot} {value}",
                          "belief_span": _span(domain, constraints),
                          "delex": delex,
                          "response": delex.replace("[name]", first["name"])})
        for doc in rng.sample(by_entity[(domain, ent["id"])], KNOWLEDGE_TURNS):
            words = topics[(domain, ent["id"], doc["doc_id"])]
            ruk = ent["id"]
            if knowledge % 2 == 0:
                ruk = _inexact(rng, ruk, shorten=inexact % 2 == 1)
                inexact += 1
            delex = f"according to our information : {doc['body']}"
            turns.append({"user": f"what about the {' '.join(words)} ?",
                          "belief_span": _span(domain, constraints, ruk, words),
                          "doc": {"domain": domain, "entity_id": ent["id"],
                                  "doc_id": doc["doc_id"]},
                          "delex": delex, "response": delex})
            knowledge += 1
        turns_total += len(turns)
        requestables = ["phone"] if "phone" in ent["attributes"] else []
        out.append({"dialog_id": f"dlg{i:05d}",
                    "goal": {domain: {"constraints": constraints,
                                      "requestables": requestables}},
                    "turns": turns})
    props = {"dialogs": dialogs, "turns": turns_total,
             "knowledge_turn_share": knowledge / turns_total,
             "inexact_ruk_share": inexact / knowledge}
    return out, props


def _domain_block(db: dict) -> list[str]:
    """BLOCK domains in proportion to their entity counts (largest remainder)."""
    total = sum(len(dom["entities"]) for dom in db.values())
    quotas = {d: BLOCK * len(dom["entities"]) / total for d, dom in db.items()}
    counts = {d: int(q) for d, q in quotas.items()}
    for d in sorted(quotas, key=lambda d: counts[d] - quotas[d])[:BLOCK - sum(counts.values())]:
        counts[d] += 1
    return [d for d in db for _ in range(counts[d])]


def _span(domain: str, constraints: dict[str, str], ruk: str | None = None,
          topic: tuple[str, ...] = ()) -> str:
    pairs = [f"{slot} = {value}" for slot, value in sorted(constraints.items())]
    if ruk is not None:
        pairs.append(f"ruk = {ruk}")
    span = f"{domain} {{ {' , '.join(pairs)} }}"
    return f"{span} || {' '.join(topic)}" if topic else span


def kb_properties(db: dict, docs: list[dict]) -> dict:
    """Per-domain entity/document counts and the ontology size against re's cache."""
    per_domain_docs: dict[str, int] = {}
    for doc in docs:
        per_domain_docs[doc["domain"]] = per_domain_docs.get(doc["domain"], 0) + 1
    values = {v for dom in db.values() for e in dom["entities"]
              for v in e["attributes"].values()}
    return {
        "entities": {d: len(db[d]["entities"]) for d in db},
        "documents": {d: per_domain_docs.get(d, 0) for d in db},
        "mean_doc_words": round(sum(len(d["body"].split()) for d in docs) / len(docs), 1),
        "ontology_values": len(values),
        "re_cache_size": re._MAXCACHE,
    }


def write_json(obj, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


def write_jsonl(records: list[dict], path: str):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
