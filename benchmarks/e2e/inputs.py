"""Seeded inputs, reference answers and analyst scripts.

Everything here is harness-side: it turns ``--seed`` into raw rows,
flock texts and the survivor set each ask must return.  None of it is
inside ``setup_s`` or a timed op — the program only ever receives the
generated inputs.

The reference for the basket flocks is :class:`PairOracle`, a direct
count over ``itertools.combinations`` that shares no code with the
engine; every run also cross-checks it against ``mine(strategy="naive")``
(see ``workloads.py``), which is the reference the plan-heavy flocks use
directly.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations, cycle
from typing import Iterator

from repro.workloads import (
    generate_articles,
    generate_medical,
    generate_webdocs,
    zipf_weights,
)

BASKET_COLUMNS = ("BID", "Item")

#: §1.3 / Fig. 2 with the §2.3 tie-break — the word-pair flock.
PAIR_FLOCK = """QUERY:
answer(B) :- {rel}(B,$1) AND {rel}(B,$2) AND $1 < $2

FILTER:
COUNT(answer.B) >= {t}
"""

#: Alpha-equivalent respellings of PAIR_FLOCK (subgoal order, flipped
#: comparison, one-line layout): an analyst retyping the same question.
PAIR_SPELLINGS = (
    PAIR_FLOCK,
    """QUERY:
answer(B) :- {rel}(B,$2) AND $1 < $2 AND {rel}(B,$1)

FILTER:
COUNT(answer.B) >= {t}
""",
    """QUERY:
answer(B) :- {rel}(B,$1) AND {rel}(B,$2) AND $2 > $1

FILTER:
COUNT(answer.B) >= {t}
""",
    "QUERY: answer(B) :- {rel}(B, $1) AND {rel}(B, $2) AND $1 < $2\n"
    "FILTER: COUNT(answer.B) >= {t}\n",
)

#: The pair query with ``$1`` pinned to one constant word: which words
#: share at least t articles with it.
PINNED_FLOCK = """QUERY:
answer(B) :- {rel}(B,"{word}") AND {rel}(B,$2)

FILTER:
COUNT(answer.B) >= {t}
"""

#: Fig. 3 (negation, 2 parameters), its 3-parameter variant, and the
#: Fig. 4 three-branch union: the plan-heavy rotation.  The variant asks
#: for support 10: at 20 it has 0 or 1 survivors on 600 patients, which
#: would make its correctness check nearly empty.
FIG3_FLOCK = """QUERY:
answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND diagnoses(P,D) AND NOT causes(D,$s)

FILTER:
COUNT(answer.P) >= 20
"""
FIG3_3PARAM_FLOCK = """QUERY:
answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND diagnoses(P,$d) AND NOT causes($d,$s)

FILTER:
COUNT(answer.P) >= 10
"""
FIG4_FLOCK = """QUERY:
answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2

FILTER:
COUNT(answer(*)) >= 20
"""
PLAN_HEAVY_FLOCKS = (FIG3_FLOCK, FIG3_3PARAM_FLOCK, FIG4_FLOCK)

BASE_THRESHOLD = 20
PINNED_THRESHOLD = 10
#: No ask goes below this support, so the oracle only counts pairs of
#: items that reach it (a pair's count never exceeds either item's).
FLOOR_THRESHOLD = 10
PINNED_WORDS = 12
#: Share of cache-servable asks that re-ask the pair flock itself.  A
#: pair hit re-filters ~800 rows, a pinned hit ~100: with 70 % pair hits
#: the median op sits inside the pair-hit mode, not between the two.
BASE_HIT_SHARE = 0.7

#: The corpus shape of the repo's historical ``words-sec1.3`` benchmark.
VOCABULARY = 8000
WORDS_PER_ARTICLE = 60
SKEW = 0.8

Rows = frozenset  # of tuples


def article_rows(seed: int, n_articles: int) -> Rows:
    """Raw ``(BID, Item)`` rows of the Zipf word-occurrence corpus."""
    return generate_articles(
        n_articles=n_articles,
        vocabulary=VOCABULARY,
        words_per_article=WORDS_PER_ARTICLE,
        skew=SKEW,
        seed=seed,
    ).tuples


def plan_heavy_relations(seed: int) -> dict[str, tuple[tuple[str, ...], Rows]]:
    """Raw rows of the small medical + web catalog (7 relations)."""
    medical = generate_medical(
        n_patients=600, n_diseases=20, n_symptoms=40, n_medicines=30,
        seed=seed,
    ).db
    web = generate_webdocs(
        n_documents=60, n_anchors=200, vocabulary=16, title_words=3, seed=seed
    ).db
    return {
        name: (db.get(name).columns, db.get(name).tuples)
        for db in (medical, web)
        for name in db.names()
    }


class PairOracle:
    """Reference survivors of the pair and pinned flocks over one basket
    relation, recounted from scratch (lazily) after every replacement."""

    def __init__(self, rows: Rows) -> None:
        self.replace(rows)

    def replace(self, rows) -> None:
        self.baskets: dict[object, set] = {}
        for bid, item in rows:
            self.baskets.setdefault(bid, set()).add(item)
        self._pairs: Counter | None = None
        self._memo: dict[tuple, Rows] = {}

    def _counts(self) -> tuple[Counter, Counter]:
        if self._pairs is None:
            self._items = Counter(
                item for items in self.baskets.values() for item in items
            )
            self._frequent = {
                item for item, count in self._items.items()
                if count >= FLOOR_THRESHOLD
            }
            self._pairs = Counter()
            for items in self.baskets.values():
                self._pairs.update(
                    combinations(sorted(self._frequent & items), 2)
                )
        return self._items, self._pairs

    def survivors(self, word: str | None, threshold: int) -> Rows:
        """Expected rows of PAIR_FLOCK (``word=None``) or PINNED_FLOCK."""
        if threshold < FLOOR_THRESHOLD:
            raise ValueError(f"oracle floor is {FLOOR_THRESHOLD}")
        key = (word, threshold)
        if key not in self._memo:
            items, pairs = self._counts()
            if word is None:
                self._memo[key] = frozenset(
                    pair for pair, count in pairs.items() if count >= threshold
                )
            else:
                # ``$2`` may be the pinned word itself: every article
                # that has it pairs it with itself.
                self._memo[key] = frozenset(
                    (other,) for other in self._frequent
                    if (items[word] if other == word
                        else pairs[min(word, other), max(word, other)])
                    >= threshold
                )
        return self._memo[key]

    def frequent_words(self, n: int) -> list[str]:
        """The ``n`` most frequent items (ties broken by name)."""
        items, _ = self._counts()
        ranked = sorted(items.items(), key=lambda kv: (-kv[1], kv[0]))
        return [item for item, _ in ranked[:n]]


@dataclass(frozen=True)
class Op:
    """One scripted operation with its expected outcome.

    ``kind`` is ``"ask"`` (``text`` in, ``expect`` rows out) or
    ``"write"`` (``rows`` replaces the relation).  ``intent`` records
    what the script's cache model meant the ask to be (hit / pinned /
    looser / rewarm) — the program never sees it.
    """

    kind: str
    intent: str
    text: str = ""
    expect: Rows = frozenset()
    rows: Rows = frozenset()


@dataclass(frozen=True)
class Mix:
    """Op counts of one script block; ``writes`` arrive as one burst
    followed by one re-warm ask of the base flock."""

    hits: int
    pinned: int
    looser: int
    writes: int


#: 84 % hits / 12 % misses / 4 % writes per 100 ops.  Ten of the twelve
#: misses are pinned shapes, so op p95 sits inside that mode and one
#: block pushes more entries than an 8-entry cache keeps.
CHURN_MIX = Mix(hits=84, pinned=10, looser=1, writes=4)
#: 75 % hits / 20 % misses / 5 % reloads per 20 requests; half of the
#: misses are full pair queries, so request p95 is the engine.
SERVE_MIX = Mix(hits=15, pinned=2, looser=1, writes=1)


def analyst_script(
    rng: random.Random,
    relation: str,
    rows: Rows,
    mix: Mix,
    recent: int | None,
) -> Iterator[Op]:
    """An endless analyst session over one basket relation.

    The script is built against a *model* of the result cache, never the
    program: ``cached`` maps each shape asked since the last write to the
    loosest threshold asked, in recency order, and a "hit" re-asks one of
    the ``recent`` most recently used shapes (``None`` = any) at a
    stricter-or-equal threshold.  What the program's cache really did is
    counted from its own reports.

    Writes slide a window: the oldest 1 % of articles are replaced by as
    many fresh ones, so the relation keeps its size however long the run.
    """
    oracle = PairOracle(rows)
    articles = {bid: set(items) for bid, items in oracle.baskets.items()}
    next_bid = max(articles) + 1
    churn = max(1, len(articles) // 100)
    words = [f"word{w:05d}" for w in range(VOCABULARY)]
    cum_weights = list(accumulate(zipf_weights(VOCABULARY, SKEW)))
    pinned_cycle = cycle(rng.sample(oracle.frequent_words(40), PINNED_WORDS))
    cached: dict[str | None, int] = {}

    def recent_shapes() -> list[str | None]:
        return list(cached)[-(recent or len(cached)):]

    def ask(intent: str, word: str | None, threshold: int) -> Op:
        cached[word] = min(threshold, cached.pop(word, threshold))
        if word is None:
            template = rng.choice(PAIR_SPELLINGS) if intent == "hit" else PAIR_FLOCK
        else:
            template = PINNED_FLOCK
        return Op(
            "ask", intent,
            text=template.format(rel=relation, word=word, t=threshold),
            expect=oracle.survivors(word, threshold),
        )

    def write() -> Op:
        nonlocal next_bid
        for bid in sorted(articles)[:churn]:
            del articles[bid]
        for _ in range(churn):
            articles[next_bid] = set(
                rng.choices(words, cum_weights=cum_weights, k=WORDS_PER_ARTICLE)
            )
            next_bid += 1
        new_rows = frozenset(
            (bid, item) for bid, items in articles.items() for item in items
        )
        oracle.replace(new_rows)
        cached.clear()
        return Op("write", "write", rows=new_rows)

    def pinned_miss() -> Op:
        for _ in range(PINNED_WORDS):
            word = next(pinned_cycle)
            if word not in recent_shapes():
                break
        cached.pop(word, None)
        return ask("pinned", word, PINNED_THRESHOLD)

    yield ask("rewarm", None, BASE_THRESHOLD)
    while True:
        body = (
            ["hit"] * mix.hits + ["pinned"] * mix.pinned + ["looser"] * mix.looser
        )
        rng.shuffle(body)
        at = rng.randrange(len(body) + 1)
        for intent in body[:at] + ["write"] * mix.writes + ["rewarm"] + body[at:]:
            if intent == "write":
                yield write()
            elif intent == "rewarm":
                yield ask("rewarm", None, BASE_THRESHOLD)
            elif intent == "pinned":
                yield pinned_miss()
            elif intent == "looser" and cached[None] > FLOOR_THRESHOLD:
                yield ask("looser", None, cached[None] - 1)
            elif intent == "looser":
                yield pinned_miss()
            else:
                others = [s for s in recent_shapes() if s is not None]
                shape = (
                    rng.choice(others)
                    if others and rng.random() >= BASE_HIT_SHARE else None
                )
                yield ask("hit", shape, cached[shape] + rng.randrange(6))
