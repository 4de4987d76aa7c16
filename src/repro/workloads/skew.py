"""Adversarial-skew clickstream data: where estimates lie and bounds win.

The domain is a promo-campaign funnel over one shared user key:

* ``promo(U, G)`` — the users enrolled in a promo group (small; the
  natural start relation).
* ``clicks(U, P)`` — page clicks, long-tailed over pages.
* ``views(U, V)`` — video views, the same shape.
* ``purchases(U, I)`` — purchases, a few per purchasing user.

The trap is *correlated skew*: a small set of bot accounts is hot in
**both** ``clicks`` and ``views`` (hundreds of rows each) but appears in
``promo`` and never purchases anything.  Under the independence
assumption, ``clicks ⋈ views`` on ``U`` looks cheap — per-user activity
averages out — so an estimate-driven (System-R style) orderer joins
the two hot relations early and pays a quadratic blowup on every bot
(``clicks_u × views_u`` rows per bot user).  The pessimistic UES orderer
never believes the average: its bound for the hot-hot join carries the
*maximum* per-user frequency of both sides, while ``purchases`` —
bounded by a small max frequency — provably stays small, so bounds order
the bot-killing join first and the blowup never materializes.

The page/item long tails give runtime filters their bite: most pages
never reach support, so the a-priori pre-filter's survivor set is tiny
and the injected semi-join filter discards the bulk of each later scan.

Generation is deterministic given a seed.
"""

from __future__ import annotations

import random

from ..relational.catalog import Database
from ..relational.relation import Relation
from .baskets import item_names, zipf_weights


def generate_skewed_clickstream(
    n_users: int = 8000,
    n_bots: int = 24,
    n_promo_users: int = 600,
    n_pages: int = 600,
    n_videos: int = 500,
    n_items: int = 300,
    bot_activity: int = 120,
    avg_user_activity: float = 3.0,
    page_skew: float = 1.2,
    seed: int = 0,
) -> Database:
    """The adversarial-skew promo-funnel database.

    Users ``0 .. n_bots-1`` are the bots: every one of them is enrolled
    in ``promo``, produces ``bot_activity`` rows in *both* ``clicks``
    and ``views``, and is absent from ``purchases``.  Ordinary users
    click/view/purchase a handful of Zipf-distributed pages, videos and
    items.  All parameters scale together so benchmarks can shrink the
    workload without losing the skew structure.
    """
    if n_bots > n_promo_users or n_promo_users > n_users:
        raise ValueError("need n_bots <= n_promo_users <= n_users")
    rng = random.Random(seed)
    pages = item_names(n_pages, "page")
    videos = item_names(n_videos, "video")
    items = item_names(n_items, "item")
    page_weights = zipf_weights(n_pages, page_skew)
    video_weights = zipf_weights(n_videos, page_skew)
    item_weights = zipf_weights(n_items, page_skew)
    groups = ("gold", "silver", "bronze", "trial")

    bots = list(range(n_bots))
    ordinary_promo = rng.sample(
        range(n_bots, n_users), n_promo_users - n_bots
    )
    promo_rows = {
        (user, rng.choice(groups)) for user in bots + ordinary_promo
    }

    def activity(hot: bool) -> int:
        if hot:
            return bot_activity
        return max(1, round(rng.expovariate(1.0 / avg_user_activity)))

    clicks_rows: set[tuple] = set()
    views_rows: set[tuple] = set()
    purchases_rows: set[tuple] = set()
    for user in range(n_users):
        hot = user < n_bots
        for page in rng.choices(pages, page_weights, k=activity(hot)):
            clicks_rows.add((user, page))
        for video in rng.choices(videos, video_weights, k=activity(hot)):
            views_rows.add((user, video))
        if not hot:
            for item in rng.choices(
                items, item_weights, k=activity(False)
            ):
                purchases_rows.add((user, item))

    return Database(
        [
            Relation("promo", ("U", "G"), promo_rows),
            Relation("clicks", ("U", "P"), clicks_rows),
            Relation("views", ("U", "V"), views_rows),
            Relation("purchases", ("U", "I"), purchases_rows),
        ]
    )
