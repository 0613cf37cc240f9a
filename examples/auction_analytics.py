#!/usr/bin/env python3
"""Auction-site analytics over an XMark-style document.

The scenario the paper's introduction motivates: a large, heterogeneous
e-commerce document queried with both navigational paths and value
predicates.  The example generates a deterministic auction site, runs an
analytics mix through different execution strategies, and prints the
optimizer's choices next to the measured I/O.

Run with::

    python examples/auction_analytics.py [scale]
"""

import sys

from repro import Database
from repro.workload import generate_xmark


def main(scale: int = 300) -> None:
    print(f"Generating XMark-style auction site (scale={scale})...")
    db = Database()
    document = db.load_tree(generate_xmark(scale=scale, seed=42),
                            uri="auctions.xml")
    print(f"  {len(document.interval)} nodes, "
          f"{len(document.statistics.tag_counts)} distinct tags\n")

    print("== Catalogue size per region ==")
    for region in ("africa", "asia", "europe", "namerica"):
        count = db.query(f"count(/site/regions/{region}/item)")
        print(f"  {region:10s} {int(count.items[0]):4d} items")

    print("\n== Expensive open auctions (current > 150) ==")
    result = db.query("//open_auction[current > 150]/itemref/@item")
    print(f"  {len(result)} auctions; first few: "
          f"{[a.value for a in result.items[:5]]}")

    print("\n== People watching auctions, with income ==")
    watchers = db.query(
        'for $p in doc("auctions.xml")//person[watches] '
        "where $p/profile/@income > 80000 "
        "order by $p/name "
        "return <watcher income='{$p/profile/@income}'>"
        "{$p/name/text()}</watcher>")
    for watcher in watchers.items[:5]:
        print(f"  {watcher.string_value():24s} "
              f"income={watcher.get_attribute('income')}")
    print(f"  ... {len(watchers)} total")

    print("\n== Cash items and their mailbox depth (twig query) ==")
    twig = "//item[payment = 'Cash'][mailbox/mail]/name"
    for strategy in ("auto", "nok", "twigstack", "structural-join",
                     "navigational"):
        db.pages.reset()
        result = db.query(twig, strategy=strategy)
        print(f"  {strategy:16s} {len(result):4d} results  "
              f"reads={result.io['page_reads']:5d}  "
              f"joins={result.stats['structural_joins']:3d}  "
              f"intermediates={result.stats['intermediate_results']:6d}")

    print("\n== The optimizer's view ==")
    print(db.explain(twig))

    print("\n== Cross-document style report (construction) ==")
    report = db.query(
        "<top_sellers>{"
        ' for $a in doc("auctions.xml")//closed_auction'
        " where $a/price > 300"
        " return <sale item='{$a/itemref/@item}'>"
        "{$a/price/text()}</sale>"
        "}</top_sellers>")
    print(f"  {len(list(report.items[0].child_elements()))} big sales")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 300)
