#!/usr/bin/env python3
"""Streaming path filtering — no tree, no storage, one pass.

Section 4.2: "pre-order of the tree nodes coincides with the streaming
XML element arrival order.  So the path query evaluation algorithm ...
can also be used in the streaming context."  This example runs the NoK
matcher directly over parser events of a large generated document and
verifies the matches against the stored evaluation, then reports the
memory profile (the matcher keeps only the open path).

Run with::

    python examples/streaming_filter.py [scale]
"""

import sys

from repro import Database, parse_xpath, serialize
from repro.algebra.pattern_graph import compile_path
from repro.physical.nok import NoKMatcher
from repro.workload import generate_xmark
from repro.xml.events import events_from_tree

QUERIES = [
    "/site/regions/europe/item/name",
    "/site/people/person[profile]/name",
    "/site/open_auctions/open_auction[initial > 100]/current",
    "/site/regions/asia/item/@id",
]


def main(scale: int = 400) -> None:
    print(f"Generating auction stream (scale={scale})...")
    tree = generate_xmark(scale=scale, seed=9)
    tree.reindex()
    print(f"  {tree.size} nodes will stream\n")

    db = Database()
    db.load_tree(tree, uri="auctions.xml")

    for query in QUERIES:
        pattern = compile_path(parse_xpath(query))
        output = pattern.output_vertices()[0].vertex_id

        # Streaming: consume events only (replayed from the tree here;
        # repro.xml.parser.iterparse(text) streams real text the same way).
        matcher = NoKMatcher(pattern)
        bindings = matcher.run_stream(events_from_tree(tree))
        stream_ids = sorted({b[output] for b in bindings if output in b})

        # Stored: the same pattern over the stored label columns.
        stored = NoKMatcher(pattern)
        stored_bindings = stored.run(db.document().runtime)
        stored_ids = sorted({b[output] for b in stored_bindings
                             if output in b})

        status = "OK " if stream_ids == stored_ids else "DIFF"
        print(f"[{status}] {query}")
        print(f"       {len(stream_ids)} matches in one pass over "
              f"{matcher.stats.nodes_visited} streamed nodes")

    print("\nSample matches for the last query:")
    document = db.document()
    for preorder in stored_ids[:5]:
        print(" ", serialize(document.node_for(preorder)))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
