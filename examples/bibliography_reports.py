#!/usr/bin/env python3
"""Bibliography reports over a DBLP-style document.

The bibliographic scenario of the paper's Fig. 1: shred a large flat
bibliography, then build structured reports with XQuery construction —
including the paper's exact query shape (``<results>{ for ... return
<result>{$t}{$a}</result> }</results>``) and its extracted SchemaTree.

Run with::

    python examples/bibliography_reports.py [publications]
"""

import sys

from repro import Database, parse_xquery
from repro.algebra.schema_tree import extract_schema_tree
from repro.workload import generate_dblp


def main(publications: int = 400) -> None:
    print(f"Generating DBLP-style bibliography "
          f"({publications} publications)...")
    db = Database()
    doc = db.load_tree(generate_dblp(publications=publications, seed=7),
                       uri="dblp.xml")
    print(f"  {len(doc.interval)} nodes\n")

    print("== Publications per venue ==")
    venues = db.query("distinct-values(//journal | //booktitle)")
    for venue in sorted(venues.items):
        count = db.query(
            f"count(//*[journal = '{venue}' or booktitle = '{venue}'])")
        print(f"  {venue:8s} {int(count.items[0]):4d}")

    print("\n== The paper's Fig. 1 query over this bibliography ==")
    fig1 = (
        '<results> {'
        ' for $b in document("dblp.xml")/dblp/article'
        ' let $t := $b/title'
        ' let $a := $b/author'
        ' return <result> {$t} {$a} </result>'
        ' } </results>')
    result = db.query(fig1)
    entries = list(result.items[0].child_elements("result"))
    print(f"  built <results> with {len(entries)} <result> entries")

    print("\n== Its extracted SchemaTree (the paper's Fig. 1b) ==")
    print(extract_schema_tree(parse_xquery(fig1)).describe())

    print("\n== Authors with the most recent papers ==")
    recent = db.query(
        'for $p in doc("dblp.xml")/dblp/* '
        "where $p/year >= 2003 "
        "order by $p/year descending "
        "return $p/author[1]")
    print(f"  {len(recent)} first-authors since 2003; sample:")
    for author in recent.items[:5]:
        print(f"    {author.string_value()}")

    print("\n== Value-index lookups vs scans ==")
    year_query = "//article[year = '2001']"
    for strategy in ("index-scan", "nok", "structural-join"):
        db.pages.reset()
        result = db.query(year_query, strategy=strategy)
        print(f"  {strategy:16s} {len(result):4d} articles  "
              f"reads={result.io['page_reads']:4d}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
