#!/usr/bin/env python3
"""A live product catalogue: updates and queries interleaved.

Subtree insertions and deletions go through the engine, which keeps the
label columns, the content heap, both content indexes and the statistics
aligned; each update returns the column splice's metrics — the nodes
inserted or removed and the records relabelled (every later node plus the
ancestors, the interval-encoding cost experiment E7 sets against the
paper's local succinct splice).

Run with::

    python examples/live_catalog.py
"""

from repro import Database

SEED_CATALOG = """
<catalog>
  <product id="p1"><name>kettle</name><price>35</price>
    <stock>12</stock></product>
  <product id="p2"><name>toaster</name><price>42</price>
    <stock>3</stock></product>
  <product id="p3"><name>blender</name><price>89</price>
    <stock>0</stock></product>
</catalog>
"""


def show(db, title):
    print(f"\n== {title} ==")
    for product in db.query("/catalog/product"):
        identifier = product.get_attribute("id")
        name = product.find("name").string_value()
        price = product.find("price").string_value()
        print(f"  {identifier}: {name:10s} ${price}")


def main() -> None:
    db = Database()
    db.load(SEED_CATALOG, uri="catalog.xml")
    show(db, "initial catalogue")

    print("\n-- new product arrives --")
    metrics = db.insert(
        "/catalog",
        '<product id="p4"><name>grinder</name><price>55</price>'
        "<stock>7</stock></product>")
    print(f"   inserted {metrics['inserted_nodes']} nodes at pre "
          f"{metrics['inserted_at']}; relabelled {metrics['relabelled']} "
          f"records")
    show(db, "after insertion")

    print("\n-- discontinue the out-of-stock blender --")
    victims = db.query("/catalog/product[stock = 0]")
    assert len(victims) == 1
    identifier = victims.items[0].get_attribute("id")
    metrics = db.delete(f"/catalog/product[@id = '{identifier}']")
    print(f"   removed {metrics['removed_nodes']} nodes; relabelled "
          f"{metrics['relabelled']} records")
    show(db, "after deletion")

    print("\n== queries keep using the freshest indexes ==")
    result = db.query("//product[price > 40]/name", strategy="index-scan")
    print(f"  over $40 (index-scan): {result.values()}")
    result = db.query("//product[name = 'grinder']", strategy="index-scan")
    print(f"  exact name (index-scan): "
          f"{[n.get_attribute('id') for n in result]}")
    count = db.query("count(//product)")
    print(f"  product count: {int(count.items[0])}")

    print("\n== reference check ==")
    for query in ("//product/@id", "//name", "count(//stock)"):
        engine = db.query(query).values()
        reference = [n.string_value() if hasattr(n, "string_value") else n
                     for n in db.reference_query(query)]
        status = "OK" if engine == reference else "DIFF"
        print(f"  [{status}] {query}")


if __name__ == "__main__":
    main()
