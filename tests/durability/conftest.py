"""The durability suite runs with the tree-building tripwire on."""

from tests.tripwire import forbid_tree_building  # noqa: F401
