"""The oracle shares no helper with the code it checks."""

import ast
from pathlib import Path

import oracle.definitions

#: modules and names whose logic the definitions restate instead of reusing
FORBIDDEN_MODULES = ("repro.cqa", "repro.detection", "repro.discovery", "repro.repair",
                     "repro.matching", "repro.relational.index",
                     "repro.relational.predicates", "repro.relational.sql.executor",
                     "repro.relational.sql.columnar", "repro.relational.sql.explain",
                     "repro.engine")
FORBIDDEN_NAMES = {"matches", "matches_values", "constants_equal", "is_null",
                   "is_wildcard", "HashIndex", "partition_of", "PartitionProvider",
                   "evaluate", "truth", "sort_key", "rewrite_aggregates",
                   "expanded_items", "flatten_conjuncts", "change_cost", "code_distance"}


def test_definitions_import_no_engine_helpers():
    tree = ast.parse(Path(oracle.definitions.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not node.module.startswith(FORBIDDEN_MODULES), node.module
            assert not {alias.name for alias in node.names} & FORBIDDEN_NAMES
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith(FORBIDDEN_MODULES)
                           for alias in node.names)
        elif isinstance(node, ast.Attribute):  # e.g. pattern.matches(row)
            assert node.attr not in FORBIDDEN_NAMES, node.attr
