"""The accepted survivors of the conditional mutation pass still name live code.

``scripts/accepted_survivors.tsv`` lists each conditional whose mutant, its
test forced True or False, no tier-1 test can tell from the code, with the
reason it stays. A refactor that moves or rewrites such a conditional has to
update the list, so a rerun of the pass reports only new survivors.
"""

import csv
import importlib
import inspect
from pathlib import Path

SURVIVORS = Path(__file__).resolve().parents[1] / "scripts" / "accepted_survivors.tsv"
COLUMNS = ["module", "function", "condition", "forced", "reason", "owner"]


def test_each_accepted_survivor_names_a_conditional_of_its_function():
    with open(SURVIVORS, newline="") as fh:
        reader = csv.DictReader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        rows = list(reader)
    assert reader.fieldnames == COLUMNS
    assert rows
    keys = [(r["module"], r["function"], r["condition"], r["forced"]) for r in rows]
    assert len(set(keys)) == len(keys)
    for row in rows:
        assert None not in row.values() and all(row.values()), row
        function = getattr(importlib.import_module(f"srlab.{row['module']}"), row["function"])
        assert row["condition"] in inspect.getsource(function), row
        assert row["forced"] in ("True", "False"), row
