"""docs/wire_format.md against the code it documents: the verb table,
the work-budget table and the error names of the exit codes."""

import importlib
import pathlib
import pkgutil
import re

import skewpoly
from skewpoly import cli, errors

DOC = (pathlib.Path(__file__).parent.parent / "docs" / "wire_format.md").read_text()


def _table(heading):
    """Body rows of the first table under the heading, as lists of cells;
    an escaped pipe (\\|) stays inside its cell."""
    rows = []
    for line in DOC.split(f"\n{heading}\n", 1)[1].splitlines():
        if line.startswith("|"):
            rows.append([c.strip() for c in re.split(r"(?<!\\)\|", line.strip())[1:-1]])
        elif rows:
            break
    return rows[2:]


def _name(cell):
    match = re.fullmatch(r"`([^`]+)`", cell)
    assert match, cell
    return match.group(1)


def test_verb_table_names_exactly_the_cli_verbs():
    assert sorted(_name(row[0]) for row in _table("## Verbs")) == sorted(cli._VERBS)


def _public_limits():
    """Every public *_LIMIT constant of every skewpoly module, by name; a
    name imported into several modules must keep one value."""
    limits = {}
    for info in pkgutil.iter_modules(skewpoly.__path__):
        module = importlib.import_module(f"skewpoly.{info.name}")
        for name, value in vars(module).items():
            if name.endswith("_LIMIT") and not name.startswith("_"):
                assert limits.setdefault(name, value) == value, (info.name, name)
    return limits


def test_budget_table_names_every_limit_with_its_value():
    limits = _public_limits()
    # the class tests and the conjugates listed keep the budgets of the
    # membership engine they replaced, by name and value
    assert limits["MEMBERSHIP_WORK_LIMIT"] == 1 << 22
    assert limits["CLOSURE_POINT_LIMIT"] == 1 << 16
    rows = {_name(row[0]): row[1] for row in _table("## Work budgets")}
    assert sorted(rows) == sorted(limits)
    for name, value in limits.items():
        assert re.search(rf"(?<![\d^]){value}(?!\d)", rows[name]), (name, value, rows[name])


def test_exit_code_list_names_exactly_the_error_names():
    section = DOC.split("\n## Exit codes and errors\n", 1)[1].split("\n## ", 1)[0]
    domain = section.split("the name one of", 1)[1].split(".", 1)[0]
    named = set(re.findall(r"`([A-Z]\w*)`", domain))
    named |= set(re.findall(r'"error": "(\w+)"', section))
    classes = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.SkewPolyError)
               and cls is not errors.SkewPolyError}
    assert named == classes | {"MalformedInput", "InternalError"}
