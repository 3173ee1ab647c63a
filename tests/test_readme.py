"""README's config table lists every field as the schema tables in
``qdpsim.cli`` hold them: the same fields per section, each type cell led by
the field's ``describe()`` and each default cell naming its default."""

import json
import pathlib
import re

from qdpsim import cli

README = pathlib.Path(__file__).parents[1] / "README.md"
HEADER = "| section | field | type and range | default |"


def readme_rows():
    """``(section, fields, type, default)`` per row of README's config table,
    ``\\|`` read as a literal bar."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        section, names, kind, default = cells
        rows.append((section.strip("`"), re.findall(r"`([^`]+)`", names), kind, default))
    return rows


def schema_tables():
    """Each README section's field table, as ``qdpsim.cli`` holds it."""
    tables = {"top": cli._TOP, "output": cli._TOP["output"].table,
              "strategy": {"kind": cli._KIND}, "imr": cli._IMR.table}
    tables.update((kind, fields) for kind, (_, fields) in cli._STRATEGIES.items())
    tables.update((name, entry.params) for name, entry in cli._SCENARIOS.items())
    return tables


def test_readme_lists_every_schema_field():
    listed = {}
    for section, names, _, _ in readme_rows():
        listed.setdefault(section, []).extend(names)
    tables = schema_tables()
    assert set(listed) <= set(tables)
    for section, table in tables.items():
        assert sorted(listed.get(section, [])) == sorted(table), section


def test_readme_types_and_defaults_are_the_schema_s():
    tables = schema_tables()
    for section, names, kind, default in readme_rows():
        for name in names:
            f = tables[section][name]
            assert kind.startswith(f.describe()), (section, name, kind)
            if f.default is cli._REQUIRED:
                assert default == "required", (section, name, default)
            elif f.default is None:
                assert default.startswith("none"), (section, name, default)
            else:
                want = f.default if isinstance(f.default, str) else json.dumps(f.default)
                assert f"`{want}`" in default, (section, name, default)
