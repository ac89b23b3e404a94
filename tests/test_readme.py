"""README's "Public API" section names every public export of the package."""

import re
from pathlib import Path
from types import ModuleType

import pomsetblock

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_api_section_names_every_export():
    text = README.read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    # `name`, `name(args)` and `Class.method` all name their leading identifier
    named = {m.group(1) for m in re.finditer(r"`([A-Za-z_]\w*)[^`]*`", section)}
    exports = {name for name, value in vars(pomsetblock).items()
               if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert "BlockSpace" in exports and "BlockSpace" in named
    assert sorted(exports - named) == []
