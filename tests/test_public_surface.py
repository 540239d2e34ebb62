"""Every name the package exports has a use outside its definition.

A use is a name read, an attribute access or an imported name in the
package's own modules, the demos or the benchmark scripts.  A name that
only the tests use belongs in ``tests/references.py``.  The number of
exported names may not grow past ``EXPORT_LIMIT``.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import onlineusm

ROOT = Path(__file__).resolve().parent.parent

#: exported names kept without a use, each with its reason
EXEMPT = {
    "step_invariant_deltas": "the pacing certificate; ROADMAP item 3's run diagnostics give it a caller",
    "write_digraph": "writes the graph file format that read_digraph reads",
}

#: names a fresh ``import onlineusm`` exports, modules included; it may
#: only go down
EXPORT_LIMIT = 57


def _sources() -> list[Path]:
    package = [p for p in sorted((ROOT / "src" / "onlineusm").glob("*.py")) if p.name != "__init__.py"]
    return package + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _used_names() -> set[str]:
    used = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _exported() -> set[str]:
    return {
        name for name in dir(onlineusm)
        if not name.startswith("_") and not isinstance(getattr(onlineusm, name), types.ModuleType)
    }


def test_every_exported_name_is_used_outside_its_definition():
    unused = _exported() - _used_names() - set(EXEMPT)
    assert not unused, f"exported but used only by tests or their own definition: {sorted(unused)}"


def test_every_exemption_is_exported_and_still_needed():
    assert set(EXEMPT) <= _exported()
    assert not set(EXEMPT) & _used_names()


def test_exported_count_stays_within_its_limit():
    count = subprocess.run(
        [sys.executable, "-c",
         "import onlineusm; print(len([n for n in dir(onlineusm) if not n.startswith('_')]))"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, check=True,
    ).stdout
    assert int(count) <= EXPORT_LIMIT, (
        f"onlineusm exports {int(count)} names, more than {EXPORT_LIMIT}; "
        "ROADMAP item 8 asks for fewer, so keep new records and helpers in their modules"
    )
