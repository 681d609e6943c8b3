"""The README's pointers into the code, and the code's pointers into the README.

The README names the docstring that holds each implementation contract, as a
backticked dotted name such as ``xova.solver.Buffers``; code that relies on a
user-facing fact names its README section as ``(README, "<Section>")``. A
rename on either side must update the other.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
NAMES = sorted(set(re.findall(r"`(xova(?:\.\w+)+)", README)))
POINTERS = sorted(
    (path.relative_to(ROOT).as_posix(), section)
    for path in [*sorted((ROOT / "src").rglob("*.py")), ROOT / "pyproject.toml"]
    for section in re.findall(r'\(README,\s*"([^"]+)"\)', path.read_text(encoding="utf-8"))
)


def resolve(dotted: str):
    """The object a dotted name denotes: its longest importable module
    prefix, then one ``getattr`` per remaining part."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


# One test per direction, not one per name, so that editing the README
# changes no test's name.
def test_each_name_in_the_readme_resolves():
    assert NAMES, "the README names no xova.* object"
    stale = []
    for dotted in NAMES:
        try:
            resolve(dotted)
        except (ImportError, AttributeError) as err:
            stale.append(f"{dotted}: {err}")
    assert not stale, stale


def test_each_readme_pointer_names_a_section():
    headings = set(re.findall(r"^## (.+?)\s*$", README, flags=re.M))
    stale = [f'{where}: (README, "{section}")' for where, section in POINTERS
             if section not in headings]
    assert not stale, stale


def test_resolve_rejects_a_stale_name():
    with pytest.raises(AttributeError):
        resolve("xova.solver.NoSuchThing")
    with pytest.raises(ModuleNotFoundError):
        resolve("xovaa.solver")
