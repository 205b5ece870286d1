"""The package's public names and its one spelling of shared input rules."""

import re
from collections import Counter
from pathlib import Path

import pytest

import hippp


def test_every_exported_name_resolves_once():
    assert [name for name, seen in Counter(hippp.__all__).items() if seen > 1] == []
    assert [name for name in hippp.__all__ if not hasattr(hippp, name)] == []


def test_only_errors_spells_the_whole_number_rule():
    # every count, index and seed goes through hippp.errors.whole
    spelled = re.compile(r"\bint\(.*\)\s*!=|!=\s*int\(")
    package = Path(hippp.__file__).parent
    copies = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if spelled.search(line)
    ]
    assert copies == []


@pytest.mark.parametrize("message, home", [
    ("must stay sparse", "architecture.py"),
    ("a converter ladder needs at least two batteries", "architecture.py"),
    # the rating rule and the capability rule, one function each
    ("must be non-negative, not NaN", "errors.py"),
    ("must be positive and finite", "errors.py"),
    # the rule of budgets, spreads, grids and design-time processed powers
    ("must be non-negative and finite", "errors.py"),
    # the rule of every converter efficiency
    ("must lie in (0, 1]", "errors.py"),
    # the reading of every single-number field
    ("must be one number", "errors.py"),
    # the shapes of a curve and of a flow solution
    ("curve points must be (rating, utilization) pairs", "design.py"),
    ("converter flows and battery powers must be finite numbers", "powerflow.py"),
])
def test_each_wiring_and_capability_rule_is_raised_from_one_place(message, home):
    # one function holds each rule and raises its message; a second copy of the message is a second copy of the rule
    package = Path(hippp.__file__).parent
    places = [
        (path.name, line.strip())
        for path in sorted(package.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if message in line
    ]
    assert len(places) == 1, places
    name, line = places[0]
    assert name == home and line.startswith("raise ")
