"""Every example script runs cleanly; every docstring example is true.

The examples are a deliverable: a broken example is a broken promise,
so each one is executed as a subprocess and must exit 0 with sensible
output.  The library's doctests run through pytest's doctest collector
here as well, so a drifting docstring fails the suite.
"""

import doctest
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
SRC_DIR = pathlib.Path(__file__).parent.parent / "src" / "repro"

EXPECTED_SNIPPETS = {
    "quickstart.py": "greatest fixpoint",
    "dbg_schema_extraction.py": "optimal typing with 6 types",
    "relational_roundtrip.py": "recovered relations",
    "web_pages_multirole.py": "multi-role types decomposed",
    "schema_guided_queries.py": "starter types per query",
    "data_integration.py": "incremental updates",
    "schema_inspection.py": "subsumption hierarchy",
}


@pytest.mark.parametrize("script", sorted(EXPECTED_SNIPPETS))
def test_example_runs(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert EXPECTED_SNIPPETS[script] in completed.stdout


def test_all_examples_are_covered():
    """A new example script must be registered above."""
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_SNIPPETS)


@pytest.mark.parametrize(
    "module_path",
    sorted(
        str(p.relative_to(SRC_DIR.parent.parent))
        for p in SRC_DIR.rglob("*.py")
    ),
)
def test_doctests(module_path):
    """Run each module's doctests (empty modules trivially pass)."""
    import importlib

    module_name = (
        module_path.replace("src/", "").replace("/", ".").removesuffix(".py")
    )
    if module_name.endswith(".__init__"):
        module_name = module_name.removesuffix(".__init__")
    if module_name.endswith("__main__"):
        pytest.skip("__main__ exits by design")
    if module_name == "repro.core.matrixspace":
        # The clustering ablations' matrix needs numpy; nothing else does.
        pytest.importorskip("numpy", exc_type=ImportError)
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
