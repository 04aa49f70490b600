"""The package holds no code that only the tests reach."""

import ast
import collections
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "branchlab"

# Public names that may stay although nothing in the package calls them.
ALLOWED = {
    # run_case runs the box pass directly; these one-check selections of it are
    # reached from perfbench/tracing.py by attribute name, and from the tests
    "check_dimension_conservation": "a one-check selection of verify's box pass",
    "check_strong_multiplicity_freeness": "a one-check selection of verify's box pass",
    "check_pi_side_consistency": "a one-check selection of verify's box pass",
}


def _name_lines(path):
    """The lines on which each Python name occurs in the file; names inside
    strings and comments do not count."""
    lines = collections.defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME:
                lines[tok.string].append(tok.start[0])
    return lines


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, (first, node.end_lineno)


def test_every_public_definition_has_a_caller():
    """Each public module-level def or class of the package is named, outside
    its own definition, in the package or the benchmark; the allowlist names
    exactly the exceptions."""
    callers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    names = {p: _name_lines(p) for p in callers}
    uncalled = {}
    for path, name, (first, last) in _public_definitions():
        if not any(
            p != path or not first <= line <= last
            for p in callers
            for line in names[p].get(name, ())
        ):
            uncalled[name] = path.name
    assert set(uncalled) == set(ALLOWED), uncalled
