"""The package holds no code, public or private, that only the tests reach."""

import ast
import collections
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "branchlab"

# Names that may stay although nothing in the package calls them.
ALLOWED = {
    # run_case runs the box pass directly; these one-check selections of it are
    # reached from perfbench/tracing.py by attribute name, and from the tests
    "check_dimension_conservation": "a one-check selection of verify's box pass",
    "check_strong_multiplicity_freeness": "a one-check selection of verify's box pass",
    "check_pi_side_consistency": "a one-check selection of verify's box pass",
}


def _name_lines(path):
    """(names, attributes): the lines on which each Python name occurs in
    the file, and those on which it is accessed as an attribute, after a
    ``.`` token; names inside strings and comments do not count."""
    names, attributes = collections.defaultdict(list), collections.defaultdict(list)
    previous = None
    with open(path, encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME:
                names[tok.string].append(tok.start[0])
                if previous is not None and previous.string == ".":
                    attributes[tok.string].append(tok.start[0])
            if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                previous = tok
    return names, attributes


def _span(node):
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return first, node.end_lineno


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(path, name, lines) of each module-level def, class and assigned name,
    and of each method or property of a class, public or private; dunders,
    which Python calls itself, are left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not _dunder(name.id):
                            yield path, name.id, _span(node)
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _dunder(node.name):
                continue
            yield path, node.name, _span(node)
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not _dunder(method.name):
                        yield path, "%s.%s" % (node.name, method.name), _span(method)


def test_every_definition_has_a_caller():
    """Each module-level def, class or assigned name of the package, public
    or private, is named outside its own definition, and each method or
    property of a class is accessed there as an attribute, in the package or
    the benchmark; the allowlist names exactly the exceptions.  A definition
    that only the tests reach belongs in the tests."""
    callers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    names = {p: _name_lines(p) for p in callers}
    uncalled = {}
    for path, qualname, (first, last) in _definitions():
        owner, _, name = qualname.rpartition(".")
        if not any(
            p != path or not first <= line <= last
            for p in callers
            for line in names[p][1 if owner else 0].get(name, ())
        ):
            uncalled[qualname] = path.name
    assert set(uncalled) == set(ALLOWED), uncalled
