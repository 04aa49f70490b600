"""The package holds no code, public or private, that only the tests reach:
no definition without a caller, no optional parameter that no call passes,
and no catalog field that nothing reads.  And it compiles generated code in
one place, ``nest.kernel``."""

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

# Optional parameters, (callable, parameter), that may stay although no call
# in the package or the benchmark passes them.
ALLOWED_OPTIONAL = {
    ("check_ix_parity_gap", "degree"): "test_acceptance.py names the degree it certifies",
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


def _is_dataclass(node):
    """Is the class decorated with ``dataclass``, bare or called?"""
    for d in node.decorator_list:
        func = d.func if isinstance(d, ast.Call) else d
        if "dataclass" in (getattr(func, "id", None), getattr(func, "attr", None)):
            return True
    return False


def _signature_defaults(args, skip):
    """(parameter, position) of each defaulted parameter of an ast
    ``arguments``, position counted after the first ``skip`` positional
    parameters; None for a keyword-only one."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], first):
        yield a.arg, i - skip
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def _optional_parameters():
    """(path, callable, parameter, position, field) of each defaulted
    parameter of a package function or method (position counted after self
    or cls), and of each class's constructor under the class's name: its
    __init__, or its dataclass fields (field True)."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the class of each method
        owner = {
            id(m): c.name
            for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef)
            for m in c.body
            if isinstance(m, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [
                    f
                    for f in node.body
                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                ]
                for i, f in enumerate(fields):
                    if f.value is not None:
                        yield path, node.name, f.target.id, i, True
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name == "__init__":
                called = owner[id(node)]
            elif _dunder(node.name):
                continue
            else:
                called = node.name
            for name, position in _signature_defaults(node.args, int(id(node) in owner)):
                yield path, called, name, position, False


def _calls():
    """callable name -> [(positional arguments, keyword names, whether an
    argument is unpacked)] over every call in the package and the benchmark,
    a call matched by the name it calls, bare or as an attribute.  The
    keywords of ``dataclasses.replace`` calls, which pass dataclass fields,
    are filed under "dataclasses.replace" with no positional argument."""
    calls = collections.defaultdict(list)
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            keywords = {k.arg for k in node.keywords}
            if isinstance(func, ast.Attribute) and ast.unparse(func) == "dataclasses.replace":
                calls["dataclasses.replace"].append((0, keywords, unpacked))
            else:
                calls[name].append((len(node.args), keywords, unpacked))
    return calls


def test_every_optional_parameter_is_passed():
    """Each defaulted parameter of a package function, method or constructor
    is passed, by keyword or by position, by some call in the package or the
    benchmark; the allowlist names exactly the exceptions.  A default that
    every caller takes is a constant, and one that only the tests change
    belongs in the tests."""
    calls = _calls()
    unpassed = {}
    for path, owner, name, position, field in _optional_parameters():
        routes = calls[owner] + (calls["dataclasses.replace"] if field else [])
        if not any(
            unpacked or name in keywords or (position is not None and npos > position)
            for npos, keywords, unpacked in routes
        ):
            unpassed[(owner, name)] = path.name
    assert set(unpassed) == set(ALLOWED_OPTIONAL), unpassed


def _field_walks(tree):
    """The nodes of each comprehension or loop over ``dataclasses.fields``:
    such a walk (the export's) reads every field by name, none in
    particular."""
    for node in ast.walk(tree):
        loops = [node] if isinstance(node, ast.For) else getattr(node, "generators", [])
        for loop in loops:
            if isinstance(loop.iter, ast.Call) and ast.unparse(loop.iter.func) == "dataclasses.fields":
                yield from ast.walk(node)


def test_every_catalog_field_is_read():
    """Each field of each dataclass in catalog.py is read as an attribute
    somewhere in the package or the benchmark.  A class's declaration and
    the keywords that build or replace it pass a field, they do not read
    it, and the export's walk of ``dataclasses.fields`` reads every field
    alike.  A field that nothing reads is data to delete; no field is
    exempt."""
    reads = set()
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        walks = {id(node) for node in _field_walks(tree)}
        reads |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in walks
        }
    unread = [
        "%s.%s" % (node.name, field.target.id)
        for node in ast.parse((PACKAGE / "catalog.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in reads
    ]
    assert unread == [], unread


# The builtins that compile generated code.
_COMPILERS = {"eval", "exec", "compile"}


def _compile_calls(tree):
    """(name, node) of each call of ``_COMPILERS`` in an ast, bare or
    through ``builtins``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "builtins":
                name = func.attr
            else:
                name = getattr(func, "id", None)
            if name in _COMPILERS:
                yield name, node


def test_nest_kernel_is_the_only_compile_site():
    """Generated code is compiled in one place, ``nest.kernel``: an eval,
    exec or compile call anywhere else in the package is a second compiler,
    with its own globals and a name a profile cannot keep apart."""
    elsewhere, inside = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "nest.py":
            kernel = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "kernel")
            inside = {id(node): name for name, node in _compile_calls(kernel)}
        elsewhere += [(path.name, node.lineno) for _, node in _compile_calls(tree) if id(node) not in inside]
    assert elsewhere == []
    # the scan sees nest.kernel's own calls, so an empty list means something
    assert sorted(inside.values()) == ["compile", "exec"]
