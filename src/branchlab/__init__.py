"""branchlab: exact verification of invariant-operator relations, branching
laws, Casimir tables, and transfer maps for spherical triples with overgroups.

The exports below are loaded on first access (PEP 562), so importing the
package imports none of its modules: ``python -m branchlab.catalog`` then runs
the catalog module once, as ``__main__``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "AffineMap": "linalg",
    "CaseId": "catalog",
    "CaseRecord": "catalog",
    "CaseReport": "verify",
    "GroupDescriptor": "reps",
    "IrrepLabel": "reps",
    "WeylType": "weights",
    "casimir_eigenvalue": "reps",
    "check_relations": "verify",
    "check_transfer": "verify",
    "dominant_representative": "weights",
    "evaluate_generator": "verify",
    "load_default": "catalog",
    "rho": "weights",
    "weyl_dimension": "weights",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
