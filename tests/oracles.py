"""Reference oracles shared by more than one test file.

Nothing in branchlab calls these; they exist only to cross-check it.
"""

import random

from branchlab.linalg import vec, vsub
from branchlab.weights import _split, pairing, simple_roots


def reflect(t, root, v):
    c = 2 * pairing(t, v, root) / pairing(t, root, root)
    return vsub(v, vec(tuple(c * x for x in root)))


def random_weyl_image(t, v, rng: random.Random, words: int = 12):
    """Apply a random word in the simple reflections (per factor for products)."""
    v = vec(v)
    if t.family == "Trivial":
        return v
    if t.family == "Product":
        return sum(
            (random_weyl_image(f, part, rng, words) for f, part in _split(t, v)), ()
        )
    simples = simple_roots(t)
    for _ in range(words):
        v = reflect(t, rng.choice(simples), v)
    return v
