"""The equivalence map against the list-of-classes implementation it replaced.

ListEquivalenceMap keeps every class in a list, in creation order, empties
the classes merged into an older one and indexes each term by its class's
position.  The map under test must give the same expand of every term and
the same classes() in the same order on seeded add_class sequences with
overlaps, merges, repeated terms and empty or blank classes.
"""

import random

from cerifrdf.store import EquivalenceMap


class ListEquivalenceMap:
    def __init__(self) -> None:
        self._classes: list[set[str]] = []
        self._index: dict[str, int] = {}

    def add_class(self, terms) -> None:
        cleaned = [t for t in (str(term).strip() for term in terms) if t]
        if not cleaned:
            return
        touched = sorted({self._index[t] for t in cleaned if t in self._index})
        if touched:
            keep = touched[0]
            merged = self._classes[keep]
            for i in reversed(touched[1:]):
                merged |= self._classes[i]
                self._classes[i] = set()
            merged.update(cleaned)
        else:
            keep = len(self._classes)
            self._classes.append(set(cleaned))
        for term in self._classes[keep]:
            self._index[term] = keep

    def expand(self, term: str) -> frozenset[str]:
        index = self._index.get(term)
        if index is None:
            return frozenset((term,))
        return frozenset(self._classes[index])

    def classes(self) -> list[frozenset[str]]:
        return [frozenset(c) for c in self._classes if c]


def _terms(rng: random.Random, pool: int) -> list[str]:
    terms = [f"t{rng.randrange(pool)}" for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.2:
        terms += ["", "  "]
    if rng.random() < 0.1:
        terms += [f" t{rng.randrange(pool)} "]
    return terms


def test_matches_the_list_implementation():
    for seed in range(300):
        rng = random.Random(seed)
        pool = rng.choice([4, 12, 40])
        fast, oracle = EquivalenceMap(), ListEquivalenceMap()
        for _ in range(rng.randint(1, 25)):
            terms = _terms(rng, pool)
            fast.add_class(terms)
            oracle.add_class(terms)
            assert fast.classes() == oracle.classes(), (seed, terms)
        for i in range(pool + 1):
            assert fast.expand(f"t{i}") == oracle.expand(f"t{i}"), (seed, i)


def test_classes_keep_the_oldest_first_across_merges():
    eq = EquivalenceMap()
    for terms in (["a"], ["b"], ["c"], ["d", "c"], ["b", "a"], ["e"], ["e", "d"]):
        eq.add_class(terms)
    assert eq.classes() == [frozenset("ab"), frozenset("cde")]
