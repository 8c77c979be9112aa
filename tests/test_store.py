"""The bounded store class (``algebra._LRU``) that keeps the verdict records,
the refute model families and their stacks, against a reference LRU written
out here."""

import random
import sys
import threading

import pytest

from dbakit.algebra import _LRU

pytestmark = pytest.mark.alone


class ReferenceLRU:
    """The store's contract on plain lists: [key, value, charge] entries,
    least recently used first."""

    def __init__(self, bound, floor):
        self.bound, self.floor = bound, floor
        self.entries = []

    def _find(self, key):
        """The entry of key, moved to the most recently used end, or None."""
        for i, entry in enumerate(self.entries):
            if entry[0] == key:
                self.entries.append(self.entries.pop(i))
                return entry
        return None

    def get(self, key):
        entry = self._find(key)
        return None if entry is None else entry[1]

    def put(self, key, value, cells):
        entry = self._find(key)
        if entry is not None:
            return entry[1]
        charge = max(cells, self.floor)
        if charge <= self.bound:
            self.entries.append([key, value, charge])
            while sum(e[2] for e in self.entries) > self.bound:
                del self.entries[0]
        return value

    def drop(self, key, value):
        self.entries = [e for e in self.entries if not (e[0] == key and e[1] is value)]

    def state(self):
        return [(key, value, charge) for key, value, charge in self.entries]


def state(store):
    """The store's entries as the reference lists them."""
    return [(key, value, charge) for key, (value, charge) in store.entries.items()]


def test_a_store_exactly_at_its_bound_keeps_all_and_one_cell_past_evicts():
    store = _LRU(10, 2)
    a, b, c = object(), object(), object()
    assert store.put("a", a, 4) is a and store.put("b", b, 6) is b
    assert state(store) == [("a", a, 4), ("b", b, 6)] and store.cells == 10
    assert store.put("c", c, 1) is c  # charged the floor, 2: one past would be 12
    assert state(store) == [("b", b, 6), ("c", c, 2)] and store.cells == 8
    assert store.get("b") is b  # b is now the most recently used
    d = object()
    assert store.put("d", d, 3) is d  # 6 + 2 + 3 = 11, one cell past: c goes
    assert state(store) == [("b", b, 6), ("d", d, 3)] and store.cells == 9


def test_a_value_charged_past_the_bound_is_returned_but_not_kept():
    store = _LRU(10, 2)
    a, big = object(), object()
    store.put("a", a, 0)
    assert store.put("big", big, 11) is big
    assert store.get("big") is None
    assert state(store) == [("a", a, 2)] and store.cells == 2  # nothing was evicted for it
    assert store.put("big", a, 10) is a  # exactly the bound: kept, and a goes
    assert state(store) == [("big", a, 10)]


def test_the_first_put_on_a_key_wins():
    store = _LRU(10, 2)
    first, second = object(), object()
    assert store.put("k", first, 3) is first
    assert store.put("k", second, 1) is first
    assert state(store) == [("k", first, 3)] and store.cells == 3


def test_dropping_a_stale_value_does_nothing():
    store = _LRU(10, 2)
    old, new = object(), object()
    store.put("k", old, 5)
    store.drop("k", new)  # not the kept value
    store.drop("nothing", old)  # no such key
    assert state(store) == [("k", old, 5)]
    store.drop("k", old)
    assert state(store) == [] and store.cells == 0
    store.put("k", new, 5)
    store.drop("k", old)  # the value of an earlier entry of the key
    assert state(store) == [("k", new, 5)] and store.cells == 5


@pytest.mark.parametrize("seed", range(40))
def test_the_store_follows_the_reference_lru(seed):
    rng = random.Random(seed)
    bound, floor = rng.choice([(12, 3), (16, 4), (9, 9), (20, 1)])
    store, ref = _LRU(bound, floor), ReferenceLRU(bound, floor)
    keys = range(rng.randint(2, 8))
    values = [object() for _ in range(12)]
    # charges around the floor and the bound
    charges = [0, floor - 1, floor, floor + 1, bound - floor, bound - 1, bound, bound + 1,
               rng.randint(0, bound)]
    for _ in range(400):
        op, key = rng.random(), rng.choice(keys)
        if op < 0.3:
            assert store.get(key) is ref.get(key)
        elif op < 0.85:
            value, cells = rng.choice(values), rng.choice(charges)
            assert store.put(key, value, cells) is ref.put(key, value, cells)
        else:  # the kept value or, as often as not, a stale one
            kept = [v for k, v, _ in ref.entries if k == key]
            value = kept[0] if kept and rng.random() < 0.5 else rng.choice(values)
            store.drop(key, value)
            ref.drop(key, value)
        assert state(store) == ref.state()
        assert store.cells == sum(charge for _, _, charge in ref.state()) <= bound


def _race(work, threads=8):
    """Run work(i) on that many threads, switching often."""
    start = threading.Barrier(threads, timeout=60)

    def run(i):
        start.wait()
        work(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)


def test_racing_puts_keep_one_value_per_key_and_every_caller_gets_it():
    # 16 keys that all fit: whichever thread puts first, all eight get its value
    store = _LRU(16 * 4, 4)
    got = [[None] * 16 for _ in range(8)]

    def work(i):
        for key in random.Random(i).sample(range(16), 16):
            got[i][key] = store.put(key, (i, key), i % 3)

    _race(work)
    for key in range(16):
        assert len({id(answers[key]) for answers in got}) == 1
        assert store.get(key) is got[0][key]
    assert store.cells == 16 * 4


def test_racing_puts_past_the_bound_keep_the_charges_within_it():
    # 24 keys, charges around the floor, a bound of about six entries: the
    # threads evict one another's values
    store = _LRU(25, 4)
    put = set()

    def work(i):
        rng = random.Random(i)
        for _ in range(500):
            key = rng.randrange(24)
            value = (i, key)
            put.add(value)
            store.put(key, value, rng.choice((0, 3, 4, 5, 9)))
            if rng.random() < 0.1:
                store.drop(key, value)

    _race(work)
    assert store.cells == sum(charge for _, charge in store.entries.values()) <= store.bound
    assert all(value in put and value[1] == key for key, (value, _) in store.entries.items())
