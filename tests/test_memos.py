"""Every bounded memo of the library keeps to its bound, whatever it is asked to hold."""

import importlib
import pkgutil

import pytest

import quartic
from quartic import counting, geometry
from quartic.forms import LRUCache, parse_form


def _memos() -> dict:
    """name -> memo for every LRUCache in a module of quartic, or in a class defined at module level."""
    found = {}
    for info in pkgutil.iter_modules(quartic.__path__):
        module = importlib.import_module(f"quartic.{info.name}")
        for name, obj in vars(module).items():
            inner = vars(obj).items() if isinstance(obj, type) else ()
            for label, value in [(name, obj), *((f"{name}.{attr}", v) for attr, v in inner)]:
                if isinstance(value, LRUCache) and all(value is not seen for seen in found.values()):
                    found[f"{module.__name__}.{label}"] = value
    return found


MEMOS = _memos()

# a bound that keeps a few of the entries the steps below store, and one step per memo past it
SMALL_BOUNDS = {
    "quartic.counting._value_counts_memo": 200,
    "quartic.geometry.GF._cache": 2,
    "quartic.geometry._rank_count_cache": 3,
}


def _steps():
    """Calls that store to every memo in turn, hit what they stored and store past the bound."""
    F = parse_form("x1^4 - x2^4")
    G = parse_form("x1^2*x2 + x2^3 - x3^3")
    yield from (lambda q=q: counting.value_counts(F, q, 10 ** 6) for q in (5, 16, 27, 125, 81, 5, 512))
    yield from (lambda p=p, k=k: geometry.GF(p, k) for p, k in ((5, 1), (7, 1), (2, 3), (5, 1), (3, 2)))
    yield from (lambda p=p: geometry._rank_counts(G, p, 1, 10 ** 6) for p in (3, 5, 7, 11, 3))


def test_every_memo_of_the_library_is_found():
    assert set(SMALL_BOUNDS) == set(MEMOS)


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_every_memo_has_a_finite_bound(name):
    memo = MEMOS[name]
    assert type(memo.bound) is int and 0 < memo.bound < 2 ** 40


def test_held_counts_what_is_held_and_never_passes_the_bound(monkeypatch):
    for name, memo in MEMOS.items():
        memo.clear()
        monkeypatch.setattr(memo, "bound", SMALL_BOUNDS[name])
    stored = dict.fromkeys(MEMOS, 0)
    for step in _steps():
        step()
        for name, memo in MEMOS.items():
            assert memo.held == sum(map(memo.size, memo.values())) <= memo.bound, name
            stored[name] = max(stored[name], len(memo))
    assert all(stored.values())  # every memo held something on the way
    for memo in MEMOS.values():
        memo.clear()
        assert len(memo) == 0 and memo.held == 0


def test_a_value_past_the_bound_is_returned_but_not_kept():
    memo = LRUCache(4, size=len)
    memo.store("a", "xy")
    assert memo.store("b", "abcde") == "abcde" and list(memo) == ["a"] and memo.held == 2
    memo.store("c", "zzz")  # the oldest entry makes room
    assert list(memo) == ["c"] and memo.held == 3
