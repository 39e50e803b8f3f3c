"""Fenwick-tree reuse-distance engine.

The paper answers "how many distinct memory blocks were touched since time
t_prev?" with a balanced binary tree keyed by last-access time
(:mod:`repro.core.treap` implements that faithfully).  A binary indexed tree
over the logical time axis answers the same query with much lower constant
factors, which matters in pure Python: each active block contributes one
mark at its last-access time; a reuse moves the mark and counts marks in
``(t_prev, now]``.

Both engines implement the same two-method protocol and are interchangeable
in the analyzer; a property-based test checks they always agree.

Protocol
--------
``first(t_now)``
    A block is touched for the first time at logical time ``t_now``.
``reuse(t_prev, t_now) -> int``
    A block last touched at ``t_prev`` is touched again at ``t_now``;
    returns the reuse distance: the number of *other* distinct blocks
    accessed in between.
"""

from __future__ import annotations


class FenwickEngine:
    """Reuse distances via a binary indexed tree over logical time."""

    def __init__(self, initial_capacity: int = 1 << 16) -> None:
        cap = 1
        while cap < initial_capacity:
            cap <<= 1
        self._cap = cap
        self._tree = [0] * (cap + 1)
        self._active = 0

    # -- protocol --------------------------------------------------------

    def first(self, t_now: int) -> None:
        if t_now > self._cap:
            self._grow(t_now)
        self._add(t_now, 1)
        self._active += 1

    def reuse(self, t_prev: int, t_now: int) -> int:
        if t_now > self._cap:
            self._grow(t_now)
        tree = self._tree
        # Remove the mark at t_prev, then count remaining marks after t_prev.
        i = t_prev
        while i <= self._cap:
            tree[i] -= 1
            i += i & (-i)
        prefix = 0
        i = t_prev
        while i > 0:
            prefix += tree[i]
            i -= i & (-i)
        distance = (self._active - 1) - prefix
        i = t_now
        while i <= self._cap:
            tree[i] += 1
            i += i & (-i)
        return distance

    # -- introspection ----------------------------------------------------

    @property
    def active_blocks(self) -> int:
        """Number of distinct blocks currently tracked."""
        return self._active

    # -- internals ---------------------------------------------------------

    def _add(self, i: int, delta: int) -> None:
        tree, cap = self._tree, self._cap
        while i <= cap:
            tree[i] += delta
            i += i & (-i)

    def _prefix(self, i: int) -> int:
        total = 0
        tree = self._tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def _grow(self, needed: int) -> None:
        """Grow capacity in place (the tree list object is preserved).

        When the capacity doubles from C to 2C, the only new non-zero BIT
        cells are the power-of-two positions > C: each covers the prefix
        ``(0, i]``, whose sum is the number of active marks.  Growing in
        place lets the analyzer's hot loop keep a direct binding to the
        tree list.
        """
        old_cap = self._cap
        new_cap = old_cap
        while new_cap < needed:
            new_cap <<= 1
        tree = self._tree
        tree.extend([0] * (new_cap - old_cap))
        total = self._prefix(old_cap)
        i = old_cap << 1
        while i <= new_cap:
            tree[i] = total
            i <<= 1
        self._cap = new_cap

    def ensure(self, needed: int) -> None:
        """Grow in place to hold time ``needed`` (shared with the numpy
        engine's protocol)."""
        if needed > self._cap:
            self._grow(needed)
