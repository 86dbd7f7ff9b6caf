"""A persistent map: a bounded-depth 32-way trie with structural sharing.

States are persistent values: every transaction produces a new state and
the evolution graph keeps the old ones.  A relation's tuples, its value
index and the state's owner map are therefore all held in :class:`PMap`,
whose updates copy one root-to-leaf path (a few nodes of 32 slots)
and share every other node with the map they came from.

Layout.  Each key has a *position*: a non-negative ``int`` key is its own
position (tuple identifiers), any other key is positioned by its hash.
The trie consumes positions five bits at a time from the most significant
end; the root covers just enough bits for the largest position seen, so a
map over identifiers ``1..n`` is ``log32(n)`` levels deep.  A slot holds
``None``, a leaf ``(key, value)`` tuple, a child node (a ``list``), or a
:class:`_Bucket` of keys sharing one position.  Leaves sit at the first
level where their position is unique, so hashed maps stay shallow.

Because positions are consumed high bits first, walking the slots in
order visits ``int`` keys in ascending order: iteration is in identifier
order and independent of ``PYTHONHASHSEED``.  Maps over hashed keys
iterate in hash order, which is why nothing iterates them to produce
results.

Two maps derived from one another share every node neither has touched,
so :meth:`PMap.diff` walks only the nodes they do not share by identity:
the difference of two versions costs O(Δ · depth), not O(size).

Values must not be ``None``: ``get`` and :meth:`PMap.diff` use ``None``
for "absent".
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import itemgetter
from typing import Any, Iterable, Iterator

_BITS = 5
_WIDTH = 1 << _BITS
_SLOT = _WIDTH - 1
# Hashed keys use 60 bits of their hash: twelve full levels.
_HASH_MASK = (1 << 60) - 1
_new_map = object.__new__
_key_of = itemgetter(0)
_value_of = itemgetter(1)


def _position(key: Any) -> int:
    if type(key) is int and key >= 0:
        return key
    return hash(key) & _HASH_MASK


class _Bucket:
    """Leaves whose keys share one position (hash collisions).

    Falsy, unlike leaves and nodes, so that :func:`_walk` can pick the
    leaves out of a bottom node with ``filter`` (and notice by count that
    a bucket was dropped)."""

    __slots__ = ("pos", "pairs")

    def __init__(self, pos: int, pairs: tuple) -> None:
        self.pos = pos
        self.pairs = pairs

    def __bool__(self) -> bool:
        return False

    def get(self, key: Any) -> Any:
        for k, v in self.pairs:
            if k == key:
                return v
        return None


def _join(a: Any, pa: int, b: Any, pb: int, shift: int) -> Any:
    """The smallest subtree at ``shift`` holding slots ``a`` and ``b``."""
    if pa == pb:
        pairs = a.pairs if type(a) is _Bucket else (a,)
        return _Bucket(pa, pairs + (b,))
    node: list = [None] * _WIDTH
    ia = (pa >> shift) & _SLOT
    ib = (pb >> shift) & _SLOT
    if ia == ib:
        node[ia] = _join(a, pa, b, pb, shift - _BITS)
    else:
        node[ia] = a
        node[ib] = b
    return node


def _lift(root: list, shift: int, target: int) -> tuple[list, int]:
    """``root`` raised to ``target``'s height: its keys all sit under
    slot 0 of the levels it lacks."""
    while shift < target:
        root = [root] + [None] * (_WIDTH - 1)
        shift += _BITS
    return root, shift


def _walk(node: list, shift: int, out: list, fast: bool) -> None:
    """Append the leaves under ``node`` (indexing at ``shift``) to ``out``,
    in position order.

    ``fast`` takes a bottom node's leaves with ``filter`` in C, which drops
    the (falsy) buckets there along with the empty slots: a caller passing
    it checks the count and walks again without it if leaves are missing.
    """
    if not shift:
        if fast:
            out += filter(None, node)
            return
        for slot in node:
            if slot.__class__ is tuple:
                out.append(slot)
            elif slot is not None:
                out.extend(slot.pairs)
        return
    for slot in node:
        if slot.__class__ is tuple:
            out.append(slot)
        elif slot.__class__ is list:
            _walk(slot, shift - _BITS, out, fast)
        elif slot is not None:
            out.extend(slot.pairs)


def _leaves(slot: Any, shift: int) -> list:
    """The leaves of ``slot``, a node indexing at ``shift`` or a leaf,
    bucket or ``None``."""
    if slot is None:
        return []
    kind = type(slot)
    if kind is tuple:
        return [slot]
    if kind is list:
        out: list = []
        _walk(slot, shift, out, False)
        return out
    return list(slot.pairs)


def _diff(a: Any, b: Any, shift: int, out: list) -> None:
    """Append ``(key, old, new)`` for every key whose value differs between
    slots ``a`` and ``b`` (nodes there would index at ``shift``), in
    position order."""
    if type(a) is list and type(b) is list:
        for x, y in zip(a, b):
            if x is not y:
                _diff(x, y, shift - _BITS, out)
        return
    if type(a) is tuple and type(b) is tuple and a[0] == b[0]:
        if a[1] is not b[1]:
            out.append((a[0], a[1], b[1]))
        return
    # A leaf or bucket meets a subtree (or nothing): everything under the
    # subtree is new or gone except at most the few keys of the leaf side.
    old = dict(_leaves(a, shift))
    new = dict(_leaves(b, shift))
    for key in sorted(old.keys() | new.keys(), key=_position):
        x, y = old.get(key), new.get(key)
        if x is not y:
            out.append((key, x, y))


class PMap(Mapping):
    """An immutable mapping with O(log n) persistent updates.

    ``PMap(items)`` builds from a mapping or an iterable of pairs, like
    ``dict``.  :meth:`set` and :meth:`discard` return new maps sharing all
    untouched nodes with this one.  Iteration is in position order, which
    for ``int`` keys is ascending key order.
    """

    __slots__ = ("_root", "_shift", "_count")

    def __init__(self, items: Mapping | Iterable = ()) -> None:
        root: list = [None] * _WIDTH
        shift = 0
        count = 0
        pairs = items.items() if isinstance(items, Mapping) else items
        for key, value in pairs:
            pos = _position(key)
            root, shift = _grow(root, shift, count, pos)
            # Every node here is fresh, so build in place.
            root, grown = _put(root, shift, pos, key, value, True)
            count += grown
        self._root = root
        self._shift = shift
        self._count = count

    def _derive(self, root: list, shift: int, count: int) -> "PMap":
        new = _new_map(PMap)
        new._root = root
        new._shift = shift
        new._count = count
        return new

    # -- reads ---------------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        pos = key if type(key) is int and key >= 0 else hash(key) & _HASH_MASK
        shift = self._shift
        if pos >> shift >= _WIDTH:
            return default
        node = self._root
        while True:
            slot = node[(pos >> shift) & _SLOT]
            kind = type(slot)
            if kind is list:
                node = slot
                shift -= _BITS
            elif kind is tuple:
                return slot[1] if slot[0] == key else default
            elif slot is None:
                return default
            else:
                value = slot.get(key)
                return default if value is None else value

    def __getitem__(self, key: Any) -> Any:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key: object) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self._count

    def items(self) -> list:  # type: ignore[override]
        """``(key, value)`` pairs in position order."""
        out: list = []
        _walk(self._root, self._shift, out, True)
        if len(out) != self._count:  # a bucket sat on the bottom level
            out = []
            _walk(self._root, self._shift, out, False)
        return out

    def keys(self) -> list:  # type: ignore[override]
        return list(map(_key_of, self.items()))

    def values(self) -> list:  # type: ignore[override]
        return list(map(_value_of, self.items()))

    def __iter__(self) -> Iterator:
        return iter(self.keys())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PMap):
            if self is other:
                return True
            if self._count != other._count:
                return False
            return all(
                old is not None and new is not None and old == new
                for _, old, new in self.diff(other)
            )
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other.items())
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PMap({dict(self.items())!r})"

    # -- persistent updates --------------------------------------------------

    def set(self, key: Any, value: Any) -> "PMap":
        """A map with ``key`` bound to ``value``; the identity when it
        already is."""
        pos = key if type(key) is int and key >= 0 else hash(key) & _HASH_MASK
        root, shift = self._root, self._shift
        if pos >> shift >= _WIDTH:
            root, shift = _grow(root, shift, self._count, pos)
        root, grown = _put(root, shift, pos, key, value, False)
        if root is self._root:
            return self
        return self._derive(root, shift, self._count + grown)

    def union(self, other: "PMap") -> "PMap":
        """This map with every binding of ``other`` added (``other`` wins
        on shared keys).  Subtrees only one map has are shared whole, so
        maps over disjoint identifier ranges merge in time proportional
        to the nodes they overlap in, not to their size."""
        a, sa = self._root, self._shift
        b, sb = other._root, other._shift
        a, sa = _lift(a, sa, sb)
        b, sb = _lift(b, sb, sa)
        root, shared = _union(a, b, sa)
        return self._derive(root, sa, self._count + other._count - shared)

    def discard(self, key: Any) -> "PMap":
        """A map without ``key``; the identity when it is absent."""
        pos = _position(key)
        shift = self._shift
        if pos >> shift >= _WIDTH:
            return self
        path = []
        node = self._root
        while True:
            i = (pos >> shift) & _SLOT
            slot = node[i]
            path.append((node, i))
            kind = type(slot)
            if kind is list:
                node = slot
                shift -= _BITS
                continue
            if kind is tuple:
                if slot[0] != key:
                    return self
                new: Any = None
            elif slot is None:
                return self
            else:
                pairs = tuple(p for p in slot.pairs if p[0] != key)
                if len(pairs) == len(slot.pairs):
                    return self
                new = pairs[0] if len(pairs) == 1 else _Bucket(slot.pos, pairs)
            break
        for depth in range(len(path) - 1, -1, -1):
            node, i = path[depth]
            node = node.copy()
            node[i] = new
            new = node
            if depth and type(node[i]) is not list:
                # Collapse a node left empty, or holding one leaf, into
                # its parent's slot.
                live = [s for s in node if s is not None]
                if not live:
                    new = None
                elif len(live) == 1 and type(live[0]) is not list:
                    new = live[0]
        return self._derive(new, self._shift, self._count - 1)

    # -- comparison ----------------------------------------------------------

    def diff(self, other: "PMap") -> list:
        """``(key, old, new)`` for every key whose value in ``other`` is not
        the same object as in this map (``None`` for absent), in position
        order.

        Subtrees the two maps share by identity are skipped, so the cost
        follows the difference, not the size."""
        a, sa = self._root, self._shift
        b, sb = other._root, other._shift
        a, sa = _lift(a, sa, sb)
        b, sb = _lift(b, sb, sa)
        out: list = []
        if a is not b:
            _diff(a, b, sa, out)
        return out


def _grow(root: list, shift: int, count: int, pos: int) -> tuple[list, int]:
    """Raise the root until it covers ``pos``: each new level holds the old
    root in slot 0, where every smaller position lives."""
    while pos >> shift >= _WIDTH:
        if count:
            root = [root] + [None] * (_WIDTH - 1)
        shift += _BITS
    return root, shift


def _put(
    slot: Any, shift: int, pos: int, key: Any, value: Any, inplace: bool
) -> tuple[Any, int]:
    """Bind ``key`` in ``slot`` (a node indexing at ``shift``, a leaf, a
    bucket or ``None``): ``(new_slot, grown)``.

    ``inplace`` mutates nodes instead of copying them; only a builder
    whose nodes nobody else can see may pass it.  Returns ``slot`` itself
    when the binding is already there."""
    top = slot
    path = []  # node, index, node, index, ... from the top down
    while slot.__class__ is list:
        i = (pos >> shift) & _SLOT
        path.append(slot)
        path.append(i)
        slot = slot[i]
        shift -= _BITS
    if slot is None:
        new: Any = (key, value)
        grown = 1
    elif slot.__class__ is tuple:
        if slot[0] == key:
            if slot[1] is value:
                return top, 0
            new = (key, value)
            grown = 0
        else:
            new = _join(slot, _position(slot[0]), (key, value), pos, shift)
            grown = 1
    elif slot.pos != pos:
        new = _join(slot, slot.pos, (key, value), pos, shift)
        grown = 1
    else:
        kept = tuple(p for p in slot.pairs if p[0] != key)
        grown = 1 if len(kept) == len(slot.pairs) else 0
        new = _Bucket(pos, kept + ((key, value),))
    if inplace and path:
        path[-2][path[-1]] = new
        return top, grown
    while path:
        i = path.pop()
        node = path.pop().copy()
        node[i] = new
        new = node
    return new, grown


def _union(a: Any, b: Any, shift: int) -> tuple[Any, int]:
    """Slots ``a`` and ``b`` merged, ``b`` winning on shared keys:
    ``(slot, shared)`` where ``shared`` counts keys bound in both.
    Subtrees only one side has are reused whole."""
    if a is None:
        return b, 0
    if b is None:
        return a, 0
    if a is b:
        return a, len(_leaves(a, shift))
    if type(a) is list and type(b) is list:
        node: list = [None] * _WIDTH
        shared = 0
        for i in range(_WIDTH):
            node[i], dup = _union(a[i], b[i], shift - _BITS)
            shared += dup
        return node, shared
    if type(b) is list:
        # Fold the leaf side into the subtree, keeping the subtree's
        # bindings on shared keys.
        shared = 0
        for key, value in _leaves(a, shift):
            pos = _position(key)
            if _lookup(b, shift, pos, key) is None:
                b, _ = _put(b, shift, pos, key, value, False)
            else:
                shared += 1
        return b, shared
    shared = 0
    for key, value in _leaves(b, shift):
        a, grown = _put(a, shift, _position(key), key, value, False)
        shared += 1 - grown
    return a, shared


def _lookup(slot: Any, shift: int, pos: int, key: Any) -> Any:
    while type(slot) is list:
        slot = slot[(pos >> shift) & _SLOT]
        shift -= _BITS
    if slot is None:
        return None
    if type(slot) is tuple:
        return slot[1] if slot[0] == key else None
    return slot.get(key)
