"""The T-Tree: the MM-DBMS ordered index (Lehman & Carey, VLDB 1986).

A T-Tree is an AVL-balanced binary tree whose nodes each hold many sorted
``(key, value)`` items.  A node *bounds* a key when ``min <= key <= max``
of its items; search descends by comparing against node bounds, so most
comparisons stay inside one node.

Every node lives as a serialised component in the index segment via
:class:`~repro.index.node_store.NodeStore`, so each structural change
(item insert, rotation, node split/merge) reports the precise set of
updated components — exactly the per-component REDO records of paper
section 2.3.2 ("a tree update operation can modify several tree nodes,
thus generating several different log records").

Nodes are addressed by :class:`EntityAddress` and rewritten in place;
rotations change child pointers, never addresses.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Iterator, NamedTuple

from repro.common.errors import IndexStructureError
from repro.common.types import EntityAddress
from repro.index.base import (
    NULL_ADDRESS,
    Index,
    pack_address,
    pack_item,
    split_items,
    unpack_address,
    unpack_items,
    value_at,
    zip_items,
)
from repro.index.keys import Key, compare_keys
from repro.index.node_store import NodeStore

_NODE_HEADER = struct.Struct("<BhH")  # type, height, nitems
_ANCHOR_HEADER = struct.Struct("<BHH")  # type, min_items, max_items
_ADDRESS_BYTES = len(pack_address(NULL_ADDRESS))
_ITEMS_AT = _NODE_HEADER.size + 2 * _ADDRESS_BYTES  # header, left, right

NODE_TYPE = 0x54  # 'T'
ANCHOR_TYPE = 0x41  # 'A'

Item = tuple[Key, EntityAddress]
#: An item on a write path, with its bytes as :func:`pack_item` packs them.
#: Tuple order is compound order: no ``(key, address)`` repeats, so the
#: bytes never decide.
_Packed = tuple[Key, EntityAddress, bytes]
_VALUE = itemgetter(1)


def compare_items(a: Item, b: Item) -> int:
    """Compound comparison: by key, then by value address.

    Every stored item is unique under this ordering (a tuple is indexed at
    one address), which keeps equal *keys* contiguous in tree order while
    restoring strict BST ordering — the classical rowid-suffix trick for
    duplicate keys.
    """
    by_key = compare_keys(a[0], b[0])
    if by_key:
        return by_key
    if a[1] < b[1]:
        return -1
    if a[1] > b[1]:
        return 1
    return 0


class _NodeForm(NamedTuple):
    """One T-Tree node decoded into the immutable shape the node store
    caches; read paths and descents use it as is."""

    height: int
    left: EntityAddress
    right: EntityAddress
    keys: tuple[Key, ...]
    values: bytes  # packed addresses, see :func:`repro.index.base.value_at`
    blob: bytes  # the bytes this form decodes; a save re-encodes from them


#: A leaf with no items yet: the form a new leaf's working copy starts from.
_LEAF = _NodeForm(1, NULL_ADDRESS, NULL_ADDRESS, (), b"", b"")


class _AnchorForm(NamedTuple):
    """The anchor decoded: the node bounds and the root's address."""

    min_items: int
    max_items: int
    root: EntityAddress


def _encode_anchor(form: _AnchorForm) -> bytes:
    header = _ANCHOR_HEADER.pack(ANCHOR_TYPE, form.min_items, form.max_items)
    return header + pack_address(form.root)


def _decode_anchor(address: EntityAddress, blob: bytes) -> _AnchorForm:
    anchor_type, min_items, max_items = _ANCHOR_HEADER.unpack_from(blob, 0)
    if anchor_type != ANCHOR_TYPE:
        raise IndexStructureError(f"entity at {address} is not a T-Tree anchor")
    return _AnchorForm(min_items, max_items, unpack_address(blob, _ANCHOR_HEADER.size)[0])


def _decode_node(address: EntityAddress, blob: bytes) -> _NodeForm:
    node_type, height, nitems = _NODE_HEADER.unpack_from(blob, 0)
    if node_type != NODE_TYPE:
        raise IndexStructureError(
            f"entity at {address} is not a T-Tree node (type {node_type})"
        )
    left, pos = unpack_address(blob, _NODE_HEADER.size)
    right, pos = unpack_address(blob, pos)
    return _NodeForm(height, left, right, *unpack_items(blob, pos, nitems), blob)


class _TNode:
    """Working copy of one node a write path saves (a descent that only
    passes a node reads its cached form).

    ``items`` materialise on first use; until then :meth:`encode` reuses
    the stored item bytes, and a node saved unchanged writes its stored
    bytes and form back as they are."""

    __slots__ = ("address", "height", "left", "right", "form", "_items")

    def __init__(
        self, address: EntityAddress, form: _NodeForm, items: list[_Packed] | None = None
    ):
        self.address = address
        self.form = form
        self._items = items
        self.height, self.left, self.right = form.height, form.left, form.right

    @property
    def items(self) -> list[_Packed]:
        if self._items is None:
            keys, values = self.form.keys, self.form.values
            packed = split_items(self.form.blob, _ITEMS_AT, len(keys))
            self._items = [
                (key, value, data) for (key, value), data in zip(zip_items(keys, values), packed)
            ]
        return self._items

    @property
    def count(self) -> int:
        return len(self.form.keys if self._items is None else self._items)

    def encode(self) -> _NodeForm:
        """The form of the node as it stands, its bytes in ``blob``."""
        form, items = self.form, self._items
        if items is None:
            if (self.height, self.left, self.right) == form[:3]:
                return form
            body = form.blob[_ITEMS_AT:]
            keys, values = form.keys, form.values
        else:  # columns by zip, not a generator step per item
            keys, _, parts = zip(*items) if items else ((), (), ())
            body = b"".join(parts)
            values = b"".join([part[-_ADDRESS_BYTES:] for part in parts])
        header = _NODE_HEADER.pack(NODE_TYPE, self.height, len(keys))
        blob = b"".join((header, pack_address(self.left), pack_address(self.right), body))
        return _NodeForm(self.height, self.left, self.right, keys, values, blob)


class TTreeIndex(Index):
    """An ordered index over ``(key, EntityAddress)`` pairs."""

    ORDERED = True

    def __init__(
        self,
        store: NodeStore,
        anchor: EntityAddress | None = None,
        min_items: int = 4,
        max_items: int = 8,
    ):
        if not 1 <= min_items <= max_items:
            raise IndexStructureError("need 1 <= min_items <= max_items")
        self.store = store
        if anchor is None:
            form = _AnchorForm(min_items, max_items, NULL_ADDRESS)
            self.anchor = store.allocate(_encode_anchor(form))
        else:
            self.anchor = anchor
            form = self._anchor()
        #: Fixed when the tree is created; the root is read from the anchor.
        self.min_items = form.min_items
        self.max_items = form.max_items

    # -- anchor ------------------------------------------------------------------

    def _anchor(self) -> _AnchorForm:
        return self.store.load(self.anchor, _decode_anchor)

    def _set_root(self, address: EntityAddress) -> None:
        form = self._anchor()
        if address != form.root:
            form = form._replace(root=address)
            self.store.write(self.anchor, _encode_anchor(form), form)

    # -- node I/O ------------------------------------------------------------------

    def _form(self, address: EntityAddress, keep: bool = True) -> _NodeForm:
        return self.store.load(address, _decode_node, keep)

    def _load(self, address: EntityAddress) -> _TNode:
        """A private working copy: write paths edit it before ``_save``,
        and a no-wait lock refusal inside ``store.write`` can abort in
        between — the cached form must never see the edit."""
        return _TNode(address, self.store.load(address, _decode_node))

    def _save(self, node: _TNode) -> None:
        node.form = node.encode()
        self.store.write(node.address, node.form.blob, node.form)

    def _new_leaf(self, item: _Packed) -> EntityAddress:
        return self.store.allocate(_TNode(NULL_ADDRESS, _LEAF, [item]).encode().blob)

    # -- public API --------------------------------------------------------------------

    def __len__(self) -> int:
        load, count, stack = self.store.load, 0, [self._anchor().root]
        while stack:
            address = stack.pop()
            if address != NULL_ADDRESS:
                node = load(address, _decode_node, False)
                count += len(node.keys)
                stack += node.left, node.right
        return count

    def search(self, key: Key) -> list[EntityAddress]:
        return list(map(_VALUE, self._walk(key, key)))

    def _walk(self, low: Key | None, high: Key | None, keep: bool = True) -> list[Item]:
        """Items with ``low <= key <= high`` (``None`` = open end), in order.

        An in-order walk over cached forms on an explicit stack: a left
        subtree is skipped when ``low`` is above its node's minimum key,
        and the walk ends in the first node that holds a key above
        ``high``.  Equal keys are contiguous in compound order but may
        straddle node boundaries, so only a *strict* inequality prunes;
        inside a node, bisection on its keys finds the span.  A bound of
        another type than the keys (``bool`` too) meets :func:`compare_keys`,
        which raises :class:`IndexStructureError`.
        """
        load = self.store.load
        found: list[Item] = []
        stack: list[_NodeForm] = []
        address = load(self.anchor, _decode_anchor).root
        while True:
            while address != NULL_ADDRESS:
                node = load(address, _decode_node, keep)
                stack.append(node)
                if low is not None:
                    if type(low) is not type(node.keys[0]):
                        compare_keys(low, node.keys[0])
                    if low > node.keys[0]:
                        break
                address = node.left
            if not stack:
                return found
            node = stack.pop()
            keys = node.keys
            start = 0 if low is None else bisect_left(keys, low)
            stop = len(keys)
            if high is not None:
                if type(high) is not type(keys[-1]):
                    compare_keys(high, keys[-1])
                if high < keys[-1]:
                    stop = bisect_right(keys, high)
            if start < stop:
                values = node.values[start * _ADDRESS_BYTES : stop * _ADDRESS_BYTES]
                found += zip_items(keys[start:stop], values)
            if stop < len(keys):
                return found  # a key above high: so is every later one
            address = node.right

    def insert(self, key: Key, value: EntityAddress) -> None:
        item = (key, value, pack_item(key, value))
        root = self.store.load(self.anchor, _decode_anchor).root
        if root == NULL_ADDRESS:
            self._set_root(self._new_leaf(item))
            return
        path, side, node = self._descend(root, key, value)
        if side == 0 and node.count >= self.max_items:
            # Bounding node is full: the new item displaces the node's
            # minimum, which is reinserted at its greatest-lower-bound
            # position in the left subtree.
            displaced = node.items.pop(0)
            insort(node.items, item)
            self._save(node)
            self._insert_displaced(path, node, displaced)
        elif node.count < self.max_items:
            insort(node.items, item)
            self._save(node)
        else:
            # Non-bounding full node at the end of the search path: hang a
            # new leaf on the proper side.
            if side < 0:
                node.left = self._new_leaf(item)
            else:
                node.right = self._new_leaf(item)
            self._save(node)
            self._rebalance_path(path)

    def delete(self, key: Key, value: EntityAddress) -> None:
        root = self.store.load(self.anchor, _decode_anchor).root
        if root == NULL_ADDRESS:
            raise self._not_found(key, value)
        # The last node searched holds the item if any node does.
        path, _, node = self._descend(root, key, value)
        keys, values = node.form.keys, node.form.values
        for index in range(bisect_left(keys, key), bisect_right(keys, key)):
            if value_at(values, index) == value:
                break
        else:
            raise self._not_found(key, value)
        del node.items[index]
        self._fix_after_delete(path, node)

    def items(self) -> Iterator[tuple[Key, EntityAddress]]:
        """Every item in order, materialised before it is returned, so the
        caller may change the index while iterating."""
        return iter(self._walk(None, None, False))

    def range_scan(
        self, low: Key | None = None, high: Key | None = None
    ) -> Iterator[tuple[Key, EntityAddress]]:
        """Items with ``low <= key <= high`` in key order (None = open
        end), materialised like :meth:`items`."""
        return iter(self._walk(low, high))

    def _descend(
        self, root: EntityAddress, key: Key, value: EntityAddress
    ) -> tuple[list[EntityAddress], int, _TNode]:
        """Path from ``root`` (of a non-empty tree) to the node bounding
        ``(key, value)`` (side 0), or else to the last node searched and
        the side (-1 / 1) the item falls off; and that node.  A key of
        another type than the node's meets :func:`compare_keys` to raise."""
        load, path = self.store.load, [root]
        while True:
            form = load(path[-1], _decode_node)
            keys, values = form.keys, form.values
            if type(key) is not type(keys[0]):
                compare_keys(key, keys[0])
            if key < keys[0] or (key == keys[0] and value < value_at(values, 0)):
                side, child = -1, form.left
            elif key > keys[-1] or (key == keys[-1] and value > value_at(values, len(keys) - 1)):
                side, child = 1, form.right
            else:
                side = child = 0
            if not side or child == NULL_ADDRESS:
                return path, side, _TNode(path[-1], form)
            path.append(child)

    # -- insert internals -------------------------------------------------------------------

    def _insert_displaced(
        self, path: list[EntityAddress], bounding: _TNode, item: _Packed
    ) -> None:
        """Reinsert the displaced minimum at its greatest-lower-bound spot."""
        if bounding.left == NULL_ADDRESS:
            bounding.left = self._new_leaf(item)
            self._save(bounding)
            self._rebalance_path(path)
            return
        glb = self._rightmost(path, bounding.left)
        if glb.count < self.max_items:
            glb.items.append(item)  # item > every key in the glb node
            self._save(glb)
            return
        glb.right = self._new_leaf(item)
        self._save(glb)
        self._rebalance_path(path)

    def _rightmost(self, path: list[EntityAddress], address: EntityAddress) -> _TNode:
        """The rightmost node of the subtree at ``address`` (a left
        subtree's holds its parent's greatest lower bound), with the nodes
        down to it added to ``path``."""
        while True:
            path.append(address)
            form = self._form(address)
            if form.right == NULL_ADDRESS:
                return _TNode(address, form)
            address = form.right

    # -- delete internals ------------------------------------------------------------------------

    def _fix_after_delete(self, path: list[EntityAddress], node: _TNode) -> None:
        """``node`` (the last of ``path``) lost an item."""
        has_left = node.left != NULL_ADDRESS
        has_right = node.right != NULL_ADDRESS
        if has_left and has_right:
            if node.count < self.min_items:
                self._refill_internal(path, node)
            else:
                self._save(node)
            return
        if node.count:
            self._save(node)
            return
        # Empty leaf or half-leaf: splice it out of the tree.
        child = node.left if has_left else node.right
        self._replace_child(path[-2] if len(path) > 1 else None, node.address, child)
        self.store.free(node.address)
        path.pop()
        self._rebalance_path(path)

    def _refill_internal(self, path: list[EntityAddress], node: _TNode) -> None:
        """Refill an underflowing internal node from its left subtree's
        greatest lower bound (the rightmost node on the left)."""
        donor = self._rightmost(path, node.left)
        node.items.insert(0, donor.items.pop())
        self._save(node)
        self._fix_after_delete(path, donor)

    def _replace_child(
        self,
        parent: EntityAddress | None,
        child: EntityAddress,
        replacement: EntityAddress,
    ) -> None:
        """Point ``parent`` (``None``: the anchor) at ``replacement``
        where it pointed at ``child``."""
        if parent is None:
            self._set_root(replacement)
            return
        node = self._load(parent)
        if node.left == child:
            node.left = replacement
        elif node.right == child:
            node.right = replacement
        else:
            raise IndexStructureError(f"{child} is not a child of {parent}")
        self._save(node)

    # -- balancing -------------------------------------------------------------------------------

    def _height(self, address: EntityAddress) -> int:
        if address == NULL_ADDRESS:
            return 0
        return self.store.load(address, _decode_node).height

    def _rebalance_path(self, path: list[EntityAddress]) -> None:
        """Walk from the deepest touched node to the root, updating heights
        and rotating where the AVL condition breaks; a parent is loaded
        only when a rotation gave it a new child."""
        for depth in range(len(path) - 1, -1, -1):
            address = path[depth]
            new_address = self._rebalance_node(self._load(address))
            if new_address != address:
                self._replace_child(path[depth - 1] if depth else None, address, new_address)

    def _rebalance_node(self, node: _TNode) -> EntityAddress:
        """Fix one node's height / balance; returns the subtree's new root."""
        balance = self._height(node.left) - self._height(node.right)
        if balance > 1:
            left = self._form(node.left)
            if self._height(left.left) >= self._height(left.right):
                return self._rotate_right(node)
            node.left = self._rotate_left(self._load(node.left))
            self._save(node)
            return self._rotate_right(node)
        if balance < -1:
            right = self._form(node.right)
            if self._height(right.right) >= self._height(right.left):
                return self._rotate_left(node)
            node.right = self._rotate_right(self._load(node.right))
            self._save(node)
            return self._rotate_left(node)
        self._update_height(node)
        return node.address

    def _update_height(self, node: _TNode) -> None:
        node.height = 1 + max(self._height(node.left), self._height(node.right))
        self._save(node)

    def _rotate_right(self, node: _TNode) -> EntityAddress:
        pivot = self._load(node.left)
        node.left = pivot.right
        self._update_height(node)
        pivot.right = node.address
        self._slide_fill(pivot)
        self._update_height(pivot)
        return pivot.address

    def _rotate_left(self, node: _TNode) -> EntityAddress:
        pivot = self._load(node.right)
        node.right = pivot.left
        self._update_height(node)
        pivot.left = node.address
        self._slide_fill(pivot)
        self._update_height(pivot)
        return pivot.address

    def _slide_fill(self, node: _TNode) -> None:
        """T-Tree special-rotation fix: a node promoted to an internal
        position with very few items steals greatest-lower-bound items
        from its left child so searches keep terminating at bounding
        nodes (Lehman 86c's special LR/RL rotation)."""
        if (
            node.left == NULL_ADDRESS
            or node.right == NULL_ADDRESS
            or node.count >= self.min_items
        ):
            return
        left = self._load(node.left)
        if left.right != NULL_ADDRESS or not left.count:
            return
        take = min(left.count - self.min_items // 2, self.min_items - node.count)
        if take <= 0:
            return
        moved = left.items[-take:]
        del left.items[-take:]
        node.items[:0] = moved
        if left.items:
            self._save(left)
        else:
            node.left = left.left
            self.store.free(left.address)

    # -- invariants -------------------------------------------------------------------------------

    def verify_invariants(self) -> None:
        """Check BST ordering, AVL balance, stored heights and item sorting."""
        all_items = list(self.items())
        for first, second in zip(all_items, all_items[1:]):
            if compare_items(first, second) >= 0:
                raise IndexStructureError("in-order traversal is not strictly sorted")
        self._verify_node(self._anchor().root)

    def _verify_node(self, address: EntityAddress) -> int:
        if address == NULL_ADDRESS:
            return 0
        node = self._form(address, False)
        items = list(zip_items(node.keys, node.values))
        if not items:
            raise IndexStructureError(f"empty node at {address}")
        for item_a, item_b in zip(items, items[1:]):
            if compare_items(item_a, item_b) >= 0:
                raise IndexStructureError(f"unsorted items in node {address}")
        if len(items) > self.max_items:
            raise IndexStructureError(f"node {address} overflows max_items")
        left_height = self._verify_node(node.left)
        right_height = self._verify_node(node.right)
        if abs(left_height - right_height) > 1:
            raise IndexStructureError(f"AVL balance violated at {address}")
        height = 1 + max(left_height, right_height)
        if node.height != height:
            raise IndexStructureError(
                f"stored height {node.height} != actual {height} at {address}"
            )
        if node.left != NULL_ADDRESS:
            if compare_items(self._subtree_edge(node.left, True), items[0]) >= 0:
                raise IndexStructureError(f"left subtree overlaps node {address}")
        if node.right != NULL_ADDRESS:
            if compare_items(self._subtree_edge(node.right, False), items[-1]) <= 0:
                raise IndexStructureError(f"right subtree overlaps node {address}")
        return height

    def _subtree_edge(self, address: EntityAddress, greatest: bool) -> Item:
        """The greatest (or least) item of the subtree at ``address``."""
        node = self._form(address, False)
        while (child := node.right if greatest else node.left) != NULL_ADDRESS:
            node = self._form(child, False)
        index = len(node.keys) - 1 if greatest else 0
        return node.keys[index], value_at(node.values, index)
