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
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.common.errors import IndexStructureError
from repro.common.types import EntityAddress
from repro.index.base import (
    NULL_ADDRESS,
    Index,
    pack_address,
    pack_item,
    serialised,
    serialised_scan,
    unpack_address,
    unpack_items,
    value_at,
    zip_items,
)
from repro.index.keys import Key, compare_keys
from repro.index.node_store import NodeStore

_NODE_HEADER = struct.Struct("<BhH")  # type, height, nitems
_ANCHOR_HEADER = struct.Struct("<BHH")  # type, min_items, max_items

NODE_TYPE = 0x54  # 'T'
ANCHOR_TYPE = 0x41  # 'A'

Item = tuple[Key, EntityAddress]


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
    caches; read paths use it as is."""

    height: int
    left: EntityAddress
    right: EntityAddress
    keys: tuple[Key, ...]
    values: bytes  # packed addresses, see :func:`repro.index.base.value_at`


def _decode_node(address: EntityAddress, blob: bytes) -> _NodeForm:
    node_type, height, nitems = _NODE_HEADER.unpack_from(blob, 0)
    if node_type != NODE_TYPE:
        raise IndexStructureError(
            f"entity at {address} is not a T-Tree node (type {node_type})"
        )
    left, pos = unpack_address(blob, _NODE_HEADER.size)
    right, pos = unpack_address(blob, pos)
    return _NodeForm(height, left, right, *unpack_items(blob, pos, nitems))


@dataclass
class _TNode:
    """Mutable working copy of one T-Tree node (write paths only)."""

    address: EntityAddress
    height: int = 1
    items: list[tuple[Key, EntityAddress]] = field(default_factory=list)
    left: EntityAddress = NULL_ADDRESS
    right: EntityAddress = NULL_ADDRESS

    def encode(self) -> bytes:
        parts = [
            _NODE_HEADER.pack(NODE_TYPE, self.height, len(self.items)),
            pack_address(self.left),
            pack_address(self.right),
        ]
        parts.extend(pack_item(key, value) for key, value in self.items)
        return b"".join(parts)

    # -- item helpers ---------------------------------------------------------------

    @property
    def min_item(self) -> tuple[Key, EntityAddress]:
        return self.items[0]

    @property
    def max_item(self) -> tuple[Key, EntityAddress]:
        return self.items[-1]

    def bounds(self, item: tuple[Key, EntityAddress]) -> bool:
        return (
            bool(self.items)
            and compare_items(item, self.min_item) >= 0
            and compare_items(item, self.max_item) <= 0
        )

    def insert_item(self, item: tuple[Key, EntityAddress]) -> None:
        position = self._bisect(item)
        self.items.insert(position, item)

    def _bisect(self, item: tuple[Key, EntityAddress]) -> int:
        lo, hi = 0, len(self.items)
        while lo < hi:
            mid = (lo + hi) // 2
            if compare_items(self.items[mid], item) <= 0:
                lo = mid + 1
            else:
                hi = mid
        return lo


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
        super().__init__()
        self.store = store
        self.min_items = min_items
        self.max_items = max_items
        self._root = NULL_ADDRESS
        #: Feeds only ``len()``; ``None`` = unknown, counted on demand.
        self._count: int | None = 0
        if anchor is None:
            self.anchor = store.allocate(self._encode_anchor())
        else:
            self.anchor = anchor
            self._reload_mirror()

    # -- anchor ------------------------------------------------------------------

    def _encode_anchor(self) -> bytes:
        return (
            _ANCHOR_HEADER.pack(ANCHOR_TYPE, self.min_items, self.max_items)
            + pack_address(self._root)
        )

    def _load_anchor(self) -> None:
        blob = self.store.read(self.anchor)
        anchor_type, min_items, max_items = _ANCHOR_HEADER.unpack_from(blob, 0)
        if anchor_type != ANCHOR_TYPE:
            raise IndexStructureError("anchor entity has wrong type")
        self.min_items = min_items
        self.max_items = max_items
        self._root, _ = unpack_address(blob, _ANCHOR_HEADER.size)

    def _reload_mirror(self) -> None:
        """Re-decode the anchor after a rollback restored its bytes.

        A transaction abort applies byte-level UNDO to the anchor and
        nodes; the decoded root address and item count held here would
        otherwise keep the rolled-back structure.  The recount is left to
        the next ``len()``: a reload costs one anchor decode."""
        self._load_anchor()
        self._count = None

    def _set_root(self, address: EntityAddress) -> None:
        if address != self._root:
            self._root = address
            self.store.write(self.anchor, self._encode_anchor())

    # -- node I/O ------------------------------------------------------------------

    def _form(self, address: EntityAddress, keep: bool = True) -> _NodeForm:
        return self.store.load(address, _decode_node, keep)

    def _load(self, address: EntityAddress, keep: bool = True) -> _TNode:
        """A private mutable copy: write paths edit ``items`` before
        ``_save``, and a no-wait lock refusal inside ``store.write`` can
        abort in between — the cached form must never see the edit."""
        form = self._form(address, keep)
        items = list(zip_items(form.keys, form.values))
        return _TNode(address, form.height, items, form.left, form.right)

    def _save(self, node: _TNode) -> None:
        self.store.write(node.address, node.encode())

    def _new_node(self, items: list[tuple[Key, EntityAddress]]) -> _TNode:
        node = _TNode(NULL_ADDRESS, 1, items)
        node.address = self.store.allocate(node.encode())
        return node

    # -- public API --------------------------------------------------------------------

    @serialised
    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self._scan(self._root, None, None, False))
        return self._count

    def _counted(self, delta: int) -> None:
        if self._count is not None:
            self._count += delta

    @serialised
    def search(self, key: Key) -> list[EntityAddress]:
        return [value for _, value in self._scan(self._root, key, key)]

    def _scan(
        self,
        address: EntityAddress,
        low: Key | None,
        high: Key | None,
        keep: bool = True,
    ) -> Iterator[Item]:
        """Items with ``low <= key <= high`` below ``address``, in order.

        An ordered descent: the left subtree is skipped when ``low`` is
        above the node's minimum key and the right one when ``high`` is
        below its maximum.  Equal keys are contiguous in compound order
        but may straddle node boundaries, so only a *strict* inequality
        prunes.
        """
        if address == NULL_ADDRESS:
            return
        node = self._form(address, keep)
        keys = node.keys
        if low is None or compare_keys(low, keys[0]) <= 0:
            yield from self._scan(node.left, low, high, keep)
        for index, key in enumerate(keys):
            if low is not None and compare_keys(key, low) < 0:
                continue
            if high is not None and compare_keys(key, high) > 0:
                return
            yield key, value_at(node.values, index)
        if high is None or compare_keys(high, keys[-1]) >= 0:
            yield from self._scan(node.right, low, high, keep)

    @serialised
    def insert(self, key: Key, value: EntityAddress) -> None:
        item = (key, value)
        if self._root == NULL_ADDRESS:
            root = self._new_node([item])
            self._set_root(root.address)
            self._counted(+1)
            return
        path = self._descend_for_insert(item)
        node = path[-1]
        if node.bounds(item) and len(node.items) >= self.max_items:
            # Bounding node is full: the new item displaces the node's
            # minimum, which is reinserted at its greatest-lower-bound
            # position in the left subtree.
            displaced = node.items.pop(0)
            node.insert_item(item)
            self._save(node)
            self._insert_displaced(path, displaced)
        elif len(node.items) < self.max_items:
            node.insert_item(item)
            self._save(node)
        else:
            # Non-bounding full node at the end of the search path: hang a
            # new leaf on the proper side.
            leaf = self._new_node([item])
            if compare_items(item, node.min_item) < 0:
                node.left = leaf.address
            else:
                node.right = leaf.address
            self._save(node)
            self._rebalance_path(path)
        self._counted(+1)

    @serialised
    def delete(self, key: Key, value: EntityAddress) -> None:
        item = (key, value)
        path: list[_TNode] = []
        address = self._root
        node = None
        while address != NULL_ADDRESS:
            node = self._load(address)
            path.append(node)
            if compare_items(item, node.min_item) < 0:
                address = node.left
            elif compare_items(item, node.max_item) > 0:
                address = node.right
            else:
                break
        else:
            raise self._not_found(key, value)
        if node is None or item not in node.items:
            raise self._not_found(key, value)
        node.items.remove(item)
        self._counted(-1)
        self._fix_after_delete(path)

    @serialised_scan
    def items(self) -> Iterator[tuple[Key, EntityAddress]]:
        return self._scan(self._root, None, None, False)

    @serialised_scan
    def range_scan(
        self, low: Key | None = None, high: Key | None = None
    ) -> Iterator[tuple[Key, EntityAddress]]:
        """Items with ``low <= key <= high`` in key order (None = open end)."""
        return self._scan(self._root, low, high)

    # -- insert internals -------------------------------------------------------------------

    def _descend_for_insert(self, item: Item) -> list[_TNode]:
        """Path from root to the bounding node or the last node searched."""
        path: list[_TNode] = []
        address = self._root
        while address != NULL_ADDRESS:
            node = self._load(address)
            path.append(node)
            if node.bounds(item):
                break
            if compare_items(item, node.min_item) < 0:
                address = node.left
            else:
                address = node.right
        return path

    def _insert_displaced(self, path: list[_TNode], item: Item) -> None:
        """Reinsert the displaced minimum at its greatest-lower-bound spot."""
        bounding = path[-1]
        if bounding.left == NULL_ADDRESS:
            leaf = self._new_node([item])
            bounding.left = leaf.address
            self._save(bounding)
            self._rebalance_path(path)
            return
        address = bounding.left
        while True:
            node = self._load(address)
            path.append(node)
            if node.right == NULL_ADDRESS:
                break
            address = node.right
        glb = path[-1]
        if len(glb.items) < self.max_items:
            glb.items.append(item)  # item > every key in the glb node
            self._save(glb)
            return
        leaf = self._new_node([item])
        glb.right = leaf.address
        self._save(glb)
        self._rebalance_path(path)

    # -- delete internals ------------------------------------------------------------------------

    def _fix_after_delete(self, path: list[_TNode]) -> None:
        node = path[-1]
        has_left = node.left != NULL_ADDRESS
        has_right = node.right != NULL_ADDRESS
        if has_left and has_right:
            if len(node.items) < self.min_items:
                self._refill_internal(path)
            else:
                self._save(node)
            return
        if node.items:
            self._save(node)
            return
        # Empty leaf or half-leaf: splice it out of the tree.
        child = node.left if has_left else (node.right if has_right else NULL_ADDRESS)
        self._replace_child(path, node, child)
        self.store.free(node.address)
        path.pop()
        self._rebalance_path(path)

    def _refill_internal(self, path: list[_TNode]) -> None:
        """Refill an underflowing internal node from its left subtree's
        greatest lower bound (the rightmost node on the left)."""
        node = path[-1]
        donor_path = [node]
        address = node.left
        while True:
            donor = self._load(address)
            donor_path.append(donor)
            if donor.right == NULL_ADDRESS:
                break
            address = donor.right
        donor = donor_path[-1]
        node.items.insert(0, donor.items.pop())
        self._save(node)
        full_path = path + donor_path[1:]
        self._fix_after_delete(full_path)

    def _replace_child(
        self, path: list[_TNode], node: _TNode, replacement: EntityAddress
    ) -> None:
        if len(path) < 2:
            self._set_root(replacement)
            return
        parent = path[-2]
        if parent.left == node.address:
            parent.left = replacement
        elif parent.right == node.address:
            parent.right = replacement
        else:
            raise IndexStructureError(
                f"{node.address} is not a child of {parent.address}"
            )
        self._save(parent)

    # -- balancing -------------------------------------------------------------------------------

    def _height(self, address: EntityAddress) -> int:
        if address == NULL_ADDRESS:
            return 0
        return self._form(address).height

    def _rebalance_path(self, path: list[_TNode]) -> None:
        """Walk from the deepest touched node to the root, updating heights
        and rotating where the AVL condition breaks."""
        child_address: EntityAddress | None = None
        for depth in range(len(path) - 1, -1, -1):
            node = self._load(path[depth].address)  # reload: may be stale
            new_address = self._rebalance_node(node)
            if child_address is not None and new_address != child_address:
                pass  # child already linked by rotation bookkeeping
            if depth > 0:
                parent = self._load(path[depth - 1].address)
                changed = False
                if parent.left == node.address and new_address != node.address:
                    parent.left = new_address
                    changed = True
                elif parent.right == node.address and new_address != node.address:
                    parent.right = new_address
                    changed = True
                if changed:
                    self._save(parent)
            elif new_address != self._root:
                self._set_root(new_address)
            child_address = new_address

    def _rebalance_node(self, node: _TNode) -> EntityAddress:
        """Fix one node's height / balance; returns the subtree's new root."""
        balance = self._height(node.left) - self._height(node.right)
        if balance > 1:
            left = self._load(node.left)
            if self._height(left.left) >= self._height(left.right):
                return self._rotate_right(node)
            node.left = self._rotate_left(left)
            self._save(node)
            return self._rotate_right(self._load(node.address))
        if balance < -1:
            right = self._load(node.right)
            if self._height(right.right) >= self._height(right.left):
                return self._rotate_left(node)
            node.right = self._rotate_right(right)
            self._save(node)
            return self._rotate_left(self._load(node.address))
        self._update_height(node)
        return node.address

    def _update_height(self, node: _TNode) -> None:
        new_height = 1 + max(self._height(node.left), self._height(node.right))
        if new_height != node.height:
            node.height = new_height
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
            or len(node.items) >= self.min_items
        ):
            return
        left = self._load(node.left)
        if left.right != NULL_ADDRESS or not left.items:
            return
        take = min(
            len(left.items) - self.min_items // 2,
            self.min_items - len(node.items),
        )
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

    @serialised
    def verify_invariants(self) -> None:
        """Check BST ordering, AVL balance, stored heights and item sorting."""
        all_items = list(self.items())
        for first, second in zip(all_items, all_items[1:]):
            if compare_items(first, second) >= 0:
                raise IndexStructureError("in-order traversal is not strictly sorted")
        self._verify_node(self._root)

    def _verify_node(self, address: EntityAddress) -> int:
        if address == NULL_ADDRESS:
            return 0
        node = self._load(address, False)
        if not node.items:
            raise IndexStructureError(f"empty node at {address}")
        for item_a, item_b in zip(node.items, node.items[1:]):
            if compare_items(item_a, item_b) >= 0:
                raise IndexStructureError(f"unsorted items in node {address}")
        if len(node.items) > self.max_items:
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
            left_max = self._load_subtree_max(node.left)
            if compare_items(left_max, node.min_item) >= 0:
                raise IndexStructureError(f"left subtree overlaps node {address}")
        if node.right != NULL_ADDRESS:
            right_min = self._load_subtree_min(node.right)
            if compare_items(right_min, node.max_item) <= 0:
                raise IndexStructureError(f"right subtree overlaps node {address}")
        return height

    def _load_subtree_max(self, address: EntityAddress) -> Item:
        node = self._load(address, False)
        while node.right != NULL_ADDRESS:
            node = self._load(node.right, False)
        return node.max_item

    def _load_subtree_min(self, address: EntityAddress) -> Item:
        node = self._load(address, False)
        while node.left != NULL_ADDRESS:
            node = self._load(node.left, False)
        return node.min_item
