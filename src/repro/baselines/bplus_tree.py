"""Bottom-up append-only B+ tree on WORM (Figure 6) — and its attack.

For a strictly increasing key sequence one can build a B+ tree with no
node splits or merges: new keys go to the rightmost leaf; when a leaf
fills, a fresh leaf is created and an entry is appended to its parent,
recursing upward, with a new root introduced when the old root fills.
Every step is an append or node creation, so the tree lives happily on
append-capable WORM.

**Why it is not trustworthy** (Section 4): the path taken to look up an
entry depends on entries added *after* it.  An internal entry is a
``(separator, child)`` pair where the separator is the smallest key of
the child's subtree, and lookup descends into the child with the largest
separator ``<= k``.  Mala appends ``(25, fake-subtree)`` at the root of
Figure 6(a) — a perfectly WORM-legal append that keeps separators sorted
— and every subsequent lookup of committed key 31 descends into her
subtree and misses it; ``find_geq(28)`` returns her 30 instead of the
committed 29.  :class:`BPlusTree` exposes exactly that surface
(:meth:`BPlusTree.raw_append_entry`, :meth:`BPlusTree.make_leaf`,
:meth:`BPlusTree.make_internal`) so the attack is executable in
:mod:`repro.adversary.attacks`.

Node visits are counted per tree (:attr:`BPlusTree.nodes_read`) so joins
over B+-tree-indexed lists report the same "blocks read" unit as jump
indexes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Set, Tuple

from repro.errors import DocumentIdOrderError, IndexError_, WormViolationError


class _Node:
    """One B+ tree node; append-only key/child arrays.

    Leaves have ``children is None`` and a ``next_leaf`` forward pointer
    (set once, when the successor leaf is created).
    """

    __slots__ = ("keys", "children", "next_leaf", "node_id")

    def __init__(self, node_id: int, *, leaf: bool):
        self.node_id = node_id
        self.keys: List[int] = []
        self.children: Optional[List["_Node"]] = None if leaf else []
        self.next_leaf: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class BPlusTree:
    """Append-only bottom-up B+ tree over a strictly increasing sequence.

    Parameters
    ----------
    fanout:
        Maximum entries per node (leaf keys / internal children).
    """

    def __init__(self, *, fanout: int = 64):
        if fanout < 2:
            raise IndexError_(f"fanout must be >= 2, got {fanout}")
        self.fanout = fanout
        self._next_node_id = 0
        self._root: Optional[_Node] = None
        # Rightmost path, root first — where all honest appends happen.
        self._right_path: List[_Node] = []
        self.count = 0
        self.last_key = -1
        #: Total node visits across lookups/seeks (the blocks-read metric).
        self.nodes_read = 0

    # ------------------------------------------------------------------
    # construction helpers (WORM-legal; shared with the adversary)
    # ------------------------------------------------------------------
    def _new_node(self, *, leaf: bool) -> _Node:
        node = _Node(self._next_node_id, leaf=leaf)
        self._next_node_id += 1
        return node

    def make_leaf(self, keys: List[int]) -> _Node:
        """Create a detached leaf (node creation is always WORM-legal)."""
        node = self._new_node(leaf=True)
        node.keys.extend(keys)
        return node

    def make_internal(self, entries: List[Tuple[int, _Node]]) -> _Node:
        """Create a detached internal node from ``(separator, child)`` pairs."""
        node = self._new_node(leaf=False)
        for key, child in entries:
            node.keys.append(key)
            node.children.append(child)
        return node

    def raw_append_entry(self, node: _Node, key: int, child: _Node) -> None:
        """Append one entry to an internal node — the adversary's lever.

        The WORM device checks only that this is an append within
        capacity, not that the entry is semantically honest.
        """
        if node.is_leaf:
            raise IndexError_("cannot append a child entry to a leaf")
        if len(node.keys) >= self.fanout:
            raise WormViolationError(
                f"node {node.node_id} is full ({self.fanout} entries)"
            )
        node.keys.append(key)
        node.children.append(child)

    @property
    def root(self) -> Optional[_Node]:
        """The root node (``None`` while empty)."""
        return self._root

    # ------------------------------------------------------------------
    # honest write path
    # ------------------------------------------------------------------
    def insert(self, key: int) -> None:
        """Append ``key`` (strictly increasing) via the bottom-up build."""
        if key <= self.last_key:
            raise DocumentIdOrderError(
                f"B+ tree keys must strictly increase; {key} after "
                f"{self.last_key}"
            )
        self.last_key = key
        self.count += 1
        if self._root is None:
            leaf = self._new_node(leaf=True)
            leaf.keys.append(key)
            self._root = leaf
            self._right_path = [leaf]
            return
        leaf = self._right_path[-1]
        if len(leaf.keys) < self.fanout:
            leaf.keys.append(key)
            return
        new_leaf = self._new_node(leaf=True)
        new_leaf.keys.append(key)
        leaf.next_leaf = new_leaf
        self._push_up(len(self._right_path) - 2, key, new_leaf)

    def _push_up(self, level: int, key: int, child: _Node) -> None:
        """Attach ``child`` (smallest key ``key``) at ``level`` of the right path."""
        if level < 0:
            new_root = self._new_node(leaf=False)
            old_root = self._root
            new_root.keys.append(self._smallest_key(old_root))
            new_root.children.append(old_root)
            new_root.keys.append(key)
            new_root.children.append(child)
            self._root = new_root
            self._right_path = [new_root] + self._path_to_rightmost(child)
            return
        parent = self._right_path[level]
        if len(parent.keys) < self.fanout:
            parent.keys.append(key)
            parent.children.append(child)
            self._right_path[level + 1 :] = self._path_to_rightmost(child)
            return
        new_parent = self._new_node(leaf=False)
        new_parent.keys.append(key)
        new_parent.children.append(child)
        self._push_up(level - 1, key, new_parent)

    @staticmethod
    def _path_to_rightmost(node: _Node) -> List[_Node]:
        path = [node]
        while not node.is_leaf:
            node = node.children[-1]
            path.append(node)
        return path

    @staticmethod
    def _smallest_key(node: _Node) -> int:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    # ------------------------------------------------------------------
    # read path — takes the tree at face value (that's the point)
    # ------------------------------------------------------------------
    def _descend(self, key: int, visited: Optional[Set[int]] = None) -> _Node:
        """Walk to the leaf a trusting reader believes covers ``key``."""
        node = self._root
        while not node.is_leaf:
            self._count_visit(node, visited)
            # Child with the largest separator <= key (first child when
            # key precedes every separator).
            idx = max(0, bisect_right(node.keys, key) - 1)
            node = node.children[idx]
        self._count_visit(node, visited)
        return node

    def _count_visit(self, node: _Node, visited: Optional[Set[int]]) -> None:
        if visited is None:
            self.nodes_read += 1
        elif node.node_id not in visited:
            visited.add(node.node_id)
            self.nodes_read += 1

    def lookup(self, key: int, *, visited: Optional[Set[int]] = None) -> bool:
        """Standard B+ tree membership test.

        ``visited`` de-duplicates node-visit counting within one query,
        matching the jump-index accounting.
        """
        if self._root is None:
            return False
        leaf = self._descend(key, visited)
        idx = bisect_left(leaf.keys, key)
        return idx < len(leaf.keys) and leaf.keys[idx] == key

    def find_geq(self, key: int, *, visited: Optional[Set[int]] = None) -> Optional[int]:
        """Smallest stored key ``>= key`` a trusting reader finds.

        Follows leaf chaining when the covering leaf tops out below the
        target.  On an honest tree this is exact; on a tampered tree it
        returns whatever Mala arranged — that asymmetry versus
        :meth:`JumpIndex.find_geq` is the paper's Section 4 argument.
        """
        if self._root is None:
            return None
        leaf = self._descend(key, visited)
        while leaf is not None:
            idx = bisect_left(leaf.keys, key)
            if idx < len(leaf.keys):
                return leaf.keys[idx]
            leaf = leaf.next_leaf
            if leaf is not None:
                self._count_visit(leaf, visited)
        return None

    def leaf_keys(self) -> List[int]:
        """All keys by leaf chaining from the leftmost leaf (diagnostics)."""
        if self._root is None:
            return []
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        keys: List[int] = []
        while node is not None:
            keys.extend(node.keys)
            node = node.next_leaf
        return keys

    @property
    def height(self) -> int:
        """Levels from root to leaf (0 when empty)."""
        if self._root is None:
            return 0
        node, h = self._root, 1
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BPlusTree(count={self.count}, height={self.height}, fanout={self.fanout})"


class TreeCursor:
    """Seekable cursor over a B+-tree-indexed (unmerged) posting list.

    The adapter :func:`repro.search.join.zigzag` joins through, as it joins
    jump-indexed lists through :class:`~repro.search.join.MergedListCursor`.
    """

    def __init__(self, tree: BPlusTree):
        self.tree = tree
        self._visited: set = set()
        self._current: Optional[int] = tree.find_geq(0, visited=self._visited)
        #: Seek operations performed (the paper's FindGeq count).
        self.seeks = 0

    def doc(self) -> Optional[int]:
        """Current document ID (``None`` when exhausted)."""
        return self._current

    def seek_geq(self, k: int) -> Optional[int]:
        """Advance to the first key >= ``k``."""
        if self._current is not None and self._current >= k:
            return self._current
        self.seeks += 1
        self._current = self.tree.find_geq(k, visited=self._visited)
        return self._current

    def estimated_length(self) -> int:
        """Join-ordering hint."""
        return len(self.tree)

    def blocks_read(self) -> int:
        """Distinct tree nodes visited."""
        return len(self._visited)
