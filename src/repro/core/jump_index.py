"""The binary jump index of Section 4.1 (Figure 7, left column).

A jump index is a trustworthy index over a strictly monotonically
increasing integer sequence (document IDs, commit times).  Each node
carries one value and an array of *write-once* jump pointers: the ``i``-th
pointer of a node holding ``l`` points to the node with the smallest value
``l'`` such that ``l + 2**i <= l' < l + 2**(i+1)``.

Here it is Section 4.1's reference structure, off the engine's path: the
posting lists use the block jump index of Section 4.4, and commit times a
checked column (:mod:`repro.core.time_index`).

Trust properties (all proved in the paper, all tested here):

* **Proposition 1**: a lookup follows pointers with strictly decreasing
  exponents ``i1 > i2 > ...``, so any operation takes at most
  ``floor(log2(k)) + 1`` follows — ``O(log2 N)``.
* **Proposition 2**: once inserted, an ID can always be looked up — the
  pointers on its path are on write-once storage and the lookup recomputes
  exactly the exponents the insert chose.
* **Proposition 3**: ``find_geq(k)`` never returns a value greater than
  some stored ``v >= k`` — no committed ID can be skipped, which is what
  makes zigzag joins trustworthy.

The adversary's surface is the same low-level API honest code uses:
:meth:`JumpIndex.append_node` and :meth:`JumpIndex.set_pointer` (append /
write-once-slot operations the WORM device permits).  Malicious values
don't corrupt answers; they trip the Figure-7 ``assert`` checks, raised
here as :class:`~repro.errors.TamperDetectedError`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import (
    DocumentIdOrderError,
    IndexError_,
    TamperDetectedError,
    WormViolationError,
)

#: Sentinel distinguishing "no node" results.
NOT_FOUND = None


class JumpNode:
    """One jump-index node: a value plus write-once jump pointers.

    Pointer slots emulate the WORM device's write-once block slots: they
    may be assigned exactly once, by anyone, and never changed — exactly
    the paper's storage model for jump pointers (Section 4.3).
    """

    __slots__ = ("value", "_ptrs")

    def __init__(self, value: int, num_pointers: int):
        self.value = value
        self._ptrs: List[Optional[int]] = [None] * num_pointers

    def pointer(self, i: int) -> Optional[int]:
        """Target node ID of pointer ``i`` (``None`` when unset)."""
        return self._ptrs[i]

    def set_pointer(self, i: int, target: int) -> None:
        """Assign pointer ``i``; write-once."""
        if self._ptrs[i] is not None:
            raise WormViolationError(
                f"jump pointer {i} of node holding {self.value} is already "
                f"set; WORM pointers are write-once"
            )
        self._ptrs[i] = target

    @property
    def num_pointers(self) -> int:
        """Number of pointer slots on this node."""
        return len(self._ptrs)


class JumpIndex:
    """Binary jump index over a strictly increasing integer sequence.

    Parameters
    ----------
    max_value_bits:
        ``log2(N)`` sizing of the pointer arrays; the default 32 matches
        the paper's ``N = 2**32`` document-ID space.
    """

    def __init__(self, *, max_value_bits: int = 32):
        if max_value_bits <= 0:
            raise IndexError_(
                f"max_value_bits must be positive, got {max_value_bits}"
            )
        self.max_value_bits = max_value_bits
        self._num_pointers = max_value_bits + 1
        self._nodes: List[JumpNode] = []
        #: Total pointer follows across all operations (complexity metric).
        self.pointer_follows = 0
        #: ``(node_id, exponent)`` steps of the most recent operation —
        #: the ``i1 > i2 > ...`` sequence of Proposition 1.
        self.last_path: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # low-level WORM-legal surface (honest code and Mala alike)
    # ------------------------------------------------------------------
    def append_node(self, value: int) -> int:
        """Append a node holding ``value``; returns its ID.

        The device permits any append — semantic validity is checked at
        read time, not write time.
        """
        if value < 0 or value.bit_length() > self.max_value_bits:
            raise IndexError_(
                f"value {value} does not fit in {self.max_value_bits} bits"
            )
        self._nodes.append(JumpNode(value, self._num_pointers))
        return len(self._nodes) - 1

    def set_pointer(self, node_id: int, i: int, target: int) -> None:
        """Assign pointer ``i`` of ``node_id`` to node ``target`` (write-once)."""
        if not 0 <= target < len(self._nodes):
            raise IndexError_(f"target node {target} does not exist")
        self._node(node_id).set_pointer(i, target)

    def node_value(self, node_id: int) -> int:
        """Value stored at ``node_id``."""
        return self._node(node_id).value

    def _node(self, node_id: int) -> JumpNode:
        try:
            return self._nodes[node_id]
        except IndexError:
            raise IndexError_(f"node {node_id} does not exist") from None

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def is_empty(self) -> bool:
        """Whether any node has been inserted."""
        return not self._nodes

    @property
    def head_value(self) -> int:
        """The smallest value — by construction the first node inserted."""
        if not self._nodes:
            raise IndexError_("jump index is empty")
        return self._nodes[0].value

    # ------------------------------------------------------------------
    # honest write path — Insert(k) of Figure 7
    # ------------------------------------------------------------------
    def insert(self, k: int) -> int:
        """Insert ``k``; returns the new node's ID.

        Follows Figure 7's ``Insert(k)`` exactly: walk from the head
        choosing the exponent ``i`` with ``s + 2**i <= k < s + 2**(i+1)``;
        at the first NULL pointer, create the node and set the pointer —
        an append plus a write-once slot assignment, both WORM-legal.
        """
        if not self._nodes:
            return self.append_node(k)
        node_id = 0
        s = self._nodes[0].value
        if s >= k:
            raise DocumentIdOrderError(
                f"insert of {k} violates strict monotonicity (head holds {s})"
            )
        self.last_path = []
        while True:
            i = self._exponent(s, k)
            target = self._nodes[node_id].pointer(i)
            if target is None:
                new_id = self.append_node(k)
                self._nodes[node_id].set_pointer(i, new_id)
                return new_id
            self.pointer_follows += 1
            self.last_path.append((node_id, i))
            s_next = self._nodes[target].value
            if s_next >= k:
                # Honest inserts are strictly increasing, so every node on
                # the path holds a smaller value (Figure 7, step 15).
                raise DocumentIdOrderError(
                    f"insert of {k} is not strictly greater than stored "
                    f"{s_next}; document IDs must increase"
                )
            node_id, s = target, s_next

    # ------------------------------------------------------------------
    # read path — Lookup(k) of Figure 7
    # ------------------------------------------------------------------
    def lookup(self, k: int) -> bool:
        """Whether ``k`` was inserted (Proposition 2 guarantees no false negatives).

        Raises
        ------
        TamperDetectedError
            If a followed pointer violates the range invariant
            ``s + 2**i <= s' < s + 2**(i+1)`` — Mala left a trace.
        """
        if not self._nodes:
            return False
        node_id = 0
        s = self._nodes[0].value
        self.last_path = []
        while True:
            if s > k:
                return False
            if s == k:
                return True
            i = self._exponent(s, k)
            target = self._nodes[node_id].pointer(i)
            if target is None:
                return False
            self.pointer_follows += 1
            self.last_path.append((node_id, i))
            s_next = self._nodes[target].value
            self._check_range(s, i, s_next, f"lookup({k})")
            node_id, s = target, s_next

    def find_geq(self, k: int) -> Optional[int]:
        """Smallest stored value ``>= k``, or ``None`` (FindGeq of Figure 7).

        Proposition 3: if some stored ``v >= k`` exists, the result is
        never greater than ``v`` — committed IDs cannot be skipped.
        """
        if not self._nodes:
            return NOT_FOUND
        self.last_path = []
        node_id = self._find_geq_rec(k, 0)
        return None if node_id is NOT_FOUND else self._nodes[node_id].value

    def _find_geq_rec(self, k: int, node_id: int) -> Optional[int]:
        """``FindGeqRec(k, s)`` of Figure 7, with tamper asserts.

        Returns the *node ID* holding the result (``None`` = NOT FOUND).
        """
        s = self._nodes[node_id].value
        if s >= k:
            return node_id
        i = self._exponent(s, k)
        target = self._nodes[node_id].pointer(i)
        if target is not None:
            self.pointer_follows += 1
            self.last_path.append((node_id, i))
            t = self._nodes[target].value
            self._check_range(s, i, t, f"find_geq({k})")
            res = self._find_geq_rec(k, target)
            if res is not NOT_FOUND:
                res_value = self._nodes[res].value
                if not s + (1 << i) <= res_value < s + (1 << (i + 1)):
                    raise TamperDetectedError(
                        f"find_geq({k}) surfaced {res_value} outside "
                        f"[{s + (1 << i)}, {s + (1 << (i + 1))}) — subtree "
                        "was cross-linked",
                        location=f"node holding {s}, pointer {i}",
                        invariant="jump-subtree-range",
                    )
                return res
        # No value >= k under pointer i; the first non-NULL later pointer
        # leads to the smallest value of the next occupied range.
        for j in range(i + 1, self._num_pointers):
            target = self._nodes[node_id].pointer(j)
            if target is not None:
                self.pointer_follows += 1
                self.last_path.append((node_id, j))
                t = self._nodes[target].value
                self._check_range(s, j, t, f"find_geq({k})")
                return target
        return NOT_FOUND

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _exponent(s: int, k: int) -> int:
        """The unique ``i`` with ``s + 2**i <= k < s + 2**(i+1)`` (``k > s``)."""
        return (k - s).bit_length() - 1

    def _check_range(self, s: int, i: int, t: int, op: str) -> None:
        """The Figure-7 assert: a followed pointer must land in its range."""
        if not s + (1 << i) <= t < s + (1 << (i + 1)):
            raise TamperDetectedError(
                f"{op} followed pointer {i} from {s} to {t}, outside "
                f"[{s + (1 << i)}, {s + (1 << (i + 1))})",
                location=f"node holding {s}, pointer {i}",
                invariant="jump-monotonicity",
            )

    def values(self) -> List[int]:
        """All stored values in insertion order (audit convenience)."""
        return [n.value for n in self._nodes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JumpIndex(nodes={len(self._nodes)}, bits={self.max_value_bits})"
