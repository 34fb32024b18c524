"""Binary search over an append-only sorted run — and why it's unsafe.

Section 4: "Other techniques like binary search can also be compromised
by the adversary, by appending smaller numbers at the tail.  For example,
binary search on the leaves of the tree in Figure 6(b) would miss 31
because of the malicious entry 30 at the end."

:class:`SortedAppendLog` is that structure: an append-only run of keys
that an honest writer keeps sorted (strictly increasing), searched with
textbook binary search.  The append interface is WORM-legal for anyone —
including Mala, whose single out-of-order append silently breaks every
binary search past it.  A certified reader can *detect* her (the run is
visibly unsorted, :meth:`SortedAppendLog.verify_sorted`), but a plain
binary search gives wrong answers without any error — which is exactly
why the paper needs jump indexes, whose per-step range asserts turn the
same corruption into a loud :class:`~repro.errors.TamperDetectedError`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional

from repro.errors import TamperDetectedError


class SortedAppendLog:
    """An append-only key run searched by binary search.

    Honest writers call :meth:`append` with strictly increasing keys; the
    method itself does **not** enforce order, because the WORM device
    cannot know the semantics — that asymmetry is the attack surface.
    """

    def __init__(self) -> None:
        self._keys: List[int] = []
        #: Probes performed by binary searches (cost accounting).
        self.probes = 0

    def append(self, key: int) -> None:
        """Append ``key`` — WORM-legal regardless of order."""
        self._keys.append(key)

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self) -> List[int]:
        """Snapshot of the stored run."""
        return list(self._keys)

    # ------------------------------------------------------------------
    # the trusting reader
    # ------------------------------------------------------------------
    def binary_search(self, key: int) -> bool:
        """Textbook binary search; wrong (not just slow) once tampered."""
        lo, hi = 0, len(self._keys)
        while lo < hi:
            mid = (lo + hi) // 2
            self.probes += 1
            if self._keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(self._keys) and self._keys[lo] == key

    def find_geq(self, key: int) -> Optional[int]:
        """Binary-search find-geq; equally trusting, equally breakable."""
        idx = bisect_left(self._keys, key)
        return self._keys[idx] if idx < len(self._keys) else None

    # ------------------------------------------------------------------
    # the certified reader
    # ------------------------------------------------------------------
    def verify_sorted(self) -> None:
        """Audit the run; raises on the trace Mala's append leaves.

        Linear, hence unattractive for query time — the point of the
        paper's logarithmic *and* self-checking jump index.
        """
        for i in range(1, len(self._keys)):
            if self._keys[i] <= self._keys[i - 1]:
                raise TamperDetectedError(
                    f"key {self._keys[i]} at position {i} after "
                    f"{self._keys[i - 1]} — append-order violation",
                    location=f"sorted log position {i}",
                    invariant="sorted-run-monotonicity",
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedAppendLog(len={len(self._keys)})"
