"""Retention periods and trustworthy disposition (Section 2.2).

"While immutability is often specified as a requirement for records,
what is required in practice is that the records be 'term-immutable',
i.e., immutable for a specified retention period."

This module implements the end of a record's life:

* documents commit with a ``retention_until`` horizon; the WORM device
  refuses deletion before it (already enforced in
  :meth:`repro.worm.device.WormDevice.delete_file`);
* after expiry, :class:`RetentionManager` *disposes* of documents —
  deleting the document file while recording the disposition in an
  append-only WORM log.

The log is what keeps disposition trustworthy: index entries for a
disposed document cannot be removed (they are on WORM), so a query may
still surface its ID — and without a disposition record, a dangling ID
is indistinguishable from a posting-stuffing attack (Section 5).  The
log lets a certified reader classify every dangling ID as either
"legitimately disposed on date T, here is the record" or "fabricated —
raise the alarm".
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.errors import TamperDetectedError
from repro.worm.storage import CachedWormStore

_RECORD = struct.Struct("<IQQ")  # doc_id, retention_until, disposed_at


@dataclass(frozen=True)
class Disposition:
    """One recorded disposal of an expired document."""

    doc_id: int
    retention_until: int
    disposed_at: int


class RetentionManager:
    """Tracks retention horizons and performs auditable disposition.

    Parameters
    ----------
    store:
        The WORM store holding both the documents and the disposition log.
    log_name:
        Disposition log file name.
    """

    def __init__(self, store: CachedWormStore, *, log_name: str = "dispositions"):
        self.store = store
        self.log_name = log_name
        self._file = store.ensure_file(log_name)
        self._dispositions: Dict[int, Disposition] = {}
        self._disposed_column = np.empty(0, dtype=np.uint32)
        # Retention horizons learned during sweeps (doc_id -> horizon or
        # None for permanent documents), so repeated sweeps over a large
        # archive don't re-open every WORM file to re-read an unchanged
        # horizon.  Session-scoped: horizons are immutable once a
        # document commits, so the cache can never go stale.
        self._horizons: Dict[int, Optional[int]] = {}
        if self._file.num_blocks:
            for disposition in self.dispositions():
                self._dispositions[disposition.doc_id] = disposition

    def __len__(self) -> int:
        return len(self._dispositions)

    # ------------------------------------------------------------------
    # disposition
    # ------------------------------------------------------------------
    def dispose_expired(
        self, documents, *, now: int, before_delete: Callable[[int], None] = lambda doc_id: None
    ) -> List[int]:
        """Dispose of every committed document whose retention expired.

        ``documents`` is the engine's
        :class:`~repro.search.documents.DocumentStore`.  Returns the IDs
        disposed in this pass.  Documents without a retention horizon
        (``retention_until is None``) are permanent and never disposed.
        ``before_delete`` is called with each document's ID just before
        its file is deleted, while it can still be read.
        """
        missing = object()
        disposed: List[int] = []
        for doc_id in range(documents.next_doc_id):
            prior = self._dispositions.get(doc_id)
            if prior is not None:
                # Crash recovery: the log-then-delete pair below may have
                # been interrupted after the log append committed but
                # before the file deletion ran.  The record alone must
                # not make the sweep skip the document forever — that
                # would leave a "disposed" record for a still-readable
                # file, violating the documented "a re-run simply
                # completes" contract.  Finish the deletion here (the
                # logged horizon is >= the true one, so a `now` past the
                # logged horizon satisfies the WORM deletion check).
                if now < prior.retention_until or not documents.exists(doc_id):
                    continue
            else:
                horizon = self._horizons.get(doc_id, missing)
                if horizon is missing:
                    # First time this sweep path sees the document: read
                    # its horizon once and remember it (horizons are
                    # committed with the record and never change).
                    if not documents.exists(doc_id):
                        continue
                    name = documents.file_name(doc_id)
                    horizon = self.store.open_file(name).retention_until
                    self._horizons[doc_id] = horizon
                if horizon is None or now < horizon:
                    # Permanent, or not yet expired; later sweeps skip
                    # the WORM open entirely via the horizon cache.
                    continue
                # Log first, then delete: a crash between the two leaves
                # a disposition record for a still-present document,
                # which a re-run simply completes (see the recovery
                # branch above); the reverse order would leave an
                # unexplained dangling ID.  Legacy archives may hold
                # fractional horizons; the log packs integers, and
                # rounding *up* keeps the logged horizon at or past the
                # true one — truncation would understate retention and
                # let a record claim disposal before its horizon without
                # tripping the replay tamper check.
                self._log(doc_id, math.ceil(horizon), now)
            before_delete(doc_id)
            self.store.device.delete_file(documents.file_name(doc_id), now=now)
            self._horizons.pop(doc_id, None)
            disposed.append(doc_id)
        return disposed

    def _log(self, doc_id: int, retention_until: int, disposed_at: int) -> None:
        self.store.append_record(
            self.log_name, _RECORD.pack(doc_id, retention_until, disposed_at)
        )
        self._dispositions[doc_id] = Disposition(
            doc_id=doc_id, retention_until=retention_until, disposed_at=disposed_at
        )

    # ------------------------------------------------------------------
    # certified reads
    # ------------------------------------------------------------------
    def is_disposed(self, doc_id: int) -> bool:
        """Whether ``doc_id`` was legitimately disposed of."""
        return doc_id in self._dispositions

    def disposed_ids(self) -> np.ndarray:
        """The :meth:`is_disposed` IDs as one ascending ``uint32``
        column, rebuilt only when a disposition was added since."""
        if len(self._disposed_column) != len(self._dispositions):
            self._disposed_column = np.array(sorted(self._dispositions), dtype=np.uint32)
        return self._disposed_column

    def disposition_for(self, doc_id: int) -> Optional[Disposition]:
        """The disposition record for ``doc_id``, if any."""
        return self._dispositions.get(doc_id)

    def dispositions(self) -> Iterator[Disposition]:
        """Replay the WORM log, verifying its internal consistency: each
        block holds whole records (anyone can append bytes to a WORM
        file), and no record claims a disposal before its horizon."""
        for block_no in range(self._file.num_blocks):
            payload = self.store.peek_block(self.log_name, block_no)
            if len(payload) % _RECORD.size:
                raise TamperDetectedError(
                    f"disposition log block {block_no} holds {len(payload)} "
                    f"bytes, not whole {_RECORD.size}-byte records",
                    location=f"disposition log '{self.log_name}', block {block_no}",
                    invariant="disposition-record-size",
                )
            for doc_id, retention_until, disposed_at in _RECORD.iter_unpack(payload):
                if disposed_at < retention_until:
                    raise TamperDetectedError(
                        f"doc {doc_id} logged as disposed at {disposed_at}, "
                        f"before its retention horizon {retention_until}",
                        location=f"disposition log '{self.log_name}'",
                        invariant="retention-horizon",
                    )
                yield Disposition(
                    doc_id=doc_id,
                    retention_until=retention_until,
                    disposed_at=disposed_at,
                )

    def classify_dangling(self, doc_id: int) -> str:
        """Explain a document ID that an index returned but WORM lacks.

        Returns ``"disposed"`` (with an auditable record) or
        ``"fabricated"`` (posting stuffing — no legitimate explanation).
        """
        return "disposed" if self.is_disposed(doc_id) else "fabricated"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RetentionManager(dispositions={len(self._dispositions)})"
