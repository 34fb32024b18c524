"""WORM-resident document store.

Documents themselves live on "a conventional WORM" (Section 2.2): once
committed they can neither be altered nor prematurely deleted.  The store
writes each document's UTF-8 text as block-sized chunks into its own WORM
file, keyed by document ID, so that:

* the bytes Bob eventually reads are exactly the bytes Alice committed —
  the ground truth the Section-5 stuffing detector compares index answers
  against;
* document IDs are assigned by a strictly increasing counter
  (Section 4.1), the property every trustworthy index here relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import FileExistsOnWormError, UnknownFileError, WorkloadError
from repro.worm.storage import CachedWormStore


@dataclass
class Document:
    """One committed document."""

    doc_id: int
    text: str
    #: Integer commit timestamp (monotonic, assigned at ingest).
    commit_time: int


class DocumentStore:
    """Append-only store of committed documents on a WORM device.

    Parameters
    ----------
    store:
        The WORM store; documents share it with the index by default, as
        separate files.
    prefix:
        Namespace prefix for document files.
    """

    def __init__(self, store: CachedWormStore, *, prefix: str = "doc"):
        self.store = store
        self.prefix = prefix
        self._next_doc_id = 0
        self._commit_times: Dict[int, int] = {}

    def file_name(self, doc_id: int) -> str:
        """The WORM file name holding ``doc_id``'s committed bytes.

        Public so collaborators that operate on the underlying WORM
        files — the retention manager deleting an expired document, an
        auditor opening the committed record — need not reach into the
        store's naming scheme.
        """
        return f"{self.prefix}/{doc_id:010d}"

    def restore(self, next_doc_id: int, commit_times: Dict[int, int]) -> None:
        """Reattach to documents committed in a previous session.

        ``next_doc_id`` and ``commit_times`` come from the trustworthy
        commit-time log (the store's own counters are session-local).
        """
        self._next_doc_id = next_doc_id
        self._commit_times.update(commit_times)

    @property
    def next_doc_id(self) -> int:
        """The ID the next committed document will receive, unless a
        file already holds it (see :meth:`commit`)."""
        return self._next_doc_id

    def __len__(self) -> int:
        """Documents ever committed, disposed ones included."""
        return len(self._commit_times)

    @property
    def has_burned(self) -> bool:
        """Whether some ID below :attr:`next_doc_id` is no document."""
        return len(self._commit_times) < self._next_doc_id

    def is_burned(self, doc_id: int) -> bool:
        """Whether ``doc_id`` was spent on a commit that never finished:
        a crash after its file was created and before its commit-time
        record.  Postings that commit appended may name it; the file
        may hold torn text.  It is not a document, and is never reused."""
        return doc_id < self._next_doc_id and doc_id not in self._commit_times

    # ------------------------------------------------------------------
    # commit path
    # ------------------------------------------------------------------
    def commit(
        self,
        text: str,
        *,
        commit_time: int,
        retention_until: Optional[float] = None,
    ) -> int:
        """Commit a document to WORM; returns its assigned ID.

        Committing the record and building its index entry must be "a
        single action" (Section 2.1); the engine calls this and the index
        update inside one ingest call with no buffering in between.
        ``retention_until`` sets the term-immutability horizon (None =
        retained forever); it must be a whole number of commit-time
        units — the disposition log packs horizons as integers, and a
        fractional horizon would be silently truncated there, recording
        a disposal as legitimate up to one time unit before the true
        horizon.

        The ID is the next one no file holds yet: a commit interrupted
        after its create left a file under the ID it was given, which
        burns that ID.

        Raises
        ------
        WorkloadError
            If ``retention_until`` is not a whole number.
        """
        if retention_until is not None and not float(
            retention_until
        ).is_integer():
            raise WorkloadError(
                f"retention_until must be a whole number of commit-time "
                f"units, got {retention_until!r}; the disposition log "
                f"records integer horizons"
            )
        while True:
            doc_id = self._next_doc_id
            try:
                worm_file = self.store.device.create_file(
                    self.file_name(doc_id), retention_until=retention_until
                )
                break
            except FileExistsOnWormError:
                self._next_doc_id += 1
        payload = text.encode("utf-8")
        block_size = self.store.block_size
        if not payload:
            payload = b"\x00"  # empty docs still occupy a committed record
        for start in range(0, len(payload), block_size):
            worm_file.append_record(payload[start : start + block_size])
        self._commit_times[doc_id] = commit_time
        self._next_doc_id += 1
        return doc_id

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def exists(self, doc_id: int) -> bool:
        """Whether ``doc_id`` refers to a committed, undisposed document."""
        return doc_id in self._commit_times and self.store.device.exists(
            self.file_name(doc_id)
        )

    def get(self, doc_id: int) -> Document:
        """Fetch a committed document.

        Raises
        ------
        UnknownFileError
            If no such document was committed — e.g. when a stuffed
            posting pointed at a fabricated ID, or at a burned one.
        """
        if doc_id not in self._commit_times:
            raise UnknownFileError(f"no document {doc_id} was committed")
        name = self.file_name(doc_id)
        worm_file = self.store.open_file(name)
        chunks = [self.store.peek_block(name, b) for b in range(worm_file.num_blocks)]
        payload = b"".join(chunks)
        if payload == b"\x00":
            payload = b""
        return Document(
            doc_id=doc_id,
            text=payload.decode("utf-8"),
            commit_time=self._commit_times.get(doc_id, -1),
        )

    def documents(self) -> Iterator[Document]:
        """Iterate all committed documents in ID order."""
        for doc_id in list(self._commit_times):
            yield self.get(doc_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DocumentStore(docs={len(self)}, prefix='{self.prefix}')"
