"""Simulated append-capable WORM storage substrate.

The paper's storage model (Section 2.2) is a magnetic-disk "WORM box" whose
software enforces write-once semantics through a file-system-like interface,
*extended* with two capabilities conventional WORM boxes lack:

1. appending records to otherwise immutable files (needed to grow posting
   lists in place), and
2. appending new bytes / setting write-once slots inside partially-written
   file blocks (needed to set jump-index pointers after block creation).

This subpackage provides that device in simulation:

* :class:`~repro.worm.block.Block` — a fixed-capacity block with an
  append-only data region and write-once pointer slots.
* :class:`~repro.worm.device.WormDevice` / :class:`~repro.worm.device.WormFile`
  — the device's namespace of append-only block files.
* :class:`~repro.worm.cache.LRUBlockCache` — the storage server's
  non-volatile cache, the lever behind the paper's merging scheme.
* :class:`~repro.worm.iostats.IoStats` — random-I/O accounting used by every
  Figure-2/8 experiment.
* :class:`~repro.worm.storage.CachedWormStore` — device + cache + accounting
  glued together behind one interface.
"""
