"""The paper's contribution: trustworthy inverted indexing on WORM.

Layout of the subpackage:

* :mod:`repro.core.posting` — fixed-width posting encodings (doc ID +
  term code, 8 bytes, Section 3's space accounting).
* :mod:`repro.core.posting_list` — append-only block-structured posting
  lists with sequential cursors.
* :mod:`repro.core.merge` — the posting-list merging strategies of
  Section 3.3 (uniform hashing, popular-terms-unmerged, learned).
* :mod:`repro.core.cost_model` — the workload cost model Q of Section 3.1
  and heuristic optimizers for the (NP-complete) merging problem.
* :mod:`repro.core.jump_index` — the binary jump index of Section 4.1
  with the trust guarantees of Propositions 1-3.
* :mod:`repro.core.block_jump_index` — the block-structured base-B jump
  index of Section 4.4, including the Section 4.5 tail-path memory
  optimization.
* :mod:`repro.core.space` — the jump-index space-overhead model behind
  Figure 8(a).
* :mod:`repro.core.epochs` — learning term popularity from a workload
  prefix (Section 3.3, Figures 3(f)/3(g)).
* :mod:`repro.core.time_index` — the trustworthy commit-time index of
  Section 5: its WORM log read once into two checked columns, where
  the paper keeps a jump index.
* :mod:`repro.core.verification` — auditors that surface tampering as
  :class:`~repro.errors.TamperDetectedError` reports.
"""
