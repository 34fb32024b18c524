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
  Section 5.
* :mod:`repro.core.verification` — auditors that surface tampering as
  :class:`~repro.errors.TamperDetectedError` reports.
"""

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.cost_model import (
    cost_ratio,
    merged_workload_cost,
    per_query_costs,
    unmerged_workload_cost,
)
from repro.core.jump_index import JumpIndex
from repro.core.merge import (
    GreedyCostMerge,
    LearnedPopularMerge,
    PopularUnmergedMerge,
    TermAssignment,
    UniformHashMerge,
)
from repro.core.posting import Posting, decode_posting, encode_posting
from repro.core.posting_list import PostingCursor, PostingList
from repro.core.space import jump_pointers_per_block, space_overhead
from repro.core.time_index import CommitTimeIndex
from repro.core.incidents import Incident, IncidentLog
from repro.core.retention import Disposition, RetentionManager
from repro.core.term_coding import HuffmanCode, build_huffman_code, entropy_bits

__all__ = [
    "BlockJumpIndex",
    "CommitTimeIndex",
    "Disposition",
    "GreedyCostMerge",
    "HuffmanCode",
    "Incident",
    "IncidentLog",
    "RetentionManager",
    "JumpIndex",
    "LearnedPopularMerge",
    "Posting",
    "PostingCursor",
    "PostingList",
    "PopularUnmergedMerge",
    "TermAssignment",
    "UniformHashMerge",
    "build_huffman_code",
    "cost_ratio",
    "decode_posting",
    "entropy_bits",
    "encode_posting",
    "jump_pointers_per_block",
    "merged_workload_cost",
    "per_query_costs",
    "space_overhead",
    "unmerged_workload_cost",
]
