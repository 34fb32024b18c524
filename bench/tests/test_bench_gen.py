"""The generator is frozen: same seed, same bytes, and no way for ``src/`` to move them."""

import ast
from pathlib import Path

from bench import gen, workloads
from bench.metrics import RUN_SECONDS
from bench.runner import REPEATS
from bench.workloads import WORKLOADS

#: sha256 of the seed-1 inputs at the sizes of one repeat of the driver's run.
#: A change here changes every number the benchmark has ever reported.
PINNED = {
    "corpus": "e59bd9fd7f01f3c15cce78b89f08b99823dd61f86a3d54b30efc5838599feab5",
    "disj-scan": "20dd7cc117734432e784e4f27dcac65dfaefb4a5731661fce54c0cbae51d4dbb",
    "conj-jump": "fe4d755d36b94258e2b4dd20e2ba5c69691ec51b917eba43f92ff68f875019cc",
    "ingest-seal": "4ed7a04077210d98c934b0df6054613bf035fc952b04c92ec5b1c67d0b0a5af8",
    "svc-mixed": "ccc77b5bf3bfc1487b49c066540688d7d023d97eeffc0b735d120cd6cdc5f1bc",
}


def _flatten(ops):
    for kind, payload in ops:
        if kind == "search":
            yield f"search {payload}"
        else:
            position, docs = payload
            yield f"ingest {position}"
            yield from docs


def test_seed_1_inputs_are_pinned():
    seconds = RUN_SECONDS / REPEATS
    assert gen.digest(gen.documents(1, 0, 4000)) == PINNED["corpus"]
    for name in ("disj-scan", "conj-jump"):
        ops = workloads.search_ops(WORKLOADS[name], 1, seconds)
        assert gen.digest(ops) == PINNED[name], name
    batches = workloads.ingest_batches(WORKLOADS["ingest-seal"], 1, seconds)
    assert (
        gen.digest(text for position, docs in batches for text in [str(position), *docs])
        == PINNED["ingest-seal"]
    )
    clients = workloads.service_ops(WORKLOADS["svc-mixed"], 1, seconds)
    assert gen.digest(line for ops in clients for line in _flatten(ops)) == PINNED["svc-mixed"]


def test_other_seed_other_inputs():
    assert gen.documents(1, 0, 5) != gen.documents(2, 0, 5)
    assert gen.disjunctive_queries(1, 5) != gen.disjunctive_queries(2, 5)


def test_document_depends_only_on_seed_and_position():
    assert gen.documents(3, 100, 20) == gen.documents(3, 0, 120)[100:]


def test_every_document_carries_its_id_token_once():
    for position, text in enumerate(gen.documents(7, 0, 50)):
        assert text.split().count(gen.id_token(7, position)) == 1


def test_op_lists_of_different_seeds_do_the_same_amount_of_work():
    """Stratified draws: every seed's list asks for head terms equally often."""
    def head_draws(seed):
        queries = gen.disjunctive_queries(seed, 300)
        ranks = [int(word[1:]) for query in queries for word in query.split()]
        return len(ranks), sum(rank <= 10 for rank in ranks)

    counts = [head_draws(seed) for seed in range(1, 9)]
    for terms, heads in counts:
        assert abs(terms - counts[0][0]) <= 0.02 * counts[0][0]
        assert abs(heads - counts[0][1]) <= 0.03 * counts[0][1]
    for seed in range(1, 4):
        assert all(len(set(query.split())) == len(query.split()) for query in
                   gen.disjunctive_queries(seed, 300))  # fmt: skip


def test_corpus_shape():
    docs = gen.documents(1, 0, 2000)
    distinct = sum(len(set(text.split())) for text in docs) / len(docs)
    assert 38 <= distinct <= 43  # about 40 distinct terms plus the id token


def test_mixed_ops_shares_are_exact_and_ranges_disjoint():
    clients = workloads.service_ops(WORKLOADS["svc-mixed"], 5, 10)
    positions = []
    for ops in clients:
        ingests = [payload for kind, payload in ops if kind == "ingest"]
        assert len(ingests) == round(len(ops) * workloads.SVC_INGEST_SHARE)
        searches = [payload for kind, payload in ops if kind == "search"]
        conjunctive = sum(query.startswith("+") for query in searches)
        assert conjunctive == len(searches) * gen.ALL_PER_ANY // (1 + gen.ALL_PER_ANY)
        for position, docs in ingests:
            positions.extend(range(position, position + len(docs)))
    assert len(positions) == len(set(positions))
    assert min(positions) >= WORKLOADS["svc-mixed"].preload_docs


def test_generator_imports_nothing_from_the_program():
    tree = ast.parse(Path(gen.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "bisect", "hashlib", "itertools", "random", "typing"}
