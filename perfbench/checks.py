"""Output check: sampled answers against a direct kernel call.

For each sampled fresh comparison the benchmark recomputes every query with
``get_algorithm(name).run_batch`` on a freshly compiled copy of the same
graph version; scores must be bit-identical and labels in the same order.
A sampled repeat must equal the answer its original request received.
A sampled request without an answer (failed, or never issued before the
deadline) fails the check too.
In-process workloads compare whole rankings, the REST workload compares
the top-10 table it received.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence


def _ordered(ranking) -> List[str]:
    return [ranking.label_of(node) for node in ranking.ordered_nodes()]


def _same_ranking(left, right) -> bool:
    return left.scores.tobytes() == right.scores.tobytes() and _ordered(left) == _ordered(right)


def _table_matches(table: Dict[str, Any], expected: Sequence) -> bool:
    """The received top-10 table against the expected rankings, column by column."""
    for column, ranking in enumerate(expected):
        top = ranking.top(len(table["rows"]))
        for position, entry in enumerate(top):
            if table["rows"][position][column] != entry.label:
                return False
            if table["scores"][position][column] != entry.score:
                return False
    return True


def verify(workload, indices: Sequence[int], answers: Dict[int, Any]) -> List[str]:
    """Return one message per sampled request whose answer is wrong or missing."""
    from repro.algorithms.registry import get_algorithm
    from repro.graph.compiled import CompiledGraph

    compiled: Dict[tuple, Any] = {}
    mismatches: List[str] = []
    in_process = hasattr(workload.client, "gateway")
    for index in indices:
        request = workload.plan[index]
        if index not in answers or (request.kind == "repeat" and request.original not in answers):
            # The request (or the one it repeats) failed or was never issued.
            mismatches.append(f"request {index}: no answer to verify")
            continue
        comparison_id, table = answers[index]
        if request.kind == "repeat":
            _, original_table = answers[request.original]
            same = table["rows"] == original_table["rows"] and \
                table["scores"] == original_table["scores"]
            if in_process:
                original_id = answers[request.original][0]
                mine = workload.gateway.get_rankings(comparison_id)
                theirs = workload.gateway.get_rankings(original_id)
                same = same and all(map(_same_ranking, mine, theirs))
            if not same:
                mismatches.append(
                    f"request {index}: repeat differs from request {request.original}"
                )
            continue
        expected = []
        for query in request.queries:
            key = (query["dataset_id"], index if request.upload else None)
            if key not in compiled:
                graph = workload.graph_for_check(request, query["dataset_id"])
                compiled[key] = CompiledGraph(graph)
            expected.append(get_algorithm(query["algorithm"]).run_batch(
                compiled[key], sources=[query["source"]], parameters=query["parameters"],
            )[0])
        ok = _table_matches(table, expected)
        if in_process:
            received = workload.gateway.get_rankings(comparison_id)
            ok = ok and len(received) == len(expected) and all(
                map(_same_ranking, received, expected)
            )
        if not ok:
            mismatches.append(f"request {index}: answer differs from a direct run_batch")
    return mismatches
