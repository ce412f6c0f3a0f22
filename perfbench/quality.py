"""Answer oracle, output checks and the answer-quality metrics.

Exact answers come from :func:`repro.evaluate_exact` over each epoch's
snapshot, computed after the timed window.  A run is incorrect when any
answer is non-finite or did not end ``done``, when the traced run's
answers differ from the untraced run's, or when the sharded churn run
differs from its inline replay (answers, costs and trace digests).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro import evaluate_exact


def exact_answers(
    snapshot, epoch: int, answers: Sequence, into: Dict[Tuple[int, str], float]
) -> None:
    """Add the exact answer of every signature ``answers`` asked on
    ``snapshot`` (epoch ``epoch``) to ``into``."""
    flat = snapshot.flat_dataset
    for answer in answers:
        key = (epoch, answer.query.to_sql())
        if key not in into:
            into[key] = evaluate_exact(answer.query, flat)


def check_answers(answers: Sequence) -> List[str]:
    """Problems with individual answers (empty when all are sound)."""
    problems = []
    for answer in answers:
        outcome = answer.outcome
        if outcome is None or outcome.status != "done":
            status = getattr(outcome, "status", "unresolved")
            problems.append(f"query {answer.query_id}: outcome {status}")
            continue
        interval = outcome.result.confidence_interval
        if not (math.isfinite(outcome.result.estimate) and math.isfinite(interval.half_width)):
            problems.append(f"query {answer.query_id}: non-finite estimate or interval")
    return problems


def fingerprint(answer) -> tuple:
    """Everything an answer's bit-identity covers."""
    outcome = answer.outcome
    result = outcome.result
    return (
        outcome.status,
        answer.query.to_sql(),
        result.estimate if result else None,
        result.confidence_interval.half_width if result else None,
        outcome.cost,
        outcome.chunks,
    )


def compare_runs(first: Sequence, second: Sequence) -> List[str]:
    """Differences over the common prefix of two runs of one seed."""
    problems = []
    by_id = {a.query_id: a for a in second}
    for answer in first:
        other = by_id.get(answer.query_id)
        if other is None:
            continue
        if fingerprint(answer) != fingerprint(other):
            problems.append(f"query {answer.query_id}: traced and untraced answers differ")
        elif answer.trace_digest != other.trace_digest:
            problems.append(f"query {answer.query_id}: trace digests differ")
    return problems


def compare_replay(answers: Sequence, replayed: Dict[int, Tuple[object, str]]) -> List[str]:
    problems = []
    for answer in answers:
        outcome, digest = replayed.get(answer.query_id, (None, None))
        if outcome is None:
            problems.append(f"query {answer.query_id}: missing from the inline replay")
            continue
        mine = answer.outcome
        same = (
            mine.status == outcome.status
            and mine.cost == outcome.cost
            and (mine.result is None) == (outcome.result is None)
            and (
                mine.result is None
                or (
                    mine.result.estimate == outcome.result.estimate
                    and mine.result.confidence_interval == outcome.result.confidence_interval
                )
            )
        )
        if not same:
            problems.append(f"query {answer.query_id}: sharded answer differs from inline replay")
        elif answer.trace_digest != digest:
            problems.append(f"query {answer.query_id}: sharded trace digest differs from inline replay")
    return problems


def interval_score(low: float, high: float, truth: float, alpha: float) -> float:
    """Gneiting–Raftery interval score: width plus (2/α)·miss distance."""
    score = high - low
    if truth < low:
        score += 2.0 / alpha * (low - truth)
    elif truth > high:
        score += 2.0 / alpha * (truth - high)
    return score


def quality_metrics(
    answers: Sequence, exact: Dict[Tuple[int, str], float], count: int
) -> Dict[str, float]:
    """Accuracy and sample cost over the first ``count`` answers in
    submission order (a pure function of the seed)."""
    panel = sorted(answers, key=lambda a: a.query_id)[:count]
    errors, scores, peers, hops = [], [], [], []
    for answer in panel:
        result = answer.outcome.result
        if result is None:
            continue
        truth = exact[(answer.epoch, answer.query.to_sql())]
        interval = result.confidence_interval
        scale = abs(truth)
        errors.append(abs(result.estimate - truth) / scale)
        scores.append(
            interval_score(interval.low, interval.high, truth, 1.0 - interval.confidence) / scale
        )
        peers.append(answer.outcome.cost.peers_visited)
        hops.append(answer.outcome.cost.hops)
    n = max(len(errors), 1)
    return {
        "relative_error_mean": sum(errors) / n,
        "interval_score_rel": sum(scores) / n,
        "peers_visited_per_query": sum(peers) / n,
        "hops_per_query": sum(hops) / n,
        "quality_answers": len(errors),
    }
