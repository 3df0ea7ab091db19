"""Retrieval metrics (CMC@K, CMC@1%, mAP) and ablation harnesses.

``metrics_report`` walks each ranking once, for its first relevant position
and its AP, and derives every figure from those. It accumulates with plain
Python floats in ranking order, so an independent recount that walks raw
score matrices in the same order can be compared bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .ranking import RankingList

METRIC_KEYS = ("cmc1", "cmc5", "cmc10", "cmc1pct", "map", "n_queries")


@dataclass
class MetricsReport:
    cmc: dict[int, float]
    cmc_at_1pct: float
    mean_ap: float
    num_queries: int

    def to_json_dict(self) -> dict:
        return {
            "cmc1": self.cmc.get(1),
            "cmc5": self.cmc.get(5),
            "cmc10": self.cmc.get(10),
            "cmc1pct": self.cmc_at_1pct,
            "map": self.mean_ap,
            "n_queries": self.num_queries,
        }


def metrics_report(rankings: Sequence[RankingList], relevance: Mapping[int, set],
                   gallery_size: int, ks: Sequence[int] = (1, 5, 10)) -> MetricsReport:
    """CMC@k for each k in ``ks``, CMC@1% and mAP, from one walk over each
    ranking. A query counts towards CMC@k once, when its first relevant item
    sits at a position <= k (k capped at the gallery size); CMC@1% takes
    k = ceil(1% of the gallery size), so k >= 1. A query's AP sums
    hits/position over its relevant positions in ranking order. A query
    whose ranking holds no relevant item raises."""
    if gallery_size < 1:
        raise ValueError(f"gallery_size must be >= 1 (got {gallery_size})")
    firsts, aps = [], []
    for r in rankings:
        relevant = relevance.get(r.query_id) or ()
        positions = [pos for pos, gid in enumerate(r.gallery_ids, start=1) if gid in relevant]
        if not positions:
            raise ValueError(f"query {r.query_id} has no relevant gallery item")
        firsts.append(positions[0])
        aps.append(sum(hits / pos for hits, pos in enumerate(positions, start=1))
                   / len(positions))

    def cmc(k: int) -> float:
        return sum(1 for first in firsts if first <= k) / len(firsts)

    return MetricsReport(
        cmc={k: cmc(min(k, gallery_size)) for k in ks},
        cmc_at_1pct=cmc(math.ceil(0.01 * gallery_size)),
        mean_ap=sum(aps) / len(aps),
        num_queries=len(rankings),
    )


def report_to_json(report: MetricsReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True) + "\n"


def reports_to_csv(rows: Sequence[tuple[str, MetricsReport]]) -> str:
    """Aligned-column CSV, one row per (variant, report)."""
    header = ["variant", *METRIC_KEYS]
    table = [header]
    for name, report in rows:
        d = report.to_json_dict()
        table.append([name] + [
            f"{d[k]:.6f}" if isinstance(d[k], float) else str(d[k])
            for k in METRIC_KEYS
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = [",".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ablation suites
# ---------------------------------------------------------------------------

ABLATION_SUITES = ("mapping-methods", "peer-steps", "one-vs-two-branch",
                   "alpha-sweep", "tau-sweep")


@dataclass
class AblationResult:
    suite: str
    rows: list[tuple[str, MetricsReport]]
    signs: list[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        return reports_to_csv(self.rows)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "rows": [{"variant": name, **r.to_json_dict()} for name, r in self.rows],
            "signs": self.signs,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _sign(a: float, b: float) -> int:
    return (a > b) - (a < b)


def pairwise_signs(rows: Sequence[tuple[str, MetricsReport]],
                   metric: str = "cmc1pct") -> list[dict]:
    signs = []
    for i, (name_a, rep_a) in enumerate(rows):
        for name_b, rep_b in rows[i + 1 :]:
            va = rep_a.to_json_dict()[metric]
            vb = rep_b.to_json_dict()[metric]
            signs.append({"a": name_a, "b": name_b, "metric": metric,
                          "sign": _sign(va, vb)})
    return signs


def run_ablation(suite: str, cfg, split=None, models=None) -> AblationResult:
    """Train (or reuse) models and emit one metrics row per variant.

    ``cfg`` is a RunConfig; ``split``/``models`` can be passed to reuse a
    trained pipeline, otherwise training runs in place with the config seed.
    This is the one place that builds the paper's comparison rows: the
    acceptance criteria read the ``mapping-methods`` and ``peer-steps`` rows.
    """
    from . import peerlearn, pipeline  # local import: pipeline builds on these metrics

    if suite not in ABLATION_SUITES:
        raise ValueError(
            f"unknown ablation suite {suite!r}; valid suites: {', '.join(ABLATION_SUITES)}"
        )
    if split is None:
        split = pipeline.make_split(cfg)
    if models is None and suite != "tau-sweep":
        models = pipeline.train_all(cfg, split)

    rows: list[tuple[str, MetricsReport]] = []
    if suite == "mapping-methods":
        for mode in ("direct-cosine", "chain", "diffusion"):
            rows.append((mode, pipeline.evaluate_mode(cfg, split, models, mode)))
    elif suite == "peer-steps":
        # the plain two-branch baseline: Step I's budget without mining
        base_ground, base_drone, _ = peerlearn.train_senior(
            split, cfg, mining=False, stage="Step I of the no-mining baseline")
        for name, ground, drone, best_region in (
                ("two-branch", base_ground, base_drone, False),
                ("two-branch+S", models.senior_ground, models.senior_drone, False),
                ("two-branch+S+J", models.junior_ground, models.junior_drone, False),
                ("two-branch+S+J+B", models.junior_ground, models.junior_drone, True)):
            pair = replace(models, junior_ground=ground, junior_drone=drone)
            rows.append((name, pipeline.evaluate_mode(cfg, split, pair, "ground-drone",
                                                      best_region=best_region)))
    elif suite == "one-vs-two-branch":
        one = pipeline.train_one_model(cfg, split)
        for mode in ("ground-drone", "drone-satellite", "diffusion"):
            for name, trained in (("one-model", one), ("two-branch", models)):
                rows.append((f"{name}:{pipeline.MODES[mode]}",
                             pipeline.evaluate_mode(cfg, split, trained, mode)))
    elif suite == "alpha-sweep":
        # alpha enters only the walk, so every alpha shares one graph
        index = pipeline.build_diffusion_index(cfg, split, models)
        for alpha in cfg.alpha_sweep:
            rows.append((f"alpha={alpha}", pipeline.evaluate_mode(
                replace(cfg, alpha=alpha), split, models, "diffusion", index=index)))
    elif suite == "tau-sweep":
        # one senior; the junior retrains at each distillation temperature
        senior = peerlearn.train_senior(split, cfg)[:2]
        for tau in cfg.tau_sweep:
            junior = peerlearn.train_junior(split, senior, replace(cfg, tau=tau),
                                            f"Step II at tau={tau}")[:2]
            pair = pipeline.TrainedModels(*senior, *junior)
            rows.append((f"tau={tau}", pipeline.evaluate_mode(cfg, split, pair, "ground-drone")))

    return AblationResult(suite=suite, rows=rows, signs=pairwise_signs(rows))
