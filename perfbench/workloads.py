"""The benchmark's three workloads, driven through public ``plcd`` entry points.

Each workload has a set-up (the inputs its timed pass needs, generated from
the workload seed), a timed pass, and a check phase that validates the
pass's outputs and measures retrieval quality. The timed passes call only
``cli.main``, ``pipeline.make_split``, ``pipeline.build_diffusion_index``,
``pipeline.ground_satellite_rankings``, ``evalkit.run_ablation`` and
``encoder.init_params``.

* ``cli-chain``: the seven CLI calls a user runs, on the default config with
  5 instead of 20 epochs per training step. Peer training dominates;
  diffusion is a small share.
* ``retrieve-large``: a 950-node gallery index and 500 closed-form diffusion
  queries on seeded, untrained encoders, ranked in five passes of 100, each
  against a freshly built index, 20 queries per timed step. Diffusion
  dominates; no training.
* ``sweep-iterative``: the alpha-sweep ablation (alphas 0.5, 0.7, 0.9) on
  the iterative walk, which rebuilds the index once per alpha and iterates
  instead of solving; one timed step per alpha.

Every workload ranks ground queries through both walk paths, so each one
checks its rankings against the other path (the repository's own oracle).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from plcd import cli, dataspace, evalkit, pipeline
from plcd import encoder as enc
from plcd.config import RunConfig, load_config


class Tally:
    """Counts attempted and failed operations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _views(records, view):
    return [r for r in records if r.view == view]


def untrained_models(cfg: RunConfig, split, seed: int) -> pipeline.TrainedModels:
    """Seeded ``init_params`` encoders standing in for trained checkpoints."""
    input_dim = int(np.prod(split.test[0].featmap.shape))
    classes = len({r.landmark for r in split.train})
    rng = np.random.default_rng([seed, 7])
    ground, drone, shared = (enc.init_params(role, cfg.embed_dim, input_dim, classes,
                                             rng, cfg.encoder_tanh)
                             for role in ("ground", "drone", "satdrone"))
    return pipeline.TrainedModels(senior_ground=ground, senior_drone=drone,
                                  junior_ground=ground, junior_drone=drone,
                                  shared=shared, logs={})


def walk_tie_tol(cfg: RunConfig, alpha: float) -> float:
    """Score gap below which the iterative walk cannot order two nodes.

    The walk stops when an update moves no entry by ``tol``, which leaves each
    entry about ``tol / (1 - alpha)`` from the fixed point; ten times that
    counts as a tie.
    """
    return 10.0 * cfg.tol / (1.0 - alpha)


def check_ranking(tally: Tally, gallery_ids, gallery: list[int], what: str) -> None:
    tally.check(len(gallery_ids) == len(gallery) and sorted(gallery_ids) == gallery,
                f"{what}: not a permutation of its {len(gallery)}-item gallery")


def check_orders_agree(tally: Tally, closed_order, iterative_scores: dict[int, float],
                       tie_tol: float, what: str) -> None:
    """The closed-form order must also sort the iterative scores, up to ties."""
    values = [iterative_scores[g] for g in closed_order]
    tally.check(all(b <= a + tie_tol for a, b in zip(values, values[1:])),
                f"{what}: closed-form and iterative orders disagree")


def quality(cfg: RunConfig, split, rankings, task: str) -> dict:
    gallery_view = dataspace.DRONE if task == "ground-drone" else dataspace.SATELLITE
    relevance = pipeline.relevance_for(split.test, task, cfg, split.num_sections)
    report = evalkit.metrics_report(rankings, relevance,
                                    len(_views(split.test, gallery_view)))
    return report.to_json_dict()


def timed(fn):
    """Result and wall time of ``fn()``, timed from a fully collected heap so
    that garbage left by earlier calls is not charged to this one."""
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def read_ranking_file(path: Path) -> tuple[int, list[int], list[float]]:
    """Parse one ``ranking-<query>.txt`` independently of the package."""
    qids, gids, scores = set(), [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            qid, _, gid, score = line.split()
            qids.add(int(qid))
            gids.append(int(gid))
            scores.append(float(score))
    if len(qids) != 1:
        raise ValueError(f"{path}: expected one query id, found {sorted(qids)}")
    return qids.pop(), gids, scores


def read_ranking_dir(directory: Path) -> dict[int, tuple[list[int], list[float]]]:
    out = {}
    for path in sorted(directory.glob("ranking-*.txt")):
        qid, gids, scores = read_ranking_file(path)
        out[qid] = (gids, scores)
    return out


class Workload:
    """A run config (defaults, the workload's settings, then overrides), the
    split it generates, and a scratch directory. Subclasses add ``run_pass``
    (the timed part; returns its wall time) and ``check``, which validates the
    outputs of the last ``cycle`` passes and returns their retrieval quality."""

    name = ""
    settings: dict[str, str] = {}
    cycle = 1  # passes that together cover every query

    def after_step(self, step_s: float) -> None:
        """Called after each timed step, outside its timing; an untraced run
        calibrates the host here."""

    def __init__(self, seed: int, workdir: Path, overrides: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.settings = {"seed": str(seed), **self.settings, **(overrides or {})}
        self.cfg = load_config(None, self.settings)

    def setup(self) -> None:
        self.split = pipeline.make_split(self.cfg)
        self.grounds = _views(self.split.test, dataspace.GROUND)
        self.sat_ids = sorted(r.id for r in _views(self.split.test, dataspace.SATELLITE))

    def rerank(self, closed_form: bool, split=None):
        """Diffusion rankings of ``split``'s ground queries on one walk path."""
        return pipeline.ground_satellite_rankings(
            replace(self.cfg, closed_form=closed_form), split or self.split,
            self.models, "diffusion")

    def check_rankings(self, tally: Tally, rankings, gallery: list[int], task: str) -> None:
        tally.check(len(rankings) == len(self.grounds),
                    f"{task}: {len(rankings)} rankings for {len(self.grounds)} queries")
        for r in rankings:
            check_ranking(tally, r.gallery_ids, gallery, f"{task} query {r.query_id}")

    def compare(self, tally: Tally, closed: dict, iterative) -> None:
        """``closed`` maps query id to its closed-form order."""
        tie_tol = walk_tie_tol(self.cfg, self.cfg.alpha)
        for r in iterative:
            order = closed.get(r.query_id)
            if tally.check(order is not None, f"query {r.query_id} missing"):
                check_orders_agree(tally, order, dict(zip(r.gallery_ids, r.scores)),
                                   tie_tol, f"ground-satellite query {r.query_id}")

    def ground_drone_map(self, tally: Tally) -> float:
        """Junior ground->drone mAP; every ranking must cover the drone gallery."""
        drones = sorted(r.id for r in _views(self.split.test, dataspace.DRONE))
        rankings = pipeline.ground_drone_rankings(self.cfg, self.split,
                                                  self.models.junior_ground,
                                                  self.models.junior_drone)
        self.check_rankings(tally, rankings, drones, "ground-drone")
        return quality(self.cfg, self.split, rankings, "ground-drone")["map"]


class CliChain(Workload):
    name = "cli-chain"
    # A fifth of the default epochs keeps one chain near 25 s, so that a
    # traced run, which also makes an untraced chain, ends well within the
    # benchmark's time limit.
    settings = {"epochs_senior": "5", "epochs_junior": "5", "epochs_patch": "5"}
    passes = 0

    def _cli(self, tally: Tally, tracer, argv: list[str]) -> tuple[str, float]:
        sets = [arg for key, value in self.settings.items()
                for arg in ("--set", f"{key}={value}")]
        buf = io.StringIO()
        gc.collect()
        with _span(tracer, f"cli.{argv[0]}"), contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            rc = cli.main([argv[0], *sets, *argv[1:]])
            elapsed = time.perf_counter() - start
        self.after_step(elapsed)
        if not tally.check(rc == 0, f"plcd {argv[0]} exited with {rc}"):
            raise RuntimeError(f"plcd {' '.join(argv)} exited with {rc}")
        return buf.getvalue(), elapsed

    def run_pass(self, tally: Tally, tracer=None) -> float:
        """The seven CLI calls; each starts from a collected heap, as a call
        in its own process would, and ``chain_s`` sums their times."""
        if self.passes:
            shutil.rmtree(self.workdir / f"pass{self.passes - 1}")
        d = self.workdir / f"pass{self.passes}"
        self.passes += 1
        data, models, test = str(d / "data"), str(d / "models"), str(d / "data" / cli.TEST_DATA)
        calls = [
            ["gen-data", "--out", data],
            ["train-gd", "--data", data, "--out", models],
            ["train-sd", "--data", data, "--models", models, "--out", models],
            ["retrieve", "--data", data, "--models", models, "--mode", "diffusion",
             "--out", str(d / "gs")],
            ["evaluate", "--rankings", str(d / "gs"), "--data", test,
             "--task", "ground-satellite"],
            ["retrieve", "--data", data, "--models", models, "--mode", "ground-drone",
             "--out", str(d / "gd")],
            ["evaluate", "--rankings", str(d / "gd"), "--data", test,
             "--task", "ground-drone"],
        ]
        outputs, times = zip(*(self._cli(tally, tracer, argv) for argv in calls))
        self.last = (d, json.loads(outputs[4]), json.loads(outputs[6]))
        return sum(times)

    def check(self, tally: Tally) -> dict:
        d, gs, gd = self.last
        for report, task in ((gs, "ground-satellite"), (gd, "ground-drone")):
            tally.check(report["n_queries"] == len(self.grounds),
                        f"{task}: n_queries {report['n_queries']} != "
                        f"{len(self.grounds)} test grounds")
        tally.check(gs["cmc1"] > 1.0 / len(self.sat_ids),
                    f"ground-satellite cmc1 {gs['cmc1']} not above chance")
        ground_ids = sorted(r.id for r in self.grounds)
        drone_ids = sorted(r.id for r in _views(self.split.test, dataspace.DRONE))
        closed = read_ranking_dir(d / "gs")
        for rankings, gallery, task in ((closed, self.sat_ids, "ground-satellite"),
                                        (read_ranking_dir(d / "gd"), drone_ids,
                                         "ground-drone")):
            tally.check(sorted(rankings) == ground_ids,
                        f"{task}: ranking files do not match the test grounds")
            for qid, (gids, _) in rankings.items():
                check_ranking(tally, gids, gallery, f"{task} query {qid}")
        # The trained checkpoints, ranked in process: the closed form must
        # reproduce the CLI's files and the iterative walk must agree with them.
        jg, jd, shared = (enc.load_params(d / "models" / cli.CHECKPOINTS[k],
                                          tanh=self.cfg.encoder_tanh)
                          for k in ("junior_ground", "junior_drone", "shared"))
        self.models = pipeline.TrainedModels(senior_ground=jg, senior_drone=jd,
                                             junior_ground=jg, junior_drone=jd,
                                             shared=shared, logs={})
        in_process = self.rerank(closed_form=True)
        tally.check({r.query_id: r.gallery_ids for r in in_process}
                    == {q: gids for q, (gids, _) in closed.items()},
                    "in-process closed-form rankings differ from the CLI's files")
        self.compare(tally, {q: gids for q, (gids, _) in closed.items()},
                     self.rerank(closed_form=False))
        return {"gs_cmc1": gs["cmc1"], "gs_map": gs["map"], "gd_map": gd["map"]}


# ---------------------------------------------------------------------------
# in-process workloads on seeded, untrained encoders
# ---------------------------------------------------------------------------

class _InProcess(Workload):
    def setup(self) -> None:
        super().setup()
        self.models = untrained_models(self.cfg, self.split, self.seed)


class RetrieveLarge(_InProcess):
    name = "retrieve-large"
    settings = {"num_landmarks": "100"}
    cycle = 5
    step_queries = 20  # queries per timed step, so that steps are short
    oracle_queries = 20

    def __init__(self, seed: int, workdir: Path, overrides: dict | None = None):
        super().__init__(seed, workdir, overrides)
        self.slice_rankings: dict[int, list] = {}
        self.passes = 0

    def setup(self) -> None:
        super().setup()
        others = [r for r in self.split.test if r.view != dataspace.GROUND]
        n = len(self.grounds)
        bounds = [k * n // self.cycle for k in range(self.cycle + 1)]
        self.slices = [[replace(self.split, test=self.grounds[i:min(i + self.step_queries, end)]
                                + others)
                        for i in range(start, end, self.step_queries)]
                       for start, end in zip(bounds, bounds[1:])]

    def run_pass(self, tally: Tally, tracer=None) -> float:
        """Builds the index, then ranks the next slice of the queries on it
        in steps of ``step_queries``; returns the time of all the steps."""
        k = self.passes % self.cycle
        self.passes += 1
        index, chain_s = timed(lambda: pipeline.build_diffusion_index(
            self.cfg, self.split, self.models))
        self.after_step(chain_s)
        self.slice_rankings[k] = []
        for part in self.slices[k]:
            rankings, step_s = timed(lambda: pipeline.ground_satellite_rankings(
                self.cfg, part, self.models, "diffusion", index=index))
            self.after_step(step_s)
            self.slice_rankings[k] += rankings
            chain_s += step_s
        return chain_s

    @property
    def rankings(self) -> list:
        return [r for k in sorted(self.slice_rankings) for r in self.slice_rankings[k]]

    def check(self, tally: Tally) -> dict:
        self.check_rankings(tally, self.rankings, self.sat_ids, "ground-satellite")
        # A seeded sample of queries goes through the iterative walk on an
        # index of its own.
        rng = np.random.default_rng([self.seed, 11])
        picked = sorted(rng.choice(len(self.grounds), self.oracle_queries, replace=False))
        others = [r for r in self.split.test if r.view != dataspace.GROUND]
        sample = replace(self.split, test=[self.grounds[i] for i in picked] + others)
        self.compare(tally, {r.query_id: r.gallery_ids for r in self.rankings},
                     self.rerank(closed_form=False, split=sample))
        gs = quality(self.cfg, self.split, self.rankings, "ground-satellite")
        return {"gs_cmc1": gs["cmc1"], "gs_map": gs["map"],
                "gd_map": self.ground_drone_map(tally)}


class SweepIterative(_InProcess):
    name = "sweep-iterative"
    # The sweep stops at alpha = 0.9: at 0.95 and 0.99 the walk needs 110 to
    # 470 iterations per query depending on the seed's graph, and that
    # seed-to-seed cost swing would swamp the comparison between runs.
    settings = {"closed_form": "false", "alpha_sweep": "0.5,0.7,0.9"}

    def run_pass(self, tally: Tally, tracer=None) -> float:
        """The sweep as one ``run_ablation`` call per alpha, so that timed
        steps are short; together they return what one call over every
        alpha does, since each alpha's row is computed on its own."""
        rows, chain_s = [], 0.0
        for alpha in self.cfg.alpha_sweep:
            cfg = replace(self.cfg, alpha_sweep=(alpha,))
            result, step_s = timed(lambda: evalkit.run_ablation(
                "alpha-sweep", cfg, split=self.split, models=self.models))
            self.after_step(step_s)
            rows += result.rows
            chain_s += step_s
        self.result = evalkit.AblationResult("alpha-sweep", rows, evalkit.pairwise_signs(rows))
        return chain_s

    def check(self, tally: Tally) -> dict:
        rows = dict(self.result.rows)
        tally.check(list(rows) == [f"alpha={a}" for a in self.cfg.alpha_sweep],
                    f"alpha-sweep rows {list(rows)}")
        for name, report in rows.items():
            tally.check(report.num_queries == len(self.grounds),
                        f"{name}: n_queries {report.num_queries}")
        # The sweep reports metrics only: its default-alpha row must match a
        # direct iterative re-rank, whose orders must agree with the closed form.
        iterative = self.rerank(closed_form=False)
        self.check_rankings(tally, iterative, self.sat_ids, "ground-satellite")
        gs = quality(self.cfg, self.split, iterative, "ground-satellite")
        row = rows.get(f"alpha={self.cfg.alpha}")
        tally.check(row is not None and row.to_json_dict() == gs,
                    f"alpha={self.cfg.alpha} row differs from a direct re-rank")
        self.compare(tally, {r.query_id: r.gallery_ids
                             for r in self.rerank(closed_form=True)}, iterative)
        return {"gs_cmc1": gs["cmc1"], "gs_map": gs["map"],
                "gd_map": self.ground_drone_map(tally)}


WORKLOADS = {w.name: w for w in (CliChain, RetrieveLarge, SweepIterative)}
