"""Synthetic multi-view landmark dataset with facet-visibility structure.

Each landmark owns a latent prototype laid out as a (channels, side, side)
grid, split spatially into one shared center block (what a top-down view
captures) and a ring of angular wedges, one per drone direction section. A
record's feature map exposes the blocks its view can see:

* a drone flying in section ``s`` exposes the center plus wedge ``s``,
* a ground shot exposes the center plus exactly one wedge (its visible
  facet),
* the satellite exposes the center block only.

Everything else is zeroed, and i.i.d. Gaussian noise of scale
``noise_sigma`` is added on top of the whole map. With zero noise, a ground
record and the drone record sharing its facet have identical feature maps,
so the ground record's nearest drone by cosine over flattened maps is always
in its visible-facet section; that is the ground truth the training-time
miner has to rediscover.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .seeds import substream

if TYPE_CHECKING:
    from .config import RunConfig

GROUND = "G"
DRONE = "D"
SATELLITE = "S"
VIEWS = (GROUND, DRONE, SATELLITE)

DATA_FORMAT = "plcd-data v2"
EMB_MAGIC = "#plcd-emb v1"


@dataclass
class ImageRecord:
    """One synthetic image: identity label, view, drone section, feature map."""

    id: int
    view: str
    landmark: int
    section: int
    featmap: np.ndarray

    def __post_init__(self) -> None:
        if self.view not in VIEWS:
            raise ValueError(f"view must be one of {VIEWS} (got {self.view!r})")
        if self.view == DRONE and self.section < 1:
            raise ValueError(f"drone record {self.id} needs section >= 1")
        if self.view != DRONE and self.section != 0:
            raise ValueError(f"non-drone record {self.id} must have section 0")


@dataclass
class DatasetSplit:
    """Identity-disjoint train/test partition of a record set."""

    train: list[ImageRecord]
    test: list[ImageRecord]
    num_landmarks: int = 0
    num_sections: int = 0


# landmark -> section -> drone records, in record order
DroneIndex = dict[int, dict[int, list[ImageRecord]]]


def drones_by_section(records: list[ImageRecord]) -> tuple[DroneIndex, list[int]]:
    """The drone records' index and the sorted sections any drone covers."""
    drones: DroneIndex = {}
    for r in records:
        if r.view == DRONE:
            drones.setdefault(r.landmark, {}).setdefault(r.section, []).append(r)
    return drones, sorted({s for by_sec in drones.values() for s in by_sec})


def draw_per_section(drones: DroneIndex, sections: list[int], landmark: int,
                     rng: np.random.Generator) -> list[ImageRecord]:
    """One drone of ``landmark`` per section of ``sections``, in that order,
    each drawn uniformly from its section's records."""
    by_sec = drones.get(landmark)
    if by_sec is None:
        raise ValueError(f"landmark {landmark} has no drone records")
    batch = []
    for sec in sections:
        pool = by_sec.get(sec)
        if not pool:
            raise ValueError(f"landmark {landmark} has no drone in section {sec}")
        batch.append(pool[int(rng.integers(len(pool)))])
    return batch


def center_zone(map_side: int) -> np.ndarray:
    """Boolean (side, side) mask of the shared center block (the part a
    top-down view captures)."""
    size = max(1, map_side // 2)
    lo = (map_side - size) // 2
    mask = np.zeros((map_side, map_side), dtype=bool)
    mask[lo : lo + size, lo : lo + size] = True
    return mask


def facet_zones(num_sections: int, map_side: int) -> list[np.ndarray]:
    """Boolean (side, side) masks, one angular wedge of the outer ring per
    drone direction section."""
    center = center_zone(map_side)
    mid = (map_side - 1) / 2.0
    ys, xs = np.mgrid[0:map_side, 0:map_side]
    angles = np.arctan2(ys - mid, xs - mid)  # [-pi, pi)
    sector = np.floor(num_sections * (angles + math.pi) / (2 * math.pi)).astype(int)
    sector = np.clip(sector, 0, num_sections - 1)
    return [(~center) & (sector == s) for s in range(num_sections)]


def exposure_masks(cfg: RunConfig) -> list[np.ndarray]:
    """(channels, side, side) 0/1 masks of the latent blocks a view exposes:
    entry 0 the satellite's (the center block), entry ``s`` that of a drone
    or ground record in section ``s`` (the center plus wedge ``s``)."""
    center = center_zone(cfg.map_side)
    zones = [np.zeros_like(center)] + facet_zones(cfg.num_sections, cfg.map_side)
    shape = (cfg.channels, cfg.map_side, cfg.map_side)
    return [np.broadcast_to((center | zone).astype(float), shape).copy() for zone in zones]


def generate_synthetic(cfg: RunConfig) -> DatasetSplit:
    """Generate the dataset and split it by identity. Deterministic per seed.

    Prototypes are drawn from one dataset-wide rank-``latent_rank`` basis
    (identity = coefficient vector), so unseen identities occupy the same
    subspace the training identities span; with full-rank i.i.d. prototypes
    nothing learned on the train identities could transfer. Basis atoms are
    spatially sparse (density ``basis_density``): prototypes concentrate in
    salient spots, which is what makes per-region channel maxima carry
    identity rather than order statistics of featureless noise. Coordinates
    keep unit marginal variance.
    """
    rng = substream(cfg.seed, "dataspace.generate")
    per_section = cfg.drones_per_landmark // cfg.num_sections
    shape = (cfg.latent_rank, cfg.channels, cfg.map_side, cfg.map_side)
    basis = rng.standard_normal(shape) * (rng.random(shape) < cfg.basis_density)
    basis /= np.sqrt(cfg.basis_density)
    masks = exposure_masks(cfg)
    # every map is a row of one stack, as ``read_records`` returns them
    featmaps = np.empty((cfg.num_landmarks * (1 + cfg.drones_per_landmark
                                              + cfg.grounds_per_landmark),) + shape[1:])
    records: list[ImageRecord] = []
    next_id = 1

    def emit(view: str, landmark: int, section: int, proto: np.ndarray) -> None:
        nonlocal next_id
        noise = rng.standard_normal(proto.shape)
        featmap = featmaps[next_id - 1]
        np.add(masks[section] * proto, cfg.noise_sigma * noise, out=featmap)
        featmap.setflags(write=False)
        records.append(ImageRecord(next_id, view, landmark, section if view == DRONE else 0, featmap))
        next_id += 1

    for landmark in range(1, cfg.num_landmarks + 1):
        coeffs = rng.standard_normal(cfg.latent_rank)
        proto = np.tensordot(coeffs, basis, axes=1) / np.sqrt(cfg.latent_rank)
        emit(SATELLITE, landmark, 0, proto)
        for section in range(1, cfg.num_sections + 1):
            for _ in range(per_section):
                emit(DRONE, landmark, section, proto)
        for _ in range(cfg.grounds_per_landmark):
            facet = int(rng.integers(1, cfg.num_sections + 1))
            emit(GROUND, landmark, facet, proto)

    return split_by_identity(records, cfg.train_fraction, cfg.seed, cfg.num_sections)


def split_by_identity(records: list[ImageRecord], train_fraction: float, seed: int,
                      num_sections: int) -> DatasetSplit:
    """Shuffle identities deterministically; ceil(fraction * C) of them train.

    The train count is clamped so both halves stay non-empty.
    """
    identities = sorted({r.landmark for r in records})
    rng = substream(seed, "dataspace.split")
    order = [identities[i] for i in rng.permutation(len(identities))]
    n_train = math.ceil(train_fraction * len(identities))
    n_train = max(1, min(n_train, len(identities) - 1))
    train_ids = set(order[:n_train])
    train = [r for r in records if r.landmark in train_ids]
    test = [r for r in records if r.landmark not in train_ids]
    return DatasetSplit(train=train, test=test,
                        num_landmarks=len(identities), num_sections=num_sections)


def infer_visible_facet(record: ImageRecord, num_sections: int) -> int:
    """Recover which facet wedge a map exposes, from per-wedge energy.

    Drone records carry the section explicitly; ground records do not (the
    wire format keeps section 0 for non-drone views), so evaluation recovers
    it as the wedge with the highest mean squared activation. Exact at zero
    noise; reliable while the noise floor stays well below the unit signal
    variance.
    """
    if record.view == DRONE:
        return record.section
    side = record.featmap.shape[-1]
    zones = facet_zones(num_sections, side)
    energies = [float(np.mean(record.featmap[:, zone] ** 2)) for zone in zones]
    return int(np.argmax(energies)) + 1


# ---------------------------------------------------------------------------
# serialization (uncompressed .npz archives that np.load opens; part of the
# CLI contract)
# ---------------------------------------------------------------------------

def write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` as an uncompressed .npz. Members carry a fixed
    timestamp (``np.savez`` stamps the wall clock), so equal content gives
    equal bytes."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, arr in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asarray(arr), allow_pickle=False)


def read_arrays(path, tag: str, members: dict[str, tuple[str, int]]) -> dict[str, np.ndarray]:
    """The ``members`` of a .npz with format ``tag``, each of a dtype kind in
    its entry's first item and as many dimensions as its second. A file that
    is not such an archive or fails a check raises ValueError naming ``path``."""
    with open(path, "rb") as fh:
        try:
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("not a zip archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                found = str(archive["format"]) if "format" in archive.files else None
                if found != tag:
                    raise ValueError(f"format tag is {found!r}")
                missing = sorted(set(members) - set(archive.files))
                if missing:
                    raise ValueError(f"no member {', '.join(missing)}")
                arrays = {name: archive[name] for name in members}
        except Exception as err:  # corrupt bytes raise many types in zipfile and numpy
            raise ValueError(f"{path}: not a readable '{tag}' file: {err}") from err
    for name, (kinds, ndim) in members.items():
        if arrays[name].dtype.kind not in kinds or arrays[name].ndim != ndim:
            raise ValueError(f"{path}: member {name} is {arrays[name].dtype} of shape "
                             f"{arrays[name].shape}, needs {ndim} dimensions of kind {kinds!r}")
    return arrays


def write_records(path, records: list[ImageRecord], num_landmarks: int,
                  num_sections: int) -> None:
    """A split as record columns, one (n, c, h, w) ``values`` stack,
    ``counts`` = (num_landmarks, num_sections) and a ``format`` tag."""
    write_arrays(path, {
        "format": np.array(DATA_FORMAT),
        "counts": np.array([num_landmarks, num_sections], dtype=np.int64),
        "ids": np.array([r.id for r in records], dtype=np.int64),
        "views": np.array([r.view for r in records], dtype="<U1"),
        "landmarks": np.array([r.landmark for r in records], dtype=np.int64),
        "sections": np.array([r.section for r in records], dtype=np.int64),
        "values": np.stack([r.featmap for r in records]),
    })


def read_records(path) -> tuple[list[ImageRecord], int, int]:
    """Read a dataset file; returns (records, num_landmarks, num_sections)."""
    cols = read_arrays(path, DATA_FORMAT, {
        "counts": ("iu", 1), "ids": ("iu", 1), "views": ("U", 1),
        "landmarks": ("iu", 1), "sections": ("iu", 1), "values": ("f", 4)})
    if cols["counts"].shape != (2,):
        raise ValueError(f"{path}: counts needs a landmark and a section count "
                         f"(got {cols['counts'].shape[0]} values)")
    values = cols.pop("values")
    lengths = [len(cols[name]) for name in ("ids", "views", "landmarks", "sections")]
    if set(lengths) != {len(values)}:
        raise ValueError(f"{path}: columns ids, views, landmarks, sections hold "
                         f"{', '.join(map(str, lengths))} entries for {len(values)} value maps")
    ids, uses = np.unique(cols["ids"], return_counts=True)
    if (uses > 1).any():
        raise ValueError(f"{path}: record id {ids[np.argmax(uses > 1)]} appears more than once")
    bad = ~np.isfinite(values).all(axis=(1, 2, 3))
    if bad.any():
        raise ValueError(f"{path}: record {cols['ids'][np.argmax(bad)]} has a non-finite value")
    values.setflags(write=False)
    records = [ImageRecord(int(rid), str(view), int(landmark), int(section), featmap)
               for rid, view, landmark, section, featmap in zip(
                   cols["ids"], cols["views"], cols["landmarks"], cols["sections"], values)]
    num_landmarks, num_sections = map(int, cols["counts"])
    return records, num_landmarks, num_sections


# ---------------------------------------------------------------------------
# embedding exchange files (line-oriented text)
# ---------------------------------------------------------------------------

def write_embeddings(path, entries: Sequence[tuple[int, str, int, np.ndarray]]) -> None:
    """An ``EMB_MAGIC count dim`` header, then one ``id view landmark values``
    line per entry; entries are (record id, view, landmark-or-0, vector)."""
    if not entries:
        raise ValueError("no embeddings to write")
    dim = len(entries[0][3])
    lines = [f"{EMB_MAGIC} {len(entries)} {dim}"]
    for rid, view, landmark, vec in entries:
        values = " ".join(map(repr, np.asarray(vec, dtype=float).tolist()))
        lines.append(f"{rid} {view} {landmark} {values}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

