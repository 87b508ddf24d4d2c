"""Tabular datasets: loading, centering, jitter augmentation, splits, resampling.

A Dataset is immutable after construction and owns the distinction between the
training role and the evaluation role of tabular data; all randomness flows
through explicit seeds.
"""

import csv
import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources as importlib_resources

import numpy as np

from .errors import (
    DegenerateSplit,
    EmptyFile,
    IndexOutOfRange,
    MissingColumn,
    NonNumericFeature,
    TypeMismatch,
    UnknownFeature,
)
from ._util import derive_seed, fmt_number

KINDS = ("numeric", "integer", "categorical")
PROVENANCES = ("observed", "augmented", "synthetic")

# Identity attributes recommended by the dataset authors for pairing the
# mathematics and Portuguese files student-by-student.
STUDENT_JOIN_KEYS = (
    "school", "sex", "age", "address", "famsize", "Pstatus",
    "Medu", "Fedu", "Mjob", "Fjob", "reason", "nursery", "internet",
)


@dataclass(frozen=True)
class FeatureSpec:
    """Schema of a single feature (or target) column."""

    name: str
    kind: str
    categories: tuple = None
    jitter_offsets: tuple = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.categories is not None:
            object.__setattr__(self, "categories", tuple(self.categories))
        if self.jitter_offsets is not None:
            object.__setattr__(self, "jitter_offsets", tuple(float(o) for o in self.jitter_offsets))
        if (self.kind == "categorical") != bool(self.categories):
            raise ValueError(f"feature {self.name!r}: categories required iff kind is categorical")
        if self.jitter_offsets is not None:
            if self.kind == "categorical":
                raise ValueError(f"feature {self.name!r}: jitter offsets need a numeric kind")
            offs = self.jitter_offsets
            if any(o == 0.0 for o in offs) or len(set(offs)) != len(offs):
                raise ValueError(f"feature {self.name!r}: jitter offsets must be nonzero and distinct")

    @property
    def is_numeric(self):
        return self.kind in ("numeric", "integer")

    def to_dict(self):
        d = {"name": self.name, "kind": self.kind}
        if self.categories is not None:
            d["categories"] = list(self.categories)
        if self.jitter_offsets is not None:
            d["jitter_offsets"] = list(self.jitter_offsets)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(
            name=d["name"],
            kind=d["kind"],
            categories=tuple(d["categories"]) if d.get("categories") else None,
            jitter_offsets=tuple(d["jitter_offsets"]) if d.get("jitter_offsets") else None,
        )


def _parse_cell(raw, spec, row_idx):
    """Parse one CSV cell against its FeatureSpec."""
    text = raw.strip()
    if spec.kind == "categorical":
        if text not in spec.categories:
            raise TypeMismatch(
                f"row {row_idx}, column {spec.name!r}: {text!r} is not one of the "
                f"declared categories", operation="load_csv")
        return text
    try:
        value = float(text)
    except ValueError:
        raise TypeMismatch(
            f"row {row_idx}, column {spec.name!r}: {text!r} is not parseable as "
            f"{spec.kind}", operation="load_csv") from None
    if not np.isfinite(value):
        raise TypeMismatch(
            f"row {row_idx}, column {spec.name!r}: {text!r} is not finite",
            operation="load_csv")
    if spec.kind == "integer" and value != int(value):
        raise TypeMismatch(
            f"row {row_idx}, column {spec.name!r}: {text!r} is not an integer",
            operation="load_csv")
    return value


def _require_finite(values, what):
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{what} holds the non-finite value {values[bad[0]]} in row {bad[0]}")


@dataclass
class Dataset:
    """An i.i.d. tabular sample: k rows of n features plus a target vector."""

    features: list
    target: FeatureSpec
    rows: np.ndarray
    targets: np.ndarray
    provenance: str
    seed: int = None
    _fingerprint: str = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.features = list(self.features)
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        has_cat = any(f.kind == "categorical" for f in self.features)
        # own copies: a caller's array, or a view of it, must not write into them
        rows = np.array(self.rows, dtype=object if has_cat else float)
        if rows.ndim != 2 or rows.shape[1] != len(self.features):
            raise ValueError("rows must be a k x n matrix matching the feature schema")
        targets = np.array(self.targets, dtype=float)
        if targets.shape != (rows.shape[0],):
            raise ValueError("targets length must equal the row count")
        for j, spec in enumerate(self.features):
            col = rows[:, j]
            if spec.kind == "categorical":
                bad = [v for v in col if v not in spec.categories]
                if bad:
                    raise ValueError(
                        f"column {spec.name!r} contains values outside its categories: {bad[:3]}")
            else:
                if has_cat:
                    rows[:, j] = [float(v) for v in col]
                _require_finite(rows[:, j], f"column {spec.name!r}")
        _require_finite(targets, f"target {self.target.name!r}")
        rows.setflags(write=False)
        targets.setflags(write=False)
        self.rows = rows
        self.targets = targets

    # -- shape & lookup ------------------------------------------------

    @property
    def k(self):
        return self.rows.shape[0]

    @property
    def n(self):
        return len(self.features)

    @property
    def feature_names(self):
        return [f.name for f in self.features]

    def feature_index(self, name):
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise UnknownFeature(f"no feature named {name!r}")

    def column(self, index):
        return self.rows[:, index]

    def numeric_column(self, index):
        spec = self.features[index]
        if not spec.is_numeric:
            raise NonNumericFeature(f"feature {spec.name!r} is categorical")
        return np.asarray(self.column(index), dtype=float)

    def replace(self, rows=None, targets=None, provenance=None, seed=None):
        return Dataset(
            features=self.features,
            target=self.target,
            rows=self.rows if rows is None else rows,
            targets=self.targets if targets is None else targets,
            provenance=self.provenance if provenance is None else provenance,
            seed=self.seed if seed is None else seed,
        )

    def take(self, indices, provenance=None):
        idx = np.asarray(indices, dtype=int)
        return self.replace(rows=self.rows[idx], targets=self.targets[idx],
                            provenance=provenance)

    @property
    def fingerprint(self):
        """Stable content hash; used as a cache key for subset refits."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(json.dumps([f.to_dict() for f in self.features]).encode())
            h.update(json.dumps(self.target.to_dict()).encode())
            for row in self.rows:
                h.update("|".join(
                    v if isinstance(v, str) else fmt_number(v) for v in row).encode())
                h.update(b"\n")
            h.update(" ".join(fmt_number(t) for t in self.targets).encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        return {
            "schema": {
                "features": [f.to_dict() for f in self.features],
                "target": self.target.to_dict(),
            },
            "provenance": self.provenance,
            "seed": self.seed,
            "rows": [list(r) for r in self.rows],
            "targets": list(self.targets),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            features=[FeatureSpec.from_dict(f) for f in d["schema"]["features"]],
            target=FeatureSpec.from_dict(d["schema"]["target"]),
            rows=[list(r) for r in d["rows"]],
            targets=d["targets"],
            provenance=d["provenance"],
            seed=d.get("seed"),
        )

    def write_csv(self, path, delimiter=","):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter)
            writer.writerow(self.feature_names + [self.target.name])
            for row, y in zip(self.rows, self.targets):
                writer.writerow([v if isinstance(v, str) else fmt_number(v) for v in row]
                                + [fmt_number(y)])


@dataclass(frozen=True)
class ResamplePlan:
    """How to redraw a dataset: bootstrap (with replacement, full size) or
    subsample (without replacement, floor(fraction*k) rows)."""

    method: str
    replicates: int
    seed: int
    fraction: float = 1.0

    def __post_init__(self):
        if self.method not in ("bootstrap", "subsample"):
            raise ValueError(f"unknown resampling method {self.method!r}")
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")


# -- operations ----------------------------------------------------------


def load_csv(path, schema, target_name, delimiter=","):
    """Load a delimited text file against a FeatureSpec schema.

    The header must cover every schema name plus the target column; extra
    columns are ignored. Rows are preserved in file order.
    """
    specs = list(schema)
    names = [s.name for s in specs]
    if target_name not in names:
        raise MissingColumn(f"schema does not define the target column {target_name!r}",
                            operation="load_csv")
    target_spec = specs[names.index(target_name)]
    feature_specs = [s for s in specs if s.name != target_name]

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: file has no header row", operation="load_csv") from None
        header = [h.strip().strip('"') for h in header]
        missing = [n for n in names if n not in header]
        if missing:
            raise MissingColumn(f"{path}: header lacks columns {missing}", operation="load_csv")
        col_of = {n: header.index(n) for n in names}

        rows, targets = [], []
        for i, record in enumerate(reader):
            if not record:
                continue
            if len(record) < len(header):
                raise TypeMismatch(f"{path}: row {i} has {len(record)} fields, "
                                   f"expected {len(header)}", operation="load_csv")
            record = [c.strip().strip('"') for c in record]
            rows.append([_parse_cell(record[col_of[s.name]], s, i) for s in feature_specs])
            targets.append(_parse_cell(record[col_of[target_name]], target_spec, i))
    if not rows:
        raise EmptyFile(f"{path}: no data rows", operation="load_csv")
    return Dataset(features=feature_specs, target=target_spec, rows=rows,
                   targets=targets, provenance="observed")


def center_feature(d, feature):
    """Replace a numeric feature by its deviation from the sample mean.

    Returns the centered dataset and the mean that was subtracted.
    """
    j = d.feature_index(feature)
    col = d.numeric_column(j)
    mean = float(np.mean(col))
    rows = np.array(d.rows, dtype=d.rows.dtype, copy=True)
    rows[:, j] = col - mean
    return d.replace(rows=rows), mean


def jitter_augment(d, feature, offsets, clamp=None):
    """Append one shifted copy of the data per offset.

    The output keeps the k originals first, then k rows per offset with the
    feature shifted by that offset (clamped to `clamp=(lo, hi)` if given).
    Untouched columns are copied bit-identically.
    """
    offsets = [float(o) for o in offsets]
    if not offsets:
        raise ValueError("offsets must be non-empty")
    j = d.feature_index(feature)
    col = d.numeric_column(j)
    blocks, targets = [np.array(d.rows, dtype=d.rows.dtype, copy=True)], [np.asarray(d.targets)]
    for off in offsets:
        shifted = col + off
        if clamp is not None:
            shifted = np.clip(shifted, clamp[0], clamp[1])
        block = np.array(d.rows, dtype=d.rows.dtype, copy=True)
        block[:, j] = shifted
        blocks.append(block)
        targets.append(np.asarray(d.targets))
    return d.replace(rows=np.concatenate(blocks, axis=0),
                     targets=np.concatenate(targets), provenance="augmented")


def split(d, train_fraction, seed):
    """Disjoint train/test row partition, deterministic given the seed."""
    if not (0.0 < train_fraction <= 1.0):
        raise ValueError("train_fraction must be in (0, 1]")
    n_train = int(np.floor(train_fraction * d.k))
    if n_train == 0 or n_train == d.k:
        raise DegenerateSplit(
            f"fraction {train_fraction} leaves an empty side for k={d.k}", operation="split")
    perm = np.random.default_rng(derive_seed(seed, "split")).permutation(d.k)
    return d.take(perm[:n_train]), d.take(perm[n_train:])


def resample_indices(k, plan, replicate_index):
    """The row indices `resample` draws from k rows; pure in (k, plan, index)."""
    if not (0 <= replicate_index < plan.replicates):
        raise IndexOutOfRange(
            f"replicate_index {replicate_index} outside [0, {plan.replicates})",
            operation="resample")
    rng = np.random.default_rng(derive_seed(plan.seed, "resample", replicate_index))
    if plan.method == "bootstrap":
        return rng.integers(0, k, size=k)
    return rng.permutation(k)[:int(np.floor(plan.fraction * k))]


def resample(d, plan, replicate_index):
    """Draw one resampled replicate as a Dataset copy."""
    return d.take(resample_indices(d.k, plan, replicate_index))


def select_features(d, indices):
    """Dataset restricted to the given feature columns (targets unchanged)."""
    indices = sorted(int(j) for j in indices)
    features = [d.features[j] for j in indices]
    rows = d.rows[:, indices] if indices else np.zeros((d.k, 0))
    return Dataset(features=features, target=d.target, rows=rows,
                   targets=d.targets, provenance=d.provenance, seed=d.seed)


def merge_students(math_d, por_d, por_grade_name="G3_por"):
    """Pair the mathematics and Portuguese datasets student-by-student.

    Rows are joined on the 13 identity attributes; the Portuguese target
    (final grade) becomes an extra feature of the mathematics dataset.
    Unmatched or ambiguous rows are dropped. Returns the merged dataset and
    a dict of drop counts.
    """
    keys = STUDENT_JOIN_KEYS

    def key_of(ds, row):
        return tuple(row[ds.feature_index(k)] for k in keys)

    por_by_key = {}
    for i in range(por_d.k):
        por_by_key.setdefault(key_of(por_d, por_d.rows[i]), []).append(i)

    matched_rows, matched_targets = [], []
    dropped_math = ambiguous = 0
    used_por = set()
    for i in range(math_d.k):
        candidates = por_by_key.get(key_of(math_d, math_d.rows[i]), [])
        if len(candidates) == 1:
            p = candidates[0]
            matched_rows.append(list(math_d.rows[i]) + [por_d.targets[p]])
            matched_targets.append(math_d.targets[i])
            used_por.add(p)
        elif not candidates:
            dropped_math += 1
        else:
            ambiguous += 1
    dropped_por = por_d.k - len(used_por)

    grade_spec = FeatureSpec(name=por_grade_name, kind=por_d.target.kind,
                             jitter_offsets=por_d.target.jitter_offsets)
    merged = Dataset(
        features=list(math_d.features) + [grade_spec],
        target=math_d.target,
        rows=matched_rows,
        targets=matched_targets,
        provenance="observed",
    )
    return merged, {"dropped_math": dropped_math, "dropped_por": dropped_por,
                    "ambiguous": ambiguous, "matched": merged.k}


def student_schema():
    """The bundled 33-column student-attributes schema (grades 0-20)."""
    text = importlib_resources.files("descry.resources").joinpath(
        "student-schema.json").read_text(encoding="utf-8")
    return [FeatureSpec.from_dict(f) for f in json.loads(text)["columns"]]
