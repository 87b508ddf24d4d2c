"""Tabular datasets: loading, centering, jitter augmentation, splits, resampling.

A Dataset is immutable after construction and owns the distinction between the
training role and the evaluation role of tabular data; all randomness flows
through explicit seeds.
"""

import copy
import csv
import hashlib
import json
import numbers
from dataclasses import dataclass
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
# The feature that carries the Portuguese final grade after merge_students.
POR_GRADE_NAME = "G3_por"


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
        if (self.kind == "categorical") != bool(self.categories):
            raise ValueError(f"feature {self.name!r}: categories required iff kind is categorical")
        if self.jitter_offsets is not None:
            if self.kind == "categorical":
                raise ValueError(f"feature {self.name!r}: jitter offsets need a numeric kind")
            object.__setattr__(self, "jitter_offsets", check_offsets(self.name, self.jitter_offsets))

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


def feature_mismatch(a, b):
    """None when the feature lists a and b agree in each feature's name and
    categories, in order (numeric and integer features encode alike); else
    both, each listed as "(name [category, ...], ...)"."""
    def columns(schema):
        return [(f.name, f.categories) for f in schema]

    if columns(a) == columns(b):
        return None
    return tuple("(" + ", ".join(name + (f" [{', '.join(map(str, cats))}]" if cats else "")
                                 for name, cats in columns(s)) + ")" for s in (a, b))


def check_offsets(feature, offsets):
    """Jitter offsets as floats, refused unless non-empty, finite, nonzero and distinct."""
    offsets = tuple(float(o) for o in offsets)
    if not (offsets and np.isfinite(offsets).all() and 0.0 not in offsets
            and len(set(offsets)) == len(offsets)):
        raise ValueError(f"feature {feature!r}: jitter offsets must be non-empty, finite, "
                         f"nonzero and distinct, got {list(offsets)}")
    return offsets


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
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{what} holds the non-finite value {values[bad[0]]} in row {bad[0]}")


def gower_encode(rows, features):
    """Rows as codes, the float matrix the Gower metric compares: numeric
    values as they are, a category as its schema index (-1 if undeclared;
    with range 0 a categorical column scores its 0/1 mismatch). A float
    matrix is its own codes."""
    if not isinstance(rows, np.ndarray):
        rows = np.array(rows, dtype=object).reshape(len(rows), len(features))
    if rows.dtype == float:
        return rows
    out = np.empty(rows.shape)
    for j, spec in enumerate(features):
        if spec.kind == "categorical":
            index = {c: i for i, c in enumerate(spec.categories)}
            out[:, j] = [index.get(v, -1) for v in rows[:, j]]
        else:
            out[:, j] = rows[:, j]
    return out


def gower_decode(codes, features):
    """The inverse of gower_encode: numeric cells as floats, each category
    index as its label; codes itself when every feature is numeric."""
    rows = codes if all(f.is_numeric for f in features) else codes.astype(object)
    for j, spec in enumerate(features):
        if not spec.is_numeric:
            rows[:, j] = np.array(spec.categories, dtype=object)[codes[:, j].astype(int)]
    return rows


class Dataset:
    """An i.i.d. tabular sample: k rows of n features plus a target vector.
    The rows are stored once, as `codes` (`gower_encode(rows)`); `rows`
    decodes them (`codes` itself if all numeric). Datasets compare by identity."""

    def __init__(self, features, target, rows, targets, provenance, seed=None):
        features = list(features)
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        has_cat = any(f.kind == "categorical" for f in features)
        # own copies: a caller's array, or a view of it, must not write into them
        rows = np.array(rows, dtype=object if has_cat else float)
        if rows.ndim != 2 or rows.shape[1] != len(features):
            raise ValueError("rows must be a k x n matrix matching the feature schema")
        targets = np.array(targets, dtype=float)
        if targets.shape != (rows.shape[0],):
            raise ValueError("targets length must equal the row count")
        codes = gower_encode(rows, features)
        for j, spec in enumerate(features):
            if spec.is_numeric:
                _require_finite(codes[:, j], f"column {spec.name!r}")
            elif (codes[:, j] < 0).any():
                raise ValueError(f"column {spec.name!r} contains values outside its "
                                 f"categories: {list(rows[codes[:, j] < 0, j][:3])}")
        _require_finite(targets, f"target {target.name!r}")
        self._own(codes, targets, features=features, target=target, provenance=provenance, seed=seed)

    def _own(self, codes, targets, **changes):
        for a in (codes, targets):
            a.setflags(write=False)
        vars(self).update(changes, codes=codes, targets=targets, _fingerprint=None)

    def _slice(self, rows, cols, **changes):
        """Rows and columns sliced from the validated codes, unparsed."""
        out = copy.copy(self)
        out._own(self.codes[rows][:, cols], self.targets[rows], **changes)
        return out

    @property
    def rows(self):
        """The rows decoded from codes, read-only; codes itself if all numeric."""
        rows = gower_decode(self.codes, self.features)
        rows.setflags(write=False)
        return rows

    # -- shape & lookup ------------------------------------------------

    @property
    def k(self):
        return self.codes.shape[0]

    @property
    def n(self):
        return len(self.features)

    @property
    def feature_names(self):
        return [f.name for f in self.features]

    def feature_index(self, feature):
        """The index of a feature given by its name or by an index in 0..n-1."""
        if isinstance(feature, str):
            if feature not in self.feature_names:
                raise UnknownFeature(f"no feature named {feature!r}")
            return self.feature_names.index(feature)
        j = int(feature)
        if not 0 <= j < self.n:
            raise ValueError(f"feature index {j} is outside 0..{self.n - 1} of {self.n} features")
        return j

    def column(self, index):
        return self.rows[:, index]

    def numeric_column(self, index):
        spec = self.features[index]
        if not spec.is_numeric:
            raise NonNumericFeature(f"feature {spec.name!r} is categorical")
        return self.codes[:, index]

    def replace(self, rows=None, targets=None, provenance=None, seed=None):
        changes = dict(rows=rows, targets=targets, provenance=provenance, seed=seed)
        return Dataset(self.features, self.target,
                       **{k: getattr(self, k) if v is None else v for k, v in changes.items()})

    def take(self, indices):
        return self._slice(np.asarray(indices, dtype=int), slice(None))

    @property
    def fingerprint(self):
        """Stable content hash of the schema, codes and targets (+ 0.0 maps
        -0.0 to 0.0); it keys the subset refits, the subset risks, the
        support checkers and the interval refits."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(json.dumps([f.to_dict() for f in self.features]).encode())
            h.update(json.dumps(self.target.to_dict()).encode())
            h.update((self.codes + 0.0).tobytes())
            h.update((self.targets + 0.0).tobytes())
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
            rows=d["rows"],
            targets=d["targets"],
            provenance=d["provenance"],
            seed=d.get("seed"),
        )

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
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
        if self.method == "subsample" and self.fraction >= 1.0:
            # every replicate would be the full data, with zero spread
            raise ValueError("subsample fraction must be below 1")
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
    codes = d.codes.copy()
    codes[:, j] = col - mean
    return d.replace(rows=gower_decode(codes, d.features)), mean


def jitter_augment(d, feature, offsets, clamp=None):
    """Append one shifted copy of the data per offset.

    The output keeps the k originals first, then k rows per offset with the
    feature shifted by that offset (clamped to `clamp=(lo, hi)` if given).
    Untouched columns are copied bit-identically.
    """
    j = d.feature_index(feature)
    offsets = check_offsets(d.features[j].name, offsets)
    if clamp is not None and not (len(clamp) == 2 and np.isfinite(clamp).all()
                                  and clamp[0] <= clamp[1]):
        raise ValueError(f"clamp must be two finite numbers lo <= hi, got {list(clamp)}")
    col = d.numeric_column(j)
    codes = np.tile(d.codes, (len(offsets) + 1, 1))
    for i, off in enumerate(offsets, start=1):
        shifted = col + off
        codes[i * d.k:(i + 1) * d.k, j] = shifted if clamp is None else np.clip(shifted, *clamp)
    return d.replace(rows=gower_decode(codes, d.features),
                     targets=np.tile(d.targets, len(offsets) + 1), provenance="augmented")


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


def resample_size(k, plan):
    """The rows of one replicate of k rows: k (bootstrap), or
    floor(fraction*k) (subsample)."""
    return k if plan.method == "bootstrap" else int(np.floor(plan.fraction * k))


def _draw(rng, k, method, size):
    """One replicate's row indices from rng: k draws with replacement
    (bootstrap), or the first `size` (resample_size) of a permutation."""
    if method == "bootstrap":
        return rng.integers(0, k, size=k)
    return rng.permutation(k)[:size]


def resample_indices(k, plan, replicate_index):
    """The row indices `resample` draws from k rows; pure in (k, plan, index).
    Replicate r is the draw of `np.random.default_rng(derive_seed(plan.seed,
    "resample", r))`."""
    if isinstance(replicate_index, bool) or not isinstance(replicate_index, (int, np.integer)):
        raise TypeError(f"replicate_index must be an integer, got {replicate_index!r}")
    if not (0 <= replicate_index < plan.replicates):
        raise IndexOutOfRange(
            f"replicate_index {replicate_index} outside [0, {plan.replicates})",
            operation="resample")
    rng = np.random.default_rng(derive_seed(plan.seed, "resample", replicate_index))
    return _draw(rng, k, plan.method, resample_size(k, plan))


# numpy's SeedSequence hash (on uint32 words, a pool of 4) and PCG64 seeding
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hasher(const, mult):
    """SeedSequence's hashmix on uint32 arrays: each call xors the running
    constant in, advances it by mult and multiplies by the new one."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)
    return hashmix


def _seed_words(seeds):
    """`SeedSequence(s).generate_state(4, np.uint64)` for every 63-bit seed
    s at once, as an (n, 4) uint64 array."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    # a seed is at most two entropy words, and the pool pads them with 0
    words = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words + [np.zeros_like(words[0])] * 2]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_state(words):
    """The state `PCG64(SeedSequence)` seeds from its four generated words."""
    w0, w1, w2, w3 = words.tolist()
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def resample_streams(k, plans):
    """Per plan, a lazy iterator over `resample_indices(k, plan, r)` for r
    in range(plan.replicates), bit for bit. Every seed of every plan is
    hashed at once, and each draw reseeds one generator in place, which the
    iterators share; only the seed words (32 bytes a draw) are kept."""
    bounds = np.cumsum([0] + [plan.replicates for plan in plans])
    words = _seed_words(np.fromiter(
        (derive_seed(plan.seed, "resample", r) for plan in plans for r in range(plan.replicates)),
        dtype=np.uint64, count=bounds[-1]))
    rng = np.random.default_rng(0)

    def draws(plan, plan_words):
        size = resample_size(k, plan)
        for w in plan_words:
            rng.bit_generator.state = _pcg64_state(w)
            yield _draw(rng, k, plan.method, size)

    return [draws(plan, words[a:b]) for plan, a, b in zip(plans, bounds, bounds[1:])]


def resample(d, plan, replicate_index):
    """Draw one resampled replicate as a Dataset copy."""
    return d.take(resample_indices(d.k, plan, replicate_index))


def feature_subset(subset, n):
    """A subset of n features as the sorted tuple of its distinct indices;
    an index that is not an integer in 0..n-1 is refused."""
    for j in subset:
        if not isinstance(j, numbers.Integral) or not 0 <= j < n:
            raise ValueError(f"feature index {j!r} is not an integer in 0..{n - 1}")
    return tuple(sorted({int(j) for j in subset}))


def select_features(d, indices):
    """Dataset restricted to the given feature columns (targets unchanged),
    read by `feature_subset`'s rule; d itself when they are all of its columns."""
    indices = list(feature_subset(indices, d.n))
    if indices == list(range(d.n)):
        return d
    return d._slice(slice(None), indices, features=[d.features[j] for j in indices])


def merge_students(math_d, por_d):
    """Pair the mathematics and Portuguese datasets student-by-student.

    Rows are joined on the 13 identity attributes; the Portuguese target
    (final grade) becomes an extra feature of the mathematics dataset.
    Unmatched or ambiguous rows are dropped. Returns the merged dataset and
    a dict of drop counts.
    """
    def keys_of(ds, rows):
        return [tuple(r) for r in rows[:, [ds.feature_index(k) for k in STUDENT_JOIN_KEYS]]]

    por_by_key = {}
    for i, key in enumerate(keys_of(por_d, por_d.rows)):
        por_by_key.setdefault(key, []).append(i)

    matched_rows, matched_targets = [], []
    dropped_math = ambiguous = 0
    used_por = set()
    math_rows = math_d.rows
    for i, key in enumerate(keys_of(math_d, math_rows)):
        candidates = por_by_key.get(key, [])
        if len(candidates) == 1:
            p = candidates[0]
            matched_rows.append(list(math_rows[i]) + [por_d.targets[p]])
            matched_targets.append(math_d.targets[i])
            used_por.add(p)
        elif not candidates:
            dropped_math += 1
        else:
            ambiguous += 1
    dropped_por = por_d.k - len(used_por)

    grade_spec = FeatureSpec(name=POR_GRADE_NAME, kind=por_d.target.kind,
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
