import json

import numpy as np

from descry._util import canonical_json, derive_seed, fmt_number


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_in_63_bits(self):
        for s in range(50):
            assert 0 <= derive_seed(s, "x") < 2**63

    def test_numpy_integer_part_is_its_int(self):
        assert derive_seed(0, "resample", np.int64(0)) == derive_seed(0, "resample", 0)
        assert derive_seed(0, "resample", 0) == 5103284808531680771
        assert derive_seed(7, np.uint16(3), "x") == derive_seed(7, 3, "x")
        assert derive_seed(7, 0.5) != derive_seed(7, "0.5")


class TestCanonicalJson:
    def test_sorted_and_round_trip_floats(self):
        text = canonical_json({"b": 0.1, "a": 1})
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text)["b"] == 0.1

    def test_non_finite_becomes_null(self):
        out = json.loads(canonical_json({"v": [1.0, float("nan"), np.inf]}))
        assert out["v"] == [1.0, None, None]

    def test_numpy_scalars(self):
        out = json.loads(canonical_json({"i": np.int64(3), "f": np.float64(0.5),
                                         "b": np.bool_(True)}))
        assert out == {"i": 3, "f": 0.5, "b": True}


class TestFmtNumber:
    def test_integral_floats_print_as_integers(self):
        assert fmt_number(3.0) == "3"
        assert fmt_number(3) == "3"
        assert fmt_number(0.1) == "0.1"

