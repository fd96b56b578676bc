import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tailbayes import dataio
from tailbayes.errors import DataError
from tailbayes.simulation import Sim3Config, generate_sim3


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadDataset:
    def test_basic_roundtrip(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,x2,y\n0.5,1.5,1\n-0.25,2.0,0\n")
        x, y, names, ids = dataio.read_dataset_csv(path)
        assert names == ["x1", "x2"]
        assert ids == ["1", "2"]
        np.testing.assert_allclose(x, [[0.5, 1.5], [-0.25, 2.0]])
        np.testing.assert_allclose(y, [1.0, 0.0])

    @pytest.mark.parametrize("first", ["y", "id"])
    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, first):
        """Excel's "CSV UTF-8" files start with a byte-order mark, whatever the first column is."""
        text = {"y": "y,x1\n1,0.5\n0,1.5\n", "id": "id,x1,y\na,0.5,1\nb,1.5,0\n"}[first]
        plain = dataio.read_dataset_csv(write(tmp_path, "plain.csv", text))
        marked = dataio.read_dataset_csv(write(tmp_path, "marked.csv", "\ufeff" + text))
        for a, b in zip(marked, plain):
            np.testing.assert_array_equal(a, b)

    def test_id_column_passthrough(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x1,y\npatient-7,0.5,1\npatient-9,1.5,0\n")
        x, y, names, ids = dataio.read_dataset_csv(path)
        assert ids == ["patient-7", "patient-9"]
        assert names == ["x1"]

    def test_missing_outcome_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,x2\n1,2\n")
        with pytest.raises(DataError):
            dataio.read_dataset_csv(path)

    def test_outcome_must_be_literal_zero_or_one(self, tmp_path):
        for bad in ("2", "1.0", "yes", ""):
            path = write(tmp_path, "d.csv", f"x1,y\n0.5,{bad}\n")
            with pytest.raises(DataError):
                dataio.read_dataset_csv(path)

    def test_non_numeric_covariate(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,y\nabc,1\n")
        with pytest.raises(DataError):
            dataio.read_dataset_csv(path)

    def test_empty_file_and_header_only(self, tmp_path):
        with pytest.raises(DataError):
            dataio.read_dataset_csv(write(tmp_path, "e.csv", ""))
        with pytest.raises(DataError):
            dataio.read_dataset_csv(write(tmp_path, "h.csv", "x1,y\n"))

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,x2,y\n1,2,1\n3,0\n")
        with pytest.raises(DataError):
            dataio.read_dataset_csv(path)

    def test_repeated_column_name_rejected(self, tmp_path):
        # a covariate read by name would otherwise always find the first of the two columns
        path = write(tmp_path, "d.csv", "x1,x1,y\n1,2,1\n3,4,0\n")
        with pytest.raises(DataError, match="column name 'x1' appears more than once"):
            dataio.read_dataset_csv(path)
        with pytest.raises(DataError, match="column name 'x1' appears more than once"):
            dataio.read_covariates_csv(path, ["x1", "x1"])

    def test_custom_outcome_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,died\n0.5,1\n")
        x, y, names, _ = dataio.read_dataset_csv(path, outcome_col="died")
        assert names == ["x1"] and y.tolist() == [1.0]


class TestReadCovariates:
    def test_schema_enforced_in_order(self, tmp_path):
        path = write(tmp_path, "p.csv", "x2,x1\n1,2\n")
        with pytest.raises(DataError):
            dataio.read_covariates_csv(path, ["x1", "x2"])

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "p.csv", "x1\n1\n")
        with pytest.raises(DataError):
            dataio.read_covariates_csv(path, ["x1", "x2"])

    def test_extra_column_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "x1,x2,x3\n1,2,3\n")
        with pytest.raises(DataError):
            dataio.read_covariates_csv(path, ["x1", "x2"])

    def test_outcome_column_ignored(self, tmp_path):
        path = write(tmp_path, "p.csv", "x1,x2,y\n1,2,1\n")
        x, ids = dataio.read_covariates_csv(path, ["x1", "x2"])
        np.testing.assert_allclose(x, [[1.0, 2.0]])


class TestStandardizer:
    def test_transform_and_serialize(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(5.0, 3.0, size=(100, 2))
        std = dataio.Standardizer.fit(raw)
        z = std.transform(raw)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
        again = dataio.Standardizer.from_dict(std.to_dict())
        np.testing.assert_allclose(again.transform(raw), z)

    def test_constant_column_rejected(self):
        with pytest.raises(DataError):
            dataio.Standardizer.fit(np.ones((10, 2)))


class TestScoredAndPiU:
    def test_scored_roundtrip(self, tmp_path):
        path = write(tmp_path, "s.csv", "prob,y\n0.2,0\n0.8,1\n")
        probs, y = dataio.read_scored_csv(path)
        np.testing.assert_allclose(probs, [0.2, 0.8])
        np.testing.assert_allclose(y, [0.0, 1.0])

    def test_scored_validation(self, tmp_path):
        with pytest.raises(DataError):
            dataio.read_scored_csv(write(tmp_path, "a.csv", "prob,y\n1.2,0\n"))
        with pytest.raises(DataError):
            dataio.read_scored_csv(write(tmp_path, "b.csv", "prob,y\n0.5,3\n"))

    def test_header_only_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="p.csv: no data rows"):
            dataio.read_pi_u_csv(write(tmp_path, "p.csv", "pi_u\n"))
        with pytest.raises(DataError, match="s.csv: no data rows"):
            dataio.read_scored_csv(write(tmp_path, "s.csv", "prob,y\n"))

    @pytest.mark.parametrize("outcome", ["1.0", "1e0", "0.0", "2", ""])
    def test_scored_outcome_must_be_literal_zero_or_one(self, tmp_path, outcome):
        path = write(tmp_path, "s.csv", f"prob,y\n0.5,0\n0.5,{outcome}\n")
        with pytest.raises(DataError, match=f"'{outcome}' in column 'y', row 3 is not the literal 0 or 1"):
            dataio.read_scored_csv(path)

    def test_each_rule_names_the_file_column_and_first_bad_row(self, tmp_path):
        cases = [
            (dataio.read_dataset_csv, "x1,y\n0.5,1\nabc,0\nxyz,1\n", "'abc' in column 'x1', row 3 is not a finite number"),
            (dataio.read_dataset_csv, "x1,y\n0.5,1\n0.5,1.0\n", "'1.0' in column 'y', row 3 is not the literal 0 or 1"),
            (dataio.read_dataset_csv, "x1,x2\n0.5,1\n", "column 'y' not found"),
            (dataio.read_pi_u_csv, "pi_u\n0.5\n-0.25\n2\n", r"'-0.25' in column 'pi_u', row 3 is not in \[0, 1\]"),
            (dataio.read_pi_u_csv, "p\n0.5\n", "column 'pi_u' not found"),
            (dataio.read_scored_csv, "prob,y\n0.5,1\ninf,0\n", "'inf' in column 'prob', row 3 is not a finite number"),
            (dataio.read_scored_csv, "prob\n0.5\n", "column 'y' not found"),
            (dataio.read_draws_csv, "intercept,x1\n0.5,1\n0.5,nan\n", "'nan' in column 'x1', row 3 is not a finite number"),
        ]
        for read, text, message in cases:
            path = write(tmp_path, "f.csv", text)
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}$"):
                read(path)

    def test_pi_u_roundtrip_and_validation(self, tmp_path):
        path = write(tmp_path, "p.csv", "pi_u\n0.25\n0.75\n")
        np.testing.assert_allclose(dataio.read_pi_u_csv(path), [0.25, 0.75])
        with pytest.raises(DataError):
            dataio.read_pi_u_csv(path, expected_rows=3)
        with pytest.raises(DataError):
            dataio.read_pi_u_csv(write(tmp_path, "q.csv", "pi_u\n1.5\n"))


class TestWriters:
    def test_draws_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        draws = rng.standard_normal((50, 3))
        path = tmp_path / "draws.csv"
        dataio.write_draws_csv(path, ["intercept", "x1", "x2"], draws)
        names, back = dataio.read_draws_csv(path)
        assert names == ["intercept", "x1", "x2"]
        assert np.array_equal(back, draws)  # repr round-trips float64 exactly

    def test_draws_bytes_equal_write_rows_over_repeats(self, tmp_path):
        """Runs of repeated draws are formatted once, yet the file is write_rows' bytes, -0.0 after 0.0 included."""
        rng = np.random.default_rng(2)
        draws = rng.standard_normal((400, 3))
        for i in np.flatnonzero(rng.random(400) < 0.75):
            draws[i] = draws[i - 1]
        draws[10:13] = [[0.0, -0.0, np.nan], [-0.0, 0.0, np.nan], [np.inf, -np.inf, 1e-300]]
        draws[13:15] = draws[12]
        names = ["intercept", "x,1", 'x"2']
        for cols in (slice(None), slice(0, 1)):
            dataio.write_draws_csv(tmp_path / "draws.csv", names[cols], draws[:, cols])
            dataio.write_rows(tmp_path / "rows.csv", names[cols], draws[:, cols].tolist())
            written = (tmp_path / "draws.csv").read_bytes()
            assert written == (tmp_path / "rows.csv").read_bytes()
        assert b"\r\n0.0\r\n-0.0\r\ninf\r\ninf\r\ninf\r\n" in written

    def test_rfc4180_quoting(self, tmp_path):
        path = tmp_path / "t.csv"
        dataio.write_rows(path, ["name", "value"], [['with,comma', 1], ['with"quote', 2]])
        text = path.read_bytes().decode()
        assert '"with,comma"' in text
        assert '"with""quote"' in text
        assert "\r\n" in text

    def test_manifest_byte_identical(self, tmp_path):
        manifest = {"b": [1.5, np.float64(2.5)], "a": {"x": np.int64(3)}, "c": None}
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        dataio.write_manifest(p1, manifest)
        dataio.write_manifest(p2, manifest)
        assert p1.read_bytes() == p2.read_bytes()
        assert dataio.read_manifest(p1) == {"a": {"x": 3}, "b": [1.5, 2.5], "c": None}

    def test_simulated_csv_readable(self, tmp_path):
        data, probs, mask = generate_sim3(Sim3Config(n=40, contamination=0.1, seed=2))
        path = tmp_path / "sim.csv"
        dataio.write_simulated_csv(path, data, oracle=probs, mask=mask)
        x, y, names, _ = dataio.read_dataset_csv(path)
        assert names == ["x1", "x2", "true_probability", "contaminated"]
        assert x.shape == (44, 4)
        np.testing.assert_array_equal(y, data.outcomes)
        np.testing.assert_allclose(x[:, 2], probs, rtol=1e-15)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@st.composite
def tables(draw, elements):
    """(n, k) float cells drawn from ``elements`` and n outcomes that are 0 or 1."""
    n = draw(st.integers(1, 20))
    x = draw(arrays(np.float64, st.tuples(st.just(n), st.integers(1, 3)), elements=elements))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return x, y


# derandomized: every run tries the same examples, so the suite stays deterministic
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(tables(st.floats(allow_nan=False, allow_infinity=False)), tables(st.floats(0.0, 1.0)))
def test_write_rows_round_trips_finite_floats_bit_for_bit(dataset, scored):
    """read_dataset_csv and read_scored_csv return every written float unchanged, -0.0 and subnormals included."""
    with tempfile.TemporaryDirectory() as out:
        x, y = dataset
        names = [f"x{j + 1}" for j in range(x.shape[1])]
        dataio.write_rows(Path(out) / "d.csv", [*names, "y"], [[*row, int(v)] for row, v in zip(x.tolist(), y)])
        back_x, back_y, back_names, _ = dataio.read_dataset_csv(Path(out) / "d.csv")
        assert back_names == names
        assert np.array_equal(bits(back_x), bits(x))
        assert np.array_equal(back_y, y)

        probs, y = scored
        probs = probs[:, 0]
        dataio.write_rows(Path(out) / "s.csv", ["prob", "y"], zip(probs.tolist(), y.tolist()))
        back_probs, back_y = dataio.read_scored_csv(Path(out) / "s.csv")
        assert np.array_equal(bits(back_probs), bits(probs))
        assert np.array_equal(back_y, y)
