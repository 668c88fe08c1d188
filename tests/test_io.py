"""Binary format encode/decode, atomic writes, and the tab-separated report."""

import os
import struct
import warnings

import numpy as np
import pytest

from coss.data import Dataset
from coss.errors import FormatError, NumericalError
from coss.io import (
    atomic_write,
    decode_dataset,
    decode_index,
    decode_model,
    encode_dataset,
    encode_index,
    encode_model,
    parse_report,
    read_dataset,
    read_model,
    read_report,
    render_report,
    write_dataset,
    write_index,
    write_model,
    write_report,
)
from coss.knn import NeighborIndex, build_index
from coss.models import Layer, MlpModel

from conftest import corruptions, random_dataset, random_index, random_model

SIGNALLING_NAN = struct.pack("<I", 0x7F800001)  # casts to float64 with an "invalid" warning


def f32(values):
    """Snap to float32 so byte comparisons are exact."""
    return np.asarray(values, dtype=np.float32).astype(np.float64)


class TestDatasetFormat:
    def test_round_trip_with_labels(self):
        ds = Dataset(f32(np.random.default_rng(0).normal(size=(5, 3))), [0, 1, 2, 1, 0])
        back = decode_dataset(encode_dataset(ds))
        assert back == ds

    def test_round_trip_without_labels(self):
        ds = Dataset(f32([[1.5, -2.25]]))
        assert decode_dataset(encode_dataset(ds)) == ds

    def test_reencode_is_byte_identical(self):
        # float64 payloads snap to float32 on the first encode and stay put
        ds = Dataset(np.random.default_rng(1).normal(size=(7, 4)))
        first = encode_dataset(ds)
        second = encode_dataset(decode_dataset(first))
        assert first == second

    def test_byte_layout_arithmetic(self):
        ds = Dataset(f32(np.ones((8, 3))), labels=list(range(8)))
        blob = encode_dataset(ds)
        assert len(blob) == 4 + 4 + 8 + 8 + 1 + 8 * 3 * 4 + 8 * 8
        assert blob[:4] == b"CSSD"

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="bad magic"):
            decode_dataset(b"XXXX" + b"\x00" * 32)

    def test_unknown_version_rejected(self):
        blob = b"CSSD" + struct.pack("<I", 2) + b"\x00" * 32
        with pytest.raises(FormatError, match="unsupported version 2"):
            decode_dataset(blob)

    def test_truncated_rejected(self):
        blob = encode_dataset(Dataset(f32(np.ones((3, 2)))))
        with pytest.raises(FormatError, match="truncated"):
            decode_dataset(blob[:-1])

    def test_trailing_bytes_rejected(self):
        blob = encode_dataset(Dataset(f32(np.ones((3, 2)))))
        with pytest.raises(FormatError, match="trailing bytes"):
            decode_dataset(blob + b"\x00")

    def test_nonfinite_inputs_rejected(self):
        blob = bytearray(encode_dataset(Dataset(f32(np.ones((1, 1))))))
        blob[-4:] = struct.pack("<f", float("nan"))
        with pytest.raises(NumericalError, match="non-finite"):
            decode_dataset(bytes(blob))

    def test_signalling_nan_is_a_numerical_error_without_a_warning(self):
        blob = bytearray(encode_dataset(Dataset(f32(np.ones((2, 3))))))
        blob[25:29] = SIGNALLING_NAN  # the first f32 after the header
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                decode_dataset(bytes(blob))

    @pytest.mark.parametrize("value", [1e39, -1e39, 3.5e38])
    def test_value_beyond_float32_is_not_written(self, tmp_path, value):
        # it would be stored as inf, which decode_dataset rejects
        inputs = np.ones((2, 3))
        inputs[1, 2] = value
        with pytest.raises(NumericalError, match="float32 cannot hold"):
            encode_dataset(Dataset(inputs))
        with pytest.raises(NumericalError, match="float32 cannot hold"):
            write_dataset(tmp_path / "d.cssd", Dataset(inputs))
        assert os.listdir(tmp_path) == []

    def test_largest_float32_is_written(self):
        inputs = f32([[np.finfo(np.float32).max, -np.finfo(np.float32).max]])
        assert decode_dataset(encode_dataset(Dataset(inputs))) == Dataset(inputs)

    def test_negative_label_rejected(self):
        blob = bytearray(encode_dataset(Dataset(f32(np.ones((1, 1))), labels=[0])))
        blob[-8:] = struct.pack("<q", -5)
        with pytest.raises(FormatError, match="labels must be nonnegative"):
            decode_dataset(bytes(blob))

    @pytest.mark.parametrize("n,dim", [(0, 3), (3, 0), (2**64 - 1, 0)])
    def test_empty_dataset_rejected(self, n, dim):
        blob = b"CSSD" + struct.pack("<IQQB", 1, n, dim, 0)  # n * dim == 0: no payload
        with pytest.raises(FormatError):
            decode_dataset(blob)

    def test_bad_label_flag_rejected(self):
        blob = bytearray(encode_dataset(Dataset(f32(np.ones((1, 1))))))
        blob[24] = 2  # has_labels byte sits after magic+version+n+dim
        with pytest.raises(FormatError, match="has_labels"):
            decode_dataset(bytes(blob))

    def test_file_round_trip(self, tmp_path):
        ds = Dataset(f32(np.random.default_rng(2).normal(size=(4, 2))), [3, 1, 4, 1])
        path = tmp_path / "d.cssd"
        write_dataset(path, ds)
        assert read_dataset(path) == ds
        assert not (tmp_path / "d.cssd.tmp").exists()


class TestIndexFormat:
    def test_round_trip(self):
        idx = build_index(np.random.default_rng(3).normal(size=(9, 4)), pool=3)
        assert decode_index(encode_index(idx)) == idx

    def test_file_size_matches_header_plus_entries(self, tmp_path):
        # 8 samples, pool=3: magic+version+n+pool+8*3 u32 entries
        idx = build_index(np.random.default_rng(4).normal(size=(8, 2)), pool=3)
        path = tmp_path / "i.cssk"
        write_index(path, idx)
        assert path.stat().st_size == 4 + 4 + 8 + 8 + 8 * 3 * 4

    def test_self_reference_rejected_on_decode(self):
        neighbors = np.array([[0], [0], [1]], dtype=np.int64)  # row 0 lists itself
        blob = (
            b"CSSK"
            + struct.pack("<IQQ", 1, 3, 1)
            + neighbors.astype("<u4").tobytes()
        )
        with pytest.raises(FormatError, match="own sample index"):
            decode_index(blob)

    def test_out_of_range_rejected_on_decode(self):
        neighbors = np.array([[5], [0], [0]], dtype=np.int64)
        blob = (
            b"CSSK"
            + struct.pack("<IQQ", 1, 3, 1)
            + neighbors.astype("<u4").tobytes()
        )
        with pytest.raises(FormatError, match="out of range"):
            decode_index(blob)

    def test_degenerate_dimensions_rejected(self):
        # complete payloads, so NeighborIndex and not the byte layout rejects them
        for n, pool, neighbors, match in [(1, 1, [0], "pool too large"), (3, 0, [], "pool ≥ 1")]:
            blob = b"CSSK" + struct.pack("<IQQ", 1, n, pool) + np.array(neighbors, "<u4").tobytes()
            with pytest.raises(FormatError, match=match):
                decode_index(blob)


class TestModelFormat:
    def test_round_trip_all_activations(self):
        model = MlpModel(
            [
                Layer(f32(np.random.default_rng(5).normal(size=(4, 3))), f32(np.zeros(4)), "relu"),
                Layer(f32(np.random.default_rng(6).normal(size=(2, 4))), f32([0.5, -0.5]), "tanh"),
                Layer(f32([[1.0, 2.0]]), f32([0.0]), "identity"),
            ]
        )
        assert decode_model(encode_model(model)) == model

    def test_reencode_is_byte_identical(self):
        model = random_model(np.random.default_rng(7))
        first = encode_model(model)
        assert encode_model(decode_model(first)) == first

    def test_unknown_activation_code_rejected(self):
        blob = (
            b"CSSM"
            + struct.pack("<II", 1, 1)
            + struct.pack("<IIB", 1, 1, 9)
            + struct.pack("<ff", 1.0, 0.0)
        )
        with pytest.raises(FormatError, match="unknown activation code 9"):
            decode_model(blob)

    def test_zero_layer_model_rejected(self):
        blob = b"CSSM" + struct.pack("<II", 1, 0)
        with pytest.raises(FormatError, match="at least one layer"):
            decode_model(blob)

    def test_broken_chain_rejected(self):
        def layer_bytes(out_dim, in_dim):
            return (
                struct.pack("<IIB", out_dim, in_dim, 0)
                + np.zeros(out_dim * in_dim, dtype="<f4").tobytes()
                + np.zeros(out_dim, dtype="<f4").tobytes()
            )

        blob = b"CSSM" + struct.pack("<II", 1, 2) + layer_bytes(3, 2) + layer_bytes(2, 4)
        with pytest.raises(FormatError, match="chain"):
            decode_model(blob)

    def test_nonfinite_weights_rejected(self):
        blob = (
            b"CSSM"
            + struct.pack("<II", 1, 1)
            + struct.pack("<IIB", 1, 1, 0)
            + struct.pack("<ff", float("inf"), 0.0)
        )
        with pytest.raises(NumericalError, match="non-finite"):
            decode_model(blob)

    @pytest.mark.parametrize("part", ["weight", "bias"])
    def test_signalling_nan_is_a_numerical_error_without_a_warning(self, part):
        blob = (
            b"CSSM"
            + struct.pack("<II", 1, 1)
            + struct.pack("<IIB", 1, 1, 0)
            + (struct.pack("<I", 0x7FA00000) + struct.pack("<f", 0.0) if part == "weight"
               else struct.pack("<f", 1.0) + SIGNALLING_NAN)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                decode_model(blob)

    @pytest.mark.parametrize("part", ["weight", "bias"])
    @pytest.mark.parametrize("value", [1e39, np.inf, np.nan])
    def test_value_float32_cannot_hold_is_not_written(self, tmp_path, part, value):
        model = random_model(np.random.default_rng(9))
        getattr(model.layers[-1], part)[0] = value
        with pytest.raises(NumericalError, match="float32 cannot hold"):
            encode_model(model)
        with pytest.raises(NumericalError, match="float32 cannot hold"):
            write_model(tmp_path / "m.cssm", model)
        assert os.listdir(tmp_path) == []

    def test_file_round_trip(self, tmp_path):
        model = random_model(np.random.default_rng(8))
        for layer in model.layers:  # snap to the on-disk precision
            layer.weight = f32(layer.weight)
            layer.bias = f32(layer.bias)
        path = tmp_path / "m.cssm"
        write_model(path, model)
        assert read_model(path) == model


class TestRandomPayloadRoundTrips:
    def test_many_random_payloads(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            ds_blob = encode_dataset(random_dataset(rng))
            assert encode_dataset(decode_dataset(ds_blob)) == ds_blob
            idx_blob = encode_index(random_index(rng))
            assert encode_index(decode_index(idx_blob)) == idx_blob
            m_blob = encode_model(random_model(rng))
            assert encode_model(decode_model(m_blob)) == m_blob


class TestCorruptionSweep:
    """Damaged files decode or raise FormatError or NumericalError, and never warn.

    A flip inside a float payload may still decode to other values; only a
    checksum would catch that.
    """

    @pytest.mark.parametrize("seed,fmt", enumerate(["dataset", "index", "model"]))
    def test_every_case_decodes_or_raises_a_documented_error(self, seed, fmt):
        rng = np.random.default_rng(2024)
        # values in [1, 1.5): one flip of the top exponent bit makes a signalling NaN
        inputs = rng.uniform(1.0, 1.5, size=(12, 5)) * rng.choice([-1.0, 1.0], size=(12, 5))
        encode, decode, value = {
            "dataset": (encode_dataset, decode_dataset, Dataset(inputs, np.arange(12) % 3)),
            "index": (encode_index, decode_index, build_index(inputs, pool=3)),
            "model": (encode_model, decode_model,
                      MlpModel([Layer(inputs[:, :4], inputs[:, 4], "relu"),
                                Layer(inputs.T[:3], inputs[3:6, 0], "identity")])),
        }[fmt]
        outcomes = {"decoded": 0, FormatError: 0, NumericalError: 0}
        for damaged in corruptions(encode(value), seed, count=300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    decode(damaged)
                    outcomes["decoded"] += 1
                except (FormatError, NumericalError) as exc:
                    outcomes[type(exc)] += 1
        assert outcomes[FormatError] > 0
        if fmt != "index":
            assert outcomes[NumericalError] > 0


class TestAtomicWrite:
    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write(tmp_path / "demo.bin", "not bytes")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "demo.bin"
        atomic_write(path, b"old")
        with pytest.raises(TypeError):
            atomic_write(path, "not bytes")
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old"

    def test_each_write_has_its_own_temp_file(self, tmp_path, monkeypatch):
        renamed = []
        replace = os.replace
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (renamed.append(src), replace(src, dst))
        )
        path = tmp_path / "demo.bin"
        atomic_write(path, b"first")
        atomic_write(path, b"second")
        assert len(renamed) == 2 and renamed[0] != renamed[1]
        assert all(os.path.dirname(src) == str(tmp_path) for src in renamed)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"second"

    def test_directory_is_fsynced_after_the_rename(self, tmp_path, monkeypatch):
        calls = []
        replace, fsync = os.replace, os.fsync
        monkeypatch.setattr(os, "replace", lambda src, dst: (calls.append("replace"), replace(src, dst)))
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(os.fstat(fd).st_ino), fsync(fd)))
        atomic_write(tmp_path / "demo.bin", b"x")
        assert calls == [(tmp_path / "demo.bin").stat().st_ino, "replace", tmp_path.stat().st_ino]

    def test_file_mode_is_that_of_open(self, tmp_path):
        atomic_write(tmp_path / "a.bin", b"x")
        with open(tmp_path / "b.bin", "wb") as fh:
            fh.write(b"x")
        assert (tmp_path / "a.bin").stat().st_mode == (tmp_path / "b.bin").stat().st_mode


class TestReport:
    def test_round_trip_preserves_text_and_precision(self):
        records = [
            ("run_id", "ab12cd34ef56"),
            ("epochs", 50),
            ("l_total", -1.2345678901234567),
            ("accuracy", 0.925),
        ]
        back = parse_report(render_report(records))
        assert back["run_id"] == "ab12cd34ef56"
        assert back["epochs"] == "50"
        assert float(back["l_total"]) == -1.2345678901234567
        assert float(back["accuracy"]) == 0.925

    def test_values_that_look_like_numbers_stay_text(self):
        back = parse_report("run_id\t123456789012\nconfig_hash\t1e5\n")
        assert back == {"run_id": "123456789012", "config_hash": "1e5"}

    def test_mapping_input_accepted(self):
        assert parse_report(render_report({"a": 1})) == {"a": "1"}

    def test_missing_tab_rejected(self):
        with pytest.raises(FormatError, match="no tab separator"):
            parse_report("key_without_value\n")

    def test_tab_in_key_rejected(self):
        with pytest.raises(ValueError, match="must not contain"):
            render_report([("bad\tkey", 1)])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "metrics.tsv"
        write_report(path, {"x": 1.5, "name": "probe"})
        assert read_report(path) == {"x": "1.5", "name": "probe"}
