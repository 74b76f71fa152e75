import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from aspi import StackFormatError, StackReader, StackWriter, read_stack, write_pgm, write_stack
from aspi.stack_io import sidecar_path


def roundtrip(tmp_path, planes, metadata=None):
    path = tmp_path / "stack.aspi"
    write_stack(planes, metadata or {}, path)
    return read_stack(path), path


class TestRoundTrip:
    def test_minimal_stack_is_36_bytes(self, tmp_path):
        (planes, _), path = roundtrip(tmp_path, np.zeros((1, 1, 1), dtype=np.float32))
        assert path.stat().st_size == 32 + 4
        assert planes.shape == (1, 1, 1)
        assert planes[0, 0, 0] == 0.0

    def test_acquisition_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        stack = rng.random((30, 17, 23)).astype(np.float32)
        (planes, _), _ = roundtrip(tmp_path, stack)
        assert planes.tobytes() == stack.tobytes()

    def test_special_values_bit_exact(self, tmp_path):
        f = np.float32
        specials = np.array(
            [-1.0, 0.0, -0.0, np.finfo(f).max, np.finfo(f).min, np.finfo(f).tiny,
             np.finfo(f).smallest_subnormal, 1e-39, 3.4e38, -2.5e-40],
            dtype=f,
        ).reshape(1, 2, 5)
        (planes, _), _ = roundtrip(tmp_path, specials)
        assert planes.tobytes() == specials.tobytes()

    def test_nan_payload_preserved(self, tmp_path):
        depths = np.array([[1.0, np.nan], [np.nan, -3.0]], dtype=np.float32)
        (planes, _), _ = roundtrip(tmp_path, depths)
        assert planes.tobytes() == depths[None].tobytes()

    def test_planes_are_writable_float32(self, tmp_path):
        path = tmp_path / "s.aspi"
        write_stack(np.arange(24, dtype=np.float64).reshape(2, 3, 4), {}, path)
        planes, _ = read_stack(path)
        assert planes.dtype == np.float32 and planes.flags.writeable
        assert planes.flags.c_contiguous and planes.shape == (2, 3, 4)
        planes[1, 2, 3] = -5.0
        assert planes[0, 0, 1] == 1.0

    def test_2d_plane_promoted(self, tmp_path):
        (planes, _), _ = roundtrip(tmp_path, np.ones((3, 4)))
        assert planes.shape == (1, 3, 4)

    def test_metadata_roundtrip(self, tmp_path):
        meta = {"kind": "volume", "z0": -1.25, "sections": 7, "note": "a b = c"}
        (_, back), _ = roundtrip(tmp_path, np.zeros((1, 2, 2)), meta)
        assert back == {"kind": "volume", "z0": "-1.25", "sections": "7", "note": "a b = c"}

    def test_float_metadata_roundtrips_exactly(self, tmp_path):
        value = 0.46630765815499863
        (_, back), _ = roundtrip(tmp_path, np.zeros((1, 1, 1)), {"theta": value})
        assert float(back["theta"]) == value

    # bit patterns of -1.0, +inf, -inf, a quiet NaN, a NaN with a payload
    # and a signalling NaN, mixed with arbitrary words
    SPECIAL_BITS = [0xBF800000, 0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC12345, 0x7F800001]

    # each example overwrites the same file, which write_stack must allow
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bits=arrays(np.uint32, array_shapes(min_dims=3, max_dims=3, max_side=5),
                       elements=st.one_of(st.sampled_from(SPECIAL_BITS),
                                          st.integers(0, 2**32 - 1))))
    def test_any_bit_pattern_roundtrips(self, tmp_path, bits):
        (planes, _), _ = roundtrip(tmp_path, bits.view(np.float32))
        assert planes.shape == bits.shape
        assert planes.view(np.uint32).tobytes() == bits.tobytes()

    def test_missing_sidecar_gives_empty_metadata(self, tmp_path):
        _, path = roundtrip(tmp_path, np.zeros((1, 1, 1)))
        sidecar_path(path).unlink()
        _, meta = read_stack(path)
        assert meta == {}


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.aspi"
        path.write_bytes(b"JUNK" + bytes(32))
        with pytest.raises(StackFormatError, match="magic"):
            read_stack(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.aspi"
        path.write_bytes(b"ASPI\x01")
        with pytest.raises(StackFormatError, match="header"):
            read_stack(path)

    def test_corrupted_plane_count_names_byte_lengths(self, tmp_path):
        path = tmp_path / "stack.aspi"
        write_stack(np.zeros((2, 3, 4), dtype=np.float32), {}, path)
        raw = bytearray(path.read_bytes())
        raw[6:10] = struct.pack("<I", 5)  # claim 5 planes
        path.write_bytes(bytes(raw))
        with pytest.raises(StackFormatError) as err:
            read_stack(path)
        msg = str(err.value)
        assert str(5 * 3 * 4 * 4) in msg and str(2 * 3 * 4 * 4) in msg

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "stack.aspi"
        write_stack(np.zeros((2, 3, 4), dtype=np.float32), {}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(StackFormatError, match="payload"):
            read_stack(path)

    def test_unknown_version_and_dtype(self, tmp_path):
        path = tmp_path / "stack.aspi"
        write_stack(np.zeros((1, 1, 1), dtype=np.float32), {}, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(StackFormatError, match="version"):
            read_stack(path)
        raw[4:6] = struct.pack("<H", 1)
        raw[18] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(StackFormatError, match="dtype"):
            read_stack(path)

    def test_dimension_overflow_caught_before_allocation(self, tmp_path):
        path = tmp_path / "stack.aspi"
        write_stack(np.zeros((1, 1, 1), dtype=np.float32), {}, path)
        raw = bytearray(path.read_bytes())
        raw[6:10] = struct.pack("<I", 0xFFFFFFFF)
        raw[10:14] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(StackFormatError, match="mismatch"):
            read_stack(path)


def read_through_fifo(tmp_path, raw):
    """read_stack on a FIFO fed raw by a writer thread (a file with no size)."""
    fifo = tmp_path / "pipe.aspi"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
    writer.start()
    try:
        return read_stack(fifo)
    finally:
        writer.join(timeout=10)


class TestNonRegularFile:
    def test_fifo_roundtrip_bit_exact(self, tmp_path):
        stack = np.random.default_rng(3).random((3, 5, 7)).astype(np.float32)
        path = tmp_path / "stack.aspi"
        write_stack(stack, {}, path)
        planes, meta = read_through_fifo(tmp_path, path.read_bytes())
        assert planes.tobytes() == stack.tobytes() and meta == {}
        assert planes.flags.writeable and planes.shape == (3, 5, 7)

    @pytest.mark.parametrize("extra", [-5, 8])
    def test_fifo_payload_mismatch_names_byte_counts(self, tmp_path, extra):
        path = tmp_path / "stack.aspi"
        write_stack(np.zeros((2, 3, 4), dtype=np.float32), {}, path)
        raw = path.read_bytes()
        raw = raw[:extra] if extra < 0 else raw + bytes(extra)
        with pytest.raises(StackFormatError, match="mismatch") as err:
            read_through_fifo(tmp_path, raw)
        assert f"({2 * 3 * 4 * 4} bytes" in str(err.value)
        assert f"got {2 * 3 * 4 * 4 + extra} bytes" in str(err.value)


class TestSidecarValidation:
    def test_bad_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_stack(np.zeros((1, 1, 1)), {"bad key": 1}, tmp_path / "s.aspi")

    def test_newline_value_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_stack(np.zeros((1, 1, 1)), {"k": "a\nb"}, tmp_path / "s.aspi")

    @pytest.mark.parametrize("metadata", [{"bad key": 1}, {"k": "a\nb"}])
    def test_rejected_metadata_leaves_previous_files(self, tmp_path, metadata):
        path = tmp_path / "s.aspi"
        write_stack(np.arange(6.0).reshape(1, 2, 3), {"kind": "volume"}, path)
        before = path.read_bytes(), sidecar_path(path).read_bytes()
        with pytest.raises(ValueError):
            write_stack(np.ones((4, 5, 6)), metadata, path)
        assert (path.read_bytes(), sidecar_path(path).read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.aspi", "s.aspi.meta"]

    def test_overwrite_replaces_both_files(self, tmp_path):
        path = tmp_path / "s.aspi"
        write_stack(np.zeros((1, 2, 2)), {"kind": "volume", "old": 1}, path)
        write_stack(np.ones((3, 1, 1)), {"kind": "depthmap"}, path)
        planes, meta = read_stack(path)
        assert planes.shape == (3, 1, 1) and meta == {"kind": "depthmap"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.aspi", "s.aspi.meta"]

    def test_malformed_sidecar_line(self, tmp_path):
        path = tmp_path / "s.aspi"
        write_stack(np.zeros((1, 1, 1)), {"k": "v"}, path)
        sidecar_path(path).write_text("no separator here\n")
        with pytest.raises(StackFormatError, match="sidecar"):
            read_stack(path)


class TestPgmExport:
    def test_header_and_payload_size(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(np.arange(12.0).reshape(3, 4), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n65535\n")
        header_len = len(b"P5\n4 3\n65535\n")
        assert len(raw) - header_len == 3 * 4 * 2

    def test_range_stretch_and_nan(self, tmp_path):
        path = tmp_path / "img.pgm"
        img = np.array([[0.0, 5.0], [10.0, np.nan]])
        write_pgm(img, path, invalid_value=0.0)
        payload = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=">u2")
        assert payload[0] == 0 and payload[2] == 65535
        assert payload[3] == 0  # NaN mapped to the invalid value

    def test_constant_image(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(np.full((2, 2), 3.0), path)
        payload = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=">u2")
        assert np.all(payload == 0)


def stack_files(directory):
    return sorted(p.name for p in directory.iterdir())


class TestStackWriter:
    """Blocks written in place give write_stack's file; anything less commits nothing."""

    def volume(self):
        return np.random.default_rng(3).normal(size=(5, 9, 4)).astype(np.float64)

    def test_blocks_in_any_order_give_write_stack_bytes(self, tmp_path):
        planes = self.volume()
        write_stack(planes, {"kind": "volume"}, tmp_path / "whole.aspi")
        with StackWriter(tmp_path / "blocks.aspi", planes.shape, {"kind": "volume"}) as out:
            out.write(0, 4, planes[:, 4:])          # row chunks of every section
            out.write(2, 0, planes[2:4, :4])
            out.write(4, 0, planes[4:, :4])         # one section at a time
            out.write(0, 0, planes[:2, :4])
        for name in ("whole.aspi", "whole.aspi.meta"):
            blocks = name.replace("whole", "blocks")
            assert (tmp_path / name).read_bytes() == (tmp_path / blocks).read_bytes()
        assert stack_files(tmp_path) == ["blocks.aspi", "blocks.aspi.meta",
                                         "whole.aspi", "whole.aspi.meta"]

    def previous(self, tmp_path):
        path = tmp_path / "s.aspi"
        write_stack(np.arange(6.0).reshape(1, 2, 3), {"kind": "volume"}, path)
        return path, (path.read_bytes(), sidecar_path(path).read_bytes())

    def test_unwritten_rows_are_not_committed(self, tmp_path):
        path, before = self.previous(tmp_path)
        planes = self.volume()
        with pytest.raises(ValueError, match="2 of 45 plane rows were never written"):
            with StackWriter(path, planes.shape, {"kind": "volume"}) as out:
                out.write(0, 0, planes[:, :8])
                out.write(0, 8, planes[:3, 8:])
        assert (path.read_bytes(), sidecar_path(path).read_bytes()) == before
        assert stack_files(tmp_path) == ["s.aspi", "s.aspi.meta"]

    def test_rows_written_twice_rejected(self, tmp_path):
        path, before = self.previous(tmp_path)
        planes = self.volume()
        with pytest.raises(ValueError, match="overlaps rows already written"):
            with StackWriter(path, planes.shape, {"kind": "volume"}) as out:
                out.write(0, 0, planes[:, :5])
                out.write(1, 4, planes[1:2, 4:])
        assert (path.read_bytes(), sidecar_path(path).read_bytes()) == before
        assert stack_files(tmp_path) == ["s.aspi", "s.aspi.meta"]

    @pytest.mark.parametrize("k0,r0,shape", [(4, 0, (2, 9, 4)), (0, 3, (1, 7, 4)),
                                              (0, 0, (1, 9, 3)), (-1, 0, (1, 9, 4))])
    def test_block_outside_the_stack_rejected(self, tmp_path, k0, r0, shape):
        with StackWriter(tmp_path / "s.aspi", (5, 9, 4), {}) as out:
            with pytest.raises(ValueError, match="outside a 5x9x4 stack"):
                out.write(k0, r0, np.zeros(shape))
            out.write(0, 0, self.volume())

    @pytest.mark.parametrize("metadata", [{"bad key": 1}, {"k": "a\nb"}])
    def test_bad_metadata_rejected_before_anything_is_written(self, tmp_path, metadata):
        path, before = self.previous(tmp_path)
        with pytest.raises(ValueError):
            StackWriter(path, (5, 9, 4), metadata)
        assert (path.read_bytes(), sidecar_path(path).read_bytes()) == before
        assert stack_files(tmp_path) == ["s.aspi", "s.aspi.meta"]

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        planes = self.volume()
        write_stack(planes, {}, tmp_path / "whole.aspi")
        pwrite = os.pwrite
        calls = []

        def at_most_7_bytes(fd, data, offset):
            calls.append(offset)
            return pwrite(fd, bytes(data[:7]), offset)

        monkeypatch.setattr(os, "pwrite", at_most_7_bytes)
        write_stack(planes, {}, tmp_path / "short.aspi")
        assert len(calls) == -(-32 // 7) + -(-planes.size * 4 // 7)
        assert (tmp_path / "short.aspi").read_bytes() == (tmp_path / "whole.aspi").read_bytes()

    def test_failed_write_commits_nothing(self, tmp_path, monkeypatch):
        path, before = self.previous(tmp_path)
        pwrite = os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset:
                            pwrite(fd, data, offset) if offset == 0 else 0)
        with pytest.raises(OSError, match="wrote 0 of 720 bytes at offset 32"):
            write_stack(self.volume(), {}, path)
        assert (path.read_bytes(), sidecar_path(path).read_bytes()) == before
        assert stack_files(tmp_path) == ["s.aspi", "s.aspi.meta"]


class TestStackReader:
    """Windows read through StackReader are the slices of read_stack's planes."""

    @staticmethod
    def stack(tmp_path, shape):
        planes = np.random.default_rng(1).normal(size=shape).astype(np.float32)
        path = tmp_path / "s.aspi"
        write_stack(planes, {"kind": "volume", "z0": 1.5}, path)
        return path, read_stack(path)

    @pytest.mark.parametrize("shape", [(5, 70, 9), (1, 70, 9), (4, 1, 9), (1, 1, 1)])
    def test_windows_equal_read_stack_slices(self, tmp_path, shape):
        path, (whole, meta) = self.stack(tmp_path, shape)
        k, h, w = shape
        # 32-row chunks (the last one short), the edge rows, whole planes, no rows
        windows = [(r0, min(r0 + 32, h)) for r0 in range(0, h, 32)]
        windows += [(0, 1), (h - 1, h), (0, h), (h, h)]
        with StackReader(path) as reader:
            assert (reader.shape, reader.size, reader.metadata) == (shape, whole.size, meta)
            for k0, k1 in ((0, k), (k - 1, k), (0, 1), (k, k)):
                for rows in windows:
                    got = reader.read(k0, k1, rows)
                    assert got.dtype == np.float32 and got.flags.c_contiguous
                    want = np.ascontiguousarray(whole[k0:k1, rows[0]:rows[1]])
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert reader.read(k0, k1).tobytes() == whole[k0:k1].tobytes()

    def test_reads_into_the_callers_buffer(self, tmp_path):
        path, (whole, _) = self.stack(tmp_path, (5, 70, 9))
        buffer = np.full((3, 6, 9), 7.0, dtype=np.float32)
        with StackReader(path) as reader:
            assert reader.read(1, 4, (64, 70), out=buffer) is buffer
            assert buffer.tobytes() == np.ascontiguousarray(whole[1:4, 64:]).tobytes()
            for bad in (np.empty((3, 6, 9)), np.empty((3, 5, 9), dtype=np.float32),
                        np.empty((3, 6, 18), dtype=np.float32)[:, :, ::2]):
                with pytest.raises(ValueError, match="C-contiguous"):
                    reader.read(1, 4, (64, 70), out=bad)
            for k0, k1, rows in ((4, 6, None), (2, 1, None), (0, 1, (60, 71)), (0, 1, (5, 4))):
                with pytest.raises(ValueError, match="outside a 5x70x9 stack"):
                    reader.read(k0, k1, rows)

    def test_a_window_reads_only_its_bytes(self, tmp_path, monkeypatch):
        path, _ = self.stack(tmp_path, (5, 70, 9))
        preadv = os.preadv
        read = []

        def counting(fd, buffers, offset):
            count = preadv(fd, buffers, offset)
            read.append((offset, count))
            return count

        monkeypatch.setattr(os, "preadv", counting)
        with StackReader(path) as reader:
            reader.read(1, 4, (32, 64))
            # one read per plane, of its rows only
            assert read == [(32 + ((1 + j) * 70 + 32) * 9 * 4, 32 * 9 * 4) for j in range(3)]
            read.clear()
            reader.read(2, 5)
            # whole planes: one read
            assert read == [(32 + 2 * 70 * 9 * 4, 3 * 70 * 9 * 4)]

    def test_short_reads_are_resumed(self, tmp_path, monkeypatch):
        path, (whole, _) = self.stack(tmp_path, (5, 70, 9))
        preadv = os.preadv
        monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset:
                            preadv(fd, [memoryview(buffers[0])[:7]], offset))
        with StackReader(path) as reader:
            assert reader.read(0, 5, (3, 40)).tobytes() == np.ascontiguousarray(
                whole[:, 3:40]).tobytes()

    def test_file_truncated_after_opening(self, tmp_path):
        path, _ = self.stack(tmp_path, (5, 70, 9))
        with StackReader(path) as reader:
            os.truncate(path, 32 + 3 * 70 * 9 * 4)
            reader.read(0, 3)
            with pytest.raises(StackFormatError, match="payload ends at byte"):
                reader.read(2, 4)

    def test_fifo_windows(self, tmp_path):
        path, (whole, _) = self.stack(tmp_path, (3, 5, 7))
        raw = path.read_bytes()
        fifo = tmp_path / "pipe.aspi"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
        writer.start()
        try:
            with StackReader(fifo) as reader:
                assert reader.read(1, 3, (2, 4)).tobytes() == np.ascontiguousarray(
                    whole[1:3, 2:4]).tobytes()
                assert reader.read(0, 3).tobytes() == whole.tobytes()
        finally:
            writer.join(timeout=10)
