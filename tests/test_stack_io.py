import os
import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from aspi import StackFormatError, StackReader, StackWriter, read_stack, write_pgm, write_stack
from aspi.stack_io import _HEADER, FORMAT_VERSION, MAGIC, sidecar_path

# every character at which str.splitlines, and so the sidecar reader, breaks a line
LINE_BREAKS = ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


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

    @pytest.mark.parametrize("shape", [(1, 0, 3), (2, 3, 0), (0, 2, 2)])
    def test_empty_planes_roundtrip(self, tmp_path, shape):
        (planes, meta), path = roundtrip(tmp_path, np.zeros(shape), {"kind": "empty"})
        assert planes.shape == shape and planes.dtype == np.float32
        assert meta == {"kind": "empty"}
        assert path.stat().st_size == 32

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

    def test_fifo_header_is_checked_before_the_writer_closes(self, tmp_path):
        fifo = tmp_path / "pipe.aspi"
        os.mkfifo(fifo)
        errors = []

        def read():
            try:
                StackReader(fifo)
            except StackFormatError as exc:
                errors.append(exc)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        with open(fifo, "wb", buffering=0) as writer:
            writer.write(b"JUNK" + bytes(60))
            # the writer's end stays open, so reading to the end would not return
            reader.join(timeout=5)
            done = not reader.is_alive()
        reader.join(timeout=10)
        assert done and "bad magic" in str(errors[0])

    def test_fifo_dimension_overflow_caught_before_allocation(self, tmp_path):
        raw = _HEADER.pack(MAGIC, FORMAT_VERSION, 0xFFFFFFFF, 0xFFFFFFFF, 1, 0) + bytes(4)
        with pytest.raises(StackFormatError, match="too large to hold"):
            read_through_fifo(tmp_path, raw)


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

    def test_sidecar_that_repeats_a_key(self, tmp_path):
        # unchecked, the last value is read: a second z_step rescales every depth
        path = tmp_path / "s.aspi"
        write_stack(np.zeros((1, 1, 1)), {"kind": "volume", "z_step": "1.0"}, path)
        with open(sidecar_path(path), "a") as fh:
            fh.write("z_step=2.0\n")
        with pytest.raises(StackFormatError) as info:
            read_stack(path)
        assert str(info.value) == f"sidecar {path}.meta repeats key 'z_step'"

    def test_sidecar_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "s.aspi"
        write_stack(np.zeros((1, 1, 1)), {"k": "v"}, path)
        sidecar_path(path).write_bytes(b"k=\xff\n")
        with pytest.raises(StackFormatError) as info:
            read_stack(path)
        assert str(info.value) == f"sidecar {path}.meta is not UTF-8 text: byte 2 is 0xff"


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

    @pytest.mark.parametrize("metadata", [{"bad key": 1}] + [
        {"note": f"a{c}b=c", "kind": "volume"} for c in LINE_BREAKS])
    def test_bad_metadata_rejected_before_anything_is_written(self, tmp_path, metadata):
        path, before = self.previous(tmp_path)
        with pytest.raises(ValueError, match="'bad key'|'note' contains a line break"):
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
            return pwrite(fd, bytes(memoryview(data).cast("B")[:7]), offset)

        monkeypatch.setattr(os, "pwrite", at_most_7_bytes)
        write_stack(planes, {}, tmp_path / "short.aspi")
        # one write per plane, each resumed until its 144 bytes are in
        assert len(calls) == -(-32 // 7) + len(planes) * -(-planes[0].size * 4 // 7)
        assert (tmp_path / "short.aspi").read_bytes() == (tmp_path / "whole.aspi").read_bytes()

    def test_contiguous_float32_planes_go_to_pwrite_as_they_are(self, tmp_path, monkeypatch):
        # planes of a C-contiguous '<f4' block, or of rows of one, reach
        # pwrite as they are, with no copy or byte view made for them; any
        # other block is cast plane by plane
        pwrite = os.pwrite
        handed = []

        def record(fd, data, offset):
            handed.append(data)
            return pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", record)
        volume = self.volume().astype("<f4")
        with StackWriter(tmp_path / "s.aspi", volume.shape, {}) as out:
            handed.clear()
            out.write(0, 0, volume[:, :4])
            out.write(0, 4, volume[:, 4:].astype(np.float64))
        assert len(handed) == 2 * len(volume)
        assert all(type(data) is np.ndarray and np.shares_memory(data, volume)
                   for data in handed[:len(volume)])
        assert not any(np.shares_memory(data, volume) for data in handed[len(volume):])
        assert read_stack(tmp_path / "s.aspi")[0].tobytes() == volume.tobytes()

    def test_failed_write_commits_nothing(self, tmp_path, monkeypatch):
        path, before = self.previous(tmp_path)
        pwrite = os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset:
                            pwrite(fd, data, offset) if offset == 0 else 0)
        with pytest.raises(OSError, match="wrote 0 of 144 bytes at offset 32"):
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

    @staticmethod
    def assert_windows(reader, whole):
        """Every indexed window is a new array equal to that slice of whole."""
        k, h, _ = whole.shape

        def same(got, want):
            assert got.dtype == np.float32 and got.flags.c_contiguous and got.flags.writeable
            assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()

        # 32-row chunks (the last one short), the edge rows, whole planes, no rows
        windows = [(r0, min(r0 + 32, h)) for r0 in range(0, h, 32)]
        windows += [(0, 1), (h - 1, h), (0, h), (h, h)]
        for k0, k1 in ((0, k), (k - 1, k), (0, 1), (k, k)):
            for r0, r1 in windows:
                same(reader[k0:k1, r0:r1], whole[k0:k1, r0:r1])
            same(reader[k0:k1], whole[k0:k1])
        for r0, r1 in windows:
            same(reader[:, r0:r1], whole[:, r0:r1])
        for plane in (0, k - 1, -1, -k):
            same(reader[plane], whole[plane])
            same(reader[plane, h - 1:], whole[plane, h - 1:])
        # slice bounds clip as numpy clips them
        same(reader[k - 1:k + 3, -2:h + 3], whole[k - 1:k + 3, -2:h + 3])
        same(reader[k:0], whole[k:0])
        first = reader[0]
        first[...] = 7.0
        same(reader[0], whole[0])

    @pytest.mark.parametrize("shape", [(5, 70, 9), (1, 70, 9), (4, 1, 9), (1, 1, 1)])
    def test_windows_equal_read_stack_slices(self, tmp_path, shape):
        path, (whole, meta) = self.stack(tmp_path, shape)
        with StackReader(path) as reader:
            assert (reader.shape, reader.size, reader.metadata) == (shape, whole.size, meta)
            self.assert_windows(reader, whole)

    def test_windows_outside_the_stack_raise(self, tmp_path):
        path, _ = self.stack(tmp_path, (5, 70, 9))
        with StackReader(path) as reader:
            # an index never reads planes other than those it names
            for plane in (5, -6, 70):
                with pytest.raises(IndexError, match=f"plane {plane} outside a stack of 5"):
                    reader[plane]
            for index in (slice(0, 5, 2), slice(None, None, -1), (slice(None), slice(0, 70, 2)),
                          (1, slice(70, 0, -1))):
                with pytest.raises(IndexError, match="expected a slice with a unit step"):
                    reader[index]
            with pytest.raises(IndexError, match=r"expected a slice with a unit step, got 3\b"):
                reader[1, 3]
            # numpy takes these, a reader does not
            for index in ((0, 1, 2), ..., [0, 1], 1.0, (1.0, slice(None))):
                with pytest.raises(IndexError, match="expected a plane or a slice of planes, got "
                                   + re.escape(repr(index))):
                    reader[index]

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
            reader[1:4, 32:64]
            # one read per plane, of its rows only
            assert read == [(32 + ((1 + j) * 70 + 32) * 9 * 4, 32 * 9 * 4) for j in range(3)]
            read.clear()
            reader[2:5]
            # whole planes too: one read per plane
            assert read == [(32 + (2 + j) * 70 * 9 * 4, 70 * 9 * 4) for j in range(3)]

    def test_short_reads_are_resumed(self, tmp_path, monkeypatch):
        path, (whole, _) = self.stack(tmp_path, (5, 70, 9))
        preadv = os.preadv
        monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset:
                            preadv(fd, [memoryview(buffers[0])[:7]], offset))
        with StackReader(path) as reader:
            assert reader[:, 3:40].tobytes() == np.ascontiguousarray(whole[:, 3:40]).tobytes()
            assert reader[:].tobytes() == whole.tobytes()

    def test_file_truncated_after_opening(self, tmp_path):
        path, _ = self.stack(tmp_path, (5, 70, 9))
        with StackReader(path) as reader:
            os.truncate(path, 32 + 3 * 70 * 9 * 4)
            reader[0:3]
            with pytest.raises(StackFormatError, match="payload ends at byte"):
                reader[2:4]

    def test_fifo_windows(self, tmp_path):
        path, (whole, _) = self.stack(tmp_path, (5, 70, 9))
        raw = path.read_bytes()
        fifo = tmp_path / "pipe.aspi"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
        writer.start()
        try:
            with StackReader(fifo) as reader:
                assert reader[1:3, 2:4].tobytes() == np.ascontiguousarray(
                    whole[1:3, 2:4]).tobytes()
                assert reader[:].tobytes() == whole.tobytes()
                self.assert_windows(reader, whole)
        finally:
            writer.join(timeout=10)
