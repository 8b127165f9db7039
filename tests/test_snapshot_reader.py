"""The one RPRESNAP reader: foreign byteorder, truncation / corruption
sweep, and one open per file at boot.

The tests walk the file with their own few lines of ``struct`` (the
reference the reader is held to) to find every directory boundary.
"""

from __future__ import annotations

import math
import struct
from array import array

import pytest

from repro.estimators import snapshot as snap
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.exceptions import EstimatorError
from repro.hierarchy import MultiLevelOverlay
from repro.serve import ServiceConfig, open_service

TABLE_NAMES = ("node_ids", "node_cell", "to_boundary", "from_boundary", "cell_pair")
LEVEL_NAMES = ("src", "dst", "off", "xs", "ys")
#: byte offset of each fixed-header field (``<8sHBBHHIIdd32s``)
HEADER_FIELDS = {
    "magic": (0, "8s"),
    "version": (8, "H"),
    "byteorder": (10, "B"),
    "metric": (11, "B"),
    "nx": (12, "H"),
    "ny": (14, "H"),
    "node_count": (16, "I"),
    "cell_count": (20, "I"),
    "v_max": (24, "d"),
    "prep_secs": (32, "d"),
}
#: the same for the overlay header (``<4sHHHHddd``), relative to its start
OVERLAY_FIELDS = {
    "magic": (0, "4s"),
    "level_count": (4, "H"),
    "base_nx": (6, "H"),
    "base_ny": (8, "H"),
    "fanout": (10, "H"),
    "horizon_lo": (12, "d"),
    "horizon_hi": (20, "d"),
    "build_secs": (28, "d"),
}


@pytest.fixture(scope="module")
def fingerprint(metro_tiny):
    return snap.network_fingerprint(metro_tiny)


@pytest.fixture(scope="module")
def images(metro_tiny, fingerprint, tmp_path_factory):
    """``{"v1": bytes, "v2": bytes}`` of metro_tiny plus what was saved."""
    work = tmp_path_factory.mktemp("images")
    tables = BoundaryNodeEstimator(metro_tiny, 4, 4).tables
    overlay = MultiLevelOverlay.build(metro_tiny, levels=2)
    snap.save_tables(tables, work / "v1.snap", fingerprint)
    snap.save_tables(tables, work / "v2.snap", fingerprint, overlay=overlay)
    return {
        "v1": (work / "v1.snap").read_bytes(),
        "v2": (work / "v2.snap").read_bytes(),
        "tables": tables,
        "overlay": overlay,
    }


def directory(data: bytes) -> tuple[list[int], list[tuple[int, int, str]], int]:
    """``(boundaries, payloads, overlay_start)`` of a well-formed image:
    every offset where a header or payload starts or ends, each array
    payload as ``(start, end, typecode)``, and where the overlay header
    starts (``len(data)`` in a version-1 file)."""
    offset = snap._HEADER.size
    boundaries, payloads = [0, offset], []

    def arrays() -> None:
        nonlocal offset
        for _ in range(5):
            typecode, itemsize, count = snap._ARRAY_HEADER.unpack_from(data, offset)
            offset += snap._ARRAY_HEADER.size
            boundaries.append(offset)
            payloads.append((offset, offset + itemsize * count, chr(typecode)))
            offset += itemsize * count
            boundaries.append(offset)

    arrays()
    overlay_start = offset
    if struct.unpack_from("<H", data, 8)[0] == snap.SNAPSHOT_VERSION_OVERLAY:
        level_count = snap._OVERLAY_HEADER.unpack_from(data, offset)[1]
        offset += snap._OVERLAY_HEADER.size
        boundaries.append(offset)
        for _ in range(level_count):
            offset += snap._LEVEL_HEADER.size
            boundaries.append(offset)
            arrays()
    assert offset == len(data)
    return boundaries, payloads, overlay_start


def poke(data: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(data)
    struct.pack_into("<" + fmt, out, offset, value)
    return bytes(out)


def assert_all_refuse(path, network, fingerprint, why):
    """The three reads each raise a one-line ``EstimatorError``."""
    for read in (
        lambda: snap.map_tables(path, fingerprint),
        lambda: snap.map_overlay(path, network),
        lambda: snap.Snapshot(path).describe(),
    ):
        with pytest.raises(EstimatorError) as caught:
            read()
        assert "\n" not in str(caught.value), why


class TestForeignByteorder:
    """The one copy left: a file whose byteorder byte names the other
    endianness is read into private, byte-swapped arrays."""

    def _foreign(self, data: bytes) -> bytes:
        out = bytearray(data)
        out[HEADER_FIELDS["byteorder"][0]] ^= 1
        for start, end, typecode in directory(data)[1]:
            swapped = array(typecode)
            swapped.frombytes(data[start:end])
            swapped.byteswap()
            out[start:end] = swapped.tobytes()
        return bytes(out)

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_tables_equal_native_as_private_arrays(
        self, images, version, fingerprint, tmp_path
    ):
        path = tmp_path / "foreign.snap"
        path.write_bytes(self._foreign(images[version]))
        tables = snap.map_tables(path, fingerprint)
        assert not tables.zero_copy
        for name in TABLE_NAMES:
            store = getattr(tables, name)
            assert isinstance(store, array)
            assert store == getattr(images["tables"], name)
        assert (tables.nx, tables.ny, tables.metric) == (4, 4, "time")
        assert tables.v_max == images["tables"].v_max

    def test_overlay_equals_native_as_private_arrays(
        self, images, metro_tiny, tmp_path
    ):
        path = tmp_path / "foreign.snap"
        path.write_bytes(self._foreign(images["v2"]))
        overlay = snap.map_overlay(path, metro_tiny)
        native = images["overlay"]
        assert overlay.level_count == native.level_count
        for got, want in zip(overlay.levels, native.levels):
            for name in LEVEL_NAMES:
                store = getattr(got, name)
                assert isinstance(store, array)
                assert store == getattr(want, name)

    def test_describe_names_the_byteorder(self, images, tmp_path):
        path = tmp_path / "foreign.snap"
        path.write_bytes(self._foreign(images["v2"]))
        native = tmp_path / "native.snap"
        native.write_bytes(images["v2"])
        foreign_doc = snap.Snapshot(path).describe()
        native_doc = snap.Snapshot(native).describe()
        assert foreign_doc.pop("byteorder") != native_doc.pop("byteorder")
        assert foreign_doc == native_doc


class TestSweep:
    """No prefix and no implausible header field gets past the walk: a
    one-line ``EstimatorError`` from all three reads, never a
    ``struct.error`` / ``ValueError`` / ``IndexError`` or a partial object."""

    STRIDE = 211

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_every_prefix_is_refused(
        self, images, version, metro_tiny, fingerprint, tmp_path
    ):
        data = images[version]
        cuts = set(range(0, len(data), self.STRIDE))
        for boundary in directory(data)[0]:
            cuts.update((boundary - 1, boundary, boundary + 1))
        path = tmp_path / "cut.snap"
        for cut in sorted(c for c in cuts if 0 <= c < len(data)):
            path.write_bytes(data[:cut])
            assert_all_refuse(path, metro_tiny, fingerprint, f"cut at {cut}")

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_trailing_bytes_are_refused(
        self, images, version, metro_tiny, fingerprint, tmp_path
    ):
        path = tmp_path / "long.snap"
        path.write_bytes(images[version] + b"\0")
        assert_all_refuse(path, metro_tiny, fingerprint, "one byte too many")

    @pytest.mark.parametrize("version", ["v1", "v2"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("magic", b"NOTASNAP"),
            ("version", 0),
            ("version", 3),
            ("byteorder", 2),
            ("metric", 9),
            ("nx", 0),
            ("nx", 65535),
            ("ny", 0),
            ("node_count", 0),
            ("node_count", 2**32 - 1),
            ("cell_count", 0),
            ("cell_count", 2**32 - 1),
            ("v_max", math.nan),
            ("v_max", -1.0),
            ("v_max", math.inf),
            ("prep_secs", math.nan),
            ("prep_secs", -1.0),
        ],
    )
    def test_implausible_header_field_is_refused(
        self, images, version, field, value, metro_tiny, fingerprint, tmp_path
    ):
        offset, fmt = HEADER_FIELDS[field]
        path = tmp_path / "bad.snap"
        path.write_bytes(poke(images[version], offset, fmt, value))
        assert_all_refuse(path, metro_tiny, fingerprint, f"{field}={value!r}")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("magic", b"NOPE"),
            ("level_count", 0),
            ("level_count", 65535),
            ("base_nx", 0),
            ("base_ny", 0),
            ("fanout", 0),
            ("fanout", 1),
            ("horizon_lo", math.nan),
            ("horizon_lo", 1e9),
            ("horizon_hi", math.inf),
            ("build_secs", -1.0),
        ],
    )
    def test_implausible_overlay_header_field_is_refused(
        self, images, field, value, metro_tiny, fingerprint, tmp_path
    ):
        data = images["v2"]
        offset, fmt = OVERLAY_FIELDS[field]
        path = tmp_path / "bad.snap"
        path.write_bytes(poke(data, directory(data)[2] + offset, fmt, value))
        assert_all_refuse(path, metro_tiny, fingerprint, f"{field}={value!r}")

    def test_wrong_array_typecode_is_refused(
        self, images, metro_tiny, fingerprint, tmp_path
    ):
        data = images["v2"]
        path = tmp_path / "bad.snap"
        for start, _end, _typecode in directory(data)[1]:
            path.write_bytes(poke(data, start - snap._ARRAY_HEADER.size, "B", ord("f")))
            assert_all_refuse(path, metro_tiny, fingerprint, f"array at {start}")


class TestOneOpenPerBoot:
    @pytest.fixture()
    def counted(self, monkeypatch):
        """Counts of ``mmap`` and ``network_fingerprint`` calls."""
        calls = {"mmap": 0, "fingerprint": 0}
        real_mmap, real_fingerprint = snap.mmap.mmap, snap.network_fingerprint

        def counting_mmap(*args, **kwargs):
            calls["mmap"] += 1
            return real_mmap(*args, **kwargs)

        def counting_fingerprint(network):
            calls["fingerprint"] += 1
            return real_fingerprint(network)

        monkeypatch.setattr(snap.mmap, "mmap", counting_mmap)
        monkeypatch.setattr(snap, "network_fingerprint", counting_fingerprint)
        return calls

    def test_one_file_for_both_is_opened_and_fingerprinted_once(
        self, images, metro_tiny, tmp_path, counted
    ):
        path = tmp_path / "both.snap"
        path.write_bytes(images["v2"])
        service, info = open_service(
            metro_tiny,
            config=ServiceConfig(),
            snapshot_path=path,
            overlay_path=str(path),
        )
        try:
            assert counted == {"mmap": 1, "fingerprint": 1}
            assert info["tables_mode"] == info["overlay_mode"] == "mmap"
            assert info["errors"] == []
            assert not service.health()["degraded"]
        finally:
            service.close()

    def test_two_files_are_two_opens_and_one_fingerprint(
        self, images, metro_tiny, tmp_path, counted
    ):
        tables, overlay = tmp_path / "tables.snap", tmp_path / "overlay.snap"
        tables.write_bytes(images["v1"])
        overlay.write_bytes(images["v2"])
        service, info = open_service(
            metro_tiny,
            config=ServiceConfig(),
            snapshot_path=tables,
            overlay_path=overlay,
        )
        try:
            assert counted == {"mmap": 2, "fingerprint": 1}
            assert info["tables_mode"] == info["overlay_mode"] == "mmap"
        finally:
            service.close()

    def test_good_tables_corrupt_overlay_section_degrades_to_flat(
        self, images, metro_tiny, tmp_path
    ):
        # Level 0's shortcut rows made non-contiguous: the file still walks,
        # the table read is whole, the overlay read refuses.
        data = images["v2"]
        start, end, typecode = directory(data)[1][len(TABLE_NAMES)]
        src = array(typecode)
        src.frombytes(data[start:end])
        assert src[0] != src[-1]
        path = tmp_path / "both.snap"
        path.write_bytes(poke(data, start, "q", src[-1]))
        service, info = open_service(
            metro_tiny,
            config=ServiceConfig(),
            snapshot_path=path,
            overlay_path=path,
        )
        try:
            assert info["tables_mode"] == "mmap"
            assert info["overlay_mode"] == "fallback"
            (error,) = info["errors"]
            assert "not contiguous" in error and "\n" not in error
            health = service.health()
            assert health["degraded"]
            assert service.stats()["overlay_levels"] == 0
        finally:
            service.close()
