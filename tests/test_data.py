"""Data: file formats, synthetic generation oracles and subsets."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tpp.data import (Dataset, SyntheticTaskSpec,
                      bilinear_resize, generate_synthetic, load_folder,
                      nearest_resize, read_pnm, read_tppt, subset)
from tpp.errors import ArgumentError, StructuralError
from tpp.rng import SeededRng

from _fixtures import write_pnm, write_tppt


class TestPnm:
    def test_pgm_roundtrip_and_scaling(self, tmp_path):
        img = np.zeros((1, 3, 2))
        img[0, 0, 0] = 1.0
        img[0, 2, 1] = 128.0 / 255.0
        path = str(tmp_path / "x.pgm")
        write_pnm(path, img, maxval=255)
        back = read_pnm(path)
        assert back.shape == (1, 3, 2)
        assert back[0, 0, 0] == 1.0  # pixel 255 at maxval 255 scales to exactly 1
        assert back[0, 2, 1] == pytest.approx(128.0 / 255.0)

    def test_ppm_three_channels(self, tmp_path):
        img = np.random.default_rng(0).random((3, 4, 5))
        path = str(tmp_path / "x.ppm")
        write_pnm(path, img, maxval=255)
        back = read_pnm(path)
        assert back.shape == (3, 4, 5)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(StructuralError):
            read_pnm(str(path))

    def test_16bit_maxval(self, tmp_path):
        img = np.array([[[0.0, 1.0]]])
        path = str(tmp_path / "deep.pgm")
        write_pnm(path, img, maxval=65535)
        back = read_pnm(path)
        assert back[0, 0, 1] == 1.0


class TestTppt:
    def test_roundtrip_bit_identical(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((2, 5, 3))
        path = str(tmp_path / "t.tppt")
        write_tppt(path, arr)
        back = read_tppt(path)
        assert np.array_equal(back, arr)
        assert back.dtype == np.float64

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tppt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(StructuralError):
            read_tppt(str(path))


class TestMalformedFiles:
    """A malformed PNM or TPPT file is a StructuralError naming it, never a traceback."""

    @staticmethod
    def _expect_structural(path, blob: bytes, reader, match: str) -> None:
        path.write_bytes(blob)
        with pytest.raises(StructuralError, match=match) as exc:
            reader(str(path))
        assert str(path) in str(exc.value)

    def test_non_numeric_pnm_width(self, tmp_path):
        self._expect_structural(tmp_path / "bad.pgm", b"P5\nab 4\n255\n" + bytes(16),
                                read_pnm, "malformed PNM header")

    def test_pnm_header_cut_short(self, tmp_path):
        self._expect_structural(tmp_path / "bad.pgm", b"P5\n4 4", read_pnm,
                                "unexpected end of PNM header")

    def test_zero_pnm_width(self, tmp_path):
        self._expect_structural(tmp_path / "bad.pgm", b"P5\n0 4\n255\n", read_pnm,
                                "bad size 0x4")

    def test_tppt_shorter_than_rank_field(self, tmp_path):
        self._expect_structural(tmp_path / "bad.tppt", b"TPPT\x02\x00", read_tppt,
                                "malformed TPPT file")

    def test_tppt_dims_beyond_numpy(self, tmp_path):
        blob = b"TPPT" + struct.pack("<I", 2) + struct.pack("<2Q", 0, 2 ** 63)
        self._expect_structural(tmp_path / "bad.tppt", blob, read_tppt, "malformed TPPT file")

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), fmt=st.sampled_from(["pgm", "tppt"]),
           slot=st.sampled_from(["image", "mask"]))
    def test_truncations_and_byte_flips_load_or_fail_structurally(self, tmp_path, data, fmt,
                                                                  slot):
        """A drawn file, maybe truncated or flipped, is read alone and then from a
        folder's image or mask slot. It loads only if it passes the per-file checks."""
        if fmt == "pgm":
            shape = (data.draw(st.sampled_from([1, 3])), *data.draw(
                st.tuples(st.integers(1, 4), st.integers(1, 4)), label="hw"))
            image = np.random.default_rng(3).random(shape)
        else:
            shape = data.draw(st.sampled_from([(4, 3), (1, 4, 3), (2, 4, 3)])
                              | hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
                              label="shape")
            image = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(0, 1)))
            if image.size and data.draw(st.booleans(), label="poison"):
                image.flat[data.draw(st.integers(0, image.size - 1))] = data.draw(
                    st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
        if slot == "mask":
            image = np.rint(image)
        root = tmp_path / f"example{len(list(tmp_path.iterdir()))}"
        # the companion image has the drawn file's size, or a fixed one
        hw = image.shape[-2:] if image.ndim >= 2 and 0 not in image.shape[-2:] \
            and data.draw(st.booleans(), label="same size") else (4, 3)
        good = np.random.default_rng(4).random((1, *hw))
        if slot == "image":  # a classification folder with one good image beside it
            (root / "a").mkdir(parents=True)
            write_pnm(str(root / "a" / "good.pgm"), good)
            path = root / "a" / f"fuzz.{fmt}"
        else:  # a segmentation folder whose one mask is drawn
            (root / "images").mkdir(parents=True)
            (root / "masks").mkdir()
            write_pnm(str(root / "images" / "fuzz.pgm"), good)
            path = root / "masks" / f"fuzz.{fmt}"
        if fmt == "pgm":
            write_pnm(str(path), image)
            reader = read_pnm
        else:
            write_tppt(str(path), image)
            reader = read_tppt
        blob = bytearray(path.read_bytes())
        damage = data.draw(st.sampled_from(["none", "truncate", "flip"]), label="damage")
        if damage == "truncate":
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        elif damage == "flip":
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(bytes(blob))
        try:
            loaded = reader(str(path))
        except StructuralError:
            loaded = None
        assert loaded is None or loaded.dtype == np.float64
        try:
            ds = load_folder(str(root), image_size=5)
        except StructuralError:
            return
        # it loaded: the file was a finite, non-empty [H,W] or one-channel [1,H,W] array
        assert loaded is not None and np.isfinite(loaded).all() and 0 not in loaded.shape
        assert loaded.ndim == 2 or (loaded.ndim == 3 and loaded.shape[0] == 1)
        n = 2 if slot == "image" else 1
        assert ds.images.shape == (n, 1, 5, 5) and np.isfinite(ds.images).all()
        assert len(ds.ids) == n
        if slot == "image":
            assert ds.labels.tolist() == [0, 0] and ds.masks is None
        else:  # a mask has its image's size as read
            assert loaded.shape[-2:] == hw
            assert ds.masks.shape == (1, 5, 5) and ds.masks.dtype == np.intp


class TestLoadFolder:
    def _write_cls_tree(self, root, per_class=3):
        rng = np.random.default_rng(2)
        for cls in ("benign", "malignant"):
            d = root / cls
            d.mkdir(parents=True)
            for i in range(per_class):
                write_pnm(str(d / f"img{i}.pgm"), rng.random((1, 8, 8)))

    def test_classification_layout(self, tmp_path):
        self._write_cls_tree(tmp_path)
        ds = load_folder(str(tmp_path), image_size=8)
        assert len(ds) == 6
        assert ds.task == "classification"
        assert ds.class_names == ["benign", "malignant"]  # sorted order -> labels 0,1
        assert ds.labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert ds.ids == sorted(ds.ids)
        assert ds.images.shape == (6, 1, 8, 8) and ds.masks is None

    def test_resize_on_load(self, tmp_path):
        self._write_cls_tree(tmp_path)
        ds = load_folder(str(tmp_path), image_size=16)
        assert ds.images.shape == (6, 1, 16, 16)

    def test_empty_class_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        write_pnm(str(tmp_path / "a" / "x.pgm"), np.zeros((1, 4, 4)))
        with pytest.raises(StructuralError):
            load_folder(str(tmp_path), image_size=4)

    def test_segmentation_layout(self, tmp_path):
        rng = np.random.default_rng(3)
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        for i in range(4):
            write_pnm(str(tmp_path / "images" / f"s{i}.pgm"), rng.random((1, 8, 8)))
            mask = (rng.random((1, 8, 8)) > 0.5).astype(np.float64)
            write_pnm(str(tmp_path / "masks" / f"s{i}.pgm"), mask)
        ds = load_folder(str(tmp_path), image_size=8)
        assert ds.task == "segmentation"
        assert len(ds) == 4
        assert ds.images.shape == (4, 1, 8, 8) and ds.masks.shape == (4, 8, 8)
        assert set(np.unique(ds.masks)) <= {0, 1} and ds.labels is None

    def test_missing_mask_rejected(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        write_pnm(str(tmp_path / "images" / "s0.pgm"), np.zeros((1, 4, 4)))
        with pytest.raises(StructuralError):
            load_folder(str(tmp_path), image_size=4)


class TestResize:
    def test_identity_when_sizes_match(self):
        img = np.random.default_rng(4).random((1, 6, 6))
        assert np.array_equal(bilinear_resize(img, 6, 6), img)

    def test_corner_alignment(self):
        # corner pixels must be preserved exactly under corner-aligned sampling
        img = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = bilinear_resize(img, 7, 7)
        assert out[0, 0, 0] == img[0, 0, 0]
        assert out[0, -1, -1] == img[0, -1, -1]
        assert out[0, 0, -1] == img[0, 0, -1]

    def test_linear_ramp_interpolates_exactly(self):
        ramp = np.linspace(0, 1, 5)[None, None, :].repeat(5, axis=1)
        out = bilinear_resize(ramp, 5, 9)
        assert np.allclose(out[0, 0], np.linspace(0, 1, 9), atol=1e-12)

    def test_nearest_for_masks_keeps_labels(self):
        mask = np.array([[0, 1], [2, 3]])
        out = nearest_resize(mask, 4, 4)
        assert set(np.unique(out)) <= {0, 1, 2, 3}
        assert out[0, 0] == 0 and out[-1, -1] == 3


class TestSynthetic:
    def test_zero_noise_centroid_classifier_is_perfect(self):
        spec = SyntheticTaskSpec(num_classes=4, image_size=16, noise=0.0,
                                 train_count=32, val_count=8, test_count=8)
        splits = generate_synthetic(spec, SeededRng(0, "data"))
        train = splits.train
        # brute-force nearest-centroid oracle on raw pixels
        images = train.images.reshape(len(train), -1)
        labels = train.labels
        centroids = np.stack([images[labels == c].mean(axis=0) for c in range(4)])
        dists = ((images[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        preds = np.argmin(dists, axis=1)
        assert np.array_equal(preds, labels)

    def test_blob_mask_area_matches_analytic_disk_area(self):
        spec = SyntheticTaskSpec(kind="blob_seg", image_size=32, noise=0.0,
                                 train_count=20, val_count=2, test_count=2)
        splits = generate_synthetic(spec, SeededRng(1, "data"))
        for i, mask in enumerate(splits.train.masks):
            srng = SeededRng(1, "data").child("train").child(f"train/blob{i}")
            radius = float(srng.uniform(low=32 * 0.12, high=32 * 0.3))
            count = int(mask.sum())
            # rasterization bound: pixel centers within sqrt(2)/2 of the circle
            assert abs(count - np.pi * radius ** 2) <= 9 * radius + 2

    def test_same_seed_identical_datasets(self):
        spec = SyntheticTaskSpec(train_count=8, val_count=4, test_count=4)
        a = generate_synthetic(spec, SeededRng(5, "data"))
        b = generate_synthetic(spec, SeededRng(5, "data"))
        for da, db in ((a.train, b.train), (a.val, b.val), (a.test, b.test)):
            assert da.ids == db.ids
            assert np.array_equal(da.images, db.images)
            assert np.array_equal(da.labels, db.labels)

    def test_noise_zero_images_in_unit_range(self):
        spec = SyntheticTaskSpec(train_count=8, val_count=2, test_count=2, noise=0.4)
        splits = generate_synthetic(spec, SeededRng(6, "data"))
        assert splits.train.images.min() >= 0.0 and splits.train.images.max() <= 1.0


class TestSubset:
    def _dataset(self, per_class=100, classes=2):
        n = classes * per_class
        return Dataset(task="classification", images=np.zeros((n, 1, 2, 2)),
                       ids=[f"c{c}i{i:03d}" for c in range(classes) for i in range(per_class)],
                       labels=np.repeat(np.arange(classes), per_class),
                       class_names=[f"c{c}" for c in range(classes)])

    def test_full_ratio_is_identity(self):
        ds = self._dataset()
        out = subset(ds, 1.0, seed=3)
        assert out.ids == ds.ids

    def test_exact_stratified_counts(self):
        ds = self._dataset(per_class=100)
        out = subset(ds, 0.3, seed=3)
        labels = out.labels
        assert int((labels == 0).sum()) == 30
        assert int((labels == 1).sum()) == 30

    def test_nested_monotonicity(self):
        ds = self._dataset(per_class=50)
        previous = None
        for ratio in (0.1, 0.3, 0.5, 0.8):
            ids = set(subset(ds, ratio, seed=9).ids)
            if previous is not None:
                assert previous <= ids
            previous = ids

    def test_out_of_range_ratio_rejected(self):
        ds = self._dataset(per_class=4)
        for ratio in (0.0, -0.5, 1.0001):
            with pytest.raises(ArgumentError):
                subset(ds, ratio, seed=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(5, 40), st.floats(0.05, 1.0))
    def test_property_ceil_per_class(self, per_class, ratio):
        ds = self._dataset(per_class=per_class)
        out = subset(ds, ratio, seed=1)
        expected = int(np.ceil(ratio * per_class))
        labels = out.labels
        assert int((labels == 0).sum()) == expected
        assert int((labels == 1).sum()) == expected
