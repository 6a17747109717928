"""Synthetic digit dataset (the MNIST substitute)."""

import hashlib

import numpy as np
import pytest

from repro.data import digits, loader
from repro.data.digits import CHUNK, IMAGE_SIZE, DigitGenerator, render_digit
from repro.data.loader import load_dataset
from repro.errors import ConfigurationError
from repro.learning import pretrained
from repro.learning.pretrained import _PRESETS, get_reference_model

pytestmark = pytest.mark.data

#: sha256 of ``images.tobytes()`` (float32) and ``labels.tobytes()``
#: (int64) for both splits of both reference-model presets at seed 42.
#: The trained models, the golden captures and every accuracy figure
#: rest on these images, so the renderer must reproduce them bit for
#: bit.
PINNED_SHA256 = {
    ("full", "train"): (
        "6c81ddc98c7b8d22d2fe1a09768715a957aa9d4dc1eb4b421f8702f56dd2887e",
        "12db8473149cd1d40974fb0d6bc3db3875cf860430742a3d88c4bfd8c05416bf",
    ),
    ("full", "test"): (
        "5de19ddb579f40789821470e4977dd5b1ab43b62781f04ebeeb5f933c6448749",
        "5dfaf326c928927d2549a5d42acc5da1b365020833f33472d8a91e21d2ae2d43",
    ),
    ("fast", "train"): (
        "b7382833dd81b82545a3732b935e5c369ee2caa6bce8b9d49b2139a29cf9d005",
        "34347b0cdc7156e7e9b8f7ef8effe7ce3a3b169e1f01767e80e90c2f8e6809b1",
    ),
    ("fast", "test"): (
        "8100e647e15af2c463131b4e5ad4185e3a70f0c060224b253ad77e5c5a63b905",
        "4194f0621e336b410c317484190612475eac41e99b8f9bcd9f3e293fc9af34a8",
    ),
}


def split_sha256(dataset, split: str) -> tuple[str, str]:
    """sha256 of one split's images and labels, checking their dtypes."""
    images = getattr(dataset, f"{split}_images")
    labels = getattr(dataset, f"{split}_labels")
    assert images.dtype == np.float32 and labels.dtype == np.int64
    return (hashlib.sha256(images.tobytes()).hexdigest(),
            hashlib.sha256(labels.tobytes()).hexdigest())


class TestRenderDigit:
    def test_shape_and_range(self):
        img = render_digit(3, np.random.default_rng(0))
        assert img.shape == (IMAGE_SIZE, IMAGE_SIZE)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_all_classes_render_nonempty(self):
        for digit in range(10):
            img = render_digit(digit, np.random.default_rng(1))
            assert img.sum() > 5.0, f"digit {digit} rendered empty"

    def test_canonical_glyphs_differ(self):
        """Without jitter, the ten classes are pairwise distinct."""
        glyphs = [render_digit(d, jitter=False) for d in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                diff = np.abs(glyphs[i] - glyphs[j]).mean()
                assert diff > 0.01, (i, j)

    def test_jitter_varies_instances(self):
        rng = np.random.default_rng(7)
        a = render_digit(5, rng)
        b = render_digit(5, rng)
        assert np.abs(a - b).mean() > 1e-3

    def test_rejects_bad_digit(self):
        with pytest.raises(ConfigurationError):
            render_digit(10)

    @pytest.mark.parametrize("digit", [True, 3.0, "3", -1], ids=repr)
    def test_rejects_a_digit_that_is_not_an_integer_in_range(self, digit):
        """``render_digit(True)`` and ``render_digit(3.0)`` rendered a 1
        and a 3."""
        with pytest.raises(ConfigurationError, match="digit"):
            render_digit(digit)

    def test_accepts_a_numpy_digit(self):
        image = render_digit(np.int64(3), np.random.default_rng(0))
        assert image.tobytes() == (
            render_digit(3, np.random.default_rng(0)).tobytes())


def per_segment_ink(a, b, pen):
    """Reference rasteriser: every segment against every pixel, in turn."""
    gy, gx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE].astype(np.float64)
    img = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    for a_k, b_k in zip(a, b):
        ab = b_k - a_k
        t = np.clip(((gx - a_k[0]) * ab[0] + (gy - a_k[1]) * ab[1])
                    / float(ab @ ab), 0.0, 1.0)
        dist = np.hypot(gx - (a_k[0] + t * ab[0]), gy - (a_k[1] + t * ab[1]))
        img = np.maximum(img, np.clip(1.0 + pen - dist, 0.0, 1.0))
    return img


class TestRasteriserBitExact:
    """The vectorised passes against plain references, bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_ink_matches_per_segment_reference(self, seed):
        """A stack of images, each with its own segments and pen, against
        the reference drawing each image alone."""
        rng = np.random.default_rng(seed)
        n_images, n_segments = 5, 60
        # Segments of 0.5-20 px, some reaching past the image's edges.
        a = rng.uniform(-4.0, IMAGE_SIZE + 3.0, (n_segments, 2))
        step = rng.uniform(0.5, 20.0, (n_segments, 1))
        angle = rng.uniform(0.0, 2.0 * np.pi, (n_segments, 1))
        b = a + step * np.hstack([np.cos(angle), np.sin(angle)])
        image = rng.permutation(np.arange(n_segments) % n_images)
        pens = rng.uniform(0.95, 1.45, n_images)
        stack = digits._ink(a, b, pens, image)
        assert stack.shape == (n_images, IMAGE_SIZE, IMAGE_SIZE)
        for i, pen in enumerate(pens):
            mine = image == i
            assert stack[i].tobytes() == (
                per_segment_ink(a[mine], b[mine], pen).tobytes())

    def test_ink_at_exactly_one_and_one_plus_pen(self):
        """Axis-aligned segments at integer coordinates with pen 1: whole
        rows and columns lie at exactly 1 + pen (zero ink), the edge of
        the window a segment visits, and at exactly 1 (full ink)."""
        a = np.array([[6.0, 10.0], [14.0, 5.0]])
        b = np.array([[20.0, 10.0], [14.0, 22.0]])
        pens = np.array([1.0, 1.0])
        stack = digits._ink(a, b, pens, np.array([0, 1]))
        for i in range(2):
            assert stack[i].tobytes() == (
                per_segment_ink(a[i:i + 1], b[i:i + 1], 1.0).tobytes())
        horizontal, vertical = stack
        assert (horizontal[[8, 12]] == 0.0).all()
        assert (horizontal[[9, 11], 6:21] == 1.0).all()
        assert (horizontal[10, [4, 22]] == 0.0).all()
        assert (horizontal[10, [5, 21]] == 1.0).all()
        assert (vertical[:, [12, 16]] == 0.0).all()
        assert (vertical[5:23, [13, 15]] == 1.0).all()

    def test_blur_matches_convolve(self):
        """Each image of a stack, blurred along rows, then columns."""
        stack = np.random.default_rng(3).random((3, IMAGE_SIZE, IMAGE_SIZE))
        k = np.array([0.25, 0.5, 0.25])
        for img, blurred in zip(stack, digits._blur3(stack)):
            rows = np.apply_along_axis(np.convolve, 1, img, k, mode="same")
            both = np.apply_along_axis(np.convolve, 0, rows, k, mode="same")
            assert blurred.tobytes() == both.tobytes()


class TestDigitGenerator:
    def test_deterministic(self):
        a_imgs, a_labels = DigitGenerator(seed=3).generate(20)
        b_imgs, b_labels = DigitGenerator(seed=3).generate(20)
        assert a_labels.tobytes() == b_labels.tobytes()
        assert a_imgs.tobytes() == b_imgs.tobytes()

    def test_respects_class_subset(self):
        _, labels = DigitGenerator(seed=1).generate(50, classes=(3, 7))
        assert set(labels.tolist()).issubset({3, 7})

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 2])
    def test_matches_rendering_one_image_at_a_time(self, n):
        """The stacked render against the algorithm it replaced: every
        label first, then each image drawn and rendered in turn."""
        classes = (2, 5, 8)
        rng = np.random.default_rng(21)
        labels = rng.choice(np.asarray(classes, dtype=np.int64), size=n)
        images = np.stack([render_digit(int(label), rng) for label in labels])
        got_images, got_labels = DigitGenerator(seed=21).generate(n, classes)
        assert got_labels.tobytes() == labels.tobytes()
        assert got_images.tobytes() == images.astype(np.float32).tobytes()

    @pytest.mark.parametrize("classes", [(3, 3.5), ("3",), (True, False),
                                         (3, 10), (-1,)], ids=str)
    def test_rejects_a_class_that_is_not_a_digit(self, classes):
        """``(3, 3.5)`` rendered every 3.5 as a 3; strings and bools were
        accepted.  The check comes before any draw."""
        generator = DigitGenerator(seed=4)
        with pytest.raises(ConfigurationError, match="classes"):
            generator.generate(6, classes)
        assert generator.generate(6)[0].tobytes() == (
            DigitGenerator(seed=4).generate(6)[0].tobytes())

    @pytest.mark.parametrize("n", [6.0, 2.5, True, "6"], ids=repr)
    def test_rejects_a_count_that_is_not_an_integer(self, n):
        with pytest.raises(ConfigurationError, match="n must be an integer"):
            DigitGenerator().generate(n)

    @pytest.mark.parametrize("seed", [True, 2.5, "3", -1], ids=repr)
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        """``DigitGenerator(True)`` drew from seed 1."""
        with pytest.raises(ConfigurationError, match="seed"):
            DigitGenerator(seed)

    def test_accepts_numpy_integers(self):
        images, labels = DigitGenerator(seed=6).generate(
            np.int64(5), np.array([1, 7]))
        expected = DigitGenerator(seed=6).generate(5, (1, 7))
        assert images.tobytes() == expected[0].tobytes()
        assert labels.tobytes() == expected[1].tobytes()

    def test_rejects_bad_args(self):
        gen = DigitGenerator()
        with pytest.raises(ConfigurationError):
            gen.generate(0)
        with pytest.raises(ConfigurationError):
            gen.generate(5, classes=())


class TestLoader:
    def test_split_sizes(self):
        ds = load_dataset(n_train=100, n_test=40, seed=9)
        assert ds.n_train == 100 and ds.n_test == 40

    def test_cached(self):
        a = load_dataset(50, 20, seed=11)
        b = load_dataset(50, 20, seed=11)
        assert a is b

    def test_train_test_disjoint_generators(self):
        ds = load_dataset(60, 60, seed=13)
        # Different generator seeds: the splits are not identical.
        assert not np.allclose(ds.train_images[:10], ds.test_images[:10])

    def test_class_balance_roughly_uniform(self):
        ds = load_dataset(1000, 10, seed=17)
        balance = ds.class_balance()
        assert balance.min() > 0.05 and balance.max() < 0.16

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            load_dataset(0, 10)

    @pytest.mark.parametrize("field,value", [
        ("n_train", 100.5), ("n_train", True), ("n_test", 40.0),
        ("seed", 9.0), ("seed", True), ("seed", "9"), ("seed", -1),
    ])
    def test_rejects_a_size_or_seed_that_is_not_an_integer(self, field,
                                                           value):
        """``n_train=100.5`` was accepted and failed on the first read of
        the training split; ``n_test=40.0`` and ``seed=9.0`` failed with
        numpy's TypeError."""
        arguments = {"n_train": 100, "n_test": 40, "seed": 9, field: value}
        with pytest.raises(ConfigurationError, match=field):
            load_dataset(**arguments)

    def test_numpy_integers_share_the_cache_entry(self):
        assert load_dataset(np.int64(50), np.int64(20),
                            seed=np.int64(11)) is load_dataset(50, 20, 11)

    @pytest.mark.parametrize("quality,split", list(PINNED_SHA256), ids=str)
    def test_reference_splits_pinned(self, quality, split):
        preset = _PRESETS[quality]
        ds = load_dataset(preset["n_train"], preset["n_test"], seed=42)
        assert split_sha256(ds, split) == PINNED_SHA256[quality, split]


class TestLazyTrainingSplit:
    def test_cached_model_renders_only_the_test_split(
            self, tmp_path, monkeypatch, fast_model):
        """A disk-cache hit renders ``n_test`` digits and no more.

        The training split waits for its first read, and then matches
        its pin.  Fresh in-memory caches leave the ones other tests
        share untouched.
        """
        monkeypatch.setattr(pretrained, "_ARTIFACT_DIR", tmp_path)
        monkeypatch.setattr(pretrained, "_MEMORY_CACHE", {})
        monkeypatch.setattr(loader, "_CACHE", {})
        pretrained._save(pretrained._cache_path("fast", 42),
                         fast_model.snn, fast_model.test_accuracy)
        rendered, render = [], digits._render

        def counting_render(labels, *args):
            rendered.extend(labels.tolist())
            return render(labels, *args)

        monkeypatch.setattr(digits, "_render", counting_render)
        model = get_reference_model("fast", 42)
        n_test = _PRESETS["fast"]["n_test"]
        assert len(rendered) == n_test == model.dataset.n_test
        assert model.dataset.n_train == 1500
        assert len(rendered) == n_test
        assert split_sha256(model.dataset, "train") == PINNED_SHA256[
            "fast", "train"]
        assert len(rendered) == n_test + 1500
