import tracemalloc

import numpy as np
import pytest

from replicagrid.errors import InvalidInputError
from replicagrid.popularity import Popularity, load_popularity, zipf


def test_zipf_examples():
    assert zipf(1, 2.7).probs.tolist() == [1.0]
    assert np.allclose(zipf(4, 0.0).probs, [0.25] * 4)
    expected = np.array([12, 6, 4, 3]) / 25  # H_1(4) = 25/12
    assert np.allclose(zipf(4, 1.0).probs, expected, atol=1e-15)


def test_zipf_validation():
    with pytest.raises(InvalidInputError):
        zipf(0, 1.0)
    with pytest.raises(InvalidInputError):
        zipf(3, -0.5)


def test_zipf_large_catalog_normalizes():
    pop = zipf(10**7, 0.8)
    assert abs(float(pop.probs.sum()) - 1.0) <= 1e-12
    assert np.all(np.diff(pop.probs) <= 0)


def test_popularity_validation():
    with pytest.raises(InvalidInputError):
        Popularity(np.array([0.5, 0.6]))  # increasing
    with pytest.raises(InvalidInputError):
        Popularity(np.array([0.7, 0.2]))  # sum != 1
    with pytest.raises(InvalidInputError):
        Popularity(np.array([1.5, -0.5]))  # nonpositive entry
    with pytest.raises(InvalidInputError):
        Popularity(np.array([]))


def test_zipf_hands_over_its_array_without_a_copy():
    # 2^20 probabilities are 8 MiB; a copy in Popularity would make the
    # peak about twice that.
    tracemalloc.start()
    try:
        pop = zipf(2**20, 0.8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 2**20
    assert not pop.probs.flags.writeable


@pytest.mark.parametrize("m, tau, first", [(64, 1e308, 2), (64, 800.0, 3), (3, 1075.0, 2)])
def test_zipf_names_tau_when_a_popularity_underflows(m, tau, first):
    with pytest.raises(InvalidInputError) as info:
        zipf(m, tau)
    assert str(info.value) == (
        f"tau = {tau:g} is too large for M = {m} files: "
        f"the Zipf popularity of file {first} underflows to 0"
    )


def test_load_popularity(tmp_path):
    path = tmp_path / "pop.txt"
    path.write_text("# comment\n0.7\n0.2  # inline\n\n0.1\n")
    pop = load_popularity(str(path))
    assert pop.probs.tolist() == [0.7, 0.2, 0.1]
    bad = tmp_path / "bad.txt"
    bad.write_text("0.7\nnot-a-number\n")
    with pytest.raises(InvalidInputError):
        load_popularity(str(bad))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(InvalidInputError):
        load_popularity(str(empty))


def test_probs_are_read_only():
    pop = zipf(5, 1.0)
    with pytest.raises(ValueError):
        pop.probs[0] = 0.9
