import numpy as np
import pytest

from hmgrl.config import apply_preset
from hmgrl.errors import DataError, UnknownDrugError, ValidationError
from hmgrl.featurize import (
    SMILES_CLASSES,
    SMILES_EMPTY,
    SMILES_POSITIONS,
    SMILES_UNKNOWN,
    SMILES_VOCAB,
    DrugTable,
    cosine_similarity_matrix,
    encode_smiles,
    pair_attribute_sequence,
    read_drug_table,
    write_drug_table,
)
from hmgrl.model import HmgrlModel


def make_table(rng, n=4, t=6, e=5, s=7):
    return DrugTable(
        ids=[f"D{i:03d}" for i in range(n)],
        smiles=["CCO", "c1ccccc1", "CC(=O)O", "N#N"][:n] + [""] * max(0, n - 4),
        targets=rng.integers(0, 2, size=(n, t)),
        enzymes=rng.integers(0, 2, size=(n, e)),
        substructures=rng.integers(0, 2, size=(n, s)),
    )


def test_cosine_identical_nonzero_is_one():
    m = cosine_similarity_matrix([[1, 0, 1], [1, 0, 1]])
    assert m[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_cosine_disjoint_supports_is_zero():
    m = cosine_similarity_matrix([[1, 1, 0, 0], [0, 0, 1, 1]])
    assert m[0, 1] == 0.0


def test_cosine_hand_value():
    m = cosine_similarity_matrix([[1, 1, 0], [1, 0, 1]])
    assert m[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_cosine_zero_rows_are_zero_even_on_diagonal():
    m = cosine_similarity_matrix([[0, 0], [1, 1]])
    assert m[0, 0] == 0.0 and m[0, 1] == 0.0 and m[1, 0] == 0.0
    assert m[1, 1] == pytest.approx(1.0)


def test_cosine_symmetric_in_unit_range():
    rng = np.random.default_rng(3)
    m = cosine_similarity_matrix(rng.integers(0, 2, size=(12, 9)))
    assert np.allclose(m, m.T)
    assert m.min() >= 0.0 and m.max() <= 1.0 + 1e-12


def test_cosine_length_mismatch():
    with pytest.raises(ValidationError):
        cosine_similarity_matrix(np.array([1, 0, 1]))  # not 2-D


def initial_features(table):
    """The model's N x 3N node features, as its constructor builds them."""
    return HmgrlModel(apply_preset("micro"), table, n_relations=2).initial_features


def test_initial_features_all_identical_attributes():
    table = DrugTable(
        ids=["a", "b"],
        smiles=["C", "C"],
        targets=[[1, 1], [1, 1]],
        enzymes=[[1], [1]],
        substructures=[[1, 0], [1, 0]],
    )
    x = initial_features(table)
    assert x.shape == (2, 6)
    assert np.allclose(x, 1.0)


def test_initial_features_shape_and_content():
    rng = np.random.default_rng(5)
    table = make_table(rng, n=3)
    x = initial_features(table)
    assert x.shape == (3, 9)
    # row u is the concat of u's similarity rows, recomputed independently
    for u in range(3):
        row = []
        for mat in (table.targets, table.enzymes, table.substructures):
            for v in range(3):
                nu, nv = np.linalg.norm(mat[u]), np.linalg.norm(mat[v])
                row.append(0.0 if nu == 0 or nv == 0 else mat[u] @ mat[v] / (nu * nv))
        assert np.allclose(x[u], row, atol=1e-12)


def test_encode_smiles_basic():
    row = encode_smiles("CCO")
    assert row.shape == (SMILES_POSITIONS,) and row.dtype == np.uint8
    c_idx, o_idx = SMILES_VOCAB.index("C"), SMILES_VOCAB.index("O")
    assert row[0] == c_idx and row[1] == c_idx and row[2] == o_idx
    assert (row[3:] == SMILES_EMPTY).all()
    assert (row <= SMILES_EMPTY).all() and SMILES_EMPTY == SMILES_CLASSES


def test_encode_smiles_truncates_long_strings():
    row = encode_smiles("C" * 150)
    assert row.shape == (100,)
    assert (row == SMILES_VOCAB.index("C")).all()


def test_encode_smiles_empty_and_unknown():
    assert (encode_smiles("") == SMILES_EMPTY).all()
    row = encode_smiles("C?C")
    assert row[1] == SMILES_UNKNOWN


def test_encode_smiles_deterministic():
    assert np.array_equal(encode_smiles("c1ccccc1"), encode_smiles("c1ccccc1"))


def test_encode_smiles_injective_up_to_truncation():
    strings = ["CCO", "CCN", "CC", "OCC", "C(=O)O", "c1ccccc1", "C" * 99]
    rows = [encode_smiles(s).tobytes() for s in strings]
    assert len(set(rows)) == len(strings)
    # beyond the window, differences are invisible by design
    assert np.array_equal(encode_smiles("C" * 100), encode_smiles("C" * 100 + "N"))


def test_pair_attribute_sequence():
    assert np.array_equal(pair_attribute_sequence([1, 0, 1], [1, 1, 0]), [2, 1, 1])
    x = np.array([1, 0, 1])
    assert np.array_equal(pair_attribute_sequence(x, np.zeros(3, dtype=int)), x)
    a, b = np.array([1, 1, 0]), np.array([0, 1, 1])
    assert np.array_equal(pair_attribute_sequence(a, b), pair_attribute_sequence(b, a))
    # K x T blocks sum row by row
    rng = np.random.default_rng(0)
    block_a, block_b = rng.integers(0, 2, size=(2, 5, 7))
    per_row = [pair_attribute_sequence(x, y) for x, y in zip(block_a, block_b)]
    assert np.array_equal(pair_attribute_sequence(block_a, block_b), per_row)
    with pytest.raises(ValidationError):
        pair_attribute_sequence([1, 0], [1, 0, 1])
    with pytest.raises(ValidationError):
        pair_attribute_sequence(block_a, block_b[:4])


def test_drug_table_rejects_duplicates_and_nonbinary():
    with pytest.raises(ValidationError):
        DrugTable(["a", "a"], ["C", "C"], [[1], [0]], [[0], [1]], [[1], [1]])
    with pytest.raises(ValidationError):
        DrugTable(["a", "b"], ["C", "C"], [[2], [0]], [[0], [1]], [[1], [1]])


def test_drug_table_lookup():
    rng = np.random.default_rng(7)
    table = make_table(rng)
    assert table.lookup("D002") == 2
    with pytest.raises(UnknownDrugError):
        table.lookup("nope")


def test_drug_table_file_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(11)
    table = make_table(rng, n=6)
    path = tmp_path / "drugs.tsv"
    write_drug_table(path, table)
    loaded = read_drug_table(path)
    assert loaded.ids == table.ids
    assert loaded.smiles == table.smiles
    assert np.array_equal(loaded.targets, table.targets)
    path2 = tmp_path / "drugs2.tsv"
    write_drug_table(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_drug_table_parse_errors_name_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("#universe\ttargets=2\tenzymes=2\tsubstructures=2\n"
                    "d1\tCC\t0\t1\t0\n"
                    "d2\tCC\t0,5\t1\t0\n")
    with pytest.raises(DataError) as err:
        read_drug_table(path)
    assert ":3:" in str(err.value)
