import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmgrl import featurize
from hmgrl.errors import DataError, UnknownDrugError, ValidationError
from hmgrl.featurize import (
    DESCRIPTOR_KINDS,
    SMILES_CLASSES,
    SMILES_EMPTY,
    SMILES_POSITIONS,
    SMILES_UNKNOWN,
    SMILES_VOCAB,
    DrugTable,
    cosine_similarity_matrix,
    encode_smiles,
    encode_smiles_table,
    read_drug_table,
    write_drug_table,
)
from hmgrl.synth import SynthSpec, generate


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
    """The model's N x 3N node features: the table's stacked similarities."""
    return table.similarity_graph.stacked


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


def test_encode_smiles_table_matches_encode_smiles_row_by_row():
    strings = ["CCO", "", "C?C", "[Na+].[Cl-]", "éΔ\u00a0C", "\x7f\x80N", "😀" * 3,
               "\ud800C", "C" * 100, "c1ccccc1" * 20, "N" * 99 + "é" * 5]
    rows = encode_smiles_table(strings)
    assert rows.dtype == np.uint8
    assert np.array_equal(rows, np.stack([encode_smiles(s) for s in strings]))
    assert encode_smiles_table([]).shape == (0, SMILES_POSITIONS)


def test_drug_table_binary_check_takes_every_entry():
    for bad in ([[-1], [0]], [[0], [1.5 + 1]], [[0.5], [1]], [[np.nan], [1]]):
        with pytest.raises(ValidationError, match="targets must be 0/1"):
            DrugTable(["a", "b"], ["C", "C"], bad, [[0], [1]], [[1], [1]])
    empty = DrugTable(["a", "b"], ["C", "C"], np.zeros((2, 0)), [[0], [1]], [[1], [1]])
    assert empty.targets.shape == (2, 0) and empty.targets.dtype == np.float64


def test_negative_universe_size_is_a_header_error(tmp_path):
    path = tmp_path / "neg.tsv"
    drug = "d1\tCC\t0\t\t1\n"
    for text, message in [
        ("#universe\ttargets=2\tenzymes=-1\tsubstructures=2\n" + drug,
         ":1: bad universe size 'enzymes=-1'"),
        ("#universe\ttargets=2\tenzymes=x\tsubstructures=2\n" + drug,
         ":1: bad universe size 'enzymes=x'"),
        ("#universe\ttargets=2\tenzymes=1\n" + drug, ":1: bad header line"),
        ("#kinds\ttargets=2\tenzymes=1\tsubstructures=2\n" + drug, ":1: bad header line"),
        ("", ":1: bad header line"),
        ("#universe\ttargets=2\tenzymes=1\tsmiles=2\n" + drug,
         ":1: header missing sizes for ['substructures']"),
        ("#universe\ttargets=2\tenzymes=1\tsubstructures=2\n", ": drug table has no drugs"),
    ]:
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(f"{path}{message}")):
            read_drug_table(path)


def per_piece_row(text, row, *where):
    """The descriptor field parse done one int() per piece: the reference."""
    return featurize._parse_pieces(text, row, *where) if text else row


def parse_outcome(parse, text, size):
    try:
        return parse(text, np.zeros(size, dtype=np.int64), "d.tsv", 7).tobytes()
    except DataError as err:
        return str(err)


FIELD_PIECES = st.one_of(st.sampled_from(list("0123456789,+- _.٣") + [",", ","]),
                         st.text("0123456789", min_size=20, max_size=24))


@settings(max_examples=400, deadline=None)
@example(text="1,", size=5)
@example(text=",1", size=5)
@example(text="1,,2", size=5)
@example(text="1,+,2", size=5)
@example(text="3,1_0,-1", size=20)
@example(text="٣", size=5)
@example(text="2," + "9" * 20 + ",x", size=5)
@example(text="00000000000000000000004", size=5)
@given(text=st.lists(FIELD_PIECES, max_size=12).map("".join),
       size=st.sampled_from([0, 1, 3, 10, 1000]))
def test_parse_indices_agrees_with_the_per_piece_parse(text, size):
    fast = parse_outcome(featurize._parse_indices, text, size)
    assert fast == parse_outcome(per_piece_row, text, size)


def test_parse_indices_fast_path_on_well_formed_fields(monkeypatch):
    def no_pieces(*args):
        raise AssertionError("a well-formed field went through the per-piece parse")

    monkeypatch.setattr(featurize, "_parse_pieces", no_pieces)
    row = featurize._parse_indices("007,3,3,0", np.zeros(8, dtype=np.int64), "d.tsv", 1)
    assert row.tolist() == [1, 0, 0, 1, 0, 0, 0, 1]


def test_graph_shape_table_never_takes_the_per_piece_parse(tmp_path, monkeypatch):
    table, _ = generate(SynthSpec(seed=3, n_drugs=572, n_events=65, targets_size=1162,
                                  enzymes_size=202, substructures_size=881,
                                  density=0.05, n_classes=12))
    path = tmp_path / "drugs.tsv"
    write_drug_table(path, table)
    calls, per_piece = [], featurize._parse_pieces
    monkeypatch.setattr(featurize, "_parse_pieces",
                        lambda *args: calls.append(args) or per_piece(*args))
    loaded = read_drug_table(path)
    assert calls == []
    for name in ("targets", "enzymes", "substructures"):
        mine, theirs = getattr(loaded, name), getattr(table, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes(), name


def test_descriptor_kinds_are_named_only_in_featurize():
    # every other module loops over DESCRIPTOR_KINDS instead of naming a kind
    named = {}
    for path in sorted(Path(featurize.__file__).parent.rglob("*.py")):
        if path.name == "featurize.py":
            continue
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant) and node.value in DESCRIPTOR_KINDS]
        if lines:
            named[path.name] = lines
    assert named == {}
