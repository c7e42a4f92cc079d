"""Drug attribute ingestion and pair-level feature primitives.

Covers the descriptor kinds, the drug-table file format, cosine-similarity
features over binary descriptor sequences, and the fixed 100-position SMILES
character encoding (the index form of a 64x100 one-hot matrix).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, UnknownDrugError, ValidationError

# Fixed character table: 63 symbols + reserved slot 63 for anything else.
# Shipped as a versioned constant so encodings are reproducible bit-exactly.
SMILES_VOCAB = (
    "#%()+-./0123456789=@[]\\:"
    "ABCDEFGHIKLMNOPRSTVWXYZ"
    "abcdeghilnoprstu"
)
SMILES_UNKNOWN = 63
SMILES_CLASSES = 64
SMILES_EMPTY = SMILES_CLASSES   # index of a padded position: no class at all
SMILES_POSITIONS = 100

# The binary descriptor kinds, in the order of every per-kind layer: the
# table's columns, the similarity channels, the pair encoders and the
# sequence clustering views.
DESCRIPTOR_KINDS = ("targets", "enzymes", "substructures")

assert len(SMILES_VOCAB) == SMILES_CLASSES - 1

_CHAR_INDEX = {ch: i for i, ch in enumerate(SMILES_VOCAB)}
# class of each code point below 128; code 127 (not in the vocabulary) also
# stands for every code point above it
_CLASS_OF_CODE = np.full(128, SMILES_UNKNOWN, dtype=np.uint8)
_CLASS_OF_CODE[[ord(ch) for ch in SMILES_VOCAB]] = np.arange(len(SMILES_VOCAB))


@dataclass
class DrugTable:
    """Ordered drug ids with SMILES strings and binary descriptor sequences.

    A table is not changed after it is built: its arrays, and what is derived
    from them such as its similarity graph, are held once and read in place
    by every model on it.
    """

    ids: list[str]
    smiles: list[str]
    targets: np.ndarray        # N x T, float64 0.0/1.0
    enzymes: np.ndarray        # N x E, float64 0.0/1.0
    substructures: np.ndarray  # N x S, float64 0.0/1.0
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.ids)
        if len(set(self.ids)) != n:
            raise ValidationError("drug ids must be unique")
        for name in DESCRIPTOR_KINDS:
            mat = np.asarray(getattr(self, name), dtype=np.float64)
            if mat.shape[0] != n:
                raise ValidationError(f"{name} has {mat.shape[0]} rows for {n} drugs")
            if ((mat != 0) & (mat != 1)).any():   # NaN is neither
                raise ValidationError(f"{name} must be 0/1")
            setattr(self, name, mat)
        if len(self.smiles) != n:
            raise ValidationError("smiles list length mismatch")
        self.index = {d: i for i, d in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def similarity_graph(self):
        """The DDSGraph of this table's per-kind attribute similarities."""
        from .graphcore import DDSGraph  # graphcore imports this module

        return DDSGraph.from_table(self)

    def lookup(self, drug_id: str, path=None, line=None) -> int:
        """Index of a drug id; (path, line) locate it in the error message."""
        try:
            return self.index[drug_id]
        except KeyError:
            raise UnknownDrugError(f"unknown drug id {drug_id!r}", path, line) from None


def cosine_similarity_matrix(seqs) -> np.ndarray:
    """Pairwise cosine similarities between the rows of a binary matrix.

    Rows that are all zero get similarity 0 against everything, including
    themselves (division-by-zero guard, not NaN).
    """
    m = np.asarray(seqs, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1:
        raise ValidationError(f"need a 2-D row matrix, got shape {m.shape}")
    norms = np.sqrt((m * m).sum(axis=1))
    safe = np.where(norms > 0, norms, 1.0)
    unit = m / safe[:, None]
    sim = unit @ unit.T
    zero = norms == 0
    sim[zero, :] = 0.0
    sim[:, zero] = 0.0
    return sim


def encode_smiles(s: str) -> np.ndarray:
    """One uint8 character class per position (100); overflow truncated,
    shortfall padded with SMILES_EMPTY.

    This is the index form of the 64 x 100 one-hot matrix the CNN convolves:
    each position holds the row of its 1, or SMILES_EMPTY for an all-zero
    column. Characters outside the vocabulary map to the reserved unknown
    class, never an error.
    """
    row = np.full(SMILES_POSITIONS, SMILES_EMPTY, dtype=np.uint8)
    for j, ch in enumerate(s[:SMILES_POSITIONS]):
        row[j] = _CHAR_INDEX.get(ch, SMILES_UNKNOWN)
    return row


def encode_smiles_table(smiles) -> np.ndarray:
    """N x 100 rows of encode_smiles, built in one vectorized pass."""
    clipped = [s[:SMILES_POSITIONS] for s in smiles]
    codes = np.frombuffer("".join(clipped).encode("utf-32-le", "surrogatepass"),
                          dtype="<u4")
    lengths = np.array([len(s) for s in clipped], dtype=np.intp)
    rows = np.full((len(clipped), SMILES_POSITIONS), SMILES_EMPTY, dtype=np.uint8)
    # row-major mask order is the order of the joined characters
    rows[np.arange(SMILES_POSITIONS) < lengths[:, None]] = \
        _CLASS_OF_CODE[np.minimum(codes, 127)]
    return rows


# ------------------------------------------------------------------ file I/O

def read_text_lines(path) -> list[tuple[int, str]]:
    """(line number, text) for each non-blank line of a UTF-8 file; bytes that
    are not UTF-8 are a DataError naming their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataError("not UTF-8 text", path, data.count(b"\n", 0, err.start) + 1) from None
    return [(line_no, line.rstrip("\n")) for line_no, line
            in enumerate(io.StringIO(text, newline=None), start=1) if line != "\n"]


def _format_indices(row: np.ndarray) -> str:
    return ",".join(str(i) for i in np.flatnonzero(row))


def _parse_pieces(text: str, row: np.ndarray, path, line_no) -> np.ndarray:
    """Set row[i] = 1 for each comma-separated piece i, one int() at a time;
    the first piece that is not an index into row raises."""
    size = len(row)
    for piece in text.split(","):
        try:
            idx = int(piece)
        except ValueError:
            raise DataError(f"bad descriptor index {piece!r}", path, line_no) from None
        if not 0 <= idx < size:
            raise DataError(f"descriptor index {idx} out of range 0..{size - 1}",
                            path, line_no)
        row[idx] = 1
    return row


def _parse_indices(text: str, row: np.ndarray, path, line_no) -> np.ndarray:
    """Set row[i] = 1 for each index i of a comma-separated descriptor field.

    A field of ASCII digits and commas with no empty piece, whose indices
    all fall inside row, is parsed in one C call; every other field goes
    through _parse_pieces, so it alone decides what is accepted and which
    error is raised.
    """
    if not text:
        return row
    if (text.isascii() and not text.encode().translate(None, b"0123456789,")
            and not text.startswith(",") and ",," not in text):
        idx = np.fromstring(text, dtype=np.int64, sep=",")  # saturates past int64
        if idx.size == text.count(",") + 1 and idx.max() < len(row):
            row[idx] = 1
            return row
    return _parse_pieces(text, row, path, line_no)


def write_drug_table(path, table: DrugTable) -> None:
    """Canonical emission: header, then one tab-separated line per drug with
    sparse ascending descriptor indices. Re-ingesting is byte-identical."""
    mats = [getattr(table, kind) for kind in DESCRIPTOR_KINDS]
    sizes = [f"{kind}={mat.shape[1]}" for kind, mat in zip(DESCRIPTOR_KINDS, mats)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(["#universe", *sizes]) + "\n")
        for i, drug_id in enumerate(table.ids):
            fh.write("\t".join([drug_id, table.smiles[i],
                                *(_format_indices(mat[i]) for mat in mats)]) + "\n")


def read_drug_table(path) -> DrugTable:
    lines = read_text_lines(path)
    parts = lines[0][1].split("\t") if lines and lines[0][0] == 1 else []
    if len(parts) != 1 + len(DESCRIPTOR_KINDS) or parts[0] != "#universe":
        raise DataError("bad header line (expected '#universe' and a tab-separated "
                        f"kind=size for each of {DESCRIPTOR_KINDS})", path, 1)
    sizes = {}
    for piece in parts[1:]:
        key, _, value = piece.partition("=")
        try:
            size = int(value)
        except ValueError:
            size = -1
        if size < 0:
            raise DataError(f"bad universe size {piece!r}", path, 1)
        sizes[key] = size
    missing = set(DESCRIPTOR_KINDS) - sizes.keys()
    if missing:
        raise DataError(f"header missing sizes for {sorted(missing)}", path, 1)

    if len(lines) < 2:
        raise DataError("drug table has no drugs", path)
    mats = [np.zeros((len(lines) - 1, sizes[kind])) for kind in DESCRIPTOR_KINDS]
    ids, smiles = [], []
    for i, (line_no, line) in enumerate(lines[1:]):
        fields = line.split("\t")
        if len(fields) != 2 + len(mats):
            raise DataError(f"expected {2 + len(mats)} tab-separated fields, "
                            f"got {len(fields)}", path, line_no)
        ids.append(fields[0])
        smiles.append(fields[1])
        for mat, text in zip(mats, fields[2:]):
            _parse_indices(text, mat[i], path, line_no)
    return DrugTable(ids, smiles, *mats)
