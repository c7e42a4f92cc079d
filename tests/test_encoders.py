import numpy as np
import pytest

from hmgrl import numkit as nk
from hmgrl.encoders import CnnBlock, EncoderBlock
from hmgrl.errors import ShapeError
from hmgrl.featurize import SMILES_EMPTY, encode_smiles
from tests.test_numkit import fd_check


def small_cnn(rng, out_dim=5, in_channels=6, positions=20):
    return CnnBlock.build(rng, "cnn", channels=(4, 5), kernel_widths=(3, 4),
                          out_dim=out_dim, in_channels=in_channels,
                          positions=positions)


def index_rows(rng, k, in_channels, positions):
    """Random character rows; the value in_channels marks an empty position."""
    return rng.integers(0, in_channels + 1, size=(k, positions)).astype(np.uint8)


def whole_row_features(block, table, us, vs):
    """Oracle: convolve each pair's two rows side by side, then pool and project."""
    pooled = block._pool(np.hstack([table[us], table[vs]]))
    return nk.add_rowvec(nk.matmul(pooled, block.params["cnn.proj.w"]),
                         block.params["cnn.proj.b"])


def test_cnn_output_dim_shape_law():
    rng = np.random.default_rng(0)
    block = small_cnn(rng)
    table = index_rows(rng, 4, 6, 10)
    us, vs = rng.integers(0, 4, size=7), rng.integers(0, 4, size=7)
    assert block.forward(table, us, vs).shape == (7, 5)


def test_cnn_zero_input_is_bias_driven_constant():
    rng = np.random.default_rng(1)
    block = small_cnn(rng)
    table = np.full((3, 10), 6, dtype=np.uint8)  # all empty
    out = block.forward(table, [0, 1, 2], [1, 2, 0]).data
    # expected: bias constants flow through each stage, then the linear head
    v = np.maximum(block.params["cnn.conv0.b"].data[0], 0.0)
    w1 = block.params["cnn.conv1.w"].data
    v = np.maximum(w1 @ np.repeat(v, 4) + block.params["cnn.conv1.b"].data[0], 0.0)
    expected = v @ block.params["cnn.proj.w"].data + block.params["cnn.proj.b"].data[0]
    assert np.allclose(out, np.tile(expected, (3, 1)), atol=1e-12)
    assert np.array_equal(out[0], out[1])


def test_cnn_real_smiles_pair_and_pad_permutation():
    rng = np.random.default_rng(2)
    block = CnnBlock.build(rng, "cnn", channels=(4, 4), kernel_widths=(3, 3),
                           out_dim=6)
    s_u, s_v = encode_smiles("CCO"), encode_smiles("c1ccccc1")
    out = block.forward(np.stack([s_u, s_v]), [0], [1]).data
    # permuting empty pad positions among themselves changes nothing
    s_u2 = s_u.copy()
    assert s_u2[50] == s_u2[80] == SMILES_EMPTY
    s_u2[[50, 80]] = s_u2[[80, 50]]
    out2 = block.forward(np.stack([s_u2, s_v]), [0], [1]).data
    assert np.array_equal(out, out2)
    # a stacked batch gives each pair's row, in order
    index = np.stack([encode_smiles(s) for s in ("CCO", "c1ccccc1", "N#N", "")])
    us, vs = np.array([0, 1, 3, 2]), np.array([1, 0, 2, 3])
    batch = block.forward(index, us, vs).data
    singles = np.vstack([block.forward(index, [u], [v]).data for u, v in zip(us, vs)])
    assert np.allclose(batch, singles, atol=1e-12)


@pytest.mark.parametrize("widths, positions", [
    ((3, 4), 20),    # R = 5 < 10: drug pools plus a 10-position seam
    ((2, 2), 6),     # R = 2 < 3: one drug-pool position each side
    ((3, 4), 10),    # R = 5 = half: the seam is the whole row
    ((3, 4), 8),     # R = 5 > half
    ((1, 1), 12),    # R = 0: width-1 kernels
])
def test_cnn_matches_the_whole_row_route_bit_for_bit(widths, positions):
    rng = np.random.default_rng(11)
    block = CnnBlock.build(rng, "cnn", channels=(4, 5), kernel_widths=widths,
                           out_dim=3, in_channels=6, positions=positions)
    for p in block.params.values():
        p.data = rng.normal(size=p.shape)
    table = index_rows(rng, 6, 6, positions // 2)
    table[2, positions // 4:] = 6           # a drug with trailing empty positions
    us = np.array([0, 1, 2, 2, 5, 3, 0, 4])  # repeated drugs, both orders
    vs = np.array([1, 0, 3, 4, 2, 2, 5, 0])
    with nk.no_grad():
        out = block.forward(table, us, vs).data
        oracle = whole_row_features(block, table, us, vs).data
    assert np.array_equal(out, oracle)
    with pytest.raises(ShapeError):
        block.forward(table[:, 1:], us, vs)


def test_cnn_tie_between_identical_drugs_matches_whole_row_gradients():
    rng = np.random.default_rng(12)
    block = small_cnn(rng, out_dim=3)
    table = index_rows(rng, 3, 6, 10)
    table[1] = table[0]                      # two distinct drugs, one SMILES
    us, vs = np.array([0, 1, 0, 2]), np.array([1, 0, 2, 1])
    w = rng.normal(size=(4, 3))
    kernels = [p for name, p in block.params.items() if ".conv" in name]

    def grads(features):
        for p in block.params.values():
            p.zero_grad()
        with nk.Tape() as tape:
            loss = nk.sum_all(nk.mul(features(), nk.constant(w)))
        tape.backward(loss)
        return [p.grad.copy() for p in kernels]

    new = grads(lambda: block.forward(table, us, vs))
    old = grads(lambda: whole_row_features(block, table, us, vs))
    for g_new, g_old in zip(new, old):
        assert np.abs(g_new - g_old).max() <= 1e-12


def test_cnn_gradients():
    rng = np.random.default_rng(3)
    block = small_cnn(rng, out_dim=3, in_channels=2, positions=12)
    table = index_rows(rng, 3, 2, 6)
    us, vs = np.array([0, 2, 1]), np.array([1, 0, 0])
    w = rng.normal(size=(3, 3))
    params = list(block.params.values())
    for name, p in block.params.items():  # an all-empty window sits exactly on
        if name.endswith(".b"):           # relu's kink while the biases are 0
            p.data = rng.normal(scale=0.1, size=p.shape)

    def loss():
        return nk.sum_all(nk.mul(block.forward(table, us, vs), nk.constant(w)))

    fd_check(loss, params)


def small_encoder(rng, in_dim=6, out_dim=5):
    return EncoderBlock.build(rng, "enc", in_dim=in_dim, out_dim=out_dim,
                              token_count=2, token_dim=4, n_heads=2)


def drug_pairs(rng, n_drugs, k):
    """k pairs of distinct drugs over n_drugs, repeating drugs."""
    us = rng.integers(0, n_drugs, size=k)
    return us, (us + rng.integers(1, n_drugs, size=k)) % n_drugs


def test_encoder_output_shape_and_determinism():
    rng = np.random.default_rng(4)
    block = small_encoder(rng)
    table = rng.normal(size=(4, 3))
    us, vs = drug_pairs(rng, 4, 5)
    out1 = block.forward(table, us, vs).data
    out2 = block.forward(table, us, vs).data
    assert out1.shape == (5, 5)
    assert np.array_equal(out1, out2)


def test_encoder_batch_equals_independent_singles():
    rng = np.random.default_rng(5)
    block = small_encoder(rng)
    table = rng.normal(size=(3, 3))
    us, vs = drug_pairs(rng, 3, 4)
    batch = block.forward(table, us, vs).data
    for k in range(4):
        single = block.forward(table, us[k:k + 1], vs[k:k + 1]).data
        assert np.allclose(batch[k], single[0], atol=1e-12)


def test_single_token_attention_is_value_passthrough():
    rng = np.random.default_rng(6)
    block = EncoderBlock.build(rng, "enc", in_dim=4, out_dim=3, token_count=1,
                               token_dim=4, n_heads=1)
    tokens = nk.constant(rng.normal(size=(3, 4)))
    out = block._attend(tokens).data
    expected = tokens.data @ block.params["enc.attn.v"].data @ block.params["enc.attn.o"].data
    assert np.allclose(out, expected, atol=1e-12)


def test_attention_weights_row_stochastic():
    # every value row of a block equal to c: the weights of each row sum to
    # 1, so every output row of that block is c
    rng = np.random.default_rng(7)
    blocks, tokens = 5, 3
    values = np.repeat(rng.normal(size=(blocks, 4)), tokens, axis=0)
    for n_heads in (1, 2, 4):
        q, k = rng.normal(size=(2, blocks * tokens, 4)) * 3.0
        out = nk.token_attention(q, k, values, tokens, n_heads).data
        assert np.abs(out - values).max() <= 1e-12


def test_attention_tape_records_do_not_grow_with_heads():
    table = np.random.default_rng(13).normal(size=(3, 3))
    counts = []
    for n_heads in (1, 4):
        block = EncoderBlock.build(np.random.default_rng(13), "enc", in_dim=6,
                                   out_dim=4, token_count=2, token_dim=4,
                                   n_heads=n_heads)
        with nk.Tape() as tape:
            block.forward(table, [0, 1, 2], [1, 2, 0])
        counts.append(len(tape))
    assert counts[0] == counts[1]


def test_encoder_gradients_on_toy_input():
    rng = np.random.default_rng(8)
    block = small_encoder(rng, in_dim=6, out_dim=4)
    table = nk.parameter(rng.normal(size=(3, 3)))   # embeddings take gradients
    us, vs = np.array([0, 1, 0]), np.array([1, 2, 2])
    w = rng.normal(size=(3, 4))
    params = list(block.params.values()) + [table]

    def loss():
        return nk.sum_all(nk.mul(block.forward(table, us, vs), nk.constant(w)))

    fd_check(loss, params, rel_tol=2e-4)


def test_published_dims_line_up():
    # full-scale layer widths: encoder 1 -> 1500, encoders 2-4 -> 200,
    # comprehensive width 4*200 + 1500 = 2300
    rng = np.random.default_rng(10)
    dims = dict(token_count=4, token_dim=64, n_heads=4)
    enc1 = EncoderBlock.build(rng, "e1", in_dim=2 * 500, out_dim=1500, **dims)
    enc2 = EncoderBlock.build(rng, "e2", in_dim=2 * 572, out_dim=200, **dims)
    k = 2
    pairs = ([0, 1], [1, 0])
    h_emb = enc1.forward(rng.normal(size=(572, 500)), *pairs)
    h_tar = enc2.forward(rng.normal(size=(572, 572)), *pairs)
    assert h_emb.shape == (k, 1500)
    assert h_tar.shape == (k, 200)
    blocks = [nk.constant(np.zeros((k, 200))), h_emb, h_tar,
              nk.constant(np.zeros((k, 200))), nk.constant(np.zeros((k, 200)))]
    assert nk.concat_cols(blocks).shape == (k, 2300)
