"""Multi-source pair-feature encoders.

One 1-D CNN over each pair's stacked SMILES character indices plus
identical FC + attention encoders (embedding pairs, and the similarity pairs
of each descriptor kind). Each reads per-drug tables and the pairs' two
index vectors, so no per-pair input row is built. The model concatenates
their outputs into the comprehensive pair feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .errors import ParameterError, ShapeError
from .featurize import SMILES_CLASSES, SMILES_POSITIONS


@dataclass
class CnnBlock:
    """Three valid 1-D convolution stages (shifted GEMMs over position-major
    activations; kernels as checkpoints store them), global max pool, linear
    head, over pair rows of `positions` characters: drug u's half, then v's."""

    prefix: str
    channels: tuple      # e.g. (32, 64, 96)
    kernel_widths: tuple  # e.g. (4, 6, 8)
    out_dim: int
    in_channels: int
    positions: int
    params: dict         # name -> Tensor (prefixed by owner)

    @classmethod
    def build(cls, rng, prefix: str, channels, kernel_widths, out_dim,
              in_channels: int = SMILES_CLASSES,
              positions: int = 2 * SMILES_POSITIONS) -> "CnnBlock":
        channels = tuple(channels)
        kernel_widths = tuple(kernel_widths)
        if len(channels) != len(kernel_widths):
            raise ParameterError("channels and kernel widths must pair up")
        params = {}
        c_prev, length = in_channels, positions
        for i, (c, w) in enumerate(zip(channels, kernel_widths)):
            if w > length:
                raise ParameterError(f"conv stage {i}: kernel {w} wider than input {length}")
            params[f"{prefix}.conv{i}.w"] = nk.xavier_uniform(rng, c, c_prev * w)
            params[f"{prefix}.conv{i}.b"] = nk.parameter(np.zeros((1, c)))
            c_prev, length = c, length - w + 1
        params[f"{prefix}.proj.w"] = nk.xavier_uniform(rng, channels[-1], out_dim)
        params[f"{prefix}.proj.b"] = nk.parameter(np.zeros((1, out_dim)))
        return cls(prefix, channels, kernel_widths, out_dim, in_channels,
                   positions, params)

    def forward(self, smiles, us, vs) -> nk.Tensor:
        """Features of the pairs (us[k], vs[k]) over the per-drug index table
        `smiles` (N x positions/2; see conv1d_onehot), as if each pair's two
        rows were convolved side by side. The stack reaches R = sum(w - 1)
        positions, so outside the seam (u's last R positions, v's first R) a
        pair-row output sees one drug: each batch drug is pooled once, each
        seam once, and the pools maxed in position order (u, seam, v), the
        whole row's first-max tie-break. With R >= positions/2 the seam is
        the whole row and no drug is pooled alone."""
        table = np.asarray(smiles)
        half = self.positions // 2
        if table.ndim != 2 or 2 * table.shape[1] != self.positions:
            raise ShapeError(f"{self.prefix}: index table of shape {table.shape}, "
                             f"need N x {half}")
        reach = sum(w - 1 for w in self.kernel_widths)
        seam = min(max(reach, 1), half)   # width-1 kernels still need a position
        parts = [self._pool(np.hstack([table[us, half - seam:], table[vs, :seam]]))]
        if reach < half:
            drugs, where = np.unique(np.concatenate([us, vs]), return_inverse=True)
            own = self._pool(table[drugs])
            parts = [nk.gather_rows(own, where[:len(us)]), parts[0],
                     nk.gather_rows(own, where[len(us):])]
        pooled = nk.global_max_pool(nk.concat_cols(parts), self.channels[-1],
                                    len(parts))
        return nk.add_rowvec(nk.matmul(pooled, self.params[f"{self.prefix}.proj.w"]),
                             self.params[f"{self.prefix}.proj.b"])

    def _pool(self, rows) -> nk.Tensor:
        """Conv stack and global max pool over index rows of any length."""
        p = self.params

        def stage(i):
            return p[f"{self.prefix}.conv{i}.w"], p[f"{self.prefix}.conv{i}.b"]

        x = nk.relu(nk.conv1d_onehot(rows, *stage(0), self.in_channels))
        length = rows.shape[1] - self.kernel_widths[0] + 1
        for i in range(1, len(self.channels)):
            x = nk.relu(nk.conv1d_bank(x, *stage(i), self.channels[i - 1], length))
            length -= self.kernel_widths[i] - 1
        return nk.global_max_pool(x, self.channels[-1], length)


@dataclass
class EncoderBlock:
    """FC into tokens, multi-head self-attention block, feed-forward block,
    linear head."""

    prefix: str
    in_dim: int
    token_count: int
    token_dim: int
    n_heads: int
    out_dim: int
    params: dict

    @classmethod
    def build(cls, rng, prefix: str, in_dim: int, out_dim: int,
              token_count: int, token_dim: int, n_heads: int) -> "EncoderBlock":
        width = token_count * token_dim
        hidden = 2 * token_dim
        params = {
            f"{prefix}.fc.w": nk.xavier_uniform(rng, in_dim, width),
            f"{prefix}.fc.b": nk.parameter(np.zeros((1, width))),
            f"{prefix}.attn.q": nk.xavier_uniform(rng, token_dim, token_dim),
            f"{prefix}.attn.k": nk.xavier_uniform(rng, token_dim, token_dim),
            f"{prefix}.attn.v": nk.xavier_uniform(rng, token_dim, token_dim),
            f"{prefix}.attn.o": nk.xavier_uniform(rng, token_dim, token_dim),
            f"{prefix}.norm.g": nk.parameter(np.ones((1, token_dim))),
            f"{prefix}.norm.b": nk.parameter(np.zeros((1, token_dim))),
            f"{prefix}.proj.w": nk.xavier_uniform(rng, width, out_dim),
            f"{prefix}.proj.b": nk.parameter(np.zeros((1, out_dim))),
            f"{prefix}.ffn.w1": nk.xavier_uniform(rng, token_dim, hidden),
            f"{prefix}.ffn.b1": nk.parameter(np.zeros((1, hidden))),
            f"{prefix}.ffn.w2": nk.xavier_uniform(rng, hidden, token_dim),
            f"{prefix}.ffn.b2": nk.parameter(np.zeros((1, token_dim))),
        }
        return cls(prefix, in_dim, token_count, token_dim, n_heads, out_dim, params)

    def _attend(self, tokens: nk.Tensor) -> nk.Tensor:
        """Multi-head self-attention over each pair's token block.

        tokens: (K*token_count) x token_dim; blocks of token_count rows
        belong to one pair and never attend across pairs.
        """
        p = self.params
        q, k, v = (nk.matmul(tokens, p[f"{self.prefix}.attn.{name}"]) for name in "qkv")
        heads = nk.token_attention(q, k, v, self.token_count, self.n_heads)
        return nk.matmul(heads, p[f"{self.prefix}.attn.o"])

    def forward(self, table, us, vs) -> nk.Tensor:
        """Encode the pairs (us[k], vs[k]) over the per-drug rows of `table`
        (N x in_dim/2): the FC layer maps the two drugs' rows side by side,
        as the per-drug products (table @ W_top)[us] + (table @ W_bot)[vs]
        of fc.w's row halves (nk.pair_linear)."""
        x = nk.as_tensor(table)
        if 2 * x.shape[1] != self.in_dim:
            raise ShapeError(f"{self.prefix}: pair width {2 * x.shape[1]} != {self.in_dim}")
        p = self.params
        batch = len(us)
        width = self.token_count * self.token_dim
        fc = nk.add_rowvec(nk.pair_linear(x, p[f"{self.prefix}.fc.w"], us, vs),
                           p[f"{self.prefix}.fc.b"])
        tokens = nk.reshape(fc, batch * self.token_count, self.token_dim)
        attended = nk.add(tokens, self._attend(tokens))
        normed = nk.add_rowvec(
            nk.mul_rowvec(nk.layer_norm_rows(attended), p[f"{self.prefix}.norm.g"]),
            p[f"{self.prefix}.norm.b"])
        hidden = nk.relu(nk.add_rowvec(nk.matmul(normed, p[f"{self.prefix}.ffn.w1"]),
                                       p[f"{self.prefix}.ffn.b1"]))
        ffn = nk.add_rowvec(nk.matmul(hidden, p[f"{self.prefix}.ffn.w2"]),
                            p[f"{self.prefix}.ffn.b2"])
        flat = nk.reshape(nk.add(normed, ffn), batch, width)
        return nk.add_rowvec(nk.matmul(flat, p[f"{self.prefix}.proj.w"]),
                             p[f"{self.prefix}.proj.b"])
