"""Dense-matrix reverse-mode differentiation core.

Everything learnable in the package runs on this module: a float64 Tensor,
a per-forward-pass Tape, the primitive op set, an Adam-family optimizer,
and the checkpoint wire format.
"""

from .checkpoint import MAGIC, load_checkpoint, save_checkpoint
from .optim import OptimizerState, adam_step
from .ops import (
    add,
    add_rowvec,
    concat_cols,
    conv1d_bank,
    conv1d_onehot,
    div,
    dropout,
    frobenius_norm,
    gather_rows,
    global_max_pool,
    layer_norm_rows,
    log_clamped,
    matmul,
    mul,
    mul_rowvec,
    pair_linear,
    relation_sum,
    relu,
    reshape,
    scale,
    softmax_gram_matmul,
    softmax_rows,
    sub,
    sum_all,
    token_attention,
    transpose,
)
from .tensor import (Tape, Tensor, as_tensor, constant, no_grad, parameter,
                     recording)

__all__ = [
    "MAGIC", "OptimizerState", "Tape", "Tensor",
    "adam_step", "add", "add_rowvec", "as_tensor", "concat_cols",
    "constant", "conv1d_bank", "conv1d_onehot",
    "div", "dropout", "frobenius_norm", "gather_rows", "global_max_pool",
    "layer_norm_rows", "load_checkpoint", "log_clamped", "matmul", "mul",
    "mul_rowvec", "no_grad", "pair_linear", "parameter", "recording",
    "relation_sum", "relu", "reshape",
    "save_checkpoint", "scale", "softmax_gram_matmul", "softmax_rows",
    "sub", "sum_all", "token_attention", "transpose",
]


def xavier_uniform(rng, fan_in: int, fan_out: int) -> "Tensor":
    """Parameter initialized uniform in +-sqrt(6/(fan_in+fan_out))."""
    import numpy as np

    bound = np.sqrt(6.0 / (fan_in + fan_out))
    # the draw is fresh, so the parameter adopts it instead of copying it
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                  requires_grad=True)
