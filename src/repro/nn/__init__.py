"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

The paper's reference implementation runs on PyTorch; this package
provides the equivalent primitives (reverse-mode autograd, layers,
attention, recurrent and convolutional cells, optimizers) so the whole
reproduction runs on numpy alone.
"""

from . import functional
from .anomaly import AnomalyError, anomaly_mode, is_anomaly_enabled
from .attention import (
    MultiHeadAttention,
    SelfAttention,
    causal_mask,
    scaled_dot_product_attention,
)
from .conv import HorizontalConv, VerticalConv, unfold_sequence
from .fused import fused_causal_attention
from .layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    PositionwiseFeedForward,
    ReLU,
)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, FlatAdam, Optimizer
from .rnn import GRU, GRUCell, LSTMCell, STGNCell
from .rowsparse import RowSparseGrad, dense_grad
from .serialization import load_checkpoint, save_checkpoint
from .tensor import (
    GradArena,
    Tensor,
    concatenate,
    grad_arena,
    join,
    matmul,
    no_grad,
    ones,
    split,
    stack,
    tensor,
    where,
    zeros,
)

__all__ = [
    "functional",
    "RowSparseGrad",
    "dense_grad",
    "AnomalyError",
    "anomaly_mode",
    "is_anomaly_enabled",
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "matmul",
    "concatenate",
    "join",
    "split",
    "stack",
    "where",
    "no_grad",
    "GradArena",
    "grad_arena",
    "fused_causal_attention",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "PositionwiseFeedForward",
    "SelfAttention",
    "MultiHeadAttention",
    "scaled_dot_product_attention",
    "causal_mask",
    "GRU",
    "GRUCell",
    "LSTMCell",
    "STGNCell",
    "HorizontalConv",
    "VerticalConv",
    "unfold_sequence",
    "Optimizer",
    "SGD",
    "Adam",
    "FlatAdam",
    "save_checkpoint",
    "load_checkpoint",
]
