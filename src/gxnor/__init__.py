"""Ternary-weight, ternary-activation networks trained by discrete state
transitions, with bit-packed gated-XNOR inference kernels.

The package root re-exports what the command line, the benchmark and the
acceptance tests use; everything else is imported from its submodule.
"""

from .spaces import (
    DiscreteSpace,
    PulseShape,
    SurrogateSpec,
    make_space,
    quantize_activation,
    quantize_multilevel,
    quantize_ternary,
    surrogate_activation,
    surrogate_rect,
    surrogate_tri,
)
from .dst import AdamOptimizer, DstHyper, DstOptimizer, project_transition_array
from .kernel import gated_xnor_dot, pack_ternary, pack_ternary_matrix
from .layers import BatchNorm, Conv2d, Dense, Flatten, MaxPool2d, QuantAct, svm_hinge_loss
from .network import Network, build_network, evaluate, fit, packed_evaluate, train_step
from .data import DATA_DIR_ENV, DataError, Dataset, batches, resolve_dataset
from .config import ConfigError, RunConfig
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
