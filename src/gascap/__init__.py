"""Channel assignment by Grover adaptive search.

Formulates the co-channel interference objective as one-hot (quadratic) or
binary-encoded (higher-order) polynomials over bits, compiles them into
amplitude-amplification circuits, simulates the search exactly at desk
scale, and reproduces the qubit/gate/query resource analysis.
"""

__version__ = "0.1.0"

from .cap import (
    CapInstance,
    CoeffTable,
    assignment_interference,
    coeff_table,
    interference_coeff,
    load_instance,
    reference_instance,
    synthetic_instance,
)
from .circuits import (
    CircuitSpec,
    GateSpec,
    PhaseLayer,
    ResourceReport,
    build_grover,
    build_state_prep,
    closed_form_resources,
    coefficient_width,
    enumerate_resources,
    formulation_resources,
    formulation_width,
    value_register_width,
)
from .formulation import (
    DecodeResult,
    Encoding,
    Formulation,
    Quadratization,
    bits_per_channel,
    build_formulation,
    channel_codeword,
    decode,
    default_quadratization_scale,
    encode_assignment,
    quadratize,
    variable_counts,
)
from .gas import (
    OPTIMUM_TOL,
    BruteForceResult,
    BudgetExceededError,
    GasConfig,
    GasTrace,
    brute_force_cap,
    co_channel_partition,
    run_batch,
    run_gas,
    run_seed,
)
from .poly import (
    BinaryPolynomial,
    BitVector,
    CapExceededError,
    bits_to_int,
    int_to_bits,
    loads_poly,
)
from .simulator import (
    IdealSampler,
    StateVectorSampler,
    amplified_probability,
    apply,
    key_cdf,
    marked_probability,
    sample,
    zero_state,
)
