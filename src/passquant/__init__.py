"""Passivity analysis of sampled and quantized controller implementations.

The toolkit quantifies how passivity indices degrade when a continuous
controller is implemented digitally (zero-order-hold sampling, uniform
input/output quantization, optional state quantization via an approximately
bisimilar symbolic model), certifies ultimate boundedness of the resulting
feedback loop, and simulates the closed loop to validate the certified
bounds empirically.
"""

from .abstraction import (
    DeltaIssBound,
    SymbolicController,
    check_bisim_params,
    lipschitz_output_bound,
    lti_delta_iss,
)
from .bounds import (
    BoundReport,
    loop_bounds,
    margin_check,
    single_system_bounds,
    symbolic_loop_bounds,
)
from .config import AnalysisConfig, load_config, parse_config, registered_models
from .detectability import (
    SdCertificate,
    check_sd_certificate,
    compose_sd,
    lti_sd_certificate,
    sd_falsify,
)
from .errors import (
    CertificateError,
    ConfigError,
    ContractViolationError,
    DimensionError,
    DivergenceError,
    NotDetectableError,
    ParameterError,
    ToolkitError,
    WellPosednessError,
)
from .passivity import (
    ComposedIndices,
    GainCertificate,
    IndexSet,
    LambdaChoices,
    Verdict,
    choose_nu_hat,
    compose_feedback,
    degrade_quantization,
    degrade_sampling,
    dissipation_audit,
    max_index_bisection,
    symbolic_quant_bias,
    verify_gain_assumption,
    verify_lti_passivity,
)
from .sim import LoopConfig, Trajectory, simulate, ultimate_bound_audit
from .systems import (
    DiscreteLti,
    LtiModel,
    NonlinearModel,
    SampledModel,
    discretize_exact,
    flow,
    quantize,
    quantize_nearest,
)

__version__ = "0.1.0"
