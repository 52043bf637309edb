"""Sensitivity and Fisher-information toolkit for two-photon absorption sensing.

Probe states are squeezed, coherent, or squeezed-coherent light; detection is
photon counting or homodyne quadrature measurement; single-photon losses are
modeled as a transmissivity-eta channel after the absorber.  All estimation
quantities are evaluated at zero absorbance via exact first-order perturbation.
"""

from .channels import (
    LossSpec,
    binomial_loss_pmf,
    loss_channel,
    population_derivative,
    tpa_generator,
)
from .distributions import (
    Pmf,
    QuadPdf,
    coherent_pmf,
    sv_pmf_closed_form,
)
from .exceptions import (
    CutoffGrowthWarning,
    GridError,
    IllConditionedBinWarning,
    TruncationError,
)
from .fock import (
    Moments,
    ProbeSpec,
    StateVector,
    ladder_matrices,
    make_probe_state,
    moments,
)
from .metrology import (
    FisherResult,
    LimitRow,
    SensitivityResult,
    fisher_continuous,
    fisher_discrete,
    fisher_photon_counting,
    fisher_ratio_coh_over_sv,
    limit_table,
    sensitivity_analytic,
    sensitivity_numeric,
    squeeze_scan,
)

__version__ = "0.1.0"
