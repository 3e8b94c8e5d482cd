"""Outage analysis, Monte Carlo validation and precoder design for
MIMO-NOMA small-cell networks with imperfect channel knowledge."""

from .asymptotic import (RateThresholds, optimize_chernoff_far,
                         optimize_chernoff_near, rate_thresholds)
from .design import (LinearDesign, PairLink, RateSolution, alignment_nullspace,
                     baseline_goodput, build_precoder, choose_receiver_combining,
                     maximize_goodput)
from .geometry import (GroupingPolicy, distance_mixture, interference_coefficient,
                       policy_laplace_factor, sample_serving_distances)
from .laplace import (Inversion1DConfig, Inversion2DConfig, epsilon_accelerate,
                      invert_1d, invert_2d)
from .model import (ChannelEstimate, NetworkParams, PairConfig, channel_k_factor,
                    error_variance_for_k_factor, exponential_covariance,
                    sample_channel_matrix, sample_error_matrix)
from .montecarlo import (McEstimate, McOutageReport, estimate_goodput,
                         estimate_outage)
from .outage import (EffectiveChannel, OutageResult, effective_channel,
                     far_outage_average, far_outage_conditional,
                     near_outage_average, near_outage_conditional_approx,
                     near_outage_conditional_exact,
                     single_stream_outage_conditional)
from .scenario import Scenario, build_scenario

__version__ = "0.1.0"
