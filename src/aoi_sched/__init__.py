"""Scheduling status updates over an error-prone link to minimize age of information.

Plan with known channel statistics (policy iteration on the average-cost
optimality equation plus a multiplier search for the transmission budget),
use closed forms for the classic ARQ protocol, learn online when the
channel is unknown (average-cost on-policy TD with softmax), and check
everything against exact stationary evaluation and simulation.
"""

from .arq import (
    RandomizedThreshold,
    aoi_of_threshold,
    cost_of_threshold,
    lagrangian_cost,
    optimal_policy,
    stationary_probs,
    threshold_candidates,
)
from .exact import EvalResult, evaluate_exact
from .lagrange import (
    ConstrainedSolution,
    EtaSearchResult,
    mixture_weight,
    search_eta_star,
    solve_constrained,
)
from .mdp import Action, ChannelModel, State, Truncation, enumerate_states
from .policies import (
    DeterministicTable,
    PeriodicPolicy,
    Policy,
    RandomizedTable,
    RenewalMixture,
    ThresholdPolicy,
)
from .rvi import SolverOutput, bellman_residual, solve
from .sarsa import LearnerConfig, LearnerState, Timeline, train
from .simulate import RunStats, SlotTrace, baseline_periodic, evaluate_simulated, run

__version__ = "0.1.0"
