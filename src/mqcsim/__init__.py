"""Exact multiple-quantum coherence scrambling simulations on spin-1/2
systems, Floquet pulse-train detection, and cluster-size recovery by
regularized kernel inversion."""

__version__ = "0.1.0"

from .ddprobe import (
    DdConfig,
    DdSeries,
    DecayFit,
    SweepCell,
    SweepResult,
    cumulative_snr,
    fit_biexponential,
    optimal_cycles,
    run_dd,
    run_dd_stepwise,
    scans_to_match_snr,
    sweep,
)
from .errors import (
    CapExceeded,
    ConfigError,
    FitFailure,
    IllConditionedWarning,
    ImaginaryResidueWarning,
    InvalidParameter,
    MqcsimError,
    NoFeasibleSolution,
    NoPeaks,
)
from .evolution import (
    Axis,
    EigenBasis,
    collective_pulse,
    dq_cycle,
    evolve,
    hamiltonian_matrix,
    krylov_expmv,
    pulse_matrix,
    unitarity_defect,
)
from .inversion import (
    ClusterDistribution,
    DistributionAnalytics,
    KernelProblem,
    PowerLawFit,
    analyze,
    fit_power_law,
    invert,
    make_kernel_problem,
    mixture_second_moment,
)
from .mqc import (
    CoherenceSpectrum,
    Mode,
    MqcRun,
    OrderAmplitudes,
    PhaseSignal,
    density_spectra,
    loschmidt_echo,
    order_amplitudes,
    otoc_second_moment,
    phase_signals,
    spectrum_from_phases,
    uniform_phase_grid,
)
from .spins import (
    AllToAll,
    Chain,
    ExplicitCouplings,
    Lattice3D,
    OperatorKind,
    SpinSystem,
    apply_operator,
    build_system,
)
