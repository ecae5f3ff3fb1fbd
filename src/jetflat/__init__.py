"""Numerical laboratory for jet-graph Legendrians and circle contactomorphisms.

Truncated Fourier functions with exact derivatives model generating
functions on the circle and the 2-torus; on top of them the package
computes order spectral selectors and the flat spectral distance, Reeb
chord spectra, sup-norm path lengths, quasi-autonomy witnesses for
geodesic verification, a variational path optimizer used as an independent
oracle, and the contact-product chart for circle contactomorphisms.
"""

from .contact import (
    CircleContactomorphism,
    ProductChartMap,
    SpectralNormResult,
    contact_qa_check,
    graph_of,
    rotation,
    shelukhin_norm_upper,
    spectral_norm,
    translated_points,
)
from .fourier import (
    CIRCLE,
    TORUS2,
    CriticalSet,
    DomainDescriptor,
    Extremum,
    FourierFunction,
    attaining_set,
    attaining_sets,
    critical_set,
    critical_sets,
    extremum,
    sup_norm,
    sup_norm_by_squaring,
)
from .geodesics import (
    GeodesicCheckReport,
    IntegralCriterionReport,
    OptimizeResult,
    QAWitness,
    SegmentationReport,
    grid_flatness_gap,
    grid_quasi_autonomy_witness,
    integral_criterion,
    minimizing_geodesic_check,
    monotone_check,
    optimize_path,
    quasi_autonomy_check,
)
from .jets import (
    ChordSpectrum,
    JetLegendrian,
    chord_spectrum,
    pointwise_leq,
    reeb_translate,
    zero_section,
)
from .paths import IsotopyPath
from .selectors import (
    AxiomSuiteReport,
    HamiltonianBounds,
    SelectorReport,
    axiom_suite,
    hamiltonian_bounds_check,
    sch_length,
    selectors,
    spectral_distance,
)

__all__ = [
    "CIRCLE",
    "TORUS2",
    "AxiomSuiteReport",
    "ChordSpectrum",
    "CircleContactomorphism",
    "CriticalSet",
    "DomainDescriptor",
    "Extremum",
    "FourierFunction",
    "GeodesicCheckReport",
    "HamiltonianBounds",
    "IntegralCriterionReport",
    "IsotopyPath",
    "JetLegendrian",
    "OptimizeResult",
    "ProductChartMap",
    "QAWitness",
    "SegmentationReport",
    "SelectorReport",
    "SpectralNormResult",
    "attaining_set",
    "attaining_sets",
    "axiom_suite",
    "chord_spectrum",
    "contact_qa_check",
    "critical_set",
    "critical_sets",
    "extremum",
    "graph_of",
    "grid_flatness_gap",
    "hamiltonian_bounds_check",
    "grid_quasi_autonomy_witness",
    "integral_criterion",
    "minimizing_geodesic_check",
    "monotone_check",
    "optimize_path",
    "pointwise_leq",
    "quasi_autonomy_check",
    "reeb_translate",
    "rotation",
    "sch_length",
    "selectors",
    "shelukhin_norm_upper",
    "spectral_distance",
    "spectral_norm",
    "sup_norm",
    "sup_norm_by_squaring",
    "translated_points",
    "zero_section",
]
