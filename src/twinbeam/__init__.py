"""Compound twin beams: simulation, reconstruction and analysis toolkit."""

from .core import TwbParams, joint_twb, mandel_rice
from .detection import DetectionMatrix, DetectorSpec, detection_matrix
from .ingest import JointHistogram, group_histogram
from .metrology import (PostSelectionResult, PrecisionReport,
                        effective_efficiency, optimal_postselection,
                        precision_improvement)
from .moments import (NcdResult, fano_nrp_cov, moments, ncd, nci_value,
                      to_s_ordered)
from .quasidist import IntensityGrid, grid_normalization, quasi_distribution
from .reconstruct import MlResult, ml_joint
from .simulate import ClickStream, PumpCorrelation, sample_stream

__version__ = "0.1.0"
