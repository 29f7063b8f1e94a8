"""Simulation and analysis of high-frequency signal propagation in
multiconductor power-line networks: reflectometric and end-to-end responses,
anomaly injection, chain/superposition effect models, and time-domain
localization."""

from .anomalies import (Anomaly, DistributedFault, LoadChange, LumpedFault,
                        apply_anomaly, delta_chain, delta_superposition)
from .cables import (builtin_cable_library, cable_velocities,
                     constant_rlgc_cable, powerline_cable, scaled_cable)
from .errors import (DecompositionError, ParseError, PlnsimError,
                     SingularityError, UsageError, ValidationError)
from .experiments import (EnsembleConfig, Scenario, bundled_single_line_scenarios,
                          default_grid, generate_random_network,
                          run_backbone_lateral_study, run_distance_sweep,
                          run_scenario_suite)
from .mtl import (CableSpec, FrequencyGrid, MatrixSpectrum, PropagationParams,
                  ctf_line, input_admittance_line, input_reflection,
                  line_propagation_params, load_reflection, modal_transform,
                  propagator)
from .network import (AdmittanceSpec, Branch, Evaluation, NetworkTopology, Port,
                      conductance, constant_admittance, end_to_end_ctf,
                      farthest_node, network_input_reflection, open_circuit,
                      parallel_rc_admittance, reduce_to_port,
                      table_admittance, tree_path)
from .timedomain import (LocateResult, PeakList, TimeTrace,
                         check_peak_spacing_symmetry, detect_peaks,
                         locate_anomaly_reflectometric, time_to_distance,
                         to_time_domain)

__version__ = "0.1.0"
