"""Joint measurability, incompatibility witnesses, steering and Bell
analysis over polytopic state spaces, with exact rational arithmetic."""

from .exact import approx_eq, rat
from .spaces import StateSpace, max_tensor_member
from .polysimplex import PolySimplex, polysimplex_space, square_space
from .measurements import (MeasurementCollection, id_degree, id_degree_at,
                           identity_collection, is_compatible,
                           make_collection, random_collection)
from .witnesses import (WitnessMap, is_etb, is_witness, make_witness_map,
                        maximal_incompatibility_certificate, q_value,
                        retraction_check, trace_pairing,
                        two_outcome_witness_criterion)
from .steering import (Assemblage, assemblage_from, is_separable,
                       self_dual_state, square_self_dual_iso,
                       steering_degree, steering_degree_at)
from .bell import (Box, all_chsh_witnesses, bell_id_bound_check, bell_value,
                   box_from, chsh_witness, is_local, pr_box, random_ns_box,
                   square_equality_construction)
from .channels import (ChoiMatrix, StochasticMatrix, box_to_causal_channel,
                       cc_channel, channel_space_max_incompatibility,
                       retraction_R, section_S)
from .qubit import (QubitEffect, joint_povm_feasible, mub_pair, qubit_id,
                    tsirelson_box, witness_q)

__version__ = "0.1.0"

__all__ = [
    "Assemblage", "Box", "ChoiMatrix", "MeasurementCollection", "PolySimplex",
    "QubitEffect", "StateSpace", "StochasticMatrix", "WitnessMap",
    "all_chsh_witnesses", "approx_eq", "assemblage_from", "bell_id_bound_check",
    "bell_value", "box_from", "box_to_causal_channel", "cc_channel",
    "channel_space_max_incompatibility", "chsh_witness", "id_degree",
    "id_degree_at", "identity_collection",
    "is_compatible", "is_etb", "is_local", "is_separable", "is_witness",
    "joint_povm_feasible", "make_collection", "make_witness_map",
    "max_tensor_member", "maximal_incompatibility_certificate", "mub_pair",
    "polysimplex_space", "pr_box", "q_value", "qubit_id", "random_collection",
    "random_ns_box", "rat", "retraction_R", "retraction_check", "section_S",
    "self_dual_state", "square_equality_construction",
    "square_self_dual_iso", "square_space", "steering_degree",
    "steering_degree_at", "trace_pairing", "tsirelson_box",
    "two_outcome_witness_criterion", "witness_q",
]
