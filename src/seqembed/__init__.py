"""Isometric embeddings into bounded sequences that avoid convergence.

Library + CLI realizing constructive embeddings of computable separable
Banach spaces into the sup-norm sequence space such that no nonzero
image converges, with machine-checkable finite-truncation certificates
for every construction.
"""

__version__ = "0.1.0"

from .errors import (BudgetExhausted, ConfigError, EmptyBasis, EmptyWindow,
                     IndexZero, KindMismatch, LengthMismatch, NotUnitVector,
                     SchemeExhausted, SeqEmbedError, ZeroElement)
from .seqcore import (BoundedSeq, ClusterEstimate, cluster_estimates, combine,
                      coordinate, coordinates_at, eventually_constant, explicit_limit,
                      from_function, periodic, prefix_sup, zero_seq)
from .spaces import (ContinuousPL, CustomNet, FiniteDimLp, PLFunction, SeqLp,
                     SeparableSpace, parse_space, pl_function)
from .embed import (DefectRecord, IndexScheme, OscillationWitness, embed_t1,
                    identity_scheme, isometry_defect, oscillation_witness,
                    reverify_witness, scheme_embed)
from .extend import (LimitEstimate, SubspaceD, bw_extract, diagonal_extract,
                     extract_scheme, limit_along, separation_witness)
from .verify import (InC, NotInC, Unknown, check_isometry, check_separation,
                     classify_c)
