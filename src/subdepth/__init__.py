"""Exact depth computations for inclusions of finite permutation groups.

The package enumerates finitely generated permutation groups, computes their
irreducible character tables exactly (the Murnaghan-Nakayama rule for a
full symmetric group, outer products for direct products, and otherwise the
modular / Dixon method over a prime field, lifted to cyclotomic integers),
builds the induction-restriction inclusion matrix of a subgroup pair, and
evaluates every depth criterion: matrix powers, character distances,
normality, centraliser products, and the core-intersection bound.  The
:mod:`constructions` module builds the wreath product families whose
subgroups realise every even depth.
"""

from .chartab import (CharacterTable, ClassFunction, character_table,
                      decompose, direct_product_table, dixon_character_table,
                      induce_character, inner_product, restrict_character,
                      symmetric_character_table, wreath_cyclic_table)
from .constructions import (BaseGroups, FamilyInstance, base_groups,
                            direct_product, family, wreath_cyclic)
from .cyclo import Cyclotomic, zeta
from .depth import (DepthReport, InclusionMatrix, core_depth_bound,
                    depth_one_check, inclusion_matrix, m_chi, matrix_depth,
                    ordinary_depth, relation_graph)
from .graphs import Graph, bfs_distance, cartesian_product
from .lemma import LemmaReport, expected_overlap_graph, lemma_report
from .perm import (DEFAULT_CAP, ClassSet, PermGroup, Permutation,
                   SubgroupEmbedding, class_fusion, is_normal,
                   min_core_conjugates, parse_cycle_notation,
                   parse_generators, subgroup_core)

__version__ = "0.1.0"
