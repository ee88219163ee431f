#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Triangle and small-clique enumeration substrate.
//!
//! The (2,3)- and (3,4)-nucleus decompositions peel edges by triangle
//! count and triangles by four-clique count respectively, so this crate
//! provides:
//!
//! * [`triangles`] — oriented triangle enumeration (degeneracy-ordered,
//!   the standard `O(m · degeneracy)` scheme) through the public
//!   [`triangles::OrientedAdjacency`] kernel, per-edge support counts,
//!   and a materialized [`TriangleList`];
//! * [`triangle_index`] — [`TriangleIndex`], a per-edge CSR of
//!   `(third-vertex, triangle-id)` pairs enabling `O(log deg)` triangle
//!   id lookups without hash maps (hot-path requirement, see DESIGN.md);
//! * [`four_cliques`] — per-triangle K4 degrees (the ω₄ values peeled by
//!   the (3,4) decomposition);
//! * [`kclique`] — a simple recursive k-clique enumerator used as the
//!   brute-force reference in tests and for Table 3 statistics;
//! * [`parallel`] — scoped-thread parallel twins for every counting and
//!   enumeration pass (triangle counts, edge supports, vertex triangle
//!   counts, per-triangle and per-edge K4 degrees), plus the
//!   [`balanced_ranges`] work partitioner and the
//!   [`fill_ranges_scoped`]/[`fill_ranges_pair_scoped`] disjoint-chunk
//!   fill helpers they (and the materialized peeling backend in
//!   `nucleus-core`) share. The materializing builders have parallel
//!   constructors of their own ([`TriangleList::build_with_threads`],
//!   [`TriangleIndex::build_with_threads`]) that are **bit-identical**
//!   to their serial counterparts at any thread count.

pub mod four_cliques;
pub mod kclique;
pub mod parallel;
pub mod triangle_index;
pub mod triangles;

pub use four_cliques::k4_edge_degrees;
pub use parallel::{
    balanced_ranges, fill_ranges_pair_scoped, fill_ranges_scoped, k4_degrees_parallel,
    k4_edge_degrees_parallel, vertex_triangle_counts_parallel,
};
pub use triangle_index::TriangleIndex;
pub use triangles::{vertex_triangle_counts, TriangleList};
