//! # formad-kernels
//!
//! The six benchmark programs of the paper's evaluation (§7), rebuilt as
//! loop-IR sources with reproducible workload generators:
//!
//! | Module | Paper benchmark | FormAD outcome |
//! |---|---|---|
//! | [`stencil`] (radius 1) | small stencil | safe — no atomics |
//! | [`stencil`] (radius 8) | large stencil | safe — no atomics |
//! | [`gfmc`] (split) | GFMC | safe — no atomics |
//! | [`gfmc`] (fused) | GFMC* | guarded |
//! | [`lbm`] | Parboil LBM | guarded (analysis-only) |
//! | [`lbm`] (exec, literal offsets) | Parboil LBM | transposed gather — proved |
//! | [`green_gauss`] | Green-Gauss gradients | safe — no atomics |
//!
//! [`mesh`] provides the unstructured-mesh substrate (linear 2-color mesh
//! plus greedy coloring) for Green-Gauss.

pub mod gfmc;
pub mod green_gauss;
pub mod lbm;
pub mod mesh;
pub mod stencil;

pub use gfmc::GfmcCase;
pub use green_gauss::GreenGaussCase;
pub use lbm::{lbm_ir, lbm_source, LbmExecCase, LBM_EXEC_OFFSETS, LBM_OFFSETS};
pub use mesh::ColoredMesh;
pub use stencil::StencilCase;
