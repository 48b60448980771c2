//! # formad-runtime
//!
//! The persistent worker pool that executes parallel regions of
//! generated programs: [`ThreadPool`], the OpenMP thread team stand-in.
//! `formad-machine`'s execution engine owns everything above it (the
//! static chunk schedule shared with the simulated machine, atomic and
//! privatized increments, the reduction merge).

pub mod pool;

pub use pool::ThreadPool;
