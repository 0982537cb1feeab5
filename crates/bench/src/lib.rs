//! Evaluation harness: one experiment per table/figure of the paper.
//!
//! Every experiment is a library function returning a formatted report, so
//! the per-experiment binaries stay thin and the `repro` driver can run the
//! whole evaluation in one process (building each dataset once). See
//! `DESIGN.md` §4 for the experiment index and the expected shapes.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod datasets;
pub mod experiments;
pub mod table;

pub use datasets::{load_suite, Loaded};
