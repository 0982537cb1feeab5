//! Graph analytics layered over the traversal engines.
//!
//! The paper evaluates with PageRank (§4.1), "which … iteratively performs
//! SpMV-type calculations". Its §6 argues the same irregular-traversal idea
//! applies to other analytics; this crate implements those too:
//!
//! * [`pagerank`] — the evaluation application (Figures 7 and 8);
//! * [`spmv`] — the bare Algorithm 1/2/3 kernel (§2.2's microbenchmark);
//! * [`components`] — connected components by min-label propagation;
//! * [`sssp`] — unweighted single-source shortest paths (Bellman–Ford);
//! * [`triangles`] — triangle counting with the AYZ-style degree split the
//!   paper's §5.1 traces its lineage to;
//! * [`bfs`] — direction-optimizing BFS, the push-OR-pull scheme the
//!   paper's §5.2 contrasts with iHTL's per-vertex-type mix.
//!
//! All of them run on any [`engine::SpmvEngine`], so the served engines and
//! Figure 7's framework baselines execute the identical analytic code.

#![forbid(unsafe_code)]

pub mod bfs;
pub mod components;
pub mod engine;
pub mod jobs;
pub mod multi;
pub mod pagerank;
mod rows;
pub mod spmv;
pub mod sssp;
pub mod triangles;

pub use engine::{
    build_engine, build_engine_shared, ihtl_engine_from_shared, pb_engine_from_shared, EngineKind,
    SpmvEngine,
};
pub use jobs::{run_job, run_job_multi, JobOutput, JobSpec};
pub use multi::{pagerank_multi, spmv_sum_multi, sssp_multi};
pub use pagerank::{pagerank, pagerank_seeded, PageRankRun};
