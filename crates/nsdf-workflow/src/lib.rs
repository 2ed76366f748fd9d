//! # nsdf-workflow
//!
//! The workflow engine for the four-step training pipeline (paper Figs.
//! 3–4): a task graph ([`graph`]) of typed task nodes with explicit data
//! dependencies (including GEOtiled halo-exchange edges), ready-queue
//! wave scheduling over a work-stealing pool on the shared virtual clock,
//! failure isolation to the dependent cone, per-task lineage of produced
//! and consumed [`Artifact`]s, and hash-verified incremental recompute
//! backed by a persistent fingerprint manifest on any object store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod graph;
pub mod json;

pub use artifact::Artifact;
pub use graph::{
    GraphRun, Manifest, ManifestEntry, RunOptions, TaskCtx, TaskGraph, TaskInput, TaskOutput,
    TaskRecord, TaskStatus,
};
