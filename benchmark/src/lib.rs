//! The `nucanet` benchmark: five workloads of whole sweep points, four
//! end-to-end metrics, and spans around every call into a layer.
//!
//! The simulator is driven only through its public library calls, from
//! one process, with at most two threads; no environment variable is
//! read. See `README.md` for the metric glossary, the workload
//! rationale and the pinned public API.

pub mod accuracy;
pub mod alloc_count;
pub mod checks;
pub mod cli;
pub mod endtoend;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod span;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;
