//! `perf_stack`: times a clip job through gateway → daemon → manager →
//! analyzer, end to end against the shipped `slj` binary, and layer by
//! layer from outside each layer's public entry point. See README.md.

pub mod clips;
pub mod compare;
pub mod http;
pub mod layers;
pub mod load;
pub mod procs;
pub mod record;
pub mod report;
pub mod runner;
pub mod schedule;
pub mod stats;
pub mod workload;
