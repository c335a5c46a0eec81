//! The repository benchmark: seeded workloads driven through a real
//! `mmjoin-netd`, with every answer checked, plus an in-process traced
//! pass that times each layer through its public calls. See README.md.

pub mod drive;
pub mod host;
pub mod layers;
pub mod netd;
pub mod util;
pub mod workload;
