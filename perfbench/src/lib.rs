//! End-to-end and per-layer benchmark of the web-cache simulator and the
//! running caching proxy. See `README.md` in this directory.

pub mod body;
pub mod client;
pub mod input;
pub mod layers;
pub mod origin;
pub mod report;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod sys;
