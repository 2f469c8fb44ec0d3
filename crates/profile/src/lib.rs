#![warn(missing_docs)]

//! Profile-guided hybrid compression: the size-vs-speed layer the paper's
//! §5 defers ("the dictionary must be accessed to expand codewords … one
//! could leave frequently executed code uncompressed").
//!
//! Three pieces, composed by `codense profile` / `codense hybrid` /
//! `codense hybrid-sweep`:
//!
//! * [`collect()`] — the execution profiler: runs a benchmark natively under
//!   the VM's tracing hook and records per-instruction and per-basic-block
//!   execution counts, plus the fetch-path event counts (escape decodes,
//!   codeword expansions, nibble-PC realignments) of a reference compressed
//!   run. The result is a deterministic [`Profile`] artifact rendered as
//!   schema-1 sorted-key JSON ([`render_profiles_json`]).
//! * [`hotness`] — the hot/cold partitioning policy: a [`HotnessPolicy`]
//!   (absolute weight threshold or top-K% dynamic coverage) turns a profile
//!   into a block-aligned exemption mask for
//!   `codense_core::Compressor::compress_masked`, which keeps hot blocks
//!   uncompressed and counts occurrences only in cold code.
//! * [`cost`] — the cycle-level fetch performance model: configurable
//!   per-event costs ([`CostParams`]) over the VM's fetch statistics plus
//!   the `codense-cache` I-cache simulator, scoring any image against a
//!   run ([`score_native`], [`score_compressed`]).
//!
//! [`hybrid_sweep`] sweeps the hotness-coverage knob across a list of
//! subjects, the [`bench`](mod@bench) suite (each runnable kernel extended
//! with a large never-executed cold section, the shape of real firmware) for
//! the size-vs-cycles Pareto frontier checked in as `BENCH_hybrid.json`.

pub mod artifact;
pub mod bench;
pub mod collect;
pub mod cost;
pub mod hotness;
pub mod subject;
pub mod sweep;

pub use artifact::{render_profiles_json, BlockStat, FetchEvents, Profile};
pub use collect::{collect, ProfileError, MEM_BYTES};
pub use cost::{score_compressed, score_native, CostParams, Score};
pub use hotness::{hot_mask, HotMask, HotnessPolicy};
pub use subject::Subject;
pub use sweep::{hybrid_sweep, render_bench_json, HybridBenchResult, HybridOptions, HybridPoint};
