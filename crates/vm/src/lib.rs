#![warn(missing_docs)]

//! A PowerPC-subset interpreter with a compressed-program fetch path — the
//! "compressed program processor" of the reproduced paper's Fig 3.
//!
//! The [`machine::Machine`] executes decoded instructions against
//! architectural state; instruction supply is abstracted behind
//! [`fetch::Fetch`], with two implementations:
//!
//! * [`fetch::LinearFetcher`] — the ordinary front end over raw words;
//! * [`fetch::PredecodedFetcher`] — the modified front end: it parses the
//!   packed compressed image, routes uncompressed instructions straight to
//!   decode, and expands codewords through the on-chip dictionary, caching
//!   each parsed item by its stream offset.
//!
//! Because the machine's PC domain is nibble addresses in both cases, one
//! execution loop ([`run::run_traced`], or [`run::run`] without an
//! observer) runs both program forms. A typed machine decodes each pooled
//! word once, and the loop publishes the fetch counters once per run.
//! Code that knows the ISA only at run time gets the typed machine from
//! `codense_codegen::with_core`. The loop also takes a boxed `dyn Core`,
//! which decodes the word it steps: that is the `step_word` reference the
//! equivalence tests compare the typed machines against, not a production
//! path. The [`kernels`] module supplies real programs to prove
//! equivalence end-to-end.
//!
//! [`fetch_reference`] keeps the re-parsing engine that parses the stream
//! on every fetch: a test-only executable specification the compressed
//! engine is checked against.
//!
//! # Example
//!
//! ```
//! use codense_core::{Compressor, CompressionConfig};
//! use codense_vm::{kernels, machine::Machine, run::run, PredecodedFetcher};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = kernels::fib();
//! let compressed = Compressor::new(CompressionConfig::baseline()).compress(&kernel.module)?;
//! let mut machine = kernel.machine();
//! let mut fetch = PredecodedFetcher::new(&compressed);
//! let result = run(&mut machine, &mut fetch, 0, 1_000_000)?;
//! assert_eq!(result.exit_code, 6765);
//! # Ok(())
//! # }
//! ```

pub mod fetch;
pub mod fetch_reference;
pub mod kernels;
pub mod machine;
pub mod run;

pub use fetch::{Fetch, FetchStats, LinearFetcher, PredecodedFetcher};
pub use machine::{Core, Machine, MachineError, Outcome};
pub use run::{run, run_predecoded, run_traced, RunResult};
