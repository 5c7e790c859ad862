//! # mpl-baselines — the sequential baseline
//!
//! [`seq`] is a **sequential** single-heap runtime with mark-sweep
//! collection and zero barriers: the MLton stand-in that defines `T_s`
//! and `R_s`. The benchmark (`benchmark/`) times every suite program on
//! it as the `ts` child that `overhead_x` divides by, and the tests check
//! each program's `run_seq` checksum against its plain-Rust `run_native`
//! in `mpl-bench-suite`.
//!
//! # Example
//!
//! The sequential baseline is a conventional rooted mark-sweep heap:
//!
//! ```
//! use mpl_baselines::{SeqRuntime, SeqValue};
//!
//! let mut rt = SeqRuntime::new(64 * 1024);
//! let pair = rt.alloc(&[SeqValue::Int(20), SeqValue::Int(22)]);
//! let h = rt.root(pair);
//! rt.collect(&[]); // rooted data survives
//! let pair = rt.get(h);
//! let sum = rt.get_field(pair, 0).expect_int() + rt.get_field(pair, 1).expect_int();
//! assert_eq!(sum, 42);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod seq;

pub use seq::{SeqHandle, SeqRuntime, SeqStats, SeqValue};
