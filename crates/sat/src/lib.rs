//! A conflict-driven clause-learning (CDCL) SAT solver with gate-level
//! netlist encoding.
//!
//! The machine-learning/decamouflaging attack the paper cites (\[11\],
//! El Massad et al.) is at its core a satisfiability-based key search;
//! this crate provides the substrate for the executable attack in
//! `sttlock-attack`:
//!
//! * [`Solver`] — MiniSat-style CDCL: two-literal watching, VSIDS
//!   decision heuristic, first-UIP clause learning, non-chronological
//!   backjumping, Luby restarts and phase saving. Supports incremental
//!   solving under assumptions. Storage is flat: clauses of three or
//!   more literals share one `u32` arena, a binary clause lives only in
//!   its two watch-list entries, and truth values are one byte per
//!   literal. The search is deterministic: literal order, watch-list
//!   order and heap tie-breaks fix every decision, so the same clauses
//!   in the same order give the same [`SolverStats`] and model.
//! * [`encode`] — Tseitin encoding of a netlist's combinational core.
//!   Redacted LUTs contribute *key variables* (one per truth-table row),
//!   so a model of the CNF is a consistent hypothesis about the missing
//!   gates. Encoding reuses one clause buffer, and [`Solver::add_clause`]
//!   another, so neither allocates per clause.
//!
//! # Example
//!
//! ```
//! use sttlock_sat::{Lit, SatResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);   // a ∨ b
//! s.add_clause(&[Lit::neg(a)]);                // ¬a
//! assert_eq!(s.solve(), SatResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod equiv;
pub mod unroll;

mod lit;
mod solver;

pub use lit::{Lit, Var};
pub use solver::{SatResult, Solver, SolverStats};
