#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-closure — the timing-closure loop
//!
//! The paper's Figure 1 (MacDonald, ref \[30\]): iterate *STA → breakdown
//! of failures → manual repair*, applying the simplest fixes first —
//! **Vt-swap, then gate sizing, then buffer insertion, then non-default
//! routing rules, then useful skew** — until the block closes or the
//! schedule runs out (three weeks ≈ five three-day iterations).
//!
//! * [`fixes`] — the five fix transforms, each operating on the netlist
//!   ECO surface (`swap_master`, `insert_buffer`, `set_route_class`) or
//!   the clock tree. The four path-driven fixes are planned from the
//!   worst paths the loop's persistent [`tc_sta::Timer`] already holds,
//!   not from a fresh STA run per pass.
//! * [`flow`] — the iteration driver with per-iteration fix budgets,
//!   convergence records, ping-pong detection, and configurable fix
//!   ordering (for the ablation comparing the paper's recommended order
//!   against alternatives).
//! * [`power`] — post-closure leakage recovery: walking high-slack cells
//!   back down the Vt ladder, optionally under a MinIA-awareness veto
//!   (the §2.4 interference).
//!
//! # Examples
//!
//! ```
//! use tc_closure::flow::{ClosureConfig, ClosureFlow};
//! use tc_interconnect::BeolStack;
//! use tc_liberty::{LibConfig, Library, PvtCorner};
//! use tc_netlist::gen::{generate, BenchProfile};
//! use tc_sta::Constraints;
//!
//! let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
//! let mut nl = generate(&lib, BenchProfile::tiny(), 1)?;
//! let stack = BeolStack::n20();
//! let cons = Constraints::single_clock(1_500.0);
//! let mut flow = ClosureFlow::new(&lib, &stack, ClosureConfig::default());
//! let outcome = flow.run(&mut nl, cons)?;
//! assert!(outcome.closed || !outcome.iterations.is_empty());
//! # Ok::<(), tc_core::Error>(())
//! ```

pub mod fixes;
pub mod flow;
pub mod power;

pub use fixes::{hold_fix_pass, noise_fix_pass, FixKind, FixOutcome};
pub use flow::{ClosureConfig, ClosureFlow, ClosureOutcome, IterationRecord};
pub use power::recover_leakage;
