//! Gate-level logic simulation and rare-net analysis.
//!
//! This crate is the stand-in for the commercial logic simulator (Synopsys
//! VCS) used in the DETERRENT paper. It provides:
//!
//! * [`TestPattern`] — an assignment to the scan inputs of a netlist.
//! * [`simulate`] / [`Simulator`] — a 64-way bit-parallel gate-level
//!   simulator under the full-scan assumption.
//! * [`ConeWords`] — multi-word packed simulation restricted to the fanin
//!   cones of a fixed root set.
//! * [`SignalProbabilities`] — Monte-Carlo signal-probability estimation from
//!   random patterns.
//! * [`rare`] — extraction of *rare nets*: nets whose probability of taking
//!   one of the two logic values falls below a rareness threshold. These are
//!   the candidate trigger nets an adversary would use and the action space
//!   of the DETERRENT RL agent.
//!
//! # Example
//!
//! ```
//! use netlist::samples;
//! use sim::{rare::RareNetAnalysis, Simulator, TestPattern};
//!
//! let nl = samples::rare_chain(6);
//! let sim = Simulator::new(&nl);
//! let all_ones = TestPattern::ones(nl.num_scan_inputs());
//! let values = sim.run(&all_ones);
//! // The AND-chain root is activated only by the all-ones pattern.
//! let root = nl.net_by_name("and5").unwrap();
//! assert!(values.value(root));
//!
//! let analysis = RareNetAnalysis::estimate(&nl, 0.1, 2000, 42);
//! assert!(analysis.rare_nets().iter().any(|r| r.net == root));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod cone_sim;
mod cone_words;
mod pattern;
pub mod probability;
pub mod rare;
mod simulator;
pub mod witness;

pub use compact::CompactTrace;
pub use cone_sim::ConeSimulator;
pub use cone_words::ConeWords;
pub use pattern::TestPattern;
pub use probability::{SignalProbabilities, SimTrace};
pub use rare::RareNetEstimate;
pub use simulator::{simulate, NetValues, PackedValues, Simulator};
pub use witness::{PatternSource, WitnessBank};
