//! Deterministic discrete-event simulation kernel for the `cbp` workspace.
//!
//! Everything in the checkpoint-based-preemption reproduction — the storage
//! devices, the HDFS-lite file system, the cluster scheduler and the YARN
//! analog — runs on top of this crate. It provides:
//!
//! * [`SimTime`] / [`SimDuration`]: microsecond-resolution simulated time,
//! * [`EventQueue`]: a priority queue of timestamped events with FIFO
//!   tie-breaking so runs are fully deterministic,
//! * [`Simulation`] and [`run`] / [`run_until`]: a minimal engine loop,
//! * [`SimRng`]: a seeded random-number source plus heavy-tailed
//!   distributions used by the workload generators,
//! * [`stats`]: exact percentiles and CDFs used by the experiment harness.
//!
//! # Example
//!
//! A two-event "ping/pong" simulation:
//!
//! ```
//! use cbp_simkit::{EventQueue, SimDuration, SimTime, Simulation, run};
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! struct PingPong { pings: u32, pongs: u32 }
//!
//! impl Simulation for PingPong {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
//!         match ev {
//!             Ev::Ping => {
//!                 self.pings += 1;
//!                 if self.pings < 3 {
//!                     q.push(now + SimDuration::from_secs(1), Ev::Pong);
//!                 }
//!             }
//!             Ev::Pong => {
//!                 self.pongs += 1;
//!                 q.push(now + SimDuration::from_secs(1), Ev::Ping);
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = PingPong { pings: 0, pongs: 0 };
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO, Ev::Ping);
//! let end = run(&mut sim, &mut q);
//! assert_eq!((sim.pings, sim.pongs), (3, 2));
//! assert_eq!(end, SimTime::from_secs(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod event;
mod rng;
mod time;

pub mod dist;
pub mod stats;
pub mod units;

pub use engine::{run, run_until, run_until_observed, RunStats, Simulation, OBSERVE_EVERY};
pub use event::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
