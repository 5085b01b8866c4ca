//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate under the whole NDP reproduction: a
//! picosecond-resolution clock, a binary-heap scheduler with a monotone
//! tie-breaker (so runs are bit-reproducible for a given seed), and a
//! component arena with message-passing dispatch.
//!
//! The design follows the event-driven philosophy of stacks like smoltcp:
//! no async runtime, no threads inside a world, no unsafe — just a heap of
//! timestamped events and plain state machines. Parallelism (when needed by
//! the experiment harness) happens *across* independent worlds, never inside
//! one.
//!
//! # Example
//!
//! ```
//! use ndp_sim::{Component, Ctx, Event, Time, World};
//!
//! struct Echo { heard: u64 }
//! impl Component<u64> for Echo {
//!     fn handle(&mut self, ev: Event<u64>, _ctx: &mut Ctx<'_, u64>) {
//!         if let Event::Msg(v) = ev { self.heard += v; }
//!     }
//! }
//!
//! let mut world = World::new(42);
//! let id = world.add(Echo { heard: 0 });
//! world.post(Time::from_us(1), id, 7u64);
//! world.run_until_idle();
//! assert_eq!(world.get::<Echo>(id).heard, 7);
//! ```

pub mod fxhash;
pub mod time;
pub mod world;

pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use time::{Speed, Time};
pub use world::{
    set_default_scheduler, Component, ComponentId, Ctx, Event, EventKindCounts, SchedulerKind,
    World, WorldOp,
};
