//! MESI directory coherence with the asymmetric-fence extensions.
//!
//! This crate is the coherence substrate of the `asymfence` workspace:
//! private L1 caches, banked shared L2 with a full-map directory, and a 2D
//! mesh between them — extended with the mechanisms of *Asymmetric Memory
//! Fences* (ASPLOS 2015):
//!
//! * per-core **Bypass Sets** that bounce conflicting invalidations
//!   ([`bypass`]),
//! * **Order** and **Conditional Order** write transactions ([`dir`]),
//! * keep-as-sharer writebacks (paper §5.1),
//! * the WeeFence **GRT** (global reorder table) for the comparison design.
//!
//! The entry point is [`mem::MemSystem`]; the `asymfence-cpu` crate drives
//! it from the core model.
//!
//! # Examples
//!
//! ```
//! use asymfence_coherence::mem::{MemEvent, MemSystem};
//! use asymfence_common::config::MachineConfig;
//! use asymfence_common::ids::{Addr, CoreId};
//!
//! let mut mem = MemSystem::new(&MachineConfig::default());
//! mem.backdoor_write(Addr::new(0x40), 123);
//! let tok = mem.issue_load(0, CoreId(0), Addr::new(0x40));
//! for t in 0..1000 {
//!     mem.tick(t);
//!     if let Some(MemEvent::LoadDone { token, value }) = mem.pop_event(CoreId(0)) {
//!         assert_eq!(token, tok);
//!         assert_eq!(value, 123);
//!         break;
//!     }
//! }
//! ```

pub mod bypass;
pub mod dir;
pub mod l1;
pub mod mem;
pub mod msg;
mod slab;

pub use bypass::{BsEntry, BsMatch, BypassSet};
pub use mem::{MemCounters, MemEvent, MemSystem, Token};
pub use msg::{LineData, OrderMode, RmwKind, WordUpdate};
