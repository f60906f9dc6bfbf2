//! The table-driven protocol core.
//!
//! This module turns the coherence protocol from code into data, in three
//! layers:
//!
//! * [`table`] — the **declarative transition tables**: every legal
//!   `(state, input) -> next-state` transition of the BASIC write-invalidate
//!   protocol, for both the home directory and the processor-cache side,
//!   plus the extra transitions each paper extension (P, M, CW, CW+M and
//!   the MESI-style exclusive-clean ablation) layers on top. The tables are
//!   plain `static` data: the documentation generator renders them into
//!   `docs/PROTOCOL.md` and the conformance checker validates executions
//!   against them.
//! * [`hooks`] — the **extension hooks**: one concrete [`Exts`] value per
//!   controller, built once from the [`crate::ProtocolConfig`], carries
//!   *all* extension-specific behavior. The BASIC transition core in
//!   [`crate::dir`] and the simulator's cache controller contain no
//!   extension flag branches: at each decision point they call an `Exts`
//!   hook, whose body spells out how the installed extensions take
//!   precedence, so any of the paper's eight configurations is just a
//!   different `Exts`.
//! * [`trace`] + [`conformance`] — the **transition-trace layer**: both
//!   controllers append [`trace::TransitionRecord`]s (time, node, block,
//!   state before/after, triggering input, firing extension) to ring
//!   buffers, and the conformance checker replays a recorded trace against
//!   the tables, flagging any transition not derivable from
//!   BASIC-plus-enabled-extensions.

pub mod conformance;
pub mod hooks;
pub mod table;
pub mod trace;

pub use conformance::{check_trace, Violation};
pub use hooks::{Exts, ReadFetch, ReadGrant, UpdateRoute, WriteMode};
pub use table::{ExtKind, ExtSet, Rule, CACHE_RULES, DIR_RULES};
pub use trace::{CacheTag, DirTag, MsgTag, StateTag, TraceInput, TraceRing, TransitionRecord};
