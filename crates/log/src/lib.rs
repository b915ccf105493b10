//! # wlq-log — the workflow log data model
//!
//! This crate implements the log formalism of *"Querying Workflow Logs"*
//! (Tang, Mackey, Su): [`LogRecord`] (Definition 1), [`Log`] with its four
//! validity conditions (Definition 2), incremental construction
//! ([`LogBuilder`]), the dense index query evaluation reads ([`LogIndex`],
//! built with the log and lent out by [`Log::index`]),
//! statistics ([`LogStats`]), serialization ([`io`]), and the paper's
//! Figure 3 example log ([`paper`]).
//!
//! A log is a totally-ordered sequence of records, each recording one
//! activity execution of one workflow instance together with the attribute
//! values the activity read (`αin`) and wrote (`αout`).
//!
//! Every log, decoded (binary, text, CSV or XES) or built by
//! [`Log::new`], keeps its records as columns: the
//! index's columns hold each record's lsn, wid, is-lsn and activity, and
//! two map numbers per record point into per-activity attribute blocks
//! that are parsed on first read. Queries read the maps through
//! [`Log::maps`] without building a record; [`Log::records`] and the
//! other record accessors build the [`LogRecord`]s once, on first call.
//!
//! ## Quick start
//!
//! ```
//! use wlq_log::{attrs, LogBuilder, LogStats};
//!
//! // A workflow engine writes its log through a builder:
//! let mut b = LogBuilder::new();
//! let w = b.start_instance();
//! b.append(w, "GetRefer", attrs! {}, attrs! { "balance" => 1000i64 })?;
//! b.append(w, "CheckIn", attrs! { "balance" => 1000i64 }, attrs! {})?;
//! b.end_instance(w)?;
//! let log = b.build()?;
//!
//! assert_eq!(log.len(), 4);
//! assert!(log.is_completed(w));
//! println!("{}", LogStats::compute(&log));
//! # Ok::<(), wlq_log::LogError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod attrs;
mod builder;
mod error;
mod index;
mod log;
mod names;
mod ops;
mod record;
mod stats;
mod value;

pub mod io;
pub mod paper;

pub use attrs::{AttrIter, AttrMap, AttrMapRef};
pub use builder::LogBuilder;
pub use error::{LogError, ParseLogError};
pub use index::{ActivityId, LogIndex, PostingsCursor};
pub use log::{InstanceState, Log};
pub use names::{Activity, AttrName, END_ACTIVITY, START_ACTIVITY};
pub use record::{IsLsn, LogRecord, Lsn, Wid};
pub use stats::LogStats;
pub use value::Value;
