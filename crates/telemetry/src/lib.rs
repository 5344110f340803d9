//! In-device telemetry substrate for the DUST reproduction (§III-A).
//!
//! * [`agents`] — the testbed's ten user-defined monitor agents with the
//!   CPU/memory cost model calibrated against Fig. 1 (≈ 100 % of one core
//!   at 20 % line-rate traffic, ≈ 1.2 GiB resident);
//! * [`tsdb`] — the node-local Time Series Database the agents write to;
//! * [`compress`](mod@compress) — Gorilla-style in-situ compression (delta-of-delta
//!   timestamps, XOR values) as performed by SmartNICs in the architecture;
//! * [`federation`] — the Time-Series Federation aggregating series across
//!   the network;
//! * [`framing`] — CRC-checked frames that carry compressed blocks over
//!   the wire.
//!
//! Alerting on these series is not here: a node held above `C_max` is
//! what `dust_obs::slo`'s `overload_dwell` rule checks, per node, from the
//! simulator's event loop.
//!
//! # Example
//!
//! ```
//! use dust_telemetry::{MonitorAgent, aggregate_load, Tsdb, compress, decompress};
//!
//! // the standard ten-agent deployment at 20 % line rate
//! let agents = MonitorAgent::standard_deployment();
//! let load = aggregate_load(&agents, 0.2);
//! assert!((load.cpu_percent - 100.0).abs() < 5.0); // Fig. 1 calibration
//!
//! // agents write series; blocks compress losslessly
//! let mut db = Tsdb::new();
//! for t in 0..100u64 {
//!     db.append("cpu", t * 1000, load.cpu_percent);
//! }
//! let block = compress(db.series("cpu").unwrap());
//! assert!(block.ratio() > 10.0);
//! assert_eq!(decompress(&block).unwrap().len(), 100);
//!
//! // a writer on a hot path resolves the name once and appends through
//! // the handle: no name search per point, no regrowth once reserved
//! let mem = db.series_id("mem");
//! db.reserve(mem, 100);
//! for t in 0..100u64 {
//!     db.append_to(mem, t * 1000, load.mem_mib);
//! }
//! assert_eq!(db.series("mem").unwrap().len(), 100);
//! ```

#![warn(missing_docs)]

pub mod agents;
pub mod compress;
pub mod federation;
pub mod framing;
pub mod tsdb;

pub use agents::{aggregate_load, AgentKind, AgentLoad, IntSampler, IntSampling, MonitorAgent};
pub use compress::{compress, decompress, CompressedBlock};
pub use federation::{Aggregation, Federation};
pub use framing::{crc32, deframe, deframe_stream, frame, FrameError};
pub use tsdb::{Point, Series, SeriesId, Tsdb};
