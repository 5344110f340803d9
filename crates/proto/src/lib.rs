//! DUST protocol layer: typed messages and the Manager/Client state
//! machines of §III-B and §III-C.
//!
//! Both state machines are pure and clock-driven — the caller supplies
//! time and messages, the machines return messages to send — so the same
//! code runs deterministically under the discrete-event simulator, in unit
//! tests, and (with a transport bolted on) in a real deployment.
//!
//! # Example: full registration → offload → ACK handshake
//!
//! ```
//! use dust_proto::{Client, Manager, ClientMsg, ManagerMsg, SolverBackend};
//! use dust_core::DustConfig;
//! use dust_topology::{topologies, Link, NodeId};
//!
//! let g = topologies::line(2, Link::default());
//! let mut manager = Manager::new(g, DustConfig::paper_defaults(),
//!     SolverBackend::Transportation, 1000, 4000).unwrap();
//! let mut busy = Client::new(NodeId(0), true, 80.0);
//! let mut helper = Client::new(NodeId(1), true, 80.0);
//!
//! // register both clients
//! for c in [&mut busy, &mut helper] {
//!     let reg = c.register(0);
//!     for env in manager.handle(0, &reg) {
//!         c.handle(0, &env.msg);
//!     }
//! }
//! // report load: node 0 is Busy (90 %), node 1 has room (20 %)
//! busy.observe(90.0, 100.0);
//! helper.observe(20.0, 10.0);
//! for msg in busy.tick(1000).into_iter().chain(helper.tick(1000)) {
//!     manager.handle(1000, &msg);
//! }
//! // placement round emits an Offload-Request to node 1
//! let (placement, requests) = manager.run_placement(1001);
//! assert_eq!(requests.len(), 1);
//! let reply = helper.handle(1002, &requests[0].msg).unwrap();
//! manager.handle(1003, &reply);
//! assert!(manager.hostings().values().all(|h| h.confirmed));
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod manager;
pub mod messages;
pub mod qos;

pub use client::{Client, ClientPhase, HostedWorkload};
pub use codec::{decode_client, decode_manager, encode_client, encode_manager, CodecError};
pub use manager::{ClientRecord, ClientRegistry, Hosting, Manager, SolverBackend};
pub use messages::{ClientMsg, Envelope, ManagerMsg, RequestId};
pub use qos::{admit, ClassifiedLoad, Priority};
