//! # weblab-platform — the Figure 5 architecture of WebLab PROV
//!
//! Assembles the reproduction's components into the three-part architecture
//! of the paper's Section 6:
//!
//! 1. **Recording** — [`Recorder`] captures every service call (in-process
//!    or as a serialised document exchange, with XML-diff based fragment
//!    identification), updates the [`ResourceRepository`] and writes the
//!    execution metadata into the [`TraceStore`] (whose RDF mirror makes
//!    traces SPARQL-queryable).
//! 2. **Graph construction** — the [`ServiceCatalog`] holds per-service
//!    endpoints, signatures and mapping rules; the [`Mapper`] combines
//!    catalog rules with the trace and the final document to materialise
//!    the provenance graph, through either the native engine or compiled
//!    XQuery.
//! 3. **Request management** — per-execution behaviour is grouped behind
//!    the [`ExecutionHandle`] façade ([`Platform::execution`]): batch
//!    materialisation checks the Provenance triple store for an
//!    already-materialised graph and invokes the Mapper on a miss, while
//!    structured queries ([`ProvQuery`]) answer from a published
//!    epoch/snapshot reachability index without re-walking edge lists.
//!
//! ```
//! use std::sync::Arc;
//! use weblab_platform::{Mapper, Platform};
//! use weblab_workflow::generator::generate_corpus;
//! use weblab_workflow::services::Normaliser;
//!
//! let p = Platform::new(Mapper::native());
//! p.register_service(
//!     Arc::new(Normaliser),
//!     &["//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]"],
//! ).unwrap();
//! let exec = p.execution("exec-1");
//! exec.ingest(generate_corpus(1, 1, 20));
//! exec.execute(&["Normaliser"]).unwrap();
//! let graph = exec.graph().unwrap();
//! assert!(!graph.links.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod mapper;
pub mod persist;
mod platform;
pub mod query;
mod recorder;
mod repository;
pub mod store;
mod trace_store;

pub use catalog::{CatalogError, ServiceCatalog, ServiceEntry};
pub use mapper::{Mapper, MapperError, MapperStrategy};
pub use platform::{
    ExecutionHandle, Platform, PlatformError, ReplayReport, ResidencyPin, SpecStep, WorkflowSpec,
};
pub use query::{ProvQuery, QueryAnswer, QueryOpts, RankDirection, PROTOCOL_VERSION};
pub use recorder::{merge_exchange, Recorder, RecorderError};
pub use repository::ResourceRepository;
pub use store::{ProvStore, StoredExecution};
pub use trace_store::TraceStore;
