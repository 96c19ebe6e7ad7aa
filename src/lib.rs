//! # weblab — facade crate for the WebLab PROV reproduction
//!
//! Re-exports every subsystem of the reproduction of *"WebLab PROV:
//! Computing fine-grained provenance links for XML artifacts"* (EDBT 2013)
//! under one roof, so that examples and downstream users can depend on a
//! single crate:
//!
//! * [`xml`] — WebLab documents: append-only XML trees, states, diff.
//! * [`xpath`] — Core-XPath patterns with variable bindings and embeddings.
//! * [`prov`] — mapping rules, provenance graphs, evaluation strategies
//!   (the paper's core contribution).
//! * [`xquery`] — FLWOR-subset engine and the rule → XQuery compiler.
//! * [`rdf`] — triple store, PROV-O export, Turtle, SPARQL-lite.
//! * [`workflow`] — black-box services, orchestrator, execution traces.
//! * [`platform`] — the Figure 5 architecture (Recorder / Mapper / Request
//!   Manager).
//! * [`obs`] — in-tree observability: engine counters, span timers and
//!   snapshot reports (`weblab --metrics`).
//!
//! The façade also hosts the daemon layer built on top of the subsystems:
//!
//! * [`error`] — the unified [`error::WebLabError`] with stable
//!   machine-readable codes shared by the CLI and the serve protocol.
//! * [`json`] — the dependency-free, deterministic JSON used by the
//!   line-delimited serve protocol.
//! * [`serve`] — the `weblab serve` provenance query service: a TCP
//!   daemon answering `why`/`lineage`/`sparql`/… requests from published
//!   reachability-index snapshots, concurrently with live ingestion.
//!
//! See the `examples/` directory for end-to-end walkthroughs, starting with
//! `quickstart.rs`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod json;
#[allow(unsafe_code)]
mod poll;
pub mod serve;

pub use weblab_obs as obs;
pub use weblab_platform as platform;
pub use weblab_prov as prov;
pub use weblab_rdf as rdf;
pub use weblab_workflow as workflow;
pub use weblab_xml as xml;
pub use weblab_xpath as xpath;
pub use weblab_xquery as xquery;
