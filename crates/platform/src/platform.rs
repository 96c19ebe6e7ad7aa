//! The assembled WebLab PROV platform (Figure 5) and its Request Manager.
//!
//! [`Platform`] wires the Recorder, Resource Repository, Execution Trace
//! store, Service Catalog, Mapper and Provenance triple store together.
//! Per-execution behaviour is exposed through [`Platform::execution`],
//! which returns an [`ExecutionHandle`] — the façade the CLI and the
//! `weblab serve` query service are written against. The handle answers
//! reachability queries from a published [`EpochSnapshot`] (an immutable
//! graph + [`ReachabilityIndex`] pair swapped in after every committed
//! live delta), so readers never block ingestion and never re-walk the
//! edge list.
//!
//! The original per-execution method sprawl (`provenance_graph`,
//! `dependencies_of`, …) is gone: the handle is the one query surface,
//! and with it the v2 protocol's ranked analytics
//! ([`ExecutionHandle::rank`], [`ExecutionHandle::summary`]).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use std::sync::{Mutex, RwLock};
use weblab_obs::{Counter, Gauge};
use weblab_prov::{
    dirty_cone, EngineOptions, EpochSnapshot, GraphSummary, LiveDelta, LiveProvenance,
    ProvenanceGraph, QueryOpts, RankDirection, RankedEntry, ReachabilityIndex,
};
use weblab_rdf::{export_prov_into, QueryEngine, Solution, SparqlError, TripleStore};
use weblab_workflow::{
    next_time, FaultPolicy, FragmentGrade, Orchestrator, ProofMode, Service, Workflow,
    WorkflowError,
};
use weblab_xml::Document;

use crate::catalog::{CatalogError, ServiceCatalog};
use crate::mapper::{Mapper, MapperError, MapperStrategy};
use crate::persist::PersistError;
use crate::query::{ProvQuery, QueryAnswer};
use crate::recorder::{Recorder, RecorderError};
use crate::repository::ResourceRepository;
use crate::store::ProvStore;
use crate::trace_store::TraceStore;

/// Executions evicted from residency to the attached store.
static EVICTIONS: Counter = Counter::new("store.evictions");
/// Executions currently resident in memory (store attached only).
static RESIDENT: Gauge = Gauge::new("store.resident");

/// Platform-level failure.
#[derive(Debug)]
pub enum PlatformError {
    /// Unknown execution id.
    UnknownExecution(String),
    /// A workflow step names a service with no registered implementation.
    UnknownService(String),
    /// Catalog manipulation failed.
    Catalog(CatalogError),
    /// A service call failed.
    Workflow(WorkflowError),
    /// Recording failed.
    Recorder(RecorderError),
    /// Provenance materialisation failed.
    Mapper(MapperError),
    /// A provenance query failed to parse.
    Sparql(SparqlError),
    /// The attached disk store failed to save or load an execution.
    Store(PersistError),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownExecution(e) => write!(f, "unknown execution {e:?}"),
            PlatformError::UnknownService(s) => write!(f, "no implementation for service {s:?}"),
            PlatformError::Catalog(e) => write!(f, "{e}"),
            PlatformError::Workflow(e) => write!(f, "{e}"),
            PlatformError::Recorder(e) => write!(f, "{e}"),
            PlatformError::Mapper(e) => write!(f, "{e}"),
            PlatformError::Sparql(e) => write!(f, "{e}"),
            PlatformError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<CatalogError> for PlatformError {
    fn from(e: CatalogError) -> Self {
        PlatformError::Catalog(e)
    }
}

impl From<WorkflowError> for PlatformError {
    fn from(e: WorkflowError) -> Self {
        PlatformError::Workflow(e)
    }
}

impl From<RecorderError> for PlatformError {
    fn from(e: RecorderError) -> Self {
        PlatformError::Recorder(e)
    }
}

impl From<MapperError> for PlatformError {
    fn from(e: MapperError) -> Self {
        PlatformError::Mapper(e)
    }
}

impl From<SparqlError> for PlatformError {
    fn from(e: SparqlError) -> Self {
        PlatformError::Sparql(e)
    }
}

impl From<PersistError> for PlatformError {
    fn from(e: PersistError) -> Self {
        PlatformError::Store(e)
    }
}

/// A declarative workflow specification over *registered service names*:
/// the platform resolves each name against its service registry and builds
/// the executable [`Workflow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecStep {
    /// A single service call, by registered name.
    Service(String),
    /// A parallel block of branches (Section 8 extension).
    Parallel(Vec<WorkflowSpec>),
}

/// An ordered list of [`SpecStep`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkflowSpec {
    /// The steps.
    pub steps: Vec<SpecStep>,
}

impl WorkflowSpec {
    /// A sequential spec from service names.
    pub fn sequence(names: &[&str]) -> Self {
        WorkflowSpec {
            steps: names
                .iter()
                .map(|n| SpecStep::Service(n.to_string()))
                .collect(),
        }
    }

    /// Append a service step.
    pub fn then(mut self, name: impl Into<String>) -> Self {
        self.steps.push(SpecStep::Service(name.into()));
        self
    }

    /// Append a parallel block.
    pub fn then_parallel(mut self, branches: Vec<WorkflowSpec>) -> Self {
        self.steps.push(SpecStep::Parallel(branches));
        self
    }
}

/// Summary of a [`Platform::replay_execution`] run — the serve protocol's
/// `replay` response body.
#[derive(Debug)]
pub struct ReplayReport {
    /// Id the replayed execution was registered under.
    pub execution: String,
    /// Size of the dirty cone (changed URIs plus everything impacted).
    pub cone_size: usize,
    /// Prior calls reused via fragment splicing.
    pub reused: usize,
    /// Prior calls re-executed because their outputs sat in the cone.
    pub recomputed: usize,
    /// Fragments spliced forward from the prior document.
    pub splices: usize,
    /// Per-fragment verification grades (empty under [`ProofMode::Trusted`]).
    pub grades: Vec<FragmentGrade>,
}

/// The assembled platform.
pub struct Platform {
    repository: Arc<ResourceRepository>,
    traces: Arc<TraceStore>,
    recorder: Recorder,
    catalog: RwLock<ServiceCatalog>,
    services: RwLock<HashMap<String, Arc<dyn Service>>>,
    materialized: RwLock<HashMap<String, MaterializedGraph>>,
    mapper: Mapper,
    fault: RwLock<FaultPolicy>,
    /// Live provenance maintainers, per execution id, for executions where
    /// live mode was enabled. Each is shared with the call-completion hook
    /// of in-flight orchestrations.
    live: RwLock<HashMap<String, Arc<Mutex<LiveProvenance>>>>,
    /// Per-execution reachability index state backing [`ExecutionHandle`]
    /// queries and the `weblab serve` daemon.
    index_states: RwLock<HashMap<String, Arc<IndexState>>>,
    /// The attached disk store and its residency bookkeeping, when the
    /// platform runs disk-backed (`weblab serve --store`).
    store: RwLock<Option<Arc<StoreState>>>,
}

/// Disk-backed residency: the attached [`ProvStore`] plus the LRU
/// bookkeeping that bounds how many executions stay in memory at once.
struct StoreState {
    store: Arc<ProvStore>,
    /// Executions kept resident before eviction kicks in (at least 1).
    max_resident: usize,
    residency: Mutex<Residency>,
    /// Serialises cold loads, so concurrent readers of one evicted
    /// execution trigger a single disk load between them.
    loading: Mutex<()>,
}

/// Which executions are resident, and which of them eviction must skip.
#[derive(Default)]
struct Residency {
    /// Resident execution ids, least-recently-used first.
    lru: Vec<String>,
    /// Pin count per execution with a call in flight ([`ResidencyPin`]).
    pins: HashMap<String, usize>,
}

/// Keeps an execution resident while a call on it is in flight: eviction
/// skips pinned executions, so a pipeline never loses its live maintainer
/// or index state to a concurrent cold load. Pins nest; the execution is
/// unpinned when the last guard drops. Every platform call that works on
/// an execution's in-memory state holds one ([`Platform::ingest`],
/// [`Platform::execute_spec`], [`Platform::replay_execution`], snapshots
/// and graph reads); [`ExecutionHandle::pin`] holds one across a sequence
/// of calls. Without an attached store nothing is evicted and the guard
/// is inert.
#[must_use = "the execution is unpinned when the guard drops"]
pub struct ResidencyPin {
    pinned: Option<(Arc<StoreState>, String)>,
}

impl Drop for ResidencyPin {
    fn drop(&mut self) {
        let Some((ss, id)) = &self.pinned else {
            return;
        };
        // may run while a panic unwinds: never panic on a poisoned lock
        let mut res = ss.residency.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(count) = res.pins.get_mut(id) {
            *count -= 1;
            if *count == 0 {
                res.pins.remove(id);
            }
        }
    }
}

/// Cache entry: the graph as of a number of recorded calls.
#[derive(Clone)]
struct MaterializedGraph {
    calls: usize,
    graph: ProvenanceGraph,
}

/// The writer's side of one execution's reachability index: the mutable
/// master copy that live deltas fold into, plus the immutable published
/// [`EpochSnapshot`] that readers clone an `Arc` of (so queries run
/// lock-free, concurrently with ingestion).
struct MasterIndex {
    epoch: u64,
    calls: usize,
    graph: ProvenanceGraph,
    index: ReachabilityIndex,
}

/// Per-execution epoch/snapshot machinery. Lock order is always
/// *maintainer before master*: callers compute graphs (which may lock the
/// [`LiveProvenance`] mutex) before taking `master`, and the call hook
/// releases the maintainer before applying its delta here.
struct IndexState {
    master: Mutex<MasterIndex>,
    published: RwLock<Arc<EpochSnapshot>>,
    /// Epoch-keyed query engine over the published graph's PROV-O export,
    /// built lazily on the first SPARQL query of an epoch and shared by
    /// the rest — carrying the epoch's plan cache with it.
    engine: Mutex<Option<(u64, Arc<QueryEngine>)>>,
}

impl IndexState {
    fn new() -> Self {
        IndexState {
            master: Mutex::new(MasterIndex {
                epoch: 0,
                calls: 0,
                graph: ProvenanceGraph::default(),
                // `new` counts under `prov.index.builds`: one build per
                // execution index, maintained incrementally afterwards.
                index: ReachabilityIndex::new(),
            }),
            published: RwLock::new(Arc::new(EpochSnapshot::empty())),
            engine: Mutex::new(None),
        }
    }

    fn published(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.read().expect("lock poisoned"))
    }

    fn publish_locked(&self, m: &MasterIndex) -> Arc<EpochSnapshot> {
        let snap = Arc::new(EpochSnapshot {
            epoch: m.epoch,
            calls: m.calls,
            graph: m.graph.clone(),
            index: m.index.clone(),
        });
        *self.published.write().expect("lock poisoned") = Arc::clone(&snap);
        snap
    }

    /// Fold one committed live delta into the master index and publish the
    /// next epoch. No-op for an empty delta that advances nothing.
    fn apply_delta(&self, delta: &LiveDelta, calls: usize) {
        let mut m = self.master.lock().expect("lock poisoned");
        if delta.is_empty() && calls <= m.calls {
            return;
        }
        // A cold-loaded master already carries the stored sources; a live
        // catch-up delta may re-deliver them, so only genuinely new entries
        // are folded in (links dedup inside add_links).
        let fresh: Vec<_> = delta
            .sources
            .iter()
            .filter(|s| !m.graph.sources.contains(s))
            .cloned()
            .collect();
        m.index.add_sources(&fresh);
        m.index.add_links(&delta.links);
        m.graph.sources.extend(fresh);
        m.graph.add_links(delta.links.iter().cloned());
        m.calls = m.calls.max(calls);
        m.epoch += 1;
        self.publish_locked(&m);
    }

    /// Replace the master with a freshly materialised graph (rebuilding the
    /// index) and publish it — the refresh path for executions whose calls
    /// were recorded outside any live hook. Skipped if a concurrent
    /// [`IndexState::apply_delta`] already advanced past `calls`, so a
    /// slower full rebuild never rolls back a newer incremental epoch.
    fn publish_full(&self, graph: ProvenanceGraph, calls: usize) -> Arc<EpochSnapshot> {
        let index = ReachabilityIndex::from_graph(&graph);
        let mut m = self.master.lock().expect("lock poisoned");
        if m.epoch > 0 && m.calls >= calls {
            drop(m);
            return self.published();
        }
        m.graph = graph;
        m.index = index;
        m.calls = m.calls.max(calls);
        m.epoch += 1;
        self.publish_locked(&m)
    }

    /// Adopt a snapshot reloaded from the disk store, publishing the
    /// *exact* persisted epoch: serve responses embed the epoch, so a
    /// cold-loaded execution must answer with the same epoch number (and
    /// the same graph row order) it was saved at to stay byte-identical
    /// with the resident path. Skipped when the master already advanced at
    /// least as far — a restore never rolls an index back.
    fn restore(&self, graph: ProvenanceGraph, calls: usize, epoch: u64) {
        let index = ReachabilityIndex::from_graph(&graph);
        let mut m = self.master.lock().expect("lock poisoned");
        if m.epoch >= epoch && m.calls >= calls {
            return;
        }
        m.graph = graph;
        m.index = index;
        m.calls = calls;
        m.epoch = epoch;
        self.publish_locked(&m);
    }

    /// The query engine over a snapshot's PROV-O export, cached per epoch
    /// (a new epoch gets a fresh store, dictionary and plan cache).
    fn engine_for(&self, snap: &EpochSnapshot) -> Arc<QueryEngine> {
        let mut cached = self.engine.lock().expect("lock poisoned");
        if let Some((epoch, engine)) = cached.as_ref() {
            if *epoch == snap.epoch {
                return Arc::clone(engine);
            }
        }
        let mut fresh = TripleStore::new();
        export_prov_into(&snap.graph, &mut fresh);
        let engine = Arc::new(QueryEngine::new(Arc::new(fresh)));
        *cached = Some((snap.epoch, Arc::clone(&engine)));
        engine
    }
}

impl Platform {
    /// Build a platform with the given Mapper configuration.
    pub fn new(mapper: Mapper) -> Self {
        let repository = Arc::new(ResourceRepository::new());
        let traces = Arc::new(TraceStore::new());
        Platform {
            recorder: Recorder {
                repository: Arc::clone(&repository),
                traces: Arc::clone(&traces),
            },
            repository,
            traces,
            catalog: RwLock::new(ServiceCatalog::new()),
            services: RwLock::new(HashMap::new()),
            materialized: RwLock::new(HashMap::new()),
            mapper,
            fault: RwLock::new(FaultPolicy::default()),
            live: RwLock::new(HashMap::new()),
            index_states: RwLock::new(HashMap::new()),
            store: RwLock::new(None),
        }
    }

    /// Replace the fault-tolerance policy applied to every subsequent
    /// execution (default: abort on first failure, after rollback).
    pub fn set_fault_policy(&self, fault: FaultPolicy) {
        *self.fault.write().expect("lock poisoned") = fault;
    }

    /// Access the underlying Recorder (e.g. for out-of-process exchanges).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Access the catalog (read lock).
    pub fn catalog_text(&self) -> String {
        self.catalog.read().expect("lock poisoned").to_text()
    }

    /// Register a service implementation together with its catalog entry
    /// (endpoint/signature defaults plus its mapping rules `M(s)`).
    pub fn register_service(
        &self,
        service: Arc<dyn Service>,
        rules: &[&str],
    ) -> Result<(), PlatformError> {
        let name = service.name().to_string();
        self.catalog.write().expect("lock poisoned").register_simple(&name, rules)?;
        self.services.write().expect("lock poisoned").insert(name, service);
        Ok(())
    }

    /// The per-execution façade: every recording, materialisation and
    /// query operation on one execution, in one place. The handle is
    /// cheap — construct one per request.
    pub fn execution(&self, exec_id: impl Into<String>) -> ExecutionHandle<'_> {
        ExecutionHandle {
            platform: self,
            id: exec_id.into(),
        }
    }

    /// Known execution ids, sorted — the serve daemon's `status` listing.
    /// With a store attached, evicted (disk-only) executions are included.
    pub fn executions(&self) -> Vec<String> {
        let mut ids = self.repository.execution_ids();
        if let Some(ss) = self.store_state() {
            for id in ss.store.execution_ids() {
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            ids.sort();
        }
        ids
    }

    /// Ingest an initial document as a new execution. With a store
    /// attached the document is persisted best-effort right away (the
    /// write-through on the next execution repeats it durably).
    pub fn ingest(&self, exec_id: &str, doc: Document) {
        let _pin = self.pin(exec_id);
        self.repository.put(exec_id, doc);
        if let Some(ss) = self.store_state() {
            self.touch_lru(&ss, exec_id);
            let _ = self.persist_through(exec_id);
            let _ = self.evict_excess(&ss);
        }
    }

    /// Execute a sequential workflow (a sequence of registered service
    /// names) over a stored execution's document, recording every call.
    pub fn execute(&self, exec_id: &str, steps: &[&str]) -> Result<(), PlatformError> {
        self.execute_spec(exec_id, &WorkflowSpec::sequence(steps))
    }

    /// Execute a [`WorkflowSpec`] — possibly containing parallel blocks —
    /// over a stored execution's document. Branch calls are recorded with
    /// their control-flow channels, which the Mapper's strategies respect
    /// during inference.
    pub fn execute_spec(&self, exec_id: &str, spec: &WorkflowSpec) -> Result<(), PlatformError> {
        let _pin = self.ensure_resident(exec_id)?;
        let mut doc = self
            .repository
            .get(exec_id)
            .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))?;
        let prior = self.traces.get(exec_id);
        let mut start = next_time(&doc);
        if let Some(last) = prior.as_ref().and_then(|t| t.calls.last()) {
            start = start.max(last.time + 1);
        }
        let workflow = self.build_workflow(spec)?;
        let fault = self.fault.read().expect("lock poisoned").clone();
        let mut orch = Orchestrator::new().with_fault(fault);
        let live = self.live.read().expect("lock poisoned").get(exec_id).cloned();
        if let Some(maintainer) = &live {
            let state = self.index_state(exec_id);
            {
                // Fold in anything recorded before live mode was enabled (or
                // sources present before any call), then open a fresh segment:
                // the orchestration below reports its calls from index 0. The
                // catch-up delta is published like any other — maintainer
                // lock released before the master is touched.
                let (delta, calls) = {
                    let mut lp = maintainer.lock().expect("lock poisoned");
                    let folded = lp.calls_folded();
                    let delta = lp.catch_up_from(&doc, &prior.unwrap_or_default(), folded);
                    lp.new_segment();
                    (delta, lp.calls_folded())
                };
                state.apply_delta(&delta, calls);
            }
            let hook_lp = Arc::clone(maintainer);
            orch = orch.with_call_hook(Arc::new(move |doc, trace, idx| {
                let (delta, calls) = {
                    let mut lp = hook_lp.lock().expect("lock poisoned");
                    let delta = lp.observe_call(doc, trace, idx);
                    (delta, lp.calls_folded())
                };
                state.apply_delta(&delta, calls);
            }));
        }
        let outcome = orch.execute_starting_at(&workflow, &mut doc, start)?;
        // persist: document into the repository, calls into the trace store
        for call in &outcome.trace.calls {
            let produced_uris: Vec<String> = call
                .produced
                .iter()
                .filter_map(|&n| doc.resource(n).map(|m| m.uri.clone()))
                .collect();
            self.traces.record(exec_id, call.clone(), &produced_uris);
        }
        self.repository.put(exec_id, doc);
        self.persist_through(exec_id)?;
        Ok(())
    }

    /// Incrementally recompute a prior execution under a changed input
    /// document, registering the result as the new execution `new_id`.
    ///
    /// The dirty cone is taken from the prior execution's published
    /// [`EpochSnapshot`] ([`dirty_cone`] over `changed_uris`, widened with
    /// an inherit-mode inference so contained resources are covered); only calls
    /// whose produced resources intersect it are re-executed, every other
    /// fragment is spliced forward from the prior document (see
    /// [`Orchestrator::replay`]). `changed` must be the prior execution's
    /// *initial* document with the changed artifacts edited in place —
    /// structure-preserving, same node arena shape.
    ///
    /// Only sequential traces can be replayed (parallel-channel traces
    /// interleave call ranges, which the splice planner does not model).
    /// The prior execution is left untouched; `new_id` must be fresh.
    pub fn replay_execution(
        &self,
        prior_id: &str,
        new_id: &str,
        mut changed: Document,
        changed_uris: &[String],
        proof: ProofMode,
    ) -> Result<ReplayReport, PlatformError> {
        let replay_err = |message: &str| {
            PlatformError::Workflow(WorkflowError::Service {
                service: "replay".into(),
                message: message.into(),
            })
        };
        if new_id == prior_id
            || self.repository.with(new_id, |_| ()).is_some()
            || self.store_state().is_some_and(|ss| ss.store.contains(new_id))
        {
            return Err(replay_err(&format!(
                "replay target {new_id:?} already exists; pick a fresh execution id"
            )));
        }
        let _pins = (self.pin(new_id), self.ensure_resident(prior_id)?);
        let prior_doc = self
            .repository
            .get(prior_id)
            .ok_or_else(|| PlatformError::UnknownExecution(prior_id.to_string()))?;
        let prior_trace = self
            .traces
            .get(prior_id)
            .filter(|t| !t.calls.is_empty())
            .ok_or_else(|| PlatformError::UnknownExecution(prior_id.to_string()))?;
        if prior_trace.has_parallel_channels() {
            return Err(replay_err(
                "cannot replay a parallel-channel trace; re-execute the workflow instead",
            ));
        }
        let names: Vec<&str> = prior_trace.calls.iter().map(|c| c.service.as_str()).collect();
        let workflow = self.build_workflow(&WorkflowSpec::sequence(&names))?;
        let snap = self.snapshot_impl(prior_id)?;
        // The published snapshot's links may omit containment (inherited)
        // provenance — a fragment's non-anchor resources (a unit's
        // TextContent) would then have no link to the changed source and
        // their consumers would be spliced stale. Union the snapshot cone
        // with one over an inherit-mode inference of the prior execution.
        let rules = self.catalog.read().expect("lock poisoned").rule_set();
        let inherit_graph = weblab_prov::infer_provenance(
            &prior_doc,
            &prior_trace,
            &rules,
            &EngineOptions {
                inherit: weblab_prov::InheritMode::PatternRewrite,
                ..EngineOptions::default()
            },
        );
        let inherit_index = weblab_prov::ReachabilityIndex::from_graph(&inherit_graph);
        let mut dirty: HashSet<String> =
            dirty_cone(&snap.index, changed_uris).into_iter().collect();
        dirty.extend(dirty_cone(&inherit_index, changed_uris));
        let replayed = Orchestrator::new().replay(
            &workflow,
            &mut changed,
            &prior_doc,
            &prior_trace,
            &dirty,
            proof,
        )?;
        // Register the result exactly as execute_spec persists a run:
        // calls into the trace store, document into the repository, then
        // write-through. Live mode is inherited from the prior execution
        // through the proven "enabled late" catch-up path.
        for call in &replayed.outcome.trace.calls {
            let produced_uris: Vec<String> = call
                .produced
                .iter()
                .filter_map(|&n| changed.resource(n).map(|m| m.uri.clone()))
                .collect();
            self.traces.record(new_id, call.clone(), &produced_uris);
        }
        if self.live_enabled_impl(prior_id) {
            self.enable_live_impl(new_id);
        }
        self.repository.put(new_id, changed);
        if let Some(ss) = self.store_state() {
            self.touch_lru(&ss, new_id);
            self.persist_through(new_id)?;
            self.evict_excess(&ss)?;
        }
        Ok(ReplayReport {
            execution: new_id.to_string(),
            cone_size: replayed.cone_size,
            reused: replayed.reused,
            recomputed: replayed.recomputed,
            splices: replayed.splices,
            grades: replayed.grades,
        })
    }

    fn build_workflow(&self, spec: &WorkflowSpec) -> Result<Workflow, PlatformError> {
        let services = self.services.read().expect("lock poisoned");
        let mut wf = Workflow::new();
        for step in &spec.steps {
            match step {
                SpecStep::Service(name) => {
                    let svc = services
                        .get(name)
                        .cloned()
                        .ok_or_else(|| PlatformError::UnknownService(name.clone()))?;
                    wf = wf.then(svc);
                }
                SpecStep::Parallel(branches) => {
                    let built: Result<Vec<Workflow>, PlatformError> =
                        branches.iter().map(|b| self.build_workflow(b)).collect();
                    wf = wf.then_parallel(built?);
                }
            }
        }
        Ok(wf)
    }

    /// Get-or-create the index state of an execution.
    fn index_state(&self, exec_id: &str) -> Arc<IndexState> {
        if let Some(state) = self.index_states.read().expect("lock poisoned").get(exec_id) {
            return Arc::clone(state);
        }
        Arc::clone(
            self.index_states
                .write()
                .expect("lock poisoned")
                .entry(exec_id.to_string())
                .or_insert_with(|| Arc::new(IndexState::new())),
        )
    }

    /// Attach a disk store: every execution is written through to it, and
    /// at most `max_resident` executions stay in memory — the rest answer
    /// queries after a transparent cold load. Executions already resident
    /// are adopted (and persisted on their next operation or eviction).
    pub fn attach_store(&self, store: ProvStore, max_resident: usize) -> Result<(), PlatformError> {
        let ss = Arc::new(StoreState {
            store: Arc::new(store),
            max_resident: max_resident.max(1),
            residency: Mutex::new(Residency::default()),
            loading: Mutex::new(()),
        });
        for id in self.repository.execution_ids() {
            self.touch_lru(&ss, &id);
        }
        *self.store.write().expect("lock poisoned") = Some(Arc::clone(&ss));
        self.evict_excess(&ss)
    }

    /// The attached disk store, if any — what the serve daemon's
    /// background compactor folds segments through.
    pub fn store(&self) -> Option<Arc<ProvStore>> {
        self.store_state().map(|ss| Arc::clone(&ss.store))
    }

    fn store_state(&self) -> Option<Arc<StoreState>> {
        self.store.read().expect("lock poisoned").clone()
    }

    /// Mark an execution most-recently-used, adding it to the resident set
    /// if it was not tracked yet.
    fn touch_lru(&self, ss: &StoreState, exec_id: &str) {
        let mut res = ss.residency.lock().expect("lock poisoned");
        let lru = &mut res.lru;
        if let Some(pos) = lru.iter().position(|id| id == exec_id) {
            let id = lru.remove(pos);
            lru.push(id);
        } else {
            lru.push(exec_id.to_string());
            RESIDENT.inc();
        }
    }

    /// Pin an execution against eviction until the guard drops.
    fn pin(&self, exec_id: &str) -> ResidencyPin {
        let pinned = self.store_state().map(|ss| {
            let mut res = ss.residency.lock().expect("lock poisoned");
            *res.pins.entry(exec_id.to_string()).or_insert(0) += 1;
            drop(res);
            (ss, exec_id.to_string())
        });
        ResidencyPin { pinned }
    }

    /// Make an execution resident, cold-loading it from the attached store
    /// if it was evicted, and keep it resident until the returned pin
    /// drops: pinned before the residency check, it cannot be evicted
    /// between that check and the caller's reads. Nothing to do without a
    /// store, or when the execution is neither resident nor stored
    /// (callers then report UnknownExecution as before).
    fn ensure_resident(&self, exec_id: &str) -> Result<ResidencyPin, PlatformError> {
        let pin = self.pin(exec_id);
        let Some(ss) = self.store_state() else {
            return Ok(pin);
        };
        if self.repository.with(exec_id, |_| ()).is_some() {
            self.touch_lru(&ss, exec_id);
            return Ok(pin);
        }
        let _guard = ss.loading.lock().expect("lock poisoned");
        // Double-check: a concurrent load may have won the lock first.
        if self.repository.with(exec_id, |_| ()).is_some() {
            self.touch_lru(&ss, exec_id);
            return Ok(pin);
        }
        let Some(stored) = ss.store.load(exec_id)? else {
            return Ok(pin);
        };
        // Rebuild in-memory state. The trace goes in first; the repository
        // entry is the residency signal, so it is published last.
        let produced: Vec<Vec<String>> = stored
            .trace
            .calls
            .iter()
            .map(|c| {
                c.produced
                    .iter()
                    .filter_map(|&n| stored.doc.resource(n).map(|m| m.uri.clone()))
                    .collect()
            })
            .collect();
        self.traces.put(exec_id, &stored.trace, &produced);
        let state = self.index_state(exec_id);
        match stored.snapshot {
            Some(snap) => {
                if snap.live && !self.live_enabled_impl(exec_id) {
                    // Fresh maintainer; the next execution catches up on the
                    // reloaded trace (the proven "live enabled late" path).
                    self.enable_live_impl(exec_id);
                }
                state.restore(snap.graph, snap.calls, snap.epoch);
            }
            None => {
                // No fresh snapshot survived (crash between log append and
                // snapshot write): rebuild from the replayed log. Epochs
                // restart, like after ExecutionHandle::invalidate.
                let mut graph = ProvenanceGraph::from_view(&stored.doc.view());
                graph.add_links(stored.links);
                state.publish_full(graph, stored.trace.len());
            }
        }
        self.repository.put(exec_id, stored.doc);
        self.touch_lru(&ss, exec_id);
        drop(_guard);
        self.evict_excess(&ss)?;
        Ok(pin)
    }

    /// Write one execution through to the attached store (document, trace
    /// and link-log tail, current epoch snapshot). No-op without a store.
    fn persist_through(&self, exec_id: &str) -> Result<(), PlatformError> {
        let Some(ss) = self.store_state() else {
            return Ok(());
        };
        let snap = self.snapshot_impl(exec_id)?;
        let doc = self
            .repository
            .get(exec_id)
            .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))?;
        let trace = self.traces.get(exec_id).unwrap_or_default();
        let live = self.live_enabled_impl(exec_id);
        ss.store.save(exec_id, &doc, &trace, &snap.graph, snap.epoch, live)?;
        Ok(())
    }

    /// Evict least-recently-used executions until at most `max_resident`
    /// remain, never evicting a pinned one (an execution being served).
    /// With too many pinned the resident set stays over the bound until
    /// their calls finish.
    fn evict_excess(&self, ss: &StoreState) -> Result<(), PlatformError> {
        loop {
            let victim = {
                let res = ss.residency.lock().expect("lock poisoned");
                if res.lru.len() <= ss.max_resident {
                    return Ok(());
                }
                res.lru
                    .iter()
                    .find(|id| !res.pins.contains_key(id.as_str()))
                    .cloned()
            };
            let Some(victim) = victim else {
                return Ok(());
            };
            self.evict_impl(&victim)?;
        }
    }

    /// Persist an execution and drop its in-memory state. Returns whether
    /// it was resident and unpinned. The next query cold-loads it
    /// transparently.
    fn evict_impl(&self, exec_id: &str) -> Result<bool, PlatformError> {
        let Some(ss) = self.store_state() else {
            return Ok(false);
        };
        if self.repository.with(exec_id, |_| ()).is_some() {
            self.persist_through(exec_id)?;
        }
        // A call may pin the execution while it is written out. The pin
        // check and the removal share the residency lock: a call pinned
        // first keeps its state, and one pinned after finds the execution
        // gone and cold-loads it.
        let mut res = ss.residency.lock().expect("lock poisoned");
        if res.pins.contains_key(exec_id) {
            return Ok(false);
        }
        let was_resident = self.repository.with(exec_id, |_| ()).is_some();
        if was_resident {
            self.repository.remove(exec_id);
            self.traces.remove(exec_id);
            self.materialized.write().expect("lock poisoned").remove(exec_id);
            self.live.write().expect("lock poisoned").remove(exec_id);
            self.index_states.write().expect("lock poisoned").remove(exec_id);
            EVICTIONS.inc();
        }
        if let Some(pos) = res.lru.iter().position(|id| id == exec_id) {
            res.lru.remove(pos);
            RESIDENT.dec();
        }
        Ok(was_resident)
    }

    fn provenance_graph_impl(&self, exec_id: &str) -> Result<ProvenanceGraph, PlatformError> {
        let _pin = self.ensure_resident(exec_id)?;
        let doc = self
            .repository
            .get(exec_id)
            .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))?;
        let trace = self
            .traces
            .get(exec_id)
            .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))?;
        let cached = self.materialized.read().expect("lock poisoned").get(exec_id).cloned();
        if let Some(entry) = &cached {
            if entry.calls == trace.len() {
                return Ok(entry.graph.clone());
            }
        }
        let first = cached.as_ref().map(|e| e.calls).unwrap_or(0);
        let rules = self.catalog.read().expect("lock poisoned").rule_set();
        let delta = self
            .mapper
            .materialize_since(&doc, &trace, first, &rules)?;
        let mut graph = ProvenanceGraph::from_view(&doc.view());
        if let Some(entry) = cached {
            graph.add_links(entry.graph.links);
        }
        graph.add_links(delta);
        self.materialized.write().expect("lock poisoned").insert(
            exec_id.to_string(),
            MaterializedGraph {
                calls: trace.len(),
                graph: graph.clone(),
            },
        );
        Ok(graph)
    }

    fn invalidate_impl(&self, exec_id: &str) {
        self.materialized.write().expect("lock poisoned").remove(exec_id);
        self.index_states.write().expect("lock poisoned").remove(exec_id);
    }

    fn enable_live_impl(&self, exec_id: &str) {
        let rules = self.catalog.read().expect("lock poisoned").rule_set();
        let opts = match &self.mapper.strategy {
            MapperStrategy::Native(opts) => *opts,
            MapperStrategy::XQuery(_) => EngineOptions::default(),
        };
        self.live.write().expect("lock poisoned").insert(
            exec_id.to_string(),
            Arc::new(Mutex::new(LiveProvenance::new(rules, opts))),
        );
    }

    fn live_enabled_impl(&self, exec_id: &str) -> bool {
        self.live.read().expect("lock poisoned").contains_key(exec_id)
    }

    fn live_provenance_impl(&self, exec_id: &str) -> Option<Arc<Mutex<LiveProvenance>>> {
        self.live.read().expect("lock poisoned").get(exec_id).cloned()
    }

    fn live_graph_impl(&self, exec_id: &str) -> Result<ProvenanceGraph, PlatformError> {
        let _pin = self.ensure_resident(exec_id)?;
        let maintainer = self
            .live_provenance_impl(exec_id)
            .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))?;
        let doc = self
            .repository
            .get(exec_id)
            .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))?;
        let trace = self.traces.get(exec_id).unwrap_or_default();
        let mut lp = maintainer.lock().expect("lock poisoned");
        let folded = lp.calls_folded();
        lp.catch_up_from(&doc, &trace, folded);
        Ok(lp.to_provenance_graph())
    }

    fn is_materialized_impl(&self, exec_id: &str) -> bool {
        let trace_len = self.traces.get(exec_id).map(|t| t.len()).unwrap_or(0);
        self.materialized
            .read().expect("lock poisoned")
            .get(exec_id)
            .map(|e| e.calls == trace_len)
            .unwrap_or(false)
    }

    /// A current [`EpochSnapshot`] of the execution: the published one if
    /// it already covers every recorded call, else a refresh. A snapshot
    /// published mid-execution by the live hook runs *ahead* of the trace
    /// store (calls reach it only after orchestration), which is why
    /// freshness is `snapshot.calls >= trace len`, not equality.
    fn snapshot_impl(&self, exec_id: &str) -> Result<Arc<EpochSnapshot>, PlatformError> {
        let _pin = self.ensure_resident(exec_id)?;
        if self.repository.with(exec_id, |_| ()).is_none() {
            return Err(PlatformError::UnknownExecution(exec_id.to_string()));
        }
        let state = self.index_state(exec_id);
        let trace_len = self.traces.get(exec_id).map(|t| t.len()).unwrap_or(0);
        let snap = state.published();
        if snap.epoch > 0 && snap.calls >= trace_len {
            return Ok(snap);
        }
        // Refresh. Graphs are computed (taking the maintainer lock if live)
        // before publish_full takes the master lock — see IndexState's lock
        // ordering note.
        let (graph, calls) = if self.live_enabled_impl(exec_id) {
            let graph = self.live_graph_impl(exec_id)?;
            let folded = self
                .live_provenance_impl(exec_id)
                .map(|m| m.lock().expect("lock poisoned").calls_folded())
                .unwrap_or(trace_len);
            (graph, folded)
        } else if trace_len > 0 {
            (self.provenance_graph_impl(exec_id)?, trace_len)
        } else {
            // Ingested but never executed: sources only, no links yet.
            let doc = self
                .repository
                .get(exec_id)
                .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))?;
            (ProvenanceGraph::from_view(&doc.view()), 0)
        };
        Ok(state.publish_full(graph, calls))
    }
}

/// The per-execution façade over [`Platform`]: ingestion, execution, live
/// maintenance and — via published [`EpochSnapshot`]s — index-backed
/// provenance queries. This is the only surface the `weblab serve` query
/// service touches.
///
/// ```
/// use std::sync::Arc;
/// use weblab_platform::{Mapper, Platform};
/// use weblab_workflow::generator::generate_corpus;
/// use weblab_workflow::services::Normaliser;
///
/// let p = Platform::new(Mapper::native());
/// p.register_service(
///     Arc::new(Normaliser),
///     &["//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]"],
/// ).unwrap();
/// let exec = p.execution("exec-1");
/// exec.ingest(generate_corpus(1, 1, 20));
/// exec.execute(&["Normaliser"]).unwrap();
/// let snap = exec.snapshot().unwrap();
/// assert!(snap.epoch >= 1 && !snap.graph.links.is_empty());
/// ```
pub struct ExecutionHandle<'p> {
    platform: &'p Platform,
    id: String,
}

impl ExecutionHandle<'_> {
    /// The execution id this handle is scoped to.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Whether the execution has an ingested document — resident in
    /// memory, or evicted to the attached store.
    pub fn exists(&self) -> bool {
        self.platform.repository.with(&self.id, |_| ()).is_some()
            || self
                .platform
                .store_state()
                .is_some_and(|ss| ss.store.contains(&self.id))
    }

    /// Whether the execution is resident in memory right now (always true
    /// without an attached store, for executions that exist).
    pub fn is_resident(&self) -> bool {
        self.platform.repository.with(&self.id, |_| ()).is_some()
    }

    /// Write this execution through to the attached store without
    /// evicting it. No-op when no store is attached.
    pub fn persist(&self) -> Result<(), PlatformError> {
        self.platform.persist_through(&self.id)
    }

    /// Persist this execution and drop its in-memory state; the next query
    /// cold-loads it transparently. Returns whether it was resident.
    /// No-op (returning `false`) when no store is attached, or while the
    /// execution is pinned.
    pub fn evict(&self) -> Result<bool, PlatformError> {
        self.platform.evict_impl(&self.id)
    }

    /// Keep this execution resident until the guard drops — for a sequence
    /// of calls that must see one in-memory state, such as ingest, enable
    /// live mode, execute and snapshot.
    pub fn pin(&self) -> ResidencyPin {
        self.platform.pin(&self.id)
    }

    /// Ingest an initial document for this execution.
    pub fn ingest(&self, doc: Document) {
        self.platform.ingest(&self.id, doc);
    }

    /// Execute a sequence of registered service names.
    pub fn execute(&self, steps: &[&str]) -> Result<(), PlatformError> {
        self.platform.execute(&self.id, steps)
    }

    /// Execute a [`WorkflowSpec`], possibly with parallel blocks.
    pub fn execute_spec(&self, spec: &WorkflowSpec) -> Result<(), PlatformError> {
        self.platform.execute_spec(&self.id, spec)
    }

    /// Incrementally recompute this execution under a changed input
    /// document, registering the result as `new_id` — see
    /// [`Platform::replay_execution`].
    pub fn replay(
        &self,
        new_id: &str,
        changed: Document,
        changed_uris: &[String],
        proof: ProofMode,
    ) -> Result<ReplayReport, PlatformError> {
        self.platform
            .replay_execution(&self.id, new_id, changed, changed_uris, proof)
    }

    /// Switch this execution to live provenance maintenance: every
    /// committed call is folded into the link store *and* the reachability
    /// index as it happens, publishing a new [`EpochSnapshot`] per delta.
    pub fn enable_live(&self) {
        self.platform.enable_live_impl(&self.id);
    }

    /// Whether live maintenance is enabled.
    pub fn live_enabled(&self) -> bool {
        self.platform.live_enabled_impl(&self.id)
    }

    /// The live maintainer, shared with any in-flight orchestration's hook
    /// — lock it to inspect mid-execution state.
    pub fn live(&self) -> Option<Arc<Mutex<LiveProvenance>>> {
        self.platform.live_provenance_impl(&self.id)
    }

    /// The batch-materialised provenance graph (incremental Mapper path).
    pub fn graph(&self) -> Result<ProvenanceGraph, PlatformError> {
        self.platform.provenance_graph_impl(&self.id)
    }

    /// The live maintainer's view as a batch-style graph, catching up on
    /// calls recorded outside live mode first.
    pub fn live_graph(&self) -> Result<ProvenanceGraph, PlatformError> {
        self.platform.live_graph_impl(&self.id)
    }

    /// A current epoch snapshot — immutable graph + reachability index.
    /// Queries answered on one snapshot are mutually consistent even while
    /// ingestion publishes newer epochs concurrently.
    pub fn snapshot(&self) -> Result<Arc<EpochSnapshot>, PlatformError> {
        self.platform.snapshot_impl(&self.id)
    }

    /// Direct dependencies of a resource, answered from the reachability
    /// index (no edge-list traversal — counted under `prov.index.hits`).
    pub fn deps(&self, uri: &str) -> Result<Vec<String>, PlatformError> {
        let snap = self.snapshot()?;
        Ok(snap.index.dependencies_of(uri).into_iter().map(String::from).collect())
    }

    /// Direct dependents of a resource, index-answered like
    /// [`ExecutionHandle::deps`].
    pub fn rdeps(&self, uri: &str) -> Result<Vec<String>, PlatformError> {
        let snap = self.snapshot()?;
        Ok(snap.index.dependents_of(uri).into_iter().map(String::from).collect())
    }

    /// Answer a structured provenance query on a current snapshot.
    pub fn query(&self, q: &ProvQuery) -> Result<QueryAnswer, PlatformError> {
        self.query_at(q).map(|(_, answer)| answer)
    }

    /// Like [`ExecutionHandle::query`], also reporting the epoch the
    /// answer was computed at — what the serve protocol echoes back.
    pub fn query_at(&self, q: &ProvQuery) -> Result<(u64, QueryAnswer), PlatformError> {
        let snap = self.snapshot()?;
        let answer = self.query_on(&snap, q)?;
        Ok((snap.epoch, answer))
    }

    /// Answer a structured provenance query on a **pinned** snapshot —
    /// the building block of the serve protocol's `batch` op: every
    /// sub-request of a batch is answered on the same snapshot, so the
    /// whole batch shares one atomic epoch even while live ingestion keeps
    /// publishing newer ones. SPARQL sub-queries still go through the
    /// per-epoch [`QueryEngine`] plan cache.
    pub fn query_on(
        &self,
        snap: &Arc<EpochSnapshot>,
        q: &ProvQuery,
    ) -> Result<QueryAnswer, PlatformError> {
        Ok(match q {
            ProvQuery::Sparql { .. } => {
                let state = self.platform.index_state(&self.id);
                let engine = state.engine_for(snap);
                q.answer_on_engine(snap, &engine)?
            }
            _ => q.answer_on_snapshot(snap, None)?,
        })
    }

    /// A SPARQL SELECT over this execution's PROV-O export.
    pub fn sparql(&self, text: &str) -> Result<Vec<Solution>, PlatformError> {
        match self.query(&ProvQuery::Sparql { query: text.to_string() })? {
            QueryAnswer::Solutions(sols) => Ok(sols),
            _ => unreachable!("Sparql queries answer with Solutions"),
        }
    }

    /// Ranked relevance (v2): spreading activation from `uris` over the
    /// published snapshot's index, under the shared [`QueryOpts`]
    /// envelope. Scores depend only on the published graph — identical at
    /// every worker count and on live- or batch-built indexes.
    pub fn rank(
        &self,
        uris: &[String],
        direction: RankDirection,
        opts: &QueryOpts,
        weights: &[(String, u32)],
    ) -> Result<Vec<RankedEntry>, PlatformError> {
        match self.query(&ProvQuery::Rank {
            uris: uris.to_vec(),
            direction,
            opts: *opts,
            weights: weights.to_vec(),
        })? {
            QueryAnswer::Ranked(entries) => Ok(entries),
            _ => unreachable!("Rank queries answer with Ranked"),
        }
    }

    /// Aggregate analytics (v2): per-service influence, common-origin
    /// clusters and an optional blast radius — from the snapshot index's
    /// precomputed closure sizes, no traversal.
    pub fn summary(&self, uri: Option<&str>) -> Result<GraphSummary, PlatformError> {
        match self.query(&ProvQuery::Summary { uri: uri.map(String::from) })? {
            QueryAnswer::Summary(s) => Ok(s),
            _ => unreachable!("Summary queries answer with Summary"),
        }
    }

    /// Whether the batch graph cache is materialised and current.
    pub fn is_materialized(&self) -> bool {
        self.platform.is_materialized_impl(&self.id)
    }

    /// Drop the cached batch graph and the reachability index, forcing a
    /// rebuild on the next query.
    pub fn invalidate(&self) {
        self.platform.invalidate_impl(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_rdf::vocab::PROV_NS;
    use weblab_workflow::generator::generate_corpus;
    use weblab_workflow::services::{LanguageExtractor, Normaliser, Translator};

    fn platform() -> Platform {
        let p = Platform::new(Mapper::native());
        p.register_service(
            Arc::new(Normaliser),
            &["//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]"],
        )
        .unwrap();
        p.register_service(
            Arc::new(LanguageExtractor),
            &["//TextMediaUnit[$x := @id]/TextContent => //TextMediaUnit[$x := @id]/Annotation[Language]"],
        )
        .unwrap();
        p.register_service(
            Arc::new(Translator::default()),
            &["//TextMediaUnit[$x := @id] => //TextMediaUnit[@translation-of = $x]"],
        )
        .unwrap();
        p
    }

    #[test]
    fn end_to_end_execution_and_query() {
        let p = platform();
        p.ingest("exec-1", generate_corpus(3, 2, 25));
        p.execute(
            "exec-1",
            &["Normaliser", "LanguageExtractor", "Translator"],
        )
        .unwrap();
        let exec = p.execution("exec-1");
        let graph = exec.graph().unwrap();
        assert!(!graph.links.is_empty());
        assert!(graph.is_acyclic());
        // SPARQL over the execution's PROV-O export
        let sols = exec
            .sparql(&format!(
                "PREFIX prov: <{PROV_NS}> SELECT ?d ?s WHERE {{ ?d prov:wasDerivedFrom ?s . }}"
            ))
            .unwrap();
        assert_eq!(sols.len(), graph.links.len());
        assert!(exec.is_materialized());
    }

    #[test]
    fn query_triggers_materialisation_once() {
        let p = platform();
        p.ingest("e", generate_corpus(5, 1, 20));
        p.execute("e", &["Normaliser"]).unwrap();
        let exec = p.execution("e");
        assert!(!exec.is_materialized());
        exec.sparql("SELECT ?s WHERE { ?s <p> ?o . }").unwrap();
        assert!(exec.is_materialized());
    }

    #[test]
    fn execute_makes_materialisation_stale_and_delta_restores_it() {
        let p = platform();
        p.ingest("e", generate_corpus(5, 1, 20));
        p.execute("e", &["Normaliser"]).unwrap();
        let exec = p.execution("e");
        let g1 = exec.graph().unwrap();
        assert!(exec.is_materialized());
        p.execute("e", &["LanguageExtractor"]).unwrap();
        assert!(!exec.is_materialized()); // stale: one call un-materialised
        // incremental re-materialisation equals a from-scratch derivation
        let g2 = exec.graph().unwrap();
        assert!(exec.is_materialized());
        assert!(g2.links.len() > g1.links.len());
        exec.invalidate();
        assert!(!exec.is_materialized());
        let g3 = exec.graph().unwrap();
        assert_eq!(g2.links, g3.links);
    }

    #[test]
    fn unknown_ids_error() {
        let p = platform();
        assert!(matches!(
            p.execute("nope", &["Normaliser"]),
            Err(PlatformError::UnknownExecution(_))
        ));
        p.ingest("e", generate_corpus(1, 1, 10));
        assert!(matches!(
            p.execute("e", &["NoSuchService"]),
            Err(PlatformError::UnknownService(_))
        ));
        assert!(matches!(
            p.execution("other").graph(),
            Err(PlatformError::UnknownExecution(_))
        ));
    }

    #[test]
    fn parallel_spec_execution_records_channels() {
        let p = platform();
        // bilingual corpus processed by two parallel analysis branches
        p.ingest("e", generate_corpus(8, 2, 30));
        let spec = WorkflowSpec::default()
            .then("Normaliser")
            .then_parallel(vec![
                WorkflowSpec::sequence(&["LanguageExtractor"]),
                WorkflowSpec::sequence(&["Translator"]),
            ]);
        p.execute_spec("e", &spec).unwrap();
        let trace = p.traces.get("e").unwrap();
        let channels: Vec<&str> =
            trace.calls.iter().map(|c| c.channel.as_str()).collect();
        assert_eq!(channels, vec!["", "0", "1"]);
        // provenance still materialises and stays acyclic
        let g = p.execution("e").graph().unwrap();
        assert!(g.is_acyclic());
        // the Translator branch could not see the sibling's annotations:
        // every Translator dependency predates the fork
        for l in &g.links {
            if l.from_uri.contains("Translator") {
                assert!(!l.to_uri.contains("LanguageExtractor"));
            }
        }
    }

    #[test]
    fn unknown_service_in_spec_is_reported() {
        let p = platform();
        p.ingest("e", generate_corpus(1, 1, 10));
        let spec = WorkflowSpec::default()
            .then_parallel(vec![WorkflowSpec::sequence(&["Nope"])]);
        assert!(matches!(
            p.execute_spec("e", &spec),
            Err(PlatformError::UnknownService(_))
        ));
    }

    #[test]
    fn flaky_service_retries_transparently_under_a_retry_policy() {
        use weblab_workflow::services::Flaky;
        use weblab_workflow::RetryPolicy;
        let p = platform();
        p.register_service(Arc::new(Flaky::failing(2)), &[]).unwrap();
        p.set_fault_policy(FaultPolicy::retrying(RetryPolicy::with_max_attempts(3)));
        p.ingest("e", generate_corpus(1, 1, 10));
        p.execute("e", &["Normaliser", "Flaky"]).unwrap();
        // both steps made it into the trace exactly once: the two failed
        // attempts were rolled back before recording
        let trace = p.traces.get("e").unwrap();
        let services: Vec<&str> = trace.calls.iter().map(|c| c.service.as_str()).collect();
        assert_eq!(services, vec!["Normaliser", "Flaky"]);
        // and the rolled-back attempts left no probes behind
        let doc = p.repository.get("e").unwrap();
        let v = doc.view();
        let probes = v
            .descendants(doc.root())
            .filter(|&n| v.name(n) == Some("FlakyProbe"))
            .count();
        assert_eq!(probes, 1);
    }

    #[test]
    fn live_graph_matches_batch_after_execution() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(4, 2, 25));
        exec.enable_live();
        let spec = WorkflowSpec::default()
            .then("Normaliser")
            .then_parallel(vec![
                WorkflowSpec::sequence(&["LanguageExtractor"]),
                WorkflowSpec::sequence(&["Translator"]),
            ]);
        p.execute_spec("e", &spec).unwrap();
        let live = exec.live_graph().unwrap();
        let batch = exec.graph().unwrap();
        let mut batch_links = batch.links.clone();
        batch_links.sort();
        assert_eq!(live.links, batch_links);
        assert_eq!(live.sources, batch.sources);
        assert!(!live.links.is_empty());
    }

    #[test]
    fn live_queries_answer_without_rematerialisation() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 1, 20));
        exec.enable_live();
        assert!(exec.live_enabled());
        p.execute("e", &["Normaliser", "LanguageExtractor"]).unwrap();
        // the live store already holds the graph: querying it does not
        // trigger batch materialisation
        let batch = exec.graph().unwrap();
        exec.invalidate();
        for l in &batch.links {
            let deps = exec.deps(&l.from_uri).unwrap();
            assert!(deps.contains(&l.to_uri));
            let rdeps = exec.rdeps(&l.to_uri).unwrap();
            assert!(rdeps.contains(&l.from_uri));
        }
        assert!(!exec.is_materialized()); // live answers left the cache alone
    }

    #[test]
    fn live_enabled_late_catches_up_on_prior_calls() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 1, 20));
        p.execute("e", &["Normaliser"]).unwrap();
        exec.enable_live(); // after one call already recorded
        p.execute("e", &["LanguageExtractor", "Translator"]).unwrap();
        let live = exec.live_graph().unwrap();
        let batch = exec.graph().unwrap();
        let mut batch_links = batch.links.clone();
        batch_links.sort();
        assert_eq!(live.links, batch_links);
        assert_eq!(live.sources, batch.sources);
        let trace = p.traces.get("e").unwrap();
        let lp = exec.live().unwrap();
        assert_eq!(lp.lock().unwrap().calls_folded(), trace.calls.len());
    }

    #[test]
    fn live_ignores_rolled_back_attempts() {
        use weblab_workflow::services::Flaky;
        use weblab_workflow::RetryPolicy;
        let p = platform();
        p.register_service(Arc::new(Flaky::failing(2)), &[]).unwrap();
        p.set_fault_policy(FaultPolicy::retrying(RetryPolicy::with_max_attempts(3)));
        let exec = p.execution("e");
        exec.ingest(generate_corpus(2, 1, 15));
        exec.enable_live();
        p.execute("e", &["Normaliser", "Flaky", "LanguageExtractor"]).unwrap();
        let live = exec.live_graph().unwrap();
        let batch = exec.graph().unwrap();
        let mut batch_links = batch.links.clone();
        batch_links.sort();
        assert_eq!(live.links, batch_links);
        // only committed calls were folded in — one per workflow step
        let lp = exec.live().unwrap();
        assert_eq!(lp.lock().unwrap().calls_folded(), 3);
    }

    #[test]
    fn non_live_dependency_queries_fall_back_to_batch() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(2, 1, 15));
        p.execute("e", &["Normaliser"]).unwrap();
        assert!(!exec.live_enabled());
        let batch = exec.graph().unwrap();
        let l = &batch.links[0];
        assert!(exec.deps(&l.from_uri).unwrap().contains(&l.to_uri));
        assert!(matches!(
            exec.live_graph(),
            Err(PlatformError::UnknownExecution(_))
        ));
    }

    #[test]
    fn catalog_text_lists_registered_services() {
        let p = platform();
        let text = p.catalog_text();
        assert!(text.contains("[service] Normaliser"));
        assert!(text.contains("rule: //NativeContent"));
    }

    #[test]
    fn executions_keep_independent_graphs() {
        let p = platform();
        p.ingest("a", generate_corpus(1, 1, 15));
        p.ingest("b", generate_corpus(2, 1, 15));
        p.execute("a", &["Normaliser"]).unwrap();
        p.execute("b", &["Normaliser"]).unwrap();
        let ga = p.execution("a").graph().unwrap();
        let gb = p.execution("b").graph().unwrap();
        assert!(!ga.links.is_empty());
        assert!(!gb.links.is_empty());
        assert!(p.execution("a").is_materialized() && p.execution("b").is_materialized());
        assert_eq!(p.executions(), vec!["a", "b"]);
    }

    #[test]
    fn handle_facade_answers_match_the_graph() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 2, 25));
        exec.execute(&["Normaliser", "LanguageExtractor", "Translator"]).unwrap();
        assert!(exec.exists());
        assert_eq!(exec.id(), "e");
        let graph = exec.graph().unwrap();
        for l in &graph.links {
            let deps: Vec<String> =
                graph.dependencies_of(&l.from_uri).into_iter().map(String::from).collect();
            assert_eq!(exec.deps(&l.from_uri).unwrap(), deps);
            let rdeps: Vec<String> =
                graph.dependents_of(&l.to_uri).into_iter().map(String::from).collect();
            assert_eq!(exec.rdeps(&l.to_uri).unwrap(), rdeps);
        }
        assert!(exec.is_materialized());
        assert!(!p.execution("missing").exists());
        assert!(matches!(
            p.execution("missing").snapshot(),
            Err(PlatformError::UnknownExecution(_))
        ));
    }

    #[test]
    fn handle_rank_and_summary_answer_from_the_snapshot() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 2, 25));
        exec.execute(&["Normaliser", "LanguageExtractor", "Translator"]).unwrap();
        let snap = exec.snapshot().unwrap();
        let seed = snap.graph.links[0].to_uri.clone();
        let opts = QueryOpts { limit: 10, ..Default::default() };
        let ranked = exec.rank(std::slice::from_ref(&seed), RankDirection::Up, &opts, &[]).unwrap();
        assert_eq!(ranked[0].uri, seed);
        assert_eq!(ranked[0].score_micro, weblab_prov::rank::SCALE);
        assert!(ranked.len() > 1, "seed should activate dependents");
        // the handle's answer is the rank module's answer on the same index
        assert_eq!(
            ranked,
            weblab_prov::rank::rank(
                &snap.index,
                std::slice::from_ref(&seed),
                RankDirection::Up,
                &opts,
                &[]
            )
        );
        let s = exec.summary(Some(&seed)).unwrap();
        assert_eq!(s.edges, snap.graph.links.len() as u64);
        assert_eq!(
            s.blast.as_ref().unwrap().impacted,
            snap.index.impacted_by(&seed).len() as u64
        );
        assert!(!s.services.is_empty());
    }

    #[test]
    fn live_snapshots_advance_per_delta_and_track_the_live_graph() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 1, 20));
        exec.enable_live();
        assert!(exec.live_enabled());
        exec.execute(&["Normaliser", "LanguageExtractor"]).unwrap();
        let snap = exec.snapshot().unwrap();
        // at least one epoch per committed call (plus the catch-up publish)
        assert!(snap.epoch >= 2, "epoch {} after two live calls", snap.epoch);
        assert_eq!(snap.calls, 2);
        // the published snapshot IS the live graph — no batch materialisation
        assert_eq!(snap.graph.links, exec.live_graph().unwrap().links);
        assert!(!exec.is_materialized());
        // freshness: querying again serves the same snapshot
        let again = exec.snapshot().unwrap();
        assert_eq!(again.epoch, snap.epoch);
        // a further call publishes a newer epoch
        exec.execute(&["Translator"]).unwrap();
        let after = exec.snapshot().unwrap();
        assert!(after.epoch > snap.epoch);
        assert_eq!(after.calls, 3);
        assert!(after.graph.links.len() >= snap.graph.links.len());
    }

    #[test]
    fn handle_queries_answer_like_batch_on_the_snapshot_graph() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 2, 25));
        exec.execute(&["Normaliser", "LanguageExtractor", "Translator"]).unwrap();
        let snap = exec.snapshot().unwrap();
        let sparql = format!(
            "PREFIX prov: <{PROV_NS}> SELECT ?d ?s WHERE {{ ?d prov:wasDerivedFrom ?s . }}"
        );
        let mut queries = vec![ProvQuery::Sparql { query: sparql.clone() }];
        for l in &snap.graph.links {
            queries.push(ProvQuery::Why { uri: l.from_uri.clone() });
            queries.push(ProvQuery::Lineage { uri: l.from_uri.clone(), depth: 2 });
            queries.push(ProvQuery::ImpactedBy { uri: l.to_uri.clone() });
            queries.push(ProvQuery::CommonOrigins {
                a: l.from_uri.clone(),
                b: l.to_uri.clone(),
            });
        }
        for q in &queries {
            let (epoch, answer) = exec.query_at(q).unwrap();
            assert_eq!(epoch, snap.epoch);
            assert_eq!(answer, q.answer_on_graph(&snap.graph).unwrap(), "op {}", q.op());
        }
        // the sparql convenience wrapper unwraps the same solutions
        let sols = exec.sparql(&sparql).unwrap();
        assert_eq!(sols.len(), snap.graph.links.len());
    }

    #[test]
    fn invalidate_resets_the_snapshot_epoch() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(2, 1, 15));
        exec.execute(&["Normaliser"]).unwrap();
        let before = exec.snapshot().unwrap();
        assert!(before.epoch >= 1);
        exec.invalidate();
        assert!(!exec.is_materialized());
        let after = exec.snapshot().unwrap();
        // a fresh index state starts its epochs over, with the same graph
        assert_eq!(after.epoch, 1);
        assert_eq!(after.graph.links, before.graph.links);
    }

    fn tmpstore(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join(format!("weblab-platform-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn evicted_executions_cold_load_with_identical_snapshots() {
        let p = platform();
        let dir = tmpstore("coldload");
        p.attach_store(ProvStore::open(&dir).unwrap(), 8).unwrap();
        let exec = p.execution("e/1");
        exec.ingest(generate_corpus(3, 2, 25));
        exec.execute(&["Normaliser", "LanguageExtractor", "Translator"]).unwrap();
        let before = exec.snapshot().unwrap();
        let why_before = exec.query(&ProvQuery::Why {
            uri: before.graph.links[0].from_uri.clone(),
        })
        .unwrap();

        assert!(exec.evict().unwrap());
        assert!(!exec.is_resident());
        assert!(exec.exists(), "evicted executions still exist");

        // The next query cold-loads transparently and answers at the same
        // epoch with the same graph — byte-identical to the resident path.
        let after = exec.snapshot().unwrap();
        assert!(exec.is_resident());
        assert_eq!(after.epoch, before.epoch);
        assert_eq!(after.calls, before.calls);
        assert_eq!(after.graph.links, before.graph.links);
        assert_eq!(after.graph.sources, before.graph.sources);
        let why_after = exec.query(&ProvQuery::Why {
            uri: before.graph.links[0].from_uri.clone(),
        })
        .unwrap();
        assert_eq!(why_after, why_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_bounds_residency_and_listings_span_disk() {
        let p = platform();
        let dir = tmpstore("lru");
        p.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        for id in ["a", "b", "c"] {
            let exec = p.execution(id);
            exec.ingest(generate_corpus(2, 1, 15));
            exec.execute(&["Normaliser"]).unwrap();
        }
        // only the most recent execution stayed resident
        assert_eq!(p.repository.execution_ids(), vec!["c"]);
        assert_eq!(p.executions(), vec!["a", "b", "c"]);
        // touching an evicted one swaps it in and the old resident out
        let g = p.execution("a").graph().unwrap();
        assert!(!g.links.is_empty());
        assert_eq!(p.repository.execution_ids(), vec!["a"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_load_restores_live_mode_and_resumes_execution() {
        let p = platform();
        let dir = tmpstore("live");
        p.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 1, 20));
        exec.enable_live();
        exec.execute(&["Normaliser"]).unwrap();
        assert!(exec.evict().unwrap());

        exec.execute(&["LanguageExtractor", "Translator"]).unwrap();
        assert!(exec.live_enabled(), "live mode survives eviction");
        let live = exec.live_graph().unwrap();
        let batch = exec.graph().unwrap();
        let mut batch_links = batch.links.clone();
        batch_links.sort();
        assert_eq!(live.links, batch_links);
        assert_eq!(live.sources, batch.sources);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fresh_platform_serves_a_previous_platforms_store() {
        let dir = tmpstore("restart");
        let (before_epoch, before_links) = {
            let p = platform();
            p.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
            let exec = p.execution("e");
            exec.ingest(generate_corpus(3, 2, 25));
            exec.execute(&["Normaliser", "Translator"]).unwrap();
            let snap = exec.snapshot().unwrap();
            (snap.epoch, snap.graph.links.clone())
        };
        // simulated restart: new platform, same directory
        let p = platform();
        p.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
        let exec = p.execution("e");
        assert!(exec.exists());
        assert!(!exec.is_resident());
        let snap = exec.snapshot().unwrap();
        assert_eq!(snap.epoch, before_epoch);
        assert_eq!(snap.graph.links, before_links);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// LanguageExtractor behind a gate: announces that it was called, then
    /// blocks until released — a pipeline held open at a known point.
    struct Gate {
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Service for Gate {
        fn name(&self) -> &str {
            "Gate"
        }
        fn call(
            &self,
            doc: &mut Document,
            ctx: &mut weblab_workflow::CallContext,
        ) -> Result<(), WorkflowError> {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
            LanguageExtractor.call(doc, ctx)
        }
    }

    #[test]
    fn an_execution_with_a_call_in_flight_is_never_evicted() {
        let p = Arc::new(platform());
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        p.register_service(
            Arc::new(Gate {
                entered: Mutex::new(entered_tx),
                release: Mutex::new(release_rx),
            }),
            &["//TextMediaUnit[$x := @id]/TextContent => //TextMediaUnit[$x := @id]/Annotation[Language]"],
        )
        .unwrap();
        let dir = tmpstore("pinned");
        let max_resident = 2;
        let store = ProvStore::open(&dir).unwrap();
        p.attach_store(store, max_resident).unwrap();
        let others: Vec<String> = (0..max_resident).map(|i| format!("other-{i}")).collect();
        for id in &others {
            let exec = p.execution(id.as_str());
            exec.ingest(generate_corpus(2, 1, 15));
            exec.execute(&["Normaliser"]).unwrap();
            assert!(exec.evict().unwrap());
        }
        let exec = p.execution("w");
        exec.ingest(generate_corpus(3, 1, 20));
        exec.enable_live();

        let writer = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let steps = ["Normaliser", "Gate", "Translator"];
                p.execute("w", &steps).unwrap();
            })
        };
        entered_rx.recv().unwrap();
        // mid-pipeline: Normaliser is folded in, the gate holds the rest
        let mid = exec.snapshot().unwrap().epoch;
        assert!(mid >= 2, "live mode published the first call: epoch {mid}");
        // cold-load max_resident others: "w" is now least recently used
        for id in &others {
            let snap = p.execution(id.as_str()).snapshot().unwrap();
            assert!(!snap.graph.links.is_empty());
        }
        assert!(exec.is_resident(), "the executing pipeline was evicted");
        assert!(!exec.evict().unwrap(), "a pinned execution is not evicted");
        release_tx.send(()).unwrap();
        writer.join().unwrap();

        let snap = exec.snapshot().unwrap();
        assert!(snap.epoch > mid, "epoch went from {mid} to {}", snap.epoch);
        assert_eq!(snap.calls, 3);
        assert!(exec.live_enabled(), "live mode was lost");
        let root = &snap.graph.links[0].from_uri;
        match exec.query(&ProvQuery::Why { uri: root.clone() }).unwrap() {
            QueryAnswer::Why(w) => assert!(w.resources.contains(root)),
            other => panic!("unexpected answer {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unexecuted_executions_serve_source_only_snapshots() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(2, 1, 15));
        let snap = exec.snapshot().unwrap();
        assert_eq!(snap.calls, 0);
        assert!(snap.epoch >= 1);
        assert!(snap.graph.links.is_empty());
        // acquisition resources are already queryable: each is its own why
        for s in &snap.graph.sources {
            match exec.query(&ProvQuery::Why { uri: s.uri.clone() }).unwrap() {
                QueryAnswer::Why(w) => {
                    assert!(w.links.is_empty());
                    assert!(w.resources.contains(&s.uri));
                }
                other => panic!("unexpected answer {other:?}"),
            }
        }
    }
}
