//! The traced run: the captured request stream replayed in send order,
//! single-threaded and in-process, against a platform built like the
//! daemon's, with a span around each call into a layer.

use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use weblab::json::Json;
use weblab::serve::{handle_line, render_answer, render_response};
use weblab_obs as obs;
use weblab_platform::{
    ExecutionHandle, Platform, ProvQuery, QueryAnswer, QueryOpts, RankDirection, PROTOCOL_VERSION,
};
use weblab_prov::EpochSnapshot;
use weblab_workflow::ProofMode;
use weblab_xml::parse_document;

use crate::load::{clip, Sample};
use crate::oracle::serve_platform;
use crate::spec::{Prepared, Spec, DAEMON_COMPACT_EVERY};

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the replay started.
pub struct SpanRec {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u32,
}

/// In-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    base: Instant,
    pub spans: Vec<SpanRec>,
    stack: Vec<u32>,
    req: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(SpanRec {
            name,
            start: self.now(),
            end: 0,
            parent,
            req: self.req,
        });
        self.stack.push(self.spans.len() as u32 - 1);
    }

    fn end(&mut self) {
        let idx = self.stack.pop().expect("span ends match begins") as usize;
        self.spans[idx].end = self.now();
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Write every span as one tab-separated line:
    /// `name start_ns end_ns parent request`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let rows = self.spans.iter().map(|s| {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            format!("{}\t{}\t{}\t{}\t{}", s.name, s.start, s.end, parent, s.req)
        });
        write_tsv(path, "name\tstart_ns\tend_ns\tparent\trequest", rows)
    }
}

/// Write the captured request stream, one request per line:
/// `send_ns recv_ns measured line` (a protocol line holds no raw tab).
pub fn write_log(samples: &[&Sample], path: &Path) -> Result<(), String> {
    let rows = samples.iter().map(|s| {
        format!(
            "{}\t{}\t{}\t{}",
            s.send_ns,
            s.recv_ns,
            u8::from(s.measured),
            s.req.line
        )
    });
    write_tsv(path, "send_ns\trecv_ns\tmeasured\tline", rows)
}

fn write_tsv(path: &Path, header: &str, rows: impl Iterator<Item = String>) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let write = || -> std::io::Result<()> {
        writeln!(out, "{header}")?;
        for row in rows {
            writeln!(out, "{row}")?;
        }
        out.flush()
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Counters read around each `execute`, so they describe that call alone.
#[derive(Default)]
pub struct ExecuteCounters {
    pub calls: u64,
    pub services_ns: u64,
    pub merge_ns: u64,
    pub nodes_visited: u64,
    pub pattern_evals: u64,
}

fn services_ns(snap: &obs::Snapshot) -> u64 {
    snap.histograms
        .iter()
        .filter(|(name, _)| name.starts_with("workflow.service.") && name.ends_with(".duration_ns"))
        .map(|(_, h)| h.sum)
        .sum()
}

/// What one replay produced.
pub struct Replayed {
    /// Wall time of the measured part of the stream.
    pub wall_ns: u64,
    pub tracer: Tracer,
    /// Operation of each traced request, by request id.
    pub ops: Vec<&'static str>,
    /// Response bytes of each traced request.
    pub response_bytes: Vec<u64>,
    /// Counter deltas over the measured part.
    pub counters: obs::Snapshot,
    pub execute: ExecuteCounters,
    /// Links held by the store's executions when the replay ended.
    pub links_stored: u64,
    pub store_bytes: u64,
}

struct Dispatcher<'p> {
    platform: &'p Platform,
    tracer: Tracer,
    /// (execution, epoch) pairs that already answered a SPARQL query since
    /// the execution was last loaded.
    sparql_seen: HashSet<(String, u64)>,
    execute: ExecuteCounters,
    /// Links of every execution written so far.
    links_stored: u64,
}

fn field<'j>(request: &'j Json, key: &str) -> Result<&'j str, String> {
    request
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request without string field {key:?}"))
}

fn strings(value: Option<&Json>) -> Vec<String> {
    value
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|v| v.as_str().map(String::from))
        .collect()
}

/// The query a request asks for (the subset of the protocol the workloads
/// send).
fn to_query(op: &str, r: &Json) -> Result<ProvQuery, String> {
    let uri = || field(r, "uri").map(String::from);
    Ok(match op {
        "why" => ProvQuery::Why { uri: uri()? },
        "lineage" => ProvQuery::Lineage {
            uri: uri()?,
            depth: r.get("depth").and_then(Json::as_u64).unwrap_or(1) as usize,
        },
        "impacted-by" => ProvQuery::ImpactedBy { uri: uri()? },
        "common-origins" => ProvQuery::CommonOrigins {
            a: field(r, "a")?.to_string(),
            b: field(r, "b")?.to_string(),
        },
        "sparql" => ProvQuery::Sparql {
            query: field(r, "query")?.to_string(),
        },
        "rank" => ProvQuery::Rank {
            uris: vec![uri()?],
            direction: RankDirection::parse(
                r.get("direction").and_then(Json::as_str).unwrap_or("up"),
            )
            .ok_or("bad rank direction")?,
            opts: QueryOpts {
                limit: r.get("limit").and_then(Json::as_u64).unwrap_or(0) as usize,
                budget: r.get("budget").and_then(Json::as_u64).unwrap_or(0) as usize,
                decay_micro: 0,
            },
            weights: Vec::new(),
        },
        "summary" => ProvQuery::Summary {
            uri: r.get("uri").and_then(Json::as_str).map(String::from),
        },
        other => return Err(format!("the replay does not model op {other:?}")),
    })
}

fn success(epoch: u64, result: Json) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("v", Json::num(PROTOCOL_VERSION)),
        ("epoch", Json::num(epoch)),
        ("result", result),
    ])
}

impl Dispatcher<'_> {
    /// `handle` + `snapshot()`, as a cold load when the execution was not
    /// resident.
    fn snapshot(&mut self, exec: &ExecutionHandle<'_>) -> Result<Arc<EpochSnapshot>, String> {
        let resident = exec.is_resident();
        if !resident {
            self.sparql_seen.retain(|(e, _)| e != exec.id());
        }
        let name = if resident {
            "platform.snapshot"
        } else {
            "store.cold_load"
        };
        self.tracer
            .span(name, || exec.snapshot())
            .map_err(|e| format!("snapshot of {}: {e}", exec.id()))
    }

    fn query(
        &mut self,
        exec: &ExecutionHandle<'_>,
        snap: &Arc<EpochSnapshot>,
        op: &str,
        request: &Json,
    ) -> Result<QueryAnswer, String> {
        let query = to_query(op, request)?;
        let name = match op {
            "sparql" if self.sparql_seen.insert((exec.id().to_string(), snap.epoch)) => {
                "rdf.sparql_first"
            }
            "sparql" => "rdf.sparql",
            "rank" | "summary" => "prov.rank",
            _ => "prov.index",
        };
        self.tracer
            .span(name, || exec.query_on(snap, &query))
            .map_err(|e| format!("{op} failed: {e}"))
    }

    fn dispatch(&mut self, line: &str) -> Result<String, String> {
        let request = self
            .tracer
            .span("json.parse", || Json::parse(line))
            .map_err(|e| format!("request is not JSON: {e}"))?;
        let op = field(&request, "op")?;
        let exec = self.platform.execution(field(&request, "exec")?);
        match op {
            "why" | "lineage" | "impacted-by" | "common-origins" | "sparql" | "rank"
            | "summary" => {
                let snap = self.snapshot(&exec)?;
                let answer = self.query(&exec, &snap, op, &request)?;
                Ok(self
                    .tracer
                    .span("serve.render", || render_response(snap.epoch, &answer)))
            }
            "batch" => {
                let snap = self.snapshot(&exec)?;
                let mut answers = Vec::new();
                for sub in request
                    .get("requests")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                {
                    answers.push(self.query(&exec, &snap, field(sub, "op")?, sub)?);
                }
                Ok(self.tracer.span("serve.render", || {
                    let results = answers
                        .iter()
                        .map(|a| success(snap.epoch, render_answer(a)))
                        .collect();
                    success(snap.epoch, Json::Arr(results)).to_string()
                }))
            }
            "ingest" => {
                let doc = self.tracer.span("xml.parse", || {
                    parse_document(field(&request, "xml")?).map_err(|e| e.to_string())
                })?;
                let live = request.get("live").and_then(Json::as_bool).unwrap_or(false);
                self.tracer.span("platform.ingest", || {
                    exec.ingest(doc);
                    if live {
                        exec.enable_live();
                    }
                });
                let steps = strings(request.get("pipeline"));
                let refs: Vec<&str> = steps.iter().map(String::as_str).collect();
                let before = self.tracer.span("trace.counters", obs::snapshot);
                self.tracer
                    .span("platform.execute", || exec.execute(&refs))
                    .map_err(|e| format!("execute failed: {e}"))?;
                let after = self.tracer.span("trace.counters", obs::snapshot);
                let delta = after.since(&before);
                let c = &mut self.execute;
                c.calls += 1;
                c.services_ns += services_ns(&delta);
                c.merge_ns += delta.histogram("live.merge_ns").map_or(0, |h| h.sum);
                c.nodes_visited += delta.counter("xpath.eval.nodes_visited");
                c.pattern_evals += delta.counter("xpath.pattern.evals");
                let snap = self.snapshot(&exec)?;
                self.links_stored += snap.graph.links.len() as u64;
                Ok(self.tracer.span("serve.render", || {
                    success(
                        snap.epoch,
                        Json::obj(vec![
                            ("execution", Json::str(exec.id())),
                            ("calls", Json::num(snap.calls as u64)),
                            ("links", Json::num(snap.graph.links.len() as u64)),
                            ("resources", Json::num(snap.graph.sources.len() as u64)),
                        ]),
                    )
                    .to_string()
                }))
            }
            "replay" => {
                let doc = self.tracer.span("xml.parse", || {
                    parse_document(field(&request, "xml")?).map_err(|e| e.to_string())
                })?;
                let new_id = field(&request, "as")?;
                let changed = strings(request.get("changed"));
                let report = self
                    .tracer
                    .span("workflow.replay", || {
                        exec.replay(new_id, doc, &changed, ProofMode::Trusted)
                    })
                    .map_err(|e| format!("replay failed: {e}"))?;
                let replayed = self.platform.execution(report.execution.as_str());
                let snap = self.snapshot(&replayed)?;
                self.links_stored += snap.graph.links.len() as u64;
                Ok(self.tracer.span("serve.render", || {
                    success(
                        snap.epoch,
                        Json::obj(vec![
                            ("execution", Json::str(report.execution.as_str())),
                            ("cone", Json::num(report.cone_size as u64)),
                            ("reused", Json::num(report.reused as u64)),
                            ("recomputed", Json::num(report.recomputed as u64)),
                            ("splices", Json::num(report.splices as u64)),
                            ("grades", Json::Arr(Vec::new())),
                        ]),
                    )
                    .to_string()
                }))
            }
            other => Err(format!("the replay does not model op {other:?}")),
        }
    }
}

fn check(response: &str, req: &Prepared) -> Result<(), String> {
    if response == &*req.expected {
        return Ok(());
    }
    Err(format!(
        "replayed {} diverged from the daemon's answer:\n  request:  {}\n  expected: {}\n  replay:   {}",
        req.op,
        clip(&req.line),
        clip(&req.expected),
        clip(response)
    ))
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => total += dir_bytes(&entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

/// Replay `preload` and then the captured `samples` (sorted by send time)
/// against a fresh platform over `store`. With `traced`, the measured part
/// records spans and counter deltas; without, it runs the daemon's own
/// `handle_line` with collection off, which is the baseline for the
/// tracing overhead. Background compaction runs at the daemon's cadence
/// of the captured send times.
pub fn replay(
    spec: &Spec,
    preload: &[Prepared],
    samples: &[&Sample],
    store: &Path,
    traced: bool,
) -> Result<Replayed, String> {
    let platform = serve_platform(store, spec.max_resident)?;
    let mut d = Dispatcher {
        platform: &platform,
        tracer: Tracer::new(),
        sparql_seen: HashSet::new(),
        execute: ExecuteCounters::default(),
        links_stored: 0,
    };
    // untimed dispatch through the daemon's own entry point
    let untimed = |d: &mut Dispatcher<'_>, req: &Prepared| -> Result<(), String> {
        let response = handle_line(&platform, &req.line).0;
        check(&response, req)?;
        if req.is_write() {
            let new_id = Json::parse(&response)
                .ok()
                .and_then(|r| {
                    r.get("result")?
                        .get("execution")?
                        .as_str()
                        .map(String::from)
                })
                .ok_or("write response without an execution id")?;
            let snap = platform
                .execution(new_id.as_str())
                .snapshot()
                .map_err(|e| format!("snapshot of {new_id}: {e}"))?;
            d.links_stored += snap.graph.links.len() as u64;
        }
        Ok(())
    };
    for req in preload {
        untimed(&mut d, req)?;
    }
    let every = DAEMON_COMPACT_EVERY.as_nanos() as u64;
    let mut next_compact = every;
    let mut ops = Vec::new();
    let mut response_bytes = Vec::new();
    let mut before = None;
    let mut started: Option<Instant> = None;
    let compact = |d: &mut Dispatcher<'_>, timed: bool| -> Result<(), String> {
        let store = platform.store().expect("the replay platform has a store");
        let result = if timed {
            d.tracer.span("store.compact", || store.compact_all())
        } else {
            store.compact_all()
        };
        result
            .map(|_| ())
            .map_err(|e| format!("compaction failed: {e}"))
    };
    for sample in samples {
        let measuring = sample.measured;
        if measuring && started.is_none() {
            if traced {
                obs::enable();
                before = Some(obs::snapshot());
            }
            started = Some(Instant::now());
        }
        while sample.send_ns >= next_compact {
            compact(&mut d, traced && measuring)?;
            next_compact += every;
        }
        if !measuring {
            untimed(&mut d, &sample.req)?;
        } else if traced {
            d.tracer.req = ops.len() as u32;
            d.tracer.begin("request");
            let response = d.dispatch(&sample.req.line);
            d.tracer.end();
            let response = response?;
            ops.push(sample.req.op);
            response_bytes.push(response.len() as u64);
            check(&response, &sample.req)?;
        } else {
            check(&handle_line(&platform, &sample.req.line).0, &sample.req)?;
        }
    }
    let wall_ns = started.map_or(0, |s| s.elapsed().as_nanos() as u64);
    let counters = match before {
        Some(before) => obs::snapshot().since(&before),
        None => obs::Snapshot::default(),
    };
    obs::disable();
    let store_handle = platform.store().expect("the replay platform has a store");
    store_handle
        .compact_all()
        .map_err(|e| format!("final compaction: {e}"))?;
    let store_bytes = dir_bytes(store);
    Ok(Replayed {
        wall_ns,
        tracer: d.tracer,
        ops,
        response_bytes,
        counters,
        execute: d.execute,
        links_stored: d.links_stored,
        store_bytes,
    })
}

/// Self time per span name: duration minus the time its children cover.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end - s.start) - child[i];
    }
    out
}
