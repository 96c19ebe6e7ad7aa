//! The three workloads: their knobs, their generated inputs and the
//! request pools the load generator draws from.

use std::sync::Arc;
use std::time::Duration;

use weblab::json::Json;
use weblab_workflow::generator::generate_corpus;
use weblab_workflow::rng::SplitMix64;
use weblab_xml::to_xml_string;

/// The 9-service media-mining pipeline every generated corpus runs through.
pub const PIPELINE: [&str; 9] = [
    "Normaliser",
    "LanguageExtractor",
    "Translator",
    "Tokeniser",
    "EntityExtractor",
    "SentimentAnalyser",
    "KeywordExtractor",
    "Summariser",
    "Indexer",
];

/// The daemon's `--workers`, matching the two cores the benchmark was
/// sized for.
pub const WORKERS: usize = 2;

/// Client connections of the load generator. On `ingest` the first is the
/// writer and the second the analyst.
pub const CONNECTIONS: usize = 2;

/// `ingest`: every `REPLAY_EVERY`-th write of the writer is a `replay`.
pub const REPLAY_EVERY: usize = 8;

/// `weblab serve`'s default background-compaction period (`--compact-every`).
pub const DAEMON_COMPACT_EVERY: Duration = Duration::from_millis(5000);

/// Words of text per generated source.
const WORDS: usize = 12;

const PROV_PREFIX: &str = "PREFIX prov: <http://www.w3.org/ns/prov#> ";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Lookup,
    Analytics,
    Ingest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "analytics" => Some(Workload::Analytics),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Analytics => "analytics",
            Workload::Ingest => "ingest",
        }
    }
}

/// The knobs of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workload: Workload,
    /// Executions ingested by the preload.
    pub execs: usize,
    /// Distinct seeded corpora; `ingest` cycles them under fresh ids.
    pub corpora: usize,
    /// `NativeContent` sources per corpus.
    pub sources: usize,
    /// The daemon's `--max-resident`.
    pub max_resident: usize,
    /// Whether ingests run with live provenance maintenance.
    pub live: bool,
    /// Distinct read requests (per corpus for `ingest`).
    pub pool: usize,
    /// `ingest`: share of the analyst's reads that go to the two newest
    /// (resident) executions; the rest are uniform over older, mostly
    /// cold, ones.
    pub recent_reads: f64,
    /// Daemon start-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Upper end of the uniform random pause a connection takes after
    /// each answer before it sends its next request; zero sends back to
    /// back.
    pub think: Duration,
    /// Unmeasured traffic before the measured phase.
    pub warmup: Duration,
}

impl Spec {
    pub fn new(workload: Workload, smoke: bool) -> Spec {
        let base = Spec {
            workload,
            execs: 16,
            corpora: 16,
            sources: 16,
            max_resident: 32,
            live: false,
            pool: 4096,
            recent_reads: 0.0,
            setup_reps: 10,
            think: Duration::ZERO,
            // the first seconds after the start-ups run slower
            warmup: Duration::from_millis(3000),
        };
        let spec = match workload {
            // Back to back, two connections sending µs-cheap queries fall
            // in and out of step with the event loop's 500 µs idle
            // wake-up: a half to two thirds of the answers took ~0.1 ms,
            // the rest ~0.65 ms, and the split held for seconds and moved
            // between runs, so the median read jumped between the two.
            // Sent back to back from more connections, the queries
            // saturate both cores and measure the host's spare CPU. A
            // random pause spanning two wake-up periods sends each request
            // at a random phase of the loop's sleep, so every read's wait
            // is drawn afresh from one steady distribution.
            Workload::Lookup => Spec {
                think: Duration::from_millis(1),
                ..base
            },
            Workload::Analytics => Spec {
                execs: 8,
                corpora: 8,
                sources: 128,
                max_resident: 16,
                pool: 256,
                setup_reps: 8,
                ..base
            },
            Workload::Ingest => Spec {
                execs: 32,
                corpora: 16,
                max_resident: 8,
                live: true,
                pool: 48,
                recent_reads: 2.0 / 3.0,
                ..base
            },
        };
        if !smoke {
            return spec;
        }
        Spec {
            execs: spec.execs.min(4),
            corpora: spec.corpora.min(2),
            sources: spec.sources.min(8),
            max_resident: spec
                .max_resident
                .min(if workload == Workload::Ingest { 2 } else { 8 }),
            pool: spec.pool.min(32),
            setup_reps: 1,
            warmup: Duration::from_millis(100),
            ..spec
        }
    }

    /// The knobs as a JSON object, recorded beside every result.
    pub fn knobs(&self, seed: u64) -> Json {
        Json::obj(vec![
            ("seed", Json::num(seed)),
            ("executions", Json::num(self.execs as u64)),
            ("corpora", Json::num(self.corpora as u64)),
            ("sources_per_corpus", Json::num(self.sources as u64)),
            ("words_per_source", Json::num(WORDS as u64)),
            ("max_resident", Json::num(self.max_resident as u64)),
            ("workers", Json::num(WORKERS as u64)),
            ("connections", Json::num(CONNECTIONS as u64)),
            ("live", Json::Bool(self.live)),
            (
                "replay_every",
                Json::num(match self.workload {
                    Workload::Ingest => REPLAY_EVERY as u64,
                    _ => 0,
                }),
            ),
            ("read_pool", Json::num(self.pool as u64)),
            ("recent_reads", Json::Num(self.recent_reads)),
            ("setup_reps", Json::num(self.setup_reps as u64)),
            ("think_max_us", Json::num(self.think.as_micros() as u64)),
            ("warmup_ms", Json::num(self.warmup.as_millis() as u64)),
        ])
    }

    /// The id of the `i`-th preloaded execution.
    pub fn preload_id(&self, i: usize) -> String {
        format!("p{i}")
    }

    /// The corpus the `i`-th preloaded execution ingests.
    pub fn preload_corpus(&self, i: usize) -> usize {
        i % self.corpora
    }
}

/// One generated corpus: its initial document, and a copy with one
/// source's text changed in place (the input of a `replay`).
pub struct Corpus {
    pub xml: String,
    pub changed_xml: String,
    pub changed_uri: String,
}

/// Generate the workload's corpora from its seed.
pub fn corpora(spec: &Spec, seed: u64) -> Vec<Corpus> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_c0a9_u64);
    (0..spec.corpora)
        .map(|_| {
            let doc = generate_corpus(rng.next_u64(), spec.sources, WORDS);
            let xml = to_xml_string(&doc.view());
            let j = rng.gen_range(0..spec.sources);
            let changed_uri = format!("weblab://src/{j}");
            let changed_xml = change_source_text(&xml, &changed_uri);
            Corpus {
                xml,
                changed_xml,
                changed_uri,
            }
        })
        .collect()
}

/// Reverse the word order of one source's text, leaving the document's
/// structure untouched (what `replay` requires of a changed input).
fn change_source_text(xml: &str, uri: &str) -> String {
    let anchor = format!("wl:id=\"{uri}\"");
    let at = xml
        .find(&anchor)
        .expect("generated corpus holds the source");
    let open = at + xml[at..].find('>').expect("source element has a body") + 1;
    let close = open
        + xml[open..]
            .find("</NativeContent>")
            .expect("source is closed");
    let reversed: Vec<&str> = xml[open..close].split(' ').rev().collect();
    format!("{}{}{}", &xml[..open], reversed.join(" "), &xml[close..])
}

pub fn ingest_line(exec: &str, xml: &str, live: bool) -> String {
    Json::obj(vec![
        ("op", Json::str("ingest")),
        ("exec", Json::str(exec)),
        ("xml", Json::str(xml)),
        ("live", Json::Bool(live)),
        (
            "pipeline",
            Json::Arr(PIPELINE.iter().map(|s| Json::str(*s)).collect()),
        ),
    ])
    .to_string()
}

pub fn replay_line(prior: &str, new_id: &str, corpus: &Corpus) -> String {
    Json::obj(vec![
        ("op", Json::str("replay")),
        ("exec", Json::str(prior)),
        ("as", Json::str(new_id)),
        ("xml", Json::str(corpus.changed_xml.as_str())),
        (
            "changed",
            Json::Arr(vec![Json::str(corpus.changed_uri.as_str())]),
        ),
        ("proof", Json::str("trusted")),
    ])
    .to_string()
}

/// The resources of one execution that read requests address.
pub struct ExecShape {
    /// Every resource URI.
    pub uris: Vec<String>,
    /// Derived endpoints of provenance links (`from` side).
    pub derived: Vec<String>,
}

/// A read request without its `exec` member; [`ReadReq::line`] adds it.
pub struct ReadReq {
    pub op: &'static str,
    fields: Vec<(&'static str, Json)>,
}

impl ReadReq {
    pub fn line(&self, exec: &str) -> String {
        let mut pairs = vec![("op", Json::str(self.op)), ("exec", Json::str(exec))];
        pairs.extend(self.fields.iter().map(|(k, v)| (*k, v.clone())));
        Json::obj(pairs).to_string()
    }
}

fn pick<'a>(rng: &mut SplitMix64, from: &'a [String]) -> &'a str {
    &from[rng.gen_range(0..from.len())]
}

fn uri_req(op: &'static str, uri: &str) -> ReadReq {
    ReadReq {
        op,
        fields: vec![("uri", Json::str(uri))],
    }
}

/// A point query: `why`, `lineage`, `impacted-by`, `common-origins` or a
/// top-10 `rank`; `kind` picks which, so a pool holds them evenly.
fn point_query(rng: &mut SplitMix64, shape: &ExecShape, kind: usize) -> ReadReq {
    match kind % 5 {
        0 => uri_req("why", pick(rng, &shape.derived)),
        1 => {
            let mut req = uri_req("lineage", pick(rng, &shape.derived));
            req.fields
                .push(("depth", Json::num(1 + rng.gen_range(0..3) as u64)));
            req
        }
        2 => uri_req("impacted-by", pick(rng, &shape.uris)),
        3 => ReadReq {
            op: "common-origins",
            fields: vec![
                ("a", Json::str(pick(rng, &shape.derived))),
                ("b", Json::str(pick(rng, &shape.derived))),
            ],
        },
        _ => ReadReq {
            op: "rank",
            fields: vec![
                ("uri", Json::str(pick(rng, &shape.uris))),
                ("direction", Json::str("up")),
                ("limit", Json::num(10)),
            ],
        },
    }
}

fn sparql(query: String) -> ReadReq {
    ReadReq {
        op: "sparql",
        fields: vec![("query", Json::str(format!("{PROV_PREFIX}{query}")))],
    }
}

/// A multi-pattern SPARQL join over the PROV-O export; `kind` picks the
/// shape.
fn sparql_join(rng: &mut SplitMix64, shape: &ExecShape, kind: usize) -> ReadReq {
    match kind % 4 {
        0 => sparql("SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . }".into()),
        1 => sparql(
            "SELECT ?d ?s ?act WHERE { ?d prov:wasDerivedFrom ?s . ?d prov:wasGeneratedBy ?act . \
             ?act prov:used ?s . }"
                .into(),
        ),
        2 => sparql(format!(
            "SELECT ?d ?agent WHERE {{ ?d prov:wasDerivedFrom <{}> . ?d prov:wasGeneratedBy ?act . \
             ?act prov:wasAssociatedWith ?agent . }}",
            pick(rng, &shape.uris)
        )),
        _ => sparql(format!(
            "SELECT ?up ?origin WHERE {{ <{}> prov:wasDerivedFrom ?up . \
             ?up prov:wasDerivedFrom ?origin . }}",
            pick(rng, &shape.derived)
        )),
    }
}

/// The heavy analytics mix: SPARQL joins, `summary`, exact `rank` and
/// 8-sub `batch`, in equal shares over the pool index `i`.
fn analytics_query(rng: &mut SplitMix64, shape: &ExecShape, i: usize) -> ReadReq {
    let variant = i / 4;
    match i % 4 {
        0 => sparql_join(rng, shape, variant),
        1 => {
            let mut fields = Vec::new();
            if variant.is_multiple_of(2) {
                fields.push(("uri", Json::str(pick(rng, &shape.uris))));
            }
            ReadReq {
                op: "summary",
                fields,
            }
        }
        2 => {
            let (direction, seeds) = if variant.is_multiple_of(2) {
                ("up", &shape.uris)
            } else {
                ("down", &shape.derived)
            };
            ReadReq {
                op: "rank",
                fields: vec![
                    ("uri", Json::str(pick(rng, seeds))),
                    ("direction", Json::str(direction)),
                    ("limit", Json::num(50)),
                    ("budget", Json::num(0)),
                ],
            }
        }
        _ => {
            let subs = (0..8)
                .map(|k| {
                    let sub = point_query(rng, shape, k);
                    let mut pairs = vec![("op", Json::str(sub.op))];
                    pairs.extend(sub.fields);
                    Json::obj(pairs)
                })
                .collect();
            ReadReq {
                op: "batch",
                fields: vec![("requests", Json::Arr(subs))],
            }
        }
    }
}

/// The analyst's mix on the `ingest` workload: point queries and SPARQL,
/// in equal shares over the pool index `i`.
fn analyst_query(rng: &mut SplitMix64, shape: &ExecShape, i: usize) -> ReadReq {
    let variant = i / 3;
    match i % 3 {
        0 => sparql(format!(
            "SELECT ?s WHERE {{ <{}> prov:wasDerivedFrom ?s . }}",
            pick(rng, &shape.derived)
        )),
        1 => sparql_join(rng, shape, variant),
        _ => point_query(rng, shape, variant),
    }
}

/// One read request of a pool, with the exec slot it targets (a preloaded
/// execution for `lookup`/`analytics`, a corpus for `ingest`).
pub struct PoolEntry {
    pub slot: usize,
    pub req: ReadReq,
}

/// Draw the workload's read-request pool: every execution (corpus for
/// `ingest`) and every query kind in equal shares, with seeded URIs.
pub fn read_pool(spec: &Spec, seed: u64, shapes: &[ExecShape]) -> Vec<PoolEntry> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut pool = Vec::new();
    match spec.workload {
        Workload::Lookup | Workload::Analytics => {
            for i in 0..spec.pool {
                let (slot, kind) = (i % shapes.len(), i / shapes.len());
                let req = if spec.workload == Workload::Lookup {
                    point_query(&mut rng, &shapes[slot], kind)
                } else {
                    analytics_query(&mut rng, &shapes[slot], kind)
                };
                pool.push(PoolEntry { slot, req });
            }
        }
        Workload::Ingest => {
            for (slot, shape) in shapes.iter().enumerate() {
                for i in 0..spec.pool {
                    pool.push(PoolEntry {
                        slot,
                        req: analyst_query(&mut rng, shape, i),
                    });
                }
            }
        }
    }
    pool
}

/// A seeded permutation of `0..n`, which a connection cycles through so
/// every pool entry is sent equally often.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// A request as the load generator sends it, and the exact bytes the
/// daemon must answer.
#[derive(Clone)]
pub struct Prepared {
    pub op: &'static str,
    pub line: Arc<str>,
    pub expected: Arc<str>,
}

impl Prepared {
    pub fn is_write(&self) -> bool {
        matches!(self.op, "ingest" | "replay")
    }
}
