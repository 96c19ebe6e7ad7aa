//! The correctness oracle: an in-process reference `Platform`, set up the
//! way `weblab serve` sets up its own, that answers every distinct
//! request once before the daemon is timed.

use std::path::Path;
use std::sync::Arc;

use weblab::json::Json;
use weblab::serve::handle_line;
use weblab_platform::{Mapper, Platform, ProvStore};
use weblab_workflow::services::{
    self, EntityExtractor, Indexer, KeywordExtractor, LanguageExtractor, Normaliser, OcrExtractor,
    SentimentAnalyser, SpeechTranscriber, Summariser, Tokeniser, Translator,
};
use weblab_workflow::Service;

use crate::spec::{self, Corpus, ExecShape, Prepared, Spec, Workload};

/// A platform configured like `weblab serve --store DIR --max-resident N`:
/// the 11 built-in services with their default mapping rules, and a disk
/// store attached.
pub fn serve_platform(store: &Path, max_resident: usize) -> Result<Platform, String> {
    let rules = services::default_rules();
    let platform = Platform::new(Mapper::native());
    let builtins: Vec<Box<dyn Service>> = vec![
        Box::new(Normaliser),
        Box::new(LanguageExtractor),
        Box::new(Translator::default()),
        Box::new(Tokeniser),
        Box::new(EntityExtractor),
        Box::new(SentimentAnalyser),
        Box::new(KeywordExtractor),
        Box::new(Summariser),
        Box::new(Indexer),
        Box::new(OcrExtractor),
        Box::new(SpeechTranscriber),
    ];
    for svc in builtins {
        let texts: Vec<String> = rules
            .rules_for(svc.name())
            .iter()
            .map(|r| r.to_string())
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        platform
            .register_service(Arc::from(svc), &refs)
            .map_err(|e| format!("registering a built-in service: {e}"))?;
    }
    let store = ProvStore::open(store).map_err(|e| format!("opening a store: {e}"))?;
    platform
        .attach_store(store, max_resident.max(1))
        .map_err(|e| format!("attaching a store: {e}"))?;
    Ok(platform)
}

fn answer(platform: &Platform, line: &str) -> Result<Arc<str>, String> {
    let (response, _) = handle_line(platform, line);
    if !response.starts_with("{\"ok\":true") {
        return Err(format!("reference refused a workload request: {response}"));
    }
    Ok(response.into())
}

fn execution_member(id: &str) -> String {
    format!("\"execution\":{}", Json::str(id))
}

/// An answer whose only execution-specific bytes are the `execution`
/// member of its result (`ingest` and `replay` responses).
pub struct WriteAnswer {
    template: String,
    member: String,
}

impl WriteAnswer {
    fn new(template: Arc<str>, id: &str) -> Result<WriteAnswer, String> {
        let member = execution_member(id);
        if template.matches(member.as_str()).count() != 1 {
            return Err(format!(
                "reference answer does not name {id} once: {template}"
            ));
        }
        Ok(WriteAnswer {
            template: template.to_string(),
            member,
        })
    }

    /// The expected answer for the same write under another execution id.
    pub fn for_id(&self, id: &str) -> Arc<str> {
        self.template
            .replacen(&self.member, &execution_member(id), 1)
            .into()
    }
}

/// Every expected answer of one run.
pub struct Oracle {
    /// The preload's ingest requests, in the order the daemon receives them.
    pub preload: Vec<Prepared>,
    /// `lookup`/`analytics`: the read requests the clients draw from.
    pub reads: Vec<Prepared>,
    /// `ingest`: per corpus, the analyst's reads (built for any execution
    /// of that corpus) with their answers.
    pub analyst: Vec<Vec<(spec::ReadReq, Arc<str>)>>,
    /// `ingest`: per corpus, the answer to ingesting it.
    pub ingests: Vec<WriteAnswer>,
    /// `ingest`: per corpus, the answer to replaying it with its change.
    pub replays: Vec<WriteAnswer>,
}

fn shape_of(platform: &Platform, id: &str) -> Result<ExecShape, String> {
    let snap = platform
        .execution(id)
        .snapshot()
        .map_err(|e| format!("reference snapshot of {id}: {e}"))?;
    let uris: Vec<String> = snap.graph.sources.iter().map(|s| s.uri.clone()).collect();
    let mut derived: Vec<String> = snap
        .graph
        .links
        .iter()
        .map(|l| l.from_uri.clone())
        .collect();
    derived.sort();
    derived.dedup();
    if uris.is_empty() || derived.is_empty() {
        return Err(format!("execution {id} has no provenance links to query"));
    }
    Ok(ExecShape { uris, derived })
}

impl Oracle {
    pub fn build(
        spec: &Spec,
        seed: u64,
        corpora: &[Corpus],
        store: &Path,
    ) -> Result<Oracle, String> {
        // Large enough that the reference never evicts: its answers are
        // the resident ones, which cold reads on the daemon must match.
        let platform = serve_platform(store, spec.execs + 4 * spec.corpora + 8)?;
        match spec.workload {
            Workload::Lookup | Workload::Analytics => {
                let mut preload = Vec::new();
                let mut shapes = Vec::new();
                for i in 0..spec.execs {
                    let id = spec.preload_id(i);
                    let line =
                        spec::ingest_line(&id, &corpora[spec.preload_corpus(i)].xml, spec.live);
                    let expected = answer(&platform, &line)?;
                    preload.push(Prepared {
                        op: "ingest",
                        line: line.into(),
                        expected,
                    });
                    shapes.push(shape_of(&platform, &id)?);
                }
                let mut reads = Vec::new();
                for entry in spec::read_pool(spec, seed, &shapes) {
                    let line = entry.req.line(&spec.preload_id(entry.slot));
                    let expected = answer(&platform, &line)?;
                    reads.push(Prepared {
                        op: entry.req.op,
                        line: line.into(),
                        expected,
                    });
                }
                Ok(Oracle {
                    preload,
                    reads,
                    analyst: Vec::new(),
                    ingests: Vec::new(),
                    replays: Vec::new(),
                })
            }
            Workload::Ingest => {
                let mut ingests = Vec::new();
                let mut shapes = Vec::new();
                for (k, corpus) in corpora.iter().enumerate() {
                    let id = format!("t{k}");
                    let line = spec::ingest_line(&id, &corpus.xml, spec.live);
                    ingests.push(WriteAnswer::new(answer(&platform, &line)?, &id)?);
                    shapes.push(shape_of(&platform, &id)?);
                }
                // The writer re-ingests the same corpora under fresh ids,
                // which is only checkable if an ingest's answer does not
                // depend on the id or on earlier executions.
                let again = spec::ingest_line("t0-again", &corpora[0].xml, spec.live);
                if answer(&platform, &again)? != ingests[0].for_id("t0-again") {
                    return Err("re-ingesting a corpus under a fresh id changed its answer".into());
                }
                let mut analyst: Vec<Vec<(spec::ReadReq, Arc<str>)>> =
                    (0..corpora.len()).map(|_| Vec::new()).collect();
                for entry in spec::read_pool(spec, seed, &shapes) {
                    let expected = answer(&platform, &entry.req.line(&format!("t{}", entry.slot)))?;
                    analyst[entry.slot].push((entry.req, expected));
                }
                let mut replays = Vec::new();
                for (k, corpus) in corpora.iter().enumerate() {
                    let id = format!("t{k}-replay");
                    let line = spec::replay_line(&format!("t{k}"), &id, corpus);
                    replays.push(WriteAnswer::new(answer(&platform, &line)?, &id)?);
                }
                let preload = (0..spec.execs)
                    .map(|i| {
                        let id = spec.preload_id(i);
                        let k = spec.preload_corpus(i);
                        Prepared {
                            op: "ingest",
                            line: spec::ingest_line(&id, &corpora[k].xml, spec.live).into(),
                            expected: ingests[k].for_id(&id),
                        }
                    })
                    .collect();
                Ok(Oracle {
                    preload,
                    reads: Vec::new(),
                    analyst,
                    ingests,
                    replays,
                })
            }
        }
    }
}
