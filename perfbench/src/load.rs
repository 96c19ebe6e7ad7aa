//! The closed-loop load generator: one thread per connection, each
//! sending its next request only after the previous response arrived
//! (and, where the workload has one, a random think pause).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use weblab_workflow::rng::SplitMix64;

use crate::daemon::{Conn, Daemon};
use crate::oracle::Oracle;
use crate::spec::{self, Corpus, Prepared, Spec, Workload, CONNECTIONS, REPLAY_EVERY};

/// One request as the load generator saw it. Times are nanoseconds since
/// the daemon was spawned.
pub struct Sample {
    pub send_ns: u64,
    pub recv_ns: u64,
    pub req: Prepared,
    /// Sent after the warm-up, inside the measured window.
    pub measured: bool,
    /// Answered `ok:false` (failed or refused).
    pub failed: bool,
}

/// Everything one load phase produced.
pub struct LoadOut {
    /// Every request of the phase, warm-up included, per connection in
    /// send order.
    pub samples: Vec<Sample>,
    pub window_start_ns: u64,
    pub window_end_ns: u64,
}

fn since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// Send one request and check its answer against the oracle. A refusal
/// counts as failed; any other difference aborts the run.
pub fn exchange(conn: &mut Conn, req: &Prepared) -> Result<bool, String> {
    let response = conn.call(&req.line)?;
    if response == &*req.expected {
        return Ok(false);
    }
    if response.starts_with("{\"ok\":false") {
        eprintln!("perfbench: {} refused: {}", req.op, clip(response));
        return Ok(true);
    }
    Err(format!(
        "oracle mismatch on {}:\n  request:  {}\n  expected: {}\n  daemon:   {}",
        req.op,
        clip(&req.line),
        clip(&req.expected),
        clip(response)
    ))
}

/// The head of a long protocol line, for error messages.
pub fn clip(s: &str) -> &str {
    let mut end = s.len().min(400);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Executions the writer has completed, shared with the analyst.
struct Completed {
    ids: Mutex<Vec<(String, usize)>>,
}

/// Chooses each connection's next request.
enum Chooser<'a> {
    Pool {
        reads: &'a [Prepared],
        order: Vec<usize>,
        next: usize,
    },
    Writer {
        writes: usize,
        /// The ingest in flight, added to the completed list once answered.
        pending: Option<(String, usize)>,
    },
    Analyst,
}

struct Ctx<'a> {
    oracle: &'a Oracle,
    corpora: &'a [Corpus],
    spec: &'a Spec,
    completed: &'a Completed,
}

impl Chooser<'_> {
    fn next(&mut self, ctx: &Ctx<'_>, rng: &mut SplitMix64) -> Prepared {
        match self {
            Chooser::Pool { reads, order, next } => {
                *next += 1;
                reads[order[*next % order.len()]].clone()
            }
            Chooser::Writer { writes, pending } => {
                let n = *writes;
                *writes += 1;
                if n % REPLAY_EVERY == REPLAY_EVERY - 1 {
                    let k = rng.gen_range(0..ctx.corpora.len());
                    let prior = {
                        let ids = ctx.completed.ids.lock().expect("completed list lock");
                        let of_k: Vec<&String> = ids
                            .iter()
                            .filter(|(_, c)| *c == k)
                            .map(|(id, _)| id)
                            .collect();
                        of_k[rng.gen_range(0..of_k.len())].clone()
                    };
                    let id = format!("r{n}");
                    Prepared {
                        op: "replay",
                        line: spec::replay_line(&prior, &id, &ctx.corpora[k]).into(),
                        expected: ctx.oracle.replays[k].for_id(&id),
                    }
                } else {
                    let k = n % ctx.corpora.len();
                    let id = format!("w{n}");
                    *pending = Some((id.clone(), k));
                    Prepared {
                        op: "ingest",
                        line: spec::ingest_line(&id, &ctx.corpora[k].xml, ctx.spec.live).into(),
                        expected: ctx.oracle.ingests[k].for_id(&id),
                    }
                }
            }
            Chooser::Analyst => {
                let (id, k) = {
                    let ids = ctx.completed.ids.lock().expect("completed list lock");
                    // reads go to the two newest executions (resident) or
                    // uniformly to the older ones (mostly cold)
                    let recent = 2.min(ids.len());
                    let i = if rng.gen_bool(ctx.spec.recent_reads) || ids.len() == recent {
                        ids.len() - 1 - rng.gen_range(0..recent)
                    } else {
                        rng.gen_range(0..ids.len() - recent)
                    };
                    ids[i].clone()
                };
                let pool = &ctx.oracle.analyst[k];
                let (req, expected) = &pool[rng.gen_range(0..pool.len())];
                Prepared {
                    op: req.op,
                    line: req.line(&id).into(),
                    expected: Arc::clone(expected),
                }
            }
        }
    }
}

/// Drive the daemon for `warmup + seconds` from [`CONNECTIONS`]
/// connections, checking every response.
pub fn run(
    daemon: &Daemon,
    spec: &Spec,
    oracle: &Oracle,
    corpora: &[Corpus],
    seconds: f64,
    seed: u64,
) -> Result<LoadOut, String> {
    let completed = Completed {
        ids: Mutex::new(
            (0..spec.execs)
                .map(|i| (spec.preload_id(i), spec.preload_corpus(i)))
                .collect(),
        ),
    };
    let ctx = Ctx {
        oracle,
        corpora,
        spec,
        completed: &completed,
    };
    let base = daemon.spawned;
    let window_start_ns = since(base) + spec.warmup.as_nanos() as u64;
    let window_end_ns = window_start_ns + Duration::from_secs_f64(seconds).as_nanos() as u64;
    let abort = AtomicBool::new(false);
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(daemon.connect()?);
    }
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let (ctx, abort) = (&ctx, &abort);
                let mut chooser = match spec.workload {
                    Workload::Lookup | Workload::Analytics => Chooser::Pool {
                        reads: &oracle.reads,
                        order: spec::shuffled(oracle.reads.len(), seed.wrapping_add(c as u64)),
                        next: 0,
                    },
                    Workload::Ingest if c == 0 => Chooser::Writer {
                        writes: 0,
                        pending: None,
                    },
                    Workload::Ingest => Chooser::Analyst,
                };
                s.spawn(move || {
                    let mut rng = SplitMix64::seed_from_u64(seed.wrapping_add(1 + c as u64));
                    let mut samples = Vec::new();
                    while !abort.load(Ordering::Relaxed) {
                        let req = chooser.next(ctx, &mut rng);
                        let send_ns = since(base);
                        if send_ns >= window_end_ns {
                            break;
                        }
                        let failed = match exchange(&mut conn, &req) {
                            Ok(failed) => failed,
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                return Err(e);
                            }
                        };
                        let recv_ns = since(base);
                        if let Chooser::Writer { pending, .. } = &mut chooser {
                            if let (Some(done), false) = (pending.take(), failed) {
                                ctx.completed
                                    .ids
                                    .lock()
                                    .expect("completed list lock")
                                    .push(done);
                            }
                        }
                        samples.push(Sample {
                            send_ns,
                            recv_ns,
                            req,
                            measured: send_ns >= window_start_ns,
                            failed,
                        });
                        if !spec.think.is_zero() {
                            let ns = spec.think.as_nanos() as usize;
                            std::thread::sleep(Duration::from_nanos(rng.gen_range(0..ns) as u64));
                        }
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    for r in results {
        samples.extend(r?);
    }
    Ok(LoadOut {
        samples,
        window_start_ns,
        window_end_ns,
    })
}
