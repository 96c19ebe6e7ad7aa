//! `perfbench` — the repository benchmark. Starts the release `weblab
//! serve` daemon, drives one workload over loopback TCP from a closed-loop
//! load generator, checks every response against an in-process reference,
//! and prints the end-to-end metrics; with `--trace 1` it then replays the
//! captured request stream in-process with spans around each layer and
//! prints the per-layer metrics instead.
//!
//! Normally launched through `perfbench/run.py`, which builds the daemon
//! and this harness first:
//!
//! ```text
//! perfbench --workload lookup|analytics|ingest --seed N --seconds S --trace 0|1
//!           --daemon PATH --work DIR --out DIR [--rev REV] [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod daemon;
mod load;
mod oracle;
mod spec;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use weblab::json::Json;
use weblab_platform::ProvStore;

use crate::daemon::Daemon;
use crate::load::{LoadOut, Sample};
use crate::oracle::Oracle;
use crate::spec::{Spec, Workload};

/// How much of the measured window the traced run replays. Each replay
/// runs single-threaded, so replaying all of it would take longer than
/// the window itself.
const TRACED_SECONDS: u64 = 5;

/// Slices of the measured window that throughput and read percentiles
/// are medians over.
const WINDOWS: u64 = 10;

/// The end-to-end metrics of the JSON result. The others are printed and
/// recorded only: `error_rate` is carried by `attempted`/`failed`; the
/// write percentiles of `lookup` and `analytics` come from a few dozen
/// fsync-bound preload ingests, too few to be steady; and `read_p99_ms`
/// follows the CPU time the hypervisor steals from the machine: with a
/// few per cent stolen, more than one read in a hundred on `lookup` waits
/// for a descheduled core, and its spread between runs far exceeded any
/// bound. `read_p90_ms` stands in as the gated tail.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "read_p50_ms",
    "read_p90_ms",
    "peak_rss_mb",
    "disk_bytes_per_input_byte",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
    out: PathBuf,
    rev: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut daemon, mut work, mut out) = (None, None, None);
    let mut rev = String::from("unknown");
    let mut smoke = false;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--rev" => rev = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        daemon: daemon.ok_or("--daemon is required")?,
        work: work.ok_or("--work is required")?,
        out: out.ok_or("--out is required")?,
        rev,
        smoke,
    })
}

/// Nearest-rank percentile of raw samples, with the sample count.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Raw samples behind the value, when it is a statistic of samples.
    samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Some(samples),
    }
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut pairs = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                if let (true, Some(n)) = (with_samples, m.samples) {
                    pairs.push(("samples", Json::num(n as u64)));
                }
                (m.name.to_string(), Json::obj(pairs))
            })
            .collect(),
    )
}

fn latency_ms(s: &Sample) -> f64 {
    (s.recv_ns - s.send_ns) as f64 / 1e6
}

/// XML bytes a write request carries.
fn xml_bytes(line: &str) -> u64 {
    Json::parse(line)
        .ok()
        .and_then(|r| r.get("xml").and_then(Json::as_str).map(|x| x.len() as u64))
        .unwrap_or(0)
}

struct Untraced {
    setups_s: Vec<f64>,
    preload_write_ms: Vec<f64>,
    load: LoadOut,
    /// Share of the machine's CPU time the hypervisor gave to others
    /// during the load phase, when `/proc/stat` reports it.
    host_steal: Option<f64>,
    peak_rss_mb: f64,
    disk_bytes: u64,
    input_bytes: u64,
}

/// Start the daemon `spec.setup_reps` times, preloading each, and drive
/// the last one through the measured phase.
fn run_daemon(
    args: &Args,
    spec: &Spec,
    oracle: &Oracle,
    corpora: &[spec::Corpus],
) -> Result<Untraced, String> {
    let mut setups_s = Vec::new();
    let mut preload_write_ms = Vec::new();
    let mut last = None;
    for rep in 0..spec.setup_reps {
        let store = args.work.join(format!("daemon-store-{rep}"));
        let log = args.work.join(format!("daemon-{rep}.log"));
        let daemon = Daemon::start(&args.daemon, &store, spec, &log)?;
        let mut conn = daemon.connect()?;
        for req in &oracle.preload {
            let t = Instant::now();
            if load::exchange(&mut conn, req)? {
                return Err(format!("the daemon refused preload {}", req.op));
            }
            preload_write_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
        }
        setups_s.push(daemon.spawned.elapsed().as_secs_f64());
        drop(conn);
        if rep + 1 < spec.setup_reps {
            daemon.shutdown()?;
            std::fs::remove_dir_all(&store)
                .map_err(|e| format!("removing {}: {e}", store.display()))?;
        } else {
            last = Some(daemon);
        }
    }
    let daemon = last.expect("at least one set-up");
    let cpu_before = cpu_times();
    let load = load::run(&daemon, spec, oracle, corpora, args.seconds, args.seed)?;
    let host_steal = cpu_before
        .zip(cpu_times())
        .map(|((steal0, total0), (steal1, total1))| {
            ratio((steal1 - steal0) as f64, (total1 - total0) as f64)
        });
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let store = daemon.store.clone();
    daemon.shutdown()?;
    ProvStore::open(&store)
        .and_then(|s| s.compact_all())
        .map_err(|e| format!("compacting the daemon's store: {e}"))?;
    let input_bytes = oracle
        .preload
        .iter()
        .map(|r| &r.line)
        .chain(
            load.samples
                .iter()
                .filter(|s| s.req.is_write())
                .map(|s| &s.req.line),
        )
        .map(|line| xml_bytes(line))
        .sum();
    Ok(Untraced {
        setups_s,
        preload_write_ms,
        disk_bytes: trace::dir_bytes(&store),
        load,
        host_steal,
        peak_rss_mb,
        input_bytes,
    })
}

/// The machine's stolen and total CPU time so far, in clock ticks: the
/// `steal` column of `/proc/stat`'s `cpu` line and the sum of its first
/// eight columns (the guest columns are already counted in `user`).
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks[..8].iter().sum()))
}

fn end_to_end(spec: &Spec, u: &Untraced) -> (Vec<Metric>, usize, usize) {
    let measured: Vec<&Sample> = u.load.samples.iter().filter(|s| s.measured).collect();
    let failed = measured.iter().filter(|s| s.failed).count();
    let answered: Vec<&&Sample> = measured.iter().filter(|s| !s.failed).collect();
    let mut writes: Vec<f64> = if spec.workload == Workload::Ingest {
        answered
            .iter()
            .filter(|s| s.req.is_write())
            .map(|s| latency_ms(s))
            .collect()
    } else {
        // lookup and analytics write only in their preload
        u.preload_write_ms.clone()
    };
    // Throughput and read percentiles are medians over WINDOWS equal
    // slices of the measured window, each computed from its raw samples:
    // the event loop can fall into a slow wake-up regime for seconds at a
    // time, and the median keeps one such episode from deciding the run.
    let slice = ((u.load.window_end_ns - u.load.window_start_ns) / WINDOWS).max(1);
    let mut counts = vec![0.0; WINDOWS as usize];
    let mut window_reads: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS as usize];
    for s in &answered {
        let w = (((s.send_ns - u.load.window_start_ns) / slice).min(WINDOWS - 1)) as usize;
        counts[w] += 1.0;
        if !s.req.is_write() {
            window_reads[w].push(latency_ms(s));
        }
    }
    let mut ops: Vec<f64> = counts.iter().map(|c| c / (slice as f64 / 1e9)).collect();
    let mut window_pct = |p: f64| {
        let mut per: Vec<f64> = window_reads
            .iter_mut()
            .filter(|r| !r.is_empty())
            .map(|r| percentile(r, p))
            .collect();
        percentile(&mut per, 0.5)
    };
    let (read_p50, read_p90, read_p99) = (window_pct(0.50), window_pct(0.90), window_pct(0.99));
    let mut setups = u.setups_s.clone();
    let (nr, nw) = (window_reads.iter().map(Vec::len).sum(), writes.len());
    let metrics = vec![
        sampled(
            "setup_s",
            percentile(&mut setups, 0.5),
            "s",
            u.setups_s.len(),
        ),
        sampled(
            "ops_per_s",
            percentile(&mut ops, 0.5),
            "ops/s",
            answered.len(),
        ),
        sampled("read_p50_ms", read_p50, "ms", nr),
        sampled("read_p90_ms", read_p90, "ms", nr),
        sampled("read_p99_ms", read_p99, "ms", nr),
        sampled("write_p50_ms", percentile(&mut writes, 0.50), "ms", nw),
        sampled("write_p99_ms", percentile(&mut writes, 0.99), "ms", nw),
        sampled(
            "error_rate",
            ratio(failed as f64, measured.len() as f64),
            "fraction",
            measured.len(),
        ),
        metric("peak_rss_mb", u.peak_rss_mb, "MiB"),
        metric(
            "disk_bytes_per_input_byte",
            ratio(u.disk_bytes as f64, u.input_bytes as f64),
            "ratio",
        ),
    ];
    (metrics, measured.len(), failed)
}

/// The per-layer metrics of the traced replay, plus the span table.
fn per_layer(
    spec: &Spec,
    args: &Args,
    oracle: &Oracle,
    u: &Untraced,
) -> Result<(Vec<Metric>, String), String> {
    // the warm-up and the first TRACED_SECONDS of the measured window
    let traced_until = u.load.window_start_ns + TRACED_SECONDS * 1_000_000_000;
    let mut samples: Vec<&Sample> = u
        .load
        .samples
        .iter()
        .filter(|s| s.send_ns < traced_until)
        .collect();
    samples.sort_by_key(|s| s.send_ns);
    let name = spec.workload.name();
    trace::write_log(&samples, &args.out.join(format!("requests-{name}.tsv")))?;
    // untraced replays on both sides of the traced one, so whatever the
    // first replay in a process pays extra does not bias the overhead
    let replay = |name: &str, traced: bool| {
        trace::replay(
            spec,
            &oracle.preload,
            &samples,
            &args.work.join(name),
            traced,
        )
    };
    let before = replay("replay-untraced-1", false)?;
    let t = replay("replay-traced", true)?;
    let after = replay("replay-untraced-2", false)?;
    let untraced_ns = (before.wall_ns + after.wall_ns) as f64 / 2.0;
    t.tracer
        .write(&args.out.join(format!("spans-{name}.tsv")))?;

    let spans = &t.tracer.spans;
    let selfs = trace::self_times(spans);
    let count = |name: &str| selfs.get(name).map_or(0, |e| e.0) as f64;
    let self_ns = |name: &str| selfs.get(name).map_or(0, |e| e.1) as f64;
    let mean_us = |name: &str| ratio(self_ns(name), count(name)) / 1e3;
    let c = &t.counters;
    let counter = |name: &str| c.counter(name) as f64;

    let is_read = |req: u32| !matches!(t.ops[req as usize], "ingest" | "replay");
    let mut read_dispatch = Vec::new();
    let (mut render_ns, mut renders) = (0.0, 0.0);
    let mut roots_ns = 0u64;
    for s in spans.iter() {
        let dur = s.end - s.start;
        match s.name {
            "request" => {
                roots_ns += dur;
                if is_read(s.req) {
                    read_dispatch.push(dur as f64 / 1e3);
                }
            }
            "store.compact" if s.parent == u32::MAX => roots_ns += dur,
            "serve.render" if is_read(s.req) => {
                render_ns += dur as f64;
                renders += 1.0;
            }
            _ => {}
        }
    }
    let read_client_us: Vec<f64> = samples
        .iter()
        .filter(|s| s.measured && !s.failed && !s.req.is_write())
        .map(|s| (s.recv_ns - s.send_ns) as f64 / 1e3)
        .collect();
    let read_bytes: Vec<f64> = t
        .response_bytes
        .iter()
        .enumerate()
        .filter(|(i, _)| is_read(*i as u32))
        .map(|(_, b)| *b as f64)
        .collect();
    let total_self: u64 = selfs.values().map(|e| e.1).sum();
    if total_self.abs_diff(roots_ns) > roots_ns / 1000 + 1000 {
        return Err(format!("span self times ({total_self} ns) do not add up to the traced requests ({roots_ns} ns)"));
    }
    let e = &t.execute;
    let execs = e.calls as f64;
    let other_ns = self_ns("platform.execute") - e.services_ns as f64 - e.merge_ns as f64;

    let metrics = vec![
        metric(
            "serve.transport_us",
            mean(&read_client_us) - mean(&read_dispatch),
            "us",
        ),
        metric("json.parse_us", mean_us("json.parse"), "us"),
        metric("serve.render_us", ratio(render_ns, renders) / 1e3, "us"),
        metric("serve.response_bytes", mean(&read_bytes), "bytes"),
        metric("platform.snapshot_us", mean_us("platform.snapshot"), "us"),
        metric("prov.index_us", mean_us("prov.index"), "us"),
        metric(
            "prov.index.traversals",
            counter("prov.index.traversals"),
            "count",
        ),
        metric("prov.rank_us", mean_us("prov.rank"), "us"),
        metric(
            "prov.rank.visited",
            ratio(counter("prov.rank.visited"), count("prov.rank")),
            "count",
        ),
        metric("rdf.sparql_us", mean_us("rdf.sparql"), "us"),
        metric("rdf.sparql_first_us", mean_us("rdf.sparql_first"), "us"),
        metric(
            "rdf.scanned_per_row",
            ratio(counter("rdf.join.scanned"), counter("rdf.join.rows")),
            "ratio",
        ),
        metric(
            "rdf.plan.cache_hit_ratio",
            ratio(
                counter("rdf.plan.cache.hits"),
                counter("rdf.plan.cache.hits") + counter("rdf.plan.cache.misses"),
            ),
            "ratio",
        ),
        metric("xml.parse_us", mean_us("xml.parse"), "us"),
        metric(
            "workflow.services_ms",
            ratio(e.services_ns as f64, execs) / 1e6,
            "ms",
        ),
        metric(
            "xpath.nodes_visited",
            ratio(e.nodes_visited as f64, execs),
            "count",
        ),
        metric(
            "xpath.pattern.evals",
            ratio(e.pattern_evals as f64, execs),
            "count",
        ),
        metric(
            "prov.live.merge_ms",
            ratio(e.merge_ns as f64, execs) / 1e6,
            "ms",
        ),
        metric(
            "prov.cache.hit_ratio",
            ratio(
                counter("prov.cache.hits"),
                counter("prov.cache.hits") + counter("prov.cache.misses"),
            ),
            "ratio",
        ),
        metric("platform.ingest_ms", mean_us("platform.ingest") / 1e3, "ms"),
        metric(
            "platform.execute_other_ms",
            ratio(other_ns, execs) / 1e6,
            "ms",
        ),
        metric("store.cold_load_us", mean_us("store.cold_load"), "us"),
        metric("store.cold_loads", counter("store.cold_loads"), "count"),
        metric("store.evictions", counter("store.evictions"), "count"),
        metric("store.compact_ms", mean_us("store.compact") / 1e3, "ms"),
        metric(
            "store.bytes_per_link",
            ratio(t.store_bytes as f64, t.links_stored as f64),
            "bytes",
        ),
        metric("workflow.replay_ms", mean_us("workflow.replay") / 1e3, "ms"),
        metric(
            "replay.reuse_ratio",
            ratio(
                counter("replay.reused"),
                counter("replay.reused") + counter("replay.recomputed"),
            ),
            "ratio",
        ),
        metric("request.other_us", mean_us("request"), "us"),
        metric(
            "trace.coverage",
            ratio(roots_ns as f64, t.wall_ns as f64),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(t.wall_ns as f64, untraced_ns),
            "ratio",
        ),
    ];

    let mut table = format!(
        "per-layer self time over {} traced requests ({:.1} ms traced wall, {:.1} ms untraced):\n",
        t.ops.len(),
        t.wall_ns as f64 / 1e6,
        untraced_ns / 1e6
    );
    table.push_str(&format!(
        "  {:<20} {:>9} {:>12} {:>10} {:>7}\n",
        "span", "count", "self_ms", "mean_us", "share"
    ));
    for (name, (n, ns)) in &selfs {
        table.push_str(&format!(
            "  {:<20} {:>9} {:>12.3} {:>10.2} {:>6.1}%\n",
            name,
            n,
            *ns as f64 / 1e6,
            ratio(*ns as f64, *n as f64) / 1e3,
            100.0 * ratio(*ns as f64, roots_ns as f64)
        ));
    }
    table.push_str(&format!(
        "  conservation: self times sum to {:.3} ms = traced requests {:.3} ms\n",
        total_self as f64 / 1e6,
        roots_ns as f64 / 1e6
    ));
    Ok((metrics, table))
}

/// The result line. `correct` is always true here: any answer that
/// differs from the oracle's aborts the run before it gets this far.
fn result_line(attempted: usize, failed: usize, metrics: Json) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::num(attempted as u64)),
        ("failed", Json::num(failed as u64)),
        ("metrics", metrics),
    ])
    .to_string()
}

fn run(args: &Args) -> Result<(), String> {
    let spec = Spec::new(args.workload, args.smoke);
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("creating {}: {e}", args.work.display()))?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let corpora = spec::corpora(&spec, args.seed);
    let oracle = Oracle::build(
        &spec,
        args.seed,
        &corpora,
        &args.work.join("reference-store"),
    )?;
    let u = run_daemon(args, &spec, &oracle, &corpora)?;
    let (e2e, attempted, failed) = end_to_end(&spec, &u);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} rev={} profile={profile} nproc={nproc}",
        spec.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rev
    );
    for m in &e2e {
        let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!("  {:<28} {:>14.6} {}{n}", m.name, m.value, m.unit);
    }
    // not a metric of the program: a noisy neighbour shows here
    if let Some(steal) = u.host_steal {
        println!("  host CPU stolen during the load: {:.1}%", steal * 100.0);
    }
    let mut record = vec![
        ("workload", Json::str(spec.workload.name())),
        ("seed", Json::num(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_rev", Json::str(args.rev.as_str())),
        ("profile", Json::str(profile)),
        ("nproc", Json::num(nproc as u64)),
        ("knobs", spec.knobs(args.seed)),
        (
            "host_steal_share",
            u.host_steal.map_or(Json::Null, Json::Num),
        ),
        ("end_to_end", metrics_json(&e2e, true)),
    ];
    let reported: Vec<Metric> = e2e
        .into_iter()
        .filter(|m| END_TO_END.contains(&m.name))
        .collect();
    let metrics = if args.trace {
        let (layers, table) = per_layer(&spec, args, &oracle, &u)?;
        print!("{table}");
        for m in &layers {
            println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
        }
        record.push(("per_layer", metrics_json(&layers, false)));
        metrics_json(&layers, false)
    } else {
        metrics_json(&reported, false)
    };
    let file = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        spec.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&file, format!("{}\n", Json::obj(record)))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("{}", result_line(attempted, failed, metrics));
    Ok(())
}

fn main() {
    let code = match parse_args() {
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
        Ok(args) => {
            let outcome = run(&args);
            let _ = std::fs::remove_dir_all(&args.work);
            match outcome {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    1
                }
            }
        }
    };
    std::process::exit(code);
}
