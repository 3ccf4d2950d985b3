//! The repository's benchmark: drives the live transaction service from
//! outside through `ac_cluster::run_service_faulted` and reports
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload 2pc-closed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any broken correctness
//! check ends the run with a non-zero exit code and no result line.

mod host;
mod metrics;
mod replay;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ac_cluster::{run_service_faulted, ServiceConfig, ServiceOutcome, Stage, ATTRIBUTION_STAGES};

use host::{process_cpu, quote, reset_rss_peak, rss_peak_mb, Host};
use metrics::{dispatch_lags, median, nearest_rank, Tally};
use replay::ReplayInput;
use trace::{NameTotals, Tracer};
use workload::Spec;

const USAGE: &str = "usage: perfbench --workload <2pc-closed|inbac-durable-skewed|paxos-tcp-peak> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Measured rounds per run; each is a full service run (boot, load,
/// teardown, audit), so set-up time is sampled this many times.
const ROUNDS: usize = 10;

/// Load the warm-up round offers before anything is measured.
const WARMUP: Duration = Duration::from_millis(500);

/// Transactions the traced run replays through the layers.
const REPLAY_TXNS: usize = 4096;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    match run(&spec, &args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED on {} seed {}: {e}", spec.name, args.seed);
            ExitCode::FAILURE
        }
    }
}

/// One reported figure.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// One gated service run.
struct Round {
    out: ServiceOutcome,
    /// Wall time of the whole call: boot, load phase, teardown, audit.
    wall: Duration,
    cpu: Duration,
}

impl Round {
    fn setup_s(&self) -> f64 {
        self.wall.saturating_sub(self.out.elapsed).as_secs_f64()
    }
}

fn run_round(spec: &Spec, cfg: &ServiceConfig) -> Result<Round, String> {
    let faults = spec.faults();
    reset_rss_peak();
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let out = run_service_faulted(cfg, &faults);
    let wall = t0.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    gate(spec, cfg, &out)?;
    Ok(Round { out, wall, cpu })
}

/// The correctness gate every run passes before any of its numbers count.
fn gate(spec: &Spec, cfg: &ServiceConfig, out: &ServiceOutcome) -> Result<(), String> {
    if !out.is_safe() {
        let shown: Vec<&String> = out.violations.iter().take(5).collect();
        return Err(format!(
            "safety audit found {} violation(s): {shown:?}",
            out.violations.len()
        ));
    }
    let rebuilt = out.replay();
    for (live, replayed) in out.shards.iter().zip(&rebuilt) {
        if let Some(k) = (0..cfg.keys_per_shard).find(|&k| live.read(k) != replayed.read(k)) {
            return Err(format!(
                "shard {} key {k}: live state differs from the sequential replay",
                live.id
            ));
        }
    }
    if rebuilt.len() != out.shards.len() {
        return Err("replay rebuilt a different number of shards".into());
    }
    if out.orphaned_envelopes != 0 {
        return Err(format!("{} orphaned envelopes", out.orphaned_envelopes));
    }
    if out.stalled != 0 {
        return Err(format!("{} stalled transactions", out.stalled));
    }
    let expected_offered = cfg.clients * cfg.txns_per_client;
    if out.offered != expected_offered || out.txns + out.shed != out.offered {
        return Err(format!(
            "accounting: offered {} (expected {expected_offered}), decided {}, shed {}",
            out.offered, out.txns, out.shed
        ));
    }
    if let Some(per_txn) = spec.nice_msgs {
        if out.wire_messages as u64 != per_txn * out.txns as u64 {
            return Err(format!(
                "{} live messages for {} transactions; a nice execution sends {per_txn} each",
                out.wire_messages, out.txns
            ));
        }
    }
    Ok(())
}

/// The end-to-end metrics of a tally, in `BENCHMARK.json` order.
fn end_to_end(tally: &mut Tally, cpu: Duration, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("commit_p50_ms", "ms", tally.commit_ms(0.50)),
        metric("commit_p80_ms", "ms", tally.commit_ms(0.80)),
        metric("goodput_tps", "1/s", tally.goodput_tps()),
        metric("commit_pct", "%", tally.commit_pct()),
        metric("ontime_pct", "%", tally.ontime_pct()),
        metric(
            "cpu_us_per_txn",
            "us",
            cpu.as_secs_f64() * 1e6 / tally.committed.max(1) as f64,
        ),
        metric("setup_s", "s", setup_s),
        metric("rss_peak_mb", "MiB", rss_mb),
    ]
}

fn run(spec: &Spec, args: &Args) -> Result<String, String> {
    let host = Host::probe();
    println!("host {}", host.json());
    let round_secs = args.seconds as f64 / ROUNDS as f64;

    // Warm-up: threads, allocator and caches settle.
    let warm_txns = (spec.rate * WARMUP.as_secs_f64()).ceil() as usize;
    run_round(spec, &spec.config(args.seed, warm_txns))?;
    let txns_per_client = (spec.rate * round_secs).ceil() as usize;
    let cfg = spec.config(args.seed, txns_per_client.max(1));
    println!(
        "workload {} seed {} rounds {ROUNDS} x {txns_per_client} txn/client (about {round_secs} s each)",
        spec.name, args.seed
    );

    let mut pooled = Tally::default();
    let mut per_round: Vec<Vec<Metric>> = Vec::new();
    let mut setups = Vec::new();
    let mut rss_peaks = Vec::new();
    let mut cpu = Duration::ZERO;
    for r in 0..ROUNDS {
        let round = run_round(spec, &cfg)?;
        let out = &round.out;
        pooled.add_round(&out.txn_events, out.offered, out.elapsed);
        let mut mine = Tally::default();
        mine.add_round(&out.txn_events, out.offered, out.elapsed);
        let (setup, rss) = (round.setup_s(), rss_peak_mb());
        let m = end_to_end(&mut mine, round.cpu, setup, rss);
        println!(
            "round {r}: {} (aborted {}, shed {})",
            render(&m),
            out.aborted,
            out.shed
        );
        per_round.push(m);
        setups.push(setup);
        rss_peaks.push(rss);
        cpu += round.cpu;
    }
    let (p99, p999) = (pooled.commit_ms(0.99), pooled.commit_ms(0.999));
    println!(
        "commit latency over {} commits: p99 {p99:.3} ms, p99.9 {p999:.3} ms (reported, not gated)",
        pooled.committed
    );
    // Mean, not median, of the round peaks: resident memory after a round
    // creeps up from round to round on the TCP workload, and the mean
    // weighs that drift the same way in every run.
    let rss_mean = rss_peaks.iter().sum::<f64>() / rss_peaks.len() as f64;
    let e2e = end_to_end(&mut pooled, cpu, median(&setups), rss_mean);
    println!("end-to-end: {}", render(&e2e));

    let metrics = if args.trace {
        traced(spec, &cfg, &host, args, &per_round)?
    } else {
        e2e
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", m.name));
    }
    // A failed operation is an offered transaction the service refused
    // (shed) or never answered (stalled; the gate rejects those).
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        pooled.offered,
        pooled.failed(),
        metrics_json(&metrics)
    ))
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn render(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{}={:.4}{}", m.name, m.value, m.unit))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The traced run: one more round with the same seed, whose outcome's
/// instruments give the live per-layer figures, then the replay of its
/// inputs through each layer under spans.
fn traced(
    spec: &Spec,
    cfg: &ServiceConfig,
    host: &Host,
    args: &Args,
    untraced: &[Vec<Metric>],
) -> Result<Vec<Metric>, String> {
    let round = run_round(spec, cfg)?;
    let out = &round.out;
    let mut tally = Tally::default();
    tally.add_round(&out.txn_events, out.offered, out.elapsed);
    let traced_e2e = end_to_end(&mut tally, round.cpu, round.setup_s(), rss_peak_mb());

    let wal_records = out.wal_prepare_forces as u64 + out.stage_meters.get(Stage::WalJournal).0;
    let records_per_force = wal_records as f64 / out.wal_forces.max(1) as f64;
    let input = ReplayInput {
        cfg: cfg.clone(),
        txns: REPLAY_TXNS,
        wal_batch: spec
            .durable
            .then(|| (records_per_force.round() as usize).max(1)),
    };
    let mut tracer = Tracer::new();
    let codec_bytes = (spec.replay)(&input, &mut tracer);
    let totals = tracer.totals();
    let layers = per_layer(out, codec_bytes, &totals, records_per_force);

    let mut overhead = String::new();
    println!("tracing overhead (traced run vs median of untraced rounds):");
    for (i, m) in traced_e2e.iter().enumerate() {
        let values: Vec<f64> = untraced.iter().map(|r| r[i].value).collect();
        let base = median(&values);
        let delta = if base == 0.0 {
            0.0
        } else {
            100.0 * (m.value - base) / base
        };
        println!(
            "  {:<16} untraced {:>12.4} traced {:>12.4} {:>+7.2} % {}",
            m.name, base, m.value, delta, m.unit
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            overhead,
            "{sep}\"{}\": {{\"untraced_median\": {base}, \"traced\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    let empty_span = Tracer::empty_span_ns();
    println!("replay self time per layer ({REPLAY_TXNS} txns, empty span {empty_span:.1} ns):");
    for (name, t) in &totals {
        println!(
            "  {name:<18} calls {:>7} mean {:>9.1} ns self {:>9.3} ms",
            t.calls,
            t.mean_ns(),
            t.self_ns as f64 / 1e6
        );
    }
    println!("per-layer: {}", render(&layers));

    let header = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"host\": {}, \"empty_span_ns\": {empty_span}, \
         \"per_layer\": {}, \"tracing_overhead\": {{{overhead}}}}}\n",
        quote(spec.name),
        args.seed,
        args.seconds,
        host.json(),
        metrics_json(&layers)
    );
    let dir = std::path::Path::new("perfbench/traces");
    let path = dir.join(format!("{}.jsonl", spec.name));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, header + &tracer.jsonl()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(layers)
}

/// The per-layer metrics, named after the crates they measure.
fn per_layer(
    out: &ServiceOutcome,
    codec_bytes: u64,
    totals: &std::collections::BTreeMap<&'static str, NameTotals>,
    records_per_force: f64,
) -> Vec<Metric> {
    let txns = out.txns.max(1) as f64;
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let replayed = REPLAY_TXNS as f64;
    let hist_p99_us = |s: Stage| out.stage_hists.get(s).p99() as f64 / 1e3;
    let meter = |s: Stage| out.stage_meters.get(s);
    let share = |stage: &str| {
        let i = ATTRIBUTION_STAGES
            .iter()
            .position(|s| *s == stage)
            .unwrap_or_else(|| panic!("no attribution stage named {stage}"));
        out.attribution.share_pct(i)
    };
    let (holds, hold_ns) = out
        .shards
        .iter()
        .map(|s| s.lock_hold_stats())
        .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
    let protocol_ns: u64 = [
        "commit.new",
        "runtime.open_as",
        "runtime.offer",
        "runtime.fire_next",
    ]
    .iter()
    .map(|n| span(n).total_ns)
    .sum();
    let (prepare, finish) = (span("txn.prepare"), span("txn.finish"));
    let (timer_fires, timer_lag_ns) = meter(Stage::TimerFire);
    let lags = dispatch_lags(&out.txn_events);
    vec![
        metric("commit.protocol_share_pct", "%", share("protocol")),
        metric(
            "commit.msgs_per_commit",
            "count",
            out.wire_messages as f64 / out.committed.max(1) as f64,
        ),
        metric(
            "commit.replay_us_per_txn",
            "us",
            protocol_ns as f64 / replayed / 1e3,
        ),
        metric(
            "runtime.timer_lag_mean_us",
            "us",
            timer_lag_ns as f64 / timer_fires.max(1) as f64 / 1e3,
        ),
        metric("runtime.timers_per_txn", "count", timer_fires as f64 / txns),
        metric(
            "runtime.spurious_wakeups_per_txn",
            "count",
            out.spurious_wakeups as f64 / txns,
        ),
        metric(
            "runtime.drain_gap_p99_us",
            "us",
            hist_p99_us(Stage::DrainGap),
        ),
        metric("runtime.offer_ns", "ns", span("runtime.offer").mean_ns()),
        metric("cluster.channel_share_pct", "%", share("channel")),
        metric("cluster.transport_share_pct", "%", share("transport")),
        metric("cluster.flush_p99_us", "us", hist_p99_us(Stage::Flush)),
        metric(
            "cluster.dispatch_lag_p99_us",
            "us",
            nearest_rank(&lags, 0.99).unwrap_or(0) as f64 / 1e3,
        ),
        metric(
            "cluster.tcp_write_us_per_txn",
            "us",
            meter(Stage::TcpWrite).1 as f64 / txns / 1e3,
        ),
        metric(
            "cluster.encode_ns_per_frame",
            "ns",
            span("cluster.encode").mean_ns(),
        ),
        metric(
            "cluster.decode_ns_per_frame",
            "ns",
            span("cluster.decode").mean_ns(),
        ),
        metric("cluster.bytes_per_txn", "B", codec_bytes as f64 / replayed),
        metric(
            "cluster.shed_pct",
            "%",
            100.0 * out.shed as f64 / out.offered.max(1) as f64,
        ),
        metric(
            "cluster.retries_per_ktxn",
            "count",
            1e3 * out.retries as f64 / txns,
        ),
        metric(
            "txn.lock_hold_mean_us",
            "us",
            hold_ns as f64 / holds.max(1) as f64 / 1e3,
        ),
        metric("txn.lock_share_pct", "%", share("lock")),
        metric(
            "txn.prepare_finish_ns",
            "ns",
            (prepare.total_ns + finish.total_ns) as f64 / prepare.calls.max(1) as f64,
        ),
        metric(
            "txn.wal_forces_per_txn",
            "count",
            out.wal_forces as f64 / txns,
        ),
        metric("txn.wal_records_per_force", "count", records_per_force),
        metric("txn.wal_share_pct", "%", share("wal")),
        metric(
            "txn.force_batch_us",
            "us",
            span("txn.force_batch").mean_ns() / 1e3,
        ),
        metric("txn.gen_ns_per_txn", "ns", span("txn.gen").mean_ns()),
        metric("obs.record_ns", "ns", span("obs.record").mean_ns()),
        metric("obs.coverage_pct", "%", out.attribution.coverage_pct()),
        metric(
            "obs.dropped_events",
            "count",
            out.attribution.dropped_events as f64,
        ),
    ]
}
