//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <null_write|null_read|evote|primary_crash>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs untraced trials and reports the end-to-end metrics;
//! `--trace 1` runs each trial twice with the same seed, untraced and then
//! traced, and reports the per-layer ledger and the tracing overhead. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is non-zero when any output check failed. See README.md.

mod calib;
mod client;
mod deploy;
mod probe;
mod speed;
mod stats;
mod workload;

use std::process::ExitCode;

use harness::CostModel;
use probe::{Ledger, Span};
use stats::{median, tail_quantile};
use workload::{median_slowdown, run_trial, setup, trial_seed, Setup, Slice, Trial, Workload};

/// Set-up time is the median of at least this many deployments per run.
const SETUP_SAMPLES: usize = 30;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// What the value was computed from, for the human-readable report.
    basis: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, basis: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        basis: basis.into(),
    }
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn per(x: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        x / ops as f64
    }
}

/// Ops per second at nominal machine speed: the median over slices with
/// replies of each slice's wall time per op, rescaled by the slowdown probed
/// after it. `None` without such slices.
fn nominal_rate(slices: &[Slice]) -> Option<f64> {
    let costs: Vec<f64> = slices
        .iter()
        .filter(|s| s.replies > 0)
        .map(|s| s.wall_s / s.replies as f64 / s.slowdown)
        .collect();
    (!costs.is_empty()).then(|| 1.0 / median(&costs))
}

/// The latency percentile metrics over pooled samples (virtual ms).
fn latency_metrics(trials: &[&Trial]) -> Vec<Metric> {
    let mut lat: Vec<u64> = trials
        .iter()
        .flat_map(|t| t.ledger.latencies_ns.iter().copied())
        .collect();
    lat.sort_unstable();
    [("lat_p50_ms", 5000), ("lat_p99_ms", 9900)]
        .into_iter()
        .map(|(name, bp)| match tail_quantile(&lat, bp) {
            Some(q) => metric(
                name,
                q.value as f64 / 1e6,
                "ms",
                format!(
                    "n={} samples, reported at p{} (virtual)",
                    lat.len(),
                    q.at_bp as f64 / 100.0
                ),
            ),
            None => metric(name, 0.0, "ms", format!("n={} samples: too few", lat.len())),
        })
        .collect()
}

fn end_to_end(trials: &[Trial], setups: &[Setup]) -> Vec<Metric> {
    let n = trials.len();
    let replies: u64 = trials.iter().map(|t| t.replies).sum();
    let window_s: f64 = trials.iter().map(|t| t.window_ns as f64 / 1e9).sum();
    let attempted: u64 = trials.iter().map(|t| t.ledger.attempted).sum();
    let failed: u64 = trials.iter().map(|t| t.failed()).sum();
    let refs: Vec<&Trial> = trials.iter().collect();
    let mut out = vec![metric(
        "vtps",
        replies as f64 / window_s,
        "ops/s",
        format!(
            "n={replies} replies over {n} windows of {:.3} s (virtual)",
            window_s / n as f64
        ),
    )];
    out.extend(latency_metrics(&refs));
    let gaps: Vec<f64> = trials.iter().map(|t| t.unavail_ns as f64 / 1e6).collect();
    out.push(metric(
        "unavail_ms",
        median(&gaps),
        "ms",
        format!("median of n={n} per-window longest reply gaps (virtual)"),
    ));
    out.push(metric(
        "error_rate",
        per(failed as f64, attempted),
        "fraction",
        format!("n={attempted} ops attempted, {failed} failed"),
    ));
    let total_wall: f64 = trials.iter().map(|t| t.window_wall_s).sum();
    let slices: Vec<Slice> = trials.iter().flat_map(|t| t.slices.clone()).collect();
    let raw_rate = replies as f64 / total_wall;
    out.push(metric(
        "wall_ops_per_s",
        nominal_rate(&slices).unwrap_or(raw_rate),
        "ops/s",
        format!(
            "median of n={} slices at nominal speed (wall; raw whole windows: \
             {raw_rate:.1} ops/s; median slowdown {:.3})",
            slices.len(),
            median_slowdown(&slices)
        ),
    ));
    let nominal: Vec<f64> = setups.iter().map(Setup::nominal_s).collect();
    let raw: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    out.push(metric(
        "setup_s",
        median(&nominal),
        "s",
        format!(
            "median of n={} deployments at nominal speed (wall; raw median {:.6} s)",
            setups.len(),
            median(&raw)
        ),
    ));
    out.push(metric(
        "peak_rss_mb",
        peak_rss_mib(),
        "MiB",
        "VmHWM of the process, n=1",
    ));
    out
}

fn per_layer(pairs: &[(Trial, Trial)], model: &CostModel) -> (Vec<Metric>, Vec<String>) {
    let traced: Vec<&Trial> = pairs.iter().map(|(_, t)| t).collect();
    let k = traced.len() as f64;
    let ops: u64 = traced.iter().map(|t| t.replies).sum();
    let mut spans = Ledger::default();
    for t in &traced {
        spans.add(t.spans.as_ref().expect("traced trial"));
    }
    let window_wall_ns: f64 = traced.iter().map(|t| t.window_wall_s * 1e9).sum();
    let work = traced
        .iter()
        .fold(deploy::Counters::default(), |acc, t| acc.plus(&t.work));
    let packets: u64 = traced.iter().map(|t| t.packets).sum();
    let bytes: u64 = traced.iter().map(|t| t.bytes).sum();
    // Wall-clock layer costs are reported at nominal machine speed.
    let slowdown = median_slowdown(
        &traced
            .iter()
            .flat_map(|t| t.slices.clone())
            .collect::<Vec<_>>(),
    );
    let us_per_op = |ns: u64| per(ns as f64 / 1e3 / slowdown, ops);
    let replica_self: u64 = Span::ALL
        .iter()
        .filter(|s| s.is_replica())
        .map(|&s| spans.get(s).self_ns)
        .sum();
    let mut waits: Vec<u64> = traced
        .iter()
        .flat_map(|t| t.queue_waits.iter().copied())
        .collect();
    waits.sort_unstable();
    let wait_us = |bp| tail_quantile(&waits, bp).map_or(0.0, |q| q.value as f64 / 1e3);
    let reads: u64 = traced.iter().map(|t| t.ledger.reads).sum();
    let fast_reads: u64 = traced.iter().map(|t| t.ledger.fast_reads).sum();
    let med = |f: &dyn Fn(&Trial) -> f64| median(&traced.iter().map(|t| f(t)).collect::<Vec<_>>());
    let overheads: Vec<f64> = pairs
        .iter()
        .filter_map(|(plain, traced)| {
            Some(nominal_rate(&plain.slices)? / nominal_rate(&traced.slices)? - 1.0)
        })
        .collect();
    let cal = calib::calibrate();
    let basis = format!("n={ops} ops over {} traced windows", traced.len());
    let m = |name, value, unit| metric(name, value, unit, basis.clone());
    let metrics = vec![
        m(
            "simnet.self_us_per_op",
            us_per_op(spans.get(Span::Root).self_ns),
            "us",
        ),
        m("simnet.packets_per_op", per(packets as f64, ops), "count"),
        m("simnet.kib_per_op", per(bytes as f64 / 1024.0, ops), "KiB"),
        m("replica.self_us_per_op", us_per_op(replica_self), "us"),
        m(
            "replica.request_us_per_op",
            us_per_op(spans.get(Span::Request).self_ns),
            "us",
        ),
        m(
            "replica.pre_prepare_us_per_op",
            us_per_op(spans.get(Span::PrePrepare).self_ns),
            "us",
        ),
        m(
            "replica.prepare_us_per_op",
            us_per_op(spans.get(Span::Prepare).self_ns),
            "us",
        ),
        m(
            "replica.commit_us_per_op",
            us_per_op(spans.get(Span::Commit).self_ns),
            "us",
        ),
        m(
            "replica.checkpoint_us_per_op",
            us_per_op(spans.get(Span::Checkpoint).self_ns),
            "us",
        ),
        m(
            "replica.timer_us_per_op",
            us_per_op(spans.get(Span::Timer).self_ns),
            "us",
        ),
        m(
            "replica.other_us_per_op",
            us_per_op(spans.get(Span::OtherPacket).self_ns),
            "us",
        ),
        m(
            "replica.primary_busy_frac",
            med(&|t| t.primary_busy),
            "fraction",
        ),
        m(
            "replica.backup_busy_frac",
            med(&|t| t.backup_busy),
            "fraction",
        ),
        m("replica.queue_wait_us_p50", wait_us(5000), "us"),
        m("replica.queue_wait_us_p99", wait_us(9900), "us"),
        m(
            "replica.ops_per_batch",
            per(work.executed as f64, work.batches),
            "count",
        ),
        m(
            "replica.agreement_msgs_per_op",
            per(work.agreement_msgs as f64, ops),
            "count",
        ),
        m(
            "replica.encodings_per_op",
            per(work.encodings as f64, ops),
            "count",
        ),
        m("crypto.macs_per_op", per(work.macs as f64, ops), "count"),
        m(
            "crypto.digest_kib_per_op",
            per(work.digest_bytes as f64 / 1024.0, ops),
            "KiB",
        ),
        m("crypto.sigs_per_op", per(work.sigs as f64, ops), "count"),
        m(
            "crypto.auth_failures",
            work.auth_failures as f64 / k,
            "count",
        ),
        m("crypto.mac_wall_ns", cal.mac_wall_ns, "ns"),
        m("crypto.hmac_wall_ns", cal.hmac_wall_ns, "ns"),
        m(
            "crypto.sha256_wall_ns_per_kib",
            cal.sha256_wall_ns_per_kib,
            "ns",
        ),
        m("crypto.sign_wall_us", cal.sign_wall_us, "us"),
        m("crypto.verify_wall_us", cal.verify_wall_us, "us"),
        m("read.fast_frac", per(fast_reads as f64, reads), "fraction"),
        m(
            "read.deferred_per_kop",
            per(work.reads_deferred as f64 * 1e3, ops),
            "count",
        ),
        m(
            "client.self_us_per_op",
            us_per_op(spans.get(Span::Client).self_ns),
            "us",
        ),
        m(
            "client.retransmits_per_kop",
            per(work.retransmits as f64 * 1e3, ops),
            "count",
        ),
        m(
            "app.exec_wall_us_per_op",
            us_per_op(spans.get(Span::App).self_ns),
            "us",
        ),
        m("app.exec_cpu_us_per_op", per(work.exec_cpu_us, ops), "us"),
        m("app.flushes_per_op", per(work.flushes as f64, ops), "count"),
        m(
            "app.disk_kib_per_op",
            per(work.disk_bytes as f64 / 1024.0, ops),
            "KiB",
        ),
        m(
            "state.pages_hashed_per_op",
            per(work.pages_hashed as f64, ops),
            "count",
        ),
        m(
            "state.checkpoints_per_kop",
            per(work.checkpoints as f64 * 1e3, ops),
            "count",
        ),
        m("viewchange.started", work.vc_started as f64 / k, "count"),
        m("viewchange.msgs", work.vc_msgs as f64 / k, "count"),
        m(
            "viewchange.new_view_ms",
            med(&|t| t.new_view_ns.unwrap_or(0) as f64 / 1e6),
            "ms",
        ),
        m(
            "recovery.catchup_ms",
            med(&|t| t.catchup_ns.unwrap_or(0) as f64 / 1e6),
            "ms",
        ),
        m(
            "recovery.transfers",
            traced.iter().map(|t| t.transfers as f64).sum::<f64>() / k,
            "count",
        ),
        metric(
            "trace.overhead_frac",
            if overheads.is_empty() {
                0.0
            } else {
                median(&overheads)
            },
            "fraction",
            format!("median of n={} untraced/traced pairs (wall)", pairs.len()),
        ),
        m(
            "trace.unattributed_frac",
            (window_wall_ns - spans.attributed_ns() as f64) / window_wall_ns,
            "fraction",
        ),
    ];

    let mut ledger = vec![format!(
        "ledger {:<22} {:>9} {:>11} {:>11} {:>10} {:>7}",
        "span", "count", "total_ms", "self_ms", "self_us/op", "share"
    )];
    for s in Span::ALL {
        let a = spans.get(s);
        ledger.push(format!(
            "ledger {:<22} {:>9} {:>11.2} {:>11.2} {:>10.3} {:>6.1}%",
            s.name(),
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            us_per_op(a.self_ns),
            100.0 * a.self_ns as f64 / window_wall_ns
        ));
    }
    let rest = window_wall_ns - spans.attributed_ns() as f64;
    ledger.push(format!(
        "ledger {:<22} {:>9} {:>11} {:>11.2} {:>10.3} {:>6.1}%",
        "unattributed",
        "-",
        "-",
        rest / 1e6,
        per(rest / 1e3 / slowdown, ops),
        100.0 * rest / window_wall_ns
    ));
    ledger.push(format!(
        "ledger {:<22} {:>9} {:>11.2} {:>11} {:>10.3} {:>6.1}%",
        "window (wall)",
        "-",
        window_wall_ns / 1e6,
        "-",
        per(window_wall_ns / 1e3 / slowdown, ops),
        100.0
    ));
    ledger.push(format!(
        "ledger self_us/op is at nominal machine speed; measured slowdown {slowdown:.3}"
    ));
    ledger.extend(cal.describe(model));
    (metrics, ledger)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let (seeds, window) = w.plan(args.seconds, args.trace);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} seeds={seeds} window={:.3}s(virtual) \
         config={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        window.as_secs_f64(),
        w.spec(0).cfg.table1_name(),
    );

    let (all, pair_list, setups) = run(w, args.seed, args.seconds, args.trace);
    let checked: Vec<&Trial> = all
        .iter()
        .chain(pair_list.iter().flat_map(|(a, b)| [a, b]))
        .collect();
    let attempted: u64 = checked.iter().map(|t| t.ledger.attempted).sum();
    let failed: u64 = checked.iter().map(|t| t.failed()).sum();
    let failures: Vec<&String> = checked.iter().flat_map(|t| t.failures.iter()).collect();
    let correct = failures.is_empty() && attempted > 0;
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }

    let metrics = if args.trace {
        let (metrics, ledger) = per_layer(&pair_list, &w.spec(0).cost);
        for line in ledger {
            println!("{line}");
        }
        metrics
    } else {
        // error_rate is printed but not a benchmark metric: it is zero on
        // every correct run, and the JSON's attempted/failed carry it.
        end_to_end(&all, &setups)
    };
    for m in &metrics {
        println!(
            "metric {:<32} {:>16.6} {:<8} {}",
            m.name, m.value, m.unit, m.basis
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.name != "error_rate")
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run a workload's trials: untraced ones, or untraced/traced pairs with
/// equal seeds. Returns them with every set-up time measured.
fn run(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> (Vec<Trial>, Vec<(Trial, Trial)>, Vec<Setup>) {
    let (count, window) = w.plan(seconds, trace);
    let mut setups = Vec::new();
    let mut all = Vec::new();
    let mut pairs = Vec::new();
    for t in 0..count {
        let seed = trial_seed(seed, t);
        let plain = run_trial(w, seed, window, false);
        report_trial(t, "untraced", &plain);
        setups.push(plain.setup);
        if trace {
            let traced = run_trial(w, seed, window, true);
            report_trial(t, "traced", &traced);
            pairs.push((plain, traced));
        } else {
            all.push(plain);
        }
    }
    for k in setups.len()..SETUP_SAMPLES {
        match setup(w, trial_seed(seed, k), false) {
            Ok((_, s)) => setups.push(s),
            Err(why) => eprintln!("extra set-up {k} failed: {why}"),
        }
    }
    (all, pairs, setups)
}

fn report_trial(t: usize, kind: &str, trial: &Trial) {
    println!(
        "trial {t} {kind:<8} setup={:.4}s window_wall={:.3}s replies={} attempted={} failed={} \
         unavail={:.3}ms generator_late_max={:.3}ms",
        trial.setup.wall_s,
        trial.window_wall_s,
        trial.replies,
        trial.ledger.attempted,
        trial.failed(),
        trial.unavail_ns as f64 / 1e6,
        trial.ledger.max_lateness_ns as f64 / 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics measured on the virtual clock.
    const VIRTUAL: [&str; 5] = [
        "vtps",
        "lat_p50_ms",
        "lat_p99_ms",
        "unavail_ms",
        "error_rate",
    ];

    fn virtual_metrics(w: Workload, seed: u64) -> Vec<String> {
        let (trials, _, setups) = run(w, seed, 1, false);
        for t in &trials {
            assert!(t.failures.is_empty(), "{}: {:?}", w.name(), t.failures);
        }
        end_to_end(&trials, &setups)
            .iter()
            .filter(|m| VIRTUAL.contains(&m.name))
            .map(|m| format!("{} {:?} {}", m.name, m.value, m.basis))
            .collect()
    }

    #[test]
    fn virtual_metrics_repeat_exactly_for_a_seed() {
        for w in Workload::ALL {
            let first = virtual_metrics(w, 17);
            assert_eq!(first.len(), VIRTUAL.len());
            assert_eq!(first, virtual_metrics(w, 17), "{}", w.name());
        }
    }
}
