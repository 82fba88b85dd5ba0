//! `wirebench`: a closed-loop benchmark of `hq serve` over its real TCP
//! line protocol, plus a traced in-process replay for the per-layer
//! split. See `README.md` beside this crate for the workloads, the
//! metrics, and which layer metric should move which end-to-end one.
//!
//! ```text
//! wirebench --hq PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a readable report, then one JSON object as the last line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`.

mod gen;
mod traced;
mod wire;

use gen::{Kind, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use wire::{Rec, Verb};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    hq: PathBuf,
    out: PathBuf,
}

fn parse_opts() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?;
    Ok(Opts {
        kind: Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed: expected an integer")?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds: expected a positive number")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace: expected 0 or 1".into()),
        },
        hq: get("--hq")?.into(),
        out: get("--out")?.into(),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn latencies<'a>(recs: impl IntoIterator<Item = &'a Rec>, writes: bool) -> Vec<f64> {
    recs.into_iter()
        .filter(|r| matches!(r.verb, Verb::Write { .. }) == writes)
        .map(|r| ms(r.latency))
        .collect()
}

fn run() -> Result<(), String> {
    let o = parse_opts()?;
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let w = Workload::generate(o.kind, o.seed);
    let tag = format!("{}-{}", o.kind.name(), o.seed);
    let db = o.out.join(format!("{tag}.facts"));
    let db_text = w.model.db_text();
    std::fs::write(&db, &db_text).map_err(|e| format!("{}: {e}", db.display()))?;
    let log = o.out.join(format!("{tag}.serve.log"));
    // Set-up is timed three times and reported as the median; the
    // traced run only needs one.
    let setups = if o.trace { 1 } else { 3 };
    let run = wire::run(&o.hq, &w, &db, &log, setups, o.seconds)?;

    let recs: Vec<&Rec> = run
        .warmup
        .iter()
        .chain(&run.window)
        .chain(&run.probe)
        .collect();
    let (wrong, examples) = wire::count_wrong(&w, &recs, &run.writes);
    for e in &examples {
        eprintln!("wirebench: wrong reply: {e}");
    }
    let attempted = recs.len() as u64;
    let reads = latencies(&run.window, false);
    let updates = if w.probe {
        latencies(&run.probe, true)
    } else {
        latencies(&run.window, true)
    };
    let p = traced::quantile;
    let end_to_end = vec![
        m("setup_s", p(&run.setup_s, 0.5), "s"),
        m(
            "throughput_rps",
            run.window.len() as f64 / run.window_s,
            "1/s",
        ),
        m("query_p50_ms", p(&reads, 0.5), "ms"),
        m("query_p90_ms", p(&reads, 0.9), "ms"),
        m("update_p50_ms", p(&updates, 0.5), "ms"),
        m("update_p90_ms", p(&updates, 0.9), "ms"),
        m("server_rss_mb", run.rss_mb, "MiB"),
    ];

    println!(
        "wirebench {} seed {}: {} + {} request(s) in {:.2} s on 2 connections (setups {:?} s)",
        o.kind.name(),
        o.seed,
        run.window.len(),
        run.probe.len(),
        run.window_s,
        run.setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    for metric in &end_to_end {
        let n = match metric.name.as_str() {
            "query_p50_ms" | "query_p90_ms" => format!(" (n={})", reads.len()),
            "update_p50_ms" | "update_p90_ms" => format!(" (n={})", updates.len()),
            _ => String::new(),
        };
        println!(
            "  {:<16} {:>12.4} {}{n}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "  {:<16} {:>12.4} ({wrong} of {attempted} replies wrong, missing or errors)",
        "error_rate",
        wrong as f64 / attempted.max(1) as f64,
    );
    println!("  stats: {}", run.stats);

    let mut failed = wrong;
    let metrics = if o.trace {
        let wire_figures = traced::WireFigures {
            query_p50_ms: p(&reads, 0.5),
            update_p50_ms: p(&updates, 0.5),
            stats: &run.stats,
        };
        let spans = o.out.join(format!("{tag}.spans.jsonl"));
        let t = traced::run(&w, &db_text, &wire_figures, &spans)?;
        print!("{}", t.report);
        for metric in &t.metrics {
            println!(
                "  {:<32} {:>14.4} {}",
                metric.name, metric.value, metric.unit
            );
        }
        if t.mismatches > 0 {
            eprintln!(
                "wirebench: {} in-process value(s) disagree with the oracle",
                t.mismatches
            );
        }
        failed += t.mismatches;
        t.metrics
    } else {
        end_to_end
    };
    println!("{}", result_json(failed == 0, attempted, failed, &metrics)?);
    Ok(())
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for metric in metrics {
        if !metric.value.is_finite() {
            return Err(format!("{} is not finite", metric.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
