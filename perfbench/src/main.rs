//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Builds the stack, runs one workload for S seconds of measurement,
//! checks every answer, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from three runs of the same seed: untraced (the
//! baseline of the tracing overhead), traced, and traced again on a
//! device with no modelled latency. Sampled spans of the traced run are
//! written to `perfbench/out/`. A wrong answer prints the workload,
//! the seed and the first bad key, and exits with code 1.

use std::process::ExitCode;

use perfbench::{run, trace, Metric, Outcome, RunCfg, Workload};
use pmem::PmConfig;

/// The end-to-end metrics every workload reports in its result line.
/// The others apply to some workloads only (write and scan latency,
/// media write bytes, failed share), or spread too much from run to run
/// on a shared 2-core machine to be held to a bound (p99 latencies), and
/// are printed above it with their sample counts.
const GATED: [&str; 10] = [
    "throughput_mops",
    "lookup_p50_us",
    "lookup_p90_us",
    "op_p90_us",
    "pm_read_bytes_per_op",
    "pm_media_bytes_per_op",
    "pm_bytes_per_record",
    "dram_bytes_per_record",
    "setup_s",
    "recovery_s",
];

/// Stacks built per untraced run; set-up time is their median.
const SETUPS: usize = 3;
/// Power cuts and restarts per untraced run; recovery time is their
/// median.
const RESTARTS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&val)
                        .unwrap_or_else(|| usage(&format!("unknown workload {val}"))),
                )
            }
            "--seed" => seed = Some(val.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = val.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace,
    }
}

fn print_info(label: &str, out: &Outcome, metrics: &[Metric]) {
    println!(
        "# {label}: attempted={} failed={}",
        out.attempted, out.failed
    );
    let rates: Vec<String> = out.window_mops.iter().map(|r| format!("{r:.3}")).collect();
    println!("#   Mops/s per window: {}", rates.join(" "));
    for (name, n, fewest) in &out.samples {
        println!("#   {name} from {n} samples, at least {fewest} in every window");
    }
    for m in metrics {
        println!("#   {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = parse_args();
    let w = args.workload;
    let base = RunCfg::new(w, args.seed, args.seconds);

    let (runs, metrics): (Vec<Outcome>, Vec<Metric>) = if args.trace {
        let plain = run(&base);
        let traced_cfg = RunCfg {
            traced: true,
            ..base.clone()
        };
        let traced = run(&traced_cfg);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/{}-seed{}.trace.json",
            w.name(),
            args.seed
        ));
        match trace::write_chrome_trace(&path) {
            Ok(n) => println!("# wrote {n} sampled spans to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        let real = run(&RunCfg {
            pm: PmConfig::real(),
            ..traced_cfg
        });
        let mut layers = traced.layers.clone();
        layers.push(perfbench::metric(
            "trace.overhead_share",
            (plain.mops - traced.mops) / plain.mops,
            "fraction",
        ));
        layers.push(perfbench::metric(
            "pmem.modelled_wait_share",
            1.0 - real.top_span_ns / traced.top_span_ns,
            "fraction",
        ));
        print_info(
            &format!("{} seed={} untraced", w.name(), args.seed),
            &plain,
            &plain.e2e,
        );
        print_info(
            &format!("{} seed={} latency off, traced", w.name(), args.seed),
            &real,
            &real.layers,
        );
        print_info(
            &format!("{} seed={} traced", w.name(), args.seed),
            &traced,
            &layers,
        );
        (vec![plain, traced, real], layers)
    } else {
        let out = run(&RunCfg {
            setups: SETUPS,
            restarts: RESTARTS,
            ..base
        });
        print_info(&format!("{} seed={}", w.name(), args.seed), &out, &out.e2e);
        let gated = GATED
            .iter()
            .map(|n| {
                out.e2e
                    .iter()
                    .find(|m| m.name == *n)
                    .cloned()
                    .unwrap_or_else(|| panic!("{n} was not measured"))
            })
            .collect();
        (vec![out], gated)
    };

    let attempted = runs.iter().map(|o| o.attempted).sum();
    let failed = runs.iter().map(|o| o.failed).sum();
    let violation = runs.iter().find_map(|o| o.violation.clone());
    if let Some(v) = &violation {
        let msg = format!(
            "VIOLATION workload={} seed={} key={:#018x}: {}",
            w.name(),
            args.seed,
            v.key,
            v.what
        );
        eprintln!("{msg}");
        println!("# {msg}");
    }
    let refs: Vec<&Metric> = metrics.iter().collect();
    println!(
        "{}",
        json_line(violation.is_none(), attempted, failed, &refs)
    );
    if violation.is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
