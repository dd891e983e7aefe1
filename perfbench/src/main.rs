//! The vulnstack benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload;
//! with `--trace 1` it runs the same workload on the same seed with a
//! span around every layer call and prints the per-layer metrics. Both
//! check the program's outputs and exit nonzero when a check fails. The
//! last stdout line is the result as one JSON object; lines before it,
//! starting with `#`, carry sample counts and exact work counters.
//!
//! `perfbench serve-daemon <serve flags>` runs the campaign daemon; the
//! `serve-open-loop` workload spawns it as a child process.
//!
//! `perfbench saturate --seed <n> --campaigns <n>` measures the daemon's
//! closed-loop capacity on the `serve-open-loop` tenant mix, from which
//! that workload's arrival rate is set.

mod campaign;
mod inproc;
mod layers;
mod openloop;
mod report;
mod serve;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use vulnstack_serve::json::{self, Value};

use crate::util::{result_line, Metrics};

/// Worker threads per campaign, and the daemon's threads and slots.
/// Fixed, so that results compare across hosts with two or more cores.
pub const THREADS: usize = 2;

/// Pinned digests and counters for the default seed and run length.
const PINS: &str = "perfbench/pinned.json";

const WORKLOADS: [&str; 3] = ["avf-a72-sampled", "avf-a9-pruned", "serve-open-loop"];

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunOut {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Printed as `# ...` lines.
    pub notes: Vec<String>,
    /// Exact work counters, compared with the pins on the default seed.
    pub exact: Vec<(String, String)>,
    /// Failed output checks.
    pub mismatches: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a}"))?;
        let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), v.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("bad --{k} {}", flags[k]))
    };
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("bad --trace {t} (expected 0 or 1)")),
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
    })
}

/// The default seed and run length (the open-loop schedule grows with
/// `--seconds`) and, per workload, the exact counters they must give.
fn load_pins() -> Result<((u64, u64), Value), String> {
    let text = std::fs::read_to_string(PINS).map_err(|e| format!("read {PINS}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {PINS}: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{PINS} has no {k}"))
    };
    Ok(((num("default_seed")?, num("default_seconds")?), doc))
}

/// Every exact counter of this run must equal its pin.
fn check_pins(doc: &Value, workload: &str, exact: &[(String, String)]) -> Vec<String> {
    let pins = doc.get("exact").and_then(|e| e.get(workload));
    exact
        .iter()
        .filter_map(|(k, v)| {
            let pinned = pins.and_then(|p| p.get(k)).and_then(Value::as_str);
            (pinned != Some(v.as_str())).then(|| {
                format!("exact counter {k}: got \"{v}\", pinned {pinned:?} for the default seed")
            })
        })
        .collect()
}

fn run(args: &Args) -> Result<RunOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    match (args.workload.as_str(), args.trace) {
        ("avf-a72-sampled", false) => {
            inproc::run(&inproc::AVF_A72_SAMPLED, args.seed, args.seconds)
        }
        ("avf-a72-sampled", true) => inproc::traced(&inproc::AVF_A72_SAMPLED, args.seed, &exe),
        ("avf-a9-pruned", false) => inproc::run(&inproc::AVF_A9_PRUNED, args.seed, args.seconds),
        ("avf-a9-pruned", true) => inproc::traced(&inproc::AVF_A9_PRUNED, args.seed, &exe),
        (_, false) => openloop::run(args.seed, args.seconds, &exe),
        (_, true) => openloop::traced(args.seed, args.seconds, &exe),
    }
}

/// `perfbench saturate --seed <n> --campaigns <n>`: prints the daemon's
/// closed-loop capacity, one `#` line per in-flight depth.
fn saturate(argv: &[String]) -> ExitCode {
    let num = |k: &str| -> Result<u64, String> {
        let at = argv
            .iter()
            .position(|a| a == k)
            .ok_or_else(|| format!("missing {k}"))?;
        argv.get(at + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad {k}"))
    };
    let lines = (|| {
        let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
        openloop::saturate(num("--seed")?, num("--campaigns")? as usize, &exe)
    })();
    match lines {
        Ok(lines) => {
            for l in lines {
                println!("# {l}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench saturate: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-daemon") {
        // The benchmark holds the daemon's stdin open for as long as it
        // runs; end with it, so that no daemon outlives a killed benchmark.
        std::thread::spawn(|| {
            let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
            std::process::exit(1);
        });
        return match vulnstack_serve::serve_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve-daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("saturate") {
        return saturate(&argv[1..]);
    }
    let outcome = parse_args(&argv).and_then(|args| {
        let (default, pins) = load_pins()?;
        let mut out = run(&args)?;
        if (args.seed, args.seconds) == default {
            out.mismatches
                .extend(check_pins(&pins, &args.workload, &out.exact));
        }
        Ok(out)
    });
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for n in &out.notes {
        println!("# {n}");
    }
    for (k, v) in &out.exact {
        println!("# exact {k} = {v}");
    }
    for m in &out.metrics.0 {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            return ExitCode::FAILURE;
        }
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    for e in &out.mismatches {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.mismatches.is_empty();
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
