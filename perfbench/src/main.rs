//! The repository's benchmark: cold clears on the protocol and physical
//! models and an exchange trading day, driven only through public entry
//! points with default `SolverBuilder` / `ExchangeBuilder` settings.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <clear-protocol|clear-physical|exchange-day> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every timed answer is checked outside the timed window. The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). The lines before it stamp the host and the
//! sample counts. A traced run also writes its spans to
//! `perfbench/spans/<workload>-<seed>.json`.

mod check;
mod clear;
mod exchange_day;
mod tally;
mod trace;

use clear::Model;
use tally::Budget;
use trace::Trace;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The host stamp: results from hosts with different core counts are never
/// compared.
fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pool_env = std::env::var("SSA_POOL_THREADS").map_or("null".to_string(), |v| {
        format!("\"{}\"", v.escape_default())
    });
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"pool_threads\": {}, \"SSA_POOL_THREADS\": {pool_env}, \
         \"profile\": \"{profile}\", \"commit\": \"{}\"}}",
        rayon::current_num_threads(),
        commit()
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; "unknown" outside a git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(format!(".git/{path}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(reference)
        .map(|sha| sha.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            std::process::exit(2);
        }
    };
    let budget = Budget::new(args.seconds);
    let mut trace = Trace::new(args.trace);
    let (plain, traced, op_span) = match args.workload.as_str() {
        "clear-protocol" => {
            let (p, t) = clear::run(Model::Protocol, args.seed, &budget, &mut trace);
            (p, t, "clear")
        }
        "clear-physical" => {
            let (p, t) = clear::run(Model::Physical, args.seed, &budget, &mut trace);
            (p, t, "clear")
        }
        "exchange-day" => {
            let (p, t) = exchange_day::run(args.seed, &budget, &mut trace);
            (p, t, "round")
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let host = host();
    println!("{{\"host\": {host}}}");
    println!(
        "{{\"samples\": {{\"rounds\": {}, \"clears\": {}, \"setups\": {}, \"traced_rounds\": {}}}}}",
        plain.rounds.len(),
        plain.clears.len(),
        plain.setups.len(),
        traced.rounds.len()
    );
    let metrics = if args.trace {
        let path = format!("perfbench/spans/{}-{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all("perfbench/spans")
            .and_then(|()| std::fs::write(&path, trace.to_json(&host)));
        if let Err(e) = written {
            eprintln!("perfbench: could not write {path}: {e}");
        }
        traced.per_layer(&plain, &trace, op_span)
    } else {
        plain.end_to_end()
    };
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        metrics.to_json()
    );
}
