//! `athena-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result line. Exits 0 when
//! every request and self-check passed, 1 when one failed (the result is
//! still printed), and 2 without a result when the run could not start.

use athena_perfbench::report::result_line;
use athena_perfbench::runner::{run, Args};

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out_dir: format!(
            "{}/perfbench-runs",
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into())
        ),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must lie in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("athena-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("athena-perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    println!(
        "# {} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end to end" }
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for (name, value, unit) in &out.metrics.0 {
        println!("{name} = {value} {unit}");
    }
    for p in &out.problems {
        println!("# FAILED: {p}");
    }
    println!(
        "{}",
        result_line(out.correct(), out.attempted, out.failed, &out.metrics)
    );
    if !out.correct() {
        std::process::exit(1);
    }
}
