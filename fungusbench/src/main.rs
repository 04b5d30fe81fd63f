//! `fungusbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line of standard output, one
//! JSON object: `{"correct": …, "attempted": …, "failed": …, "metrics":
//! {…}}`. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. Exact work counters and any correctness violations go
//! to standard error. Exits non-zero, printing no result, if the workload
//! cannot be set up.

use std::path::PathBuf;
use std::process::ExitCode;

use fungusbench::Mode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut mode = Mode::EndToEnd;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                mode = match number()? {
                    0 => Mode::EndToEnd,
                    1 => Mode::Traced,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        mode,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fungusbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Checkpoints go to a private directory under the working directory.
    let scratch = PathBuf::from(".fungusbench-scratch").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    let outcome = fungusbench::run(&args.workload, args.seed, args.seconds, args.mode, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".fungusbench-scratch");
    match outcome {
        Ok(outcome) => {
            eprintln!("counters: {:?}", outcome.counters);
            eprintln!("block ops/s: {:?}", outcome.block_rates);
            for v in outcome.violations.iter().take(20) {
                eprintln!("violation: {v}");
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fungusbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
