//! `e2e` — one end-to-end benchmark of the whole dwqa loop (question →
//! precise tuple → warehouse → roll-up) with a per-layer latency ledger.
//!
//! ```text
//! e2e --workload <ask_cold|ask_hot|feed_sync|rollup_mix> --seed <n>
//!     [--seconds <s>] [--trace <0|1>] [--trace-out <path>] [--smoke]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics with
//! tracing off; `--trace 1` is the traced run that yields the per-layer
//! metrics. The last line of standard output is the result object
//! `BENCHMARK.json` describes. See `README.md` beside this package.

#![forbid(unsafe_code)]

mod ask;
mod feed;
mod fixture;
mod hostspeed;
mod ladder;
mod load;
mod report;
mod rollup;
mod spans;
mod stats;

use std::path::PathBuf;

/// The command line, parsed.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures, already divided by 20 under `--smoke`.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub trace_out: Option<PathBuf>,
}

impl Args {
    /// Set-ups per run: the median of three, or one where set-up time is
    /// not the point.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke || self.traced {
            1
        } else {
            3
        }
    }

    /// A count, divided by 20 under `--smoke`.
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            (n / 20).max(1)
        } else {
            n
        }
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("e2e: {problem}");
    eprintln!(
        "usage: e2e --workload <ask_cold|ask_hot|feed_sync|rollup_mix> --seed <n> \
         [--seconds <s>] [--trace <0|1>] [--trace-out <path>] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        smoke: false,
        trace_out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload"),
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                args.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"));
            }
            "--trace" => {
                args.traced = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--traced" => args.traced = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--smoke" => args.smoke = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if args.smoke {
        args.seconds /= 20.0;
    }
    args
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("e2e: refusing to measure a debug build; run with --release");
        std::process::exit(2);
    }
    let args = parse_args();
    // The untraced run reports its timings at the reference host's speed;
    // the traced run reports raw times and how fast the host was.
    if !args.traced {
        hostspeed::normalise();
    }
    let outcome = match args.workload.as_str() {
        "ask_cold" => ask::run(&ask::COLD, &args),
        "ask_hot" => ask::run(&ask::HOT, &args),
        "feed_sync" => feed::run(&args),
        "rollup_mix" => rollup::run(&args),
        "" => usage("--workload is required"),
        other => usage(&format!("unknown workload `{other}`")),
    };
    let mut outcome = outcome;
    let probe_us = hostspeed::report();
    if args.traced {
        outcome.metrics.set("host.probe_us", probe_us);
    } else {
        // A layer a workload bypasses may read 0; what the user sees may
        // not go unmeasured.
        for name in outcome.metrics.unset() {
            outcome
                .violations
                .push(format!("end-to-end metric `{name}` was not measured"));
        }
    }
    report::print_result(&outcome);
    if !outcome.violations.is_empty() {
        std::process::exit(1);
    }
}
