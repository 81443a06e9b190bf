//! kpj-fuzz — seeded oracle sweeps with shrinking and replay.
//!
//! ```text
//! kpj-fuzz [--seed N] [--rounds N] [--max-seconds S] [--out FILE]
//! kpj-fuzz --interleave [--seed N] [--rounds N] [--max-seconds S]
//! kpj-fuzz --rows [--seed N] [--rounds N] [--max-seconds S]
//! kpj-fuzz --replay FILE
//! ```
//!
//! Sweep mode generates case `seed`, `seed+1`, … and runs each through the
//! full oracle (all algorithms, reference on small instances, the service
//! wire path). On the first violation the case is shrunk to a minimal
//! reproducer, written as a `.kpjcase` replay file, and the process exits
//! non-zero. `FUZZ_SECONDS` overrides the default time box (30 s) for
//! longer local runs. Replay mode re-runs one `.kpjcase` file and reports.
//!
//! `--interleave` runs the live-update oracle instead: per seed, weight-
//! update batches are applied through a running `KpjService` and after
//! every batch the live epoch (repaired landmarks, revalidating cache)
//! must agree with a freshly built engine: bit-for-bit, or for an answer
//! the cache carried across the batch, in lengths and path validity. Interleaving
//! failures are inherently stateful, so they report the seed instead of
//! shrinking to a replay file. The summary line counts the epochs written
//! into the retired previous epoch's buffers (`reused`) and into a full
//! copy (`copied`); a run of 20 or more cases that never reused exits
//! non-zero, because the double buffer then went unchecked. It also counts
//! the repaired target rows compared against a from-scratch row, and the
//! cached answers the revalidation kept across a batch or rejected.
//!
//! `--rows` runs the target-row differential instead: per seed, every
//! algorithm that reads target bounds answers with an exact target row
//! and without, and must return the same lengths; a row for another set
//! must change nothing; and a live service must build the row on the
//! set's second sighting, read it afterwards, and repair it exactly.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use kpj_oracle::{
    check_case, check_interleaving, check_target_rows, format_case, parse_case, shrink_case,
    OracleCase, UpdatePaths,
};

struct Args {
    seed: u64,
    rounds: Option<u64>,
    max_seconds: u64,
    out: Option<String>,
    replay: Option<String>,
    interleave: bool,
    rows: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: kpj-fuzz [--seed N] [--rounds N] [--max-seconds S] [--out FILE]\n       kpj-fuzz --interleave [--seed N] [--rounds N] [--max-seconds S]\n       kpj-fuzz --rows [--seed N] [--rounds N] [--max-seconds S]\n       kpj-fuzz --replay FILE\n\nFUZZ_SECONDS overrides --max-seconds (default 30)."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let default_seconds = std::env::var("FUZZ_SECONDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let mut args = Args {
        seed: 0xC0FFEE,
        rounds: None,
        max_seconds: default_seconds,
        out: None,
        replay: None,
        interleave: false,
        rows: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--seed" => match value("--seed").parse() {
                Ok(v) => args.seed = v,
                Err(_) => usage(),
            },
            "--rounds" => match value("--rounds").parse() {
                Ok(v) => args.rounds = Some(v),
                Err(_) => usage(),
            },
            "--max-seconds" => match value("--max-seconds").parse() {
                Ok(v) => args.max_seconds = v,
                Err(_) => usage(),
            },
            "--out" => args.out = Some(value("--out")),
            "--replay" => args.replay = Some(value("--replay")),
            "--interleave" => args.interleave = true,
            "--rows" => args.rows = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    args
}

fn run_replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("kpj-fuzz: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let case = match parse_case(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("kpj-fuzz: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match check_case(&case) {
        Ok(()) => {
            println!(
                "{path}: ok ({} nodes, {} edges, k={})",
                case.nodes,
                case.edges.len(),
                case.k
            );
            ExitCode::SUCCESS
        }
        Err(v) => {
            eprintln!("{path}: VIOLATION {v}");
            ExitCode::FAILURE
        }
    }
}

/// An interleave run at least this long must have taken the buffer-reuse
/// path; otherwise the double buffer went unchecked.
const MIN_ROUNDS_FOR_REUSE: u64 = 20;

fn run_interleave(args: &Args) -> ExitCode {
    let deadline = Instant::now() + Duration::from_secs(args.max_seconds);
    let mut round = 0u64;
    let mut paths = UpdatePaths::default();
    loop {
        if let Some(rounds) = args.rounds {
            if round >= rounds {
                break;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
        let seed = args.seed.wrapping_add(round);
        match check_interleaving(seed) {
            Ok(p) => paths += p,
            Err(v) => {
                eprintln!("seed {seed}: VIOLATION {v}");
                eprintln!("re-run with: kpj-fuzz --interleave --seed {seed} --rounds 1");
                return ExitCode::FAILURE;
            }
        }
        round += 1;
    }
    println!(
        "kpj-fuzz: {round} interleaving cases from seed {:#x}, 0 violations; epoch buffers: reused={} copied={}; target rows repaired={}; cache revalidations: kept={} rejected={}",
        args.seed, paths.reused, paths.copied, paths.rows, paths.kept, paths.rejected
    );
    if round >= MIN_ROUNDS_FOR_REUSE && paths.reused == 0 {
        eprintln!(
            "kpj-fuzz: no update reused the retired epoch's buffers: the reuse path went unchecked"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `--rows` sweep: the target-row differential per seed.
fn run_rows(args: &Args) -> ExitCode {
    let deadline = Instant::now() + Duration::from_secs(args.max_seconds);
    let (mut round, mut compared) = (0u64, 0u64);
    loop {
        if args.rounds.is_some_and(|rounds| round >= rounds) || Instant::now() >= deadline {
            break;
        }
        let seed = args.seed.wrapping_add(round);
        match check_target_rows(&OracleCase::generate(seed)) {
            Ok(n) => compared += n,
            Err(v) => {
                eprintln!("seed {seed}: VIOLATION {v}");
                eprintln!("re-run with: kpj-fuzz --rows --seed {seed} --rounds 1");
                return ExitCode::FAILURE;
            }
        }
        round += 1;
    }
    println!(
        "kpj-fuzz: {round} target-row cases from seed {:#x}, 0 violations; rowed answers compared={compared}",
        args.seed
    );
    if round > 0 && compared == 0 {
        eprintln!("kpj-fuzz: no answer was computed with a target row");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(path) = &args.replay {
        return run_replay(path);
    }
    if args.interleave {
        return run_interleave(&args);
    }
    if args.rows {
        return run_rows(&args);
    }

    let deadline = Instant::now() + Duration::from_secs(args.max_seconds);
    let mut round = 0u64;
    loop {
        if let Some(rounds) = args.rounds {
            if round >= rounds {
                break;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
        let seed = args.seed.wrapping_add(round);
        let case = OracleCase::generate(seed);
        if let Err(v) = check_case(&case) {
            eprintln!("seed {seed}: VIOLATION {v}");
            eprintln!(
                "original: {} nodes, {} edges, k={} — shrinking…",
                case.nodes,
                case.edges.len(),
                case.k
            );
            let shrunk = shrink_case(&case);
            let (min, still) = match check_case(&shrunk) {
                Err(v2) => (shrunk, v2),
                Ok(()) => {
                    eprintln!("shrink lost the failure; emitting the original case");
                    (case, v)
                }
            };
            let out = args
                .out
                .unwrap_or_else(|| format!("kpj-fuzz-failure-{seed}.kpjcase"));
            let mut text = format!("# {still}\n");
            text.push_str(&format_case(&min));
            if let Err(e) = std::fs::write(&out, &text) {
                eprintln!("cannot write {out}: {e}");
                eprintln!("--- replay file ---\n{text}");
            } else {
                eprintln!(
                    "minimal reproducer ({} nodes, {} edges, k={}) written to {out}",
                    min.nodes,
                    min.edges.len(),
                    min.k
                );
                eprintln!("re-run with: kpj-fuzz --replay {out}");
            }
            return ExitCode::FAILURE;
        }
        round += 1;
    }
    println!(
        "kpj-fuzz: {round} cases from seed {:#x}, 0 violations",
        args.seed
    );
    ExitCode::SUCCESS
}
