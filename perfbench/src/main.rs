//! The repository's benchmark: the typed `WfQueue<T>` on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pairs_typed_1t --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints an environment header line, a detail line (quartiles, counts),
//! and as the last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `attempted` counts values sent
//! through the queue; a value lost, duplicated, invented or delivered out
//! of order is a failed one, and all but a loss make the run incorrect.
//! The traced run writes its kept spans to `perfbench/out/`. See NOTES.md.

mod alloc;
mod check;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use wfq_harness::topology::{num_cpus, pin_to_cpu, PlatformInfo};

use workload::{Workload, WORKLOADS};

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::PairsTyped1t,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut named = false;
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {v:?}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?;
                named = true;
            }
            "--seed" => a.seed = v.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| bad("expected an integer"))?;
                if !(1..=600).contains(&a.seconds) {
                    return Err(bad("expected 1 to 600"));
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; the metrics are finite by construction, and a non-finite
/// one would make the line unparsable, so it is a bug worth stopping on.
fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value {x}");
    format!("{x}")
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..40.min(l.len())].to_string())
            })
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// FNV-1a over the library sources under `crates/`, in path order: names
/// the code measured when the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn write_spans(args: &Args, recorders: &[(String, trace::Recorder)]) -> std::io::Result<String> {
    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "thread\tid\tparent\tlayer\tstart_ns\tdur_ns")?;
    for (label, r) in recorders {
        r.write_kept(label, &mut f)?;
    }
    f.flush()?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    workload::start_clocks();
    let main_pinned = pin_to_cpu(0);
    let out = workload::run(args.workload, args.seed, args.seconds as f64, args.trace);

    let spans = if args.trace {
        match write_spans(&args, &out.recorders) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: could not write spans: {e}");
                String::new()
            }
        }
    } else {
        String::new()
    };

    let nproc = num_cpus();
    let pinned = out.pinned + usize::from(main_pinned);
    let threads = out.threads + 1;
    let mut env = String::new();
    let _ = write!(
        env,
        "{{\"env\":{{\"commit\":{},\"source_fnv\":{},\"nproc\":{nproc},\"cpu\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"workload_threads\":{},\"threads_pinned\":{pinned},\"threads_to_pin\":{threads},\"pinning_denied\":{}}}}}",
        json_str(&commit()),
        json_str(&source_digest()),
        json_str(&PlatformInfo::detect().model),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.threads(),
        pinned < threads,
    );
    println!("{env}");

    let v = out.verdict;
    let mut detail = format!(
        "{{\"detail\":{{\"sent\":{},\"delivered\":{},\"lost\":{},\"duplicated\":{},\"invented\":{},\"inverted\":{}",
        v.sent, v.delivered, v.lost, v.duplicated, v.invented, v.inverted
    );
    for (k, x) in &out.detail {
        let _ = write!(detail, ",{}:{}", json_str(k), json_num(*x));
    }
    if !spans.is_empty() {
        let _ = write!(detail, ",\"spans\":{}", json_str(&spans));
    }
    detail.push_str("}}");
    println!("{detail}");

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, x, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(k),
                json_num(*x),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        v.correct(),
        v.sent.max(1),
        v.failed(),
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload handoff_typed_2t --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::HandoffTyped2t, 9, 12, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload pairs_typed_1t --trace 2",
            "--seconds 0 --workload pairs_typed_1t",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
