//! `moodbench` — one four-workload scoreboard for the MOOD engine.
//!
//! ```sh
//! moodbench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out F] [--spans F]
//! moodbench --seed N [--seconds S] [--trace 0|1] [--smoke] [--out F]   # all four workloads
//! moodbench compare A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! A run prints, as the last line of its standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See the
//! README beside this file for what the workloads and metrics are and why.

mod compare;
mod gen;
mod json;
mod layers;
mod probe;
mod run;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;

struct Args {
    workload: Option<String>,
    run: run::Opts,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: moodbench [--workload W] --seed N [--seconds S] [--trace 0|1] \
                     [--smoke] [--out F] [--spans F]\n       \
                     moodbench compare A.json B.json [--bench BENCHMARK.json]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        run: run::Opts {
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            spans_out: None,
        },
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.run.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.run.smoke = true,
            "--out" => args.out = Some(value()?.into()),
            "--spans" => args.run.spans_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// First line of a command's standard output, or "unknown" (the driver's
/// checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the working directory, which holds the scratch
/// space: the longest mount point that prefixes it.
fn scratch_filesystem() -> String {
    let dir = std::env::current_dir().unwrap_or_default();
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn meta(args: &Args) -> Json {
    Json::obj(vec![
        ("seed", Json::Num(args.run.seed as f64)),
        ("seconds", Json::Num(args.run.seconds)),
        ("smoke", Json::Bool(args.run.smoke)),
        (
            "commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Json::Num(run::nproc() as f64)),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        ("scratch_fs", Json::Str(scratch_filesystem())),
    ])
}

/// Append one run to the results file `path` (`{"meta": …, "runs": […]}`).
fn append_run(path: &PathBuf, args: &Args, run: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("runs")
            .map(|r| r.as_arr().to_vec())
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    runs.push(run);
    let doc = Json::obj(vec![("meta", meta(args)), ("runs", Json::Arr(runs))]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_workload(name: &str, args: &Args) -> Result<(), String> {
    let spec = workloads::spec(name, args.run.smoke).ok_or_else(|| {
        format!(
            "unknown workload {name}; expected one of {}",
            workloads::WORKLOADS.join(", ")
        )
    })?;
    let outcome = run::run(&spec, &args.run)?;
    eprintln!(
        "moodbench: {name} seed {} — {} episode(s), {} statements, {} failed; \
         database {} pages, pool {} frames",
        args.run.seed,
        outcome.episodes,
        outcome.attempted,
        outcome.failed,
        outcome.pages,
        outcome.frames
    );
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(metric, unit, value)| {
                eprintln!("  {metric:<28} {value:>16.4} {unit}");
                let cell = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                (metric.to_string(), cell)
            })
            .collect(),
    );
    let result = vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ];
    if let Some(path) = &args.out {
        let mut run = vec![
            ("workload", Json::Str(name.to_string())),
            ("trace", Json::Num(args.run.trace as u8 as f64)),
        ];
        run.extend(result.clone());
        append_run(path, args, Json::obj(run))?;
    }
    println!("{}", Json::obj(result));
    Ok(())
}

/// Every workload, each in a process of its own so `peak_rss_mb` is that
/// workload's and not the largest so far.
fn run_all(argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut broken = Vec::new();
    for name in workloads::WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(argv)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        if !status.success() {
            broken.push(name);
        }
    }
    match broken.is_empty() {
        true => Ok(()),
        false => Err(format!("no result from {}", broken.join(", "))),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let bench = argv
            .iter()
            .position(|a| a == "--bench")
            .and_then(|i| argv.get(i + 1))
            .map_or("BENCHMARK.json", String::as_str);
        let files: Vec<&String> = argv[1..]
            .iter()
            .filter(|a| !a.starts_with("--") && a.as_str() != bench)
            .collect();
        let [a, b] = files[..] else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b, bench) {
            Ok((report, ok)) => {
                print!("{report}");
                ExitCode::from(!ok as u8)
            }
            Err(e) => {
                eprintln!("moodbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("moodbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        None => run_all(&argv),
        Some(name) => {
            // Everything this process writes — database files, and the
            // engine's sort spills, which go to the OS temp directory —
            // stays under one directory inside the working directory.
            let root = run::scratch_root();
            let made = std::fs::create_dir_all(&root)
                .and_then(|()| root.canonicalize())
                .map(|abs| std::env::set_var("TMPDIR", abs));
            let out = match made {
                Ok(()) => run_workload(name, &args),
                Err(e) => Err(format!("{}: {e}", root.display())),
            };
            run::remove_scratch(&root);
            out
        }
    };
    match outcome {
        // A run that produced a result exits 0; `correct` carries the verdict.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("moodbench: {e}");
            ExitCode::from(1)
        }
    }
}
