//! Wall-clock benchmark of the Fusion service path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seconds <s> --spread <runs>
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics of a traced run of the same workload. `--spread`
//! runs the workload once per seed `1..=runs` in child processes and
//! prints each end-to-end metric's median, quartiles and range. See
//! README.md for the workloads and metrics.

mod layers;
mod mix;
mod stats;
mod trace;
mod workload;

use stats::{median, quartiles};
use std::time::Instant;
use trace::Tracer;
use workload::{Fixture, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    spread: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut spread = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::spec(&name).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {names:?}")
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spread" => {
                spread = Some(value()?.parse().map_err(|e| format!("--spread: {e}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spread,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Builds the fixture [`SETUP_REPS`] times, keeping the last; returns it
/// with the median set-up time.
fn setup(spec: Spec, seed: u64) -> Result<(Fixture, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        drop(fixture.take());
        let t0 = Instant::now();
        fixture = Some(workload::setup(spec, seed)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    println!("setup: {SETUP_REPS} set-ups, seconds {times:?}");
    Ok((fixture.expect("at least one set-up"), median(&times)))
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::nproc()
    );
    let (fx, setup_s) = setup(spec, args.seed)?;
    if args.trace {
        return layers::run(&fx, args.seconds);
    }
    let mut tracers = [Tracer::off(), Tracer::off()];
    let m = workload::timed_phase(&fx, args.seconds, 0, &mut tracers);
    let closing = workload::close(&fx)?;
    println!("{}", m.rounds.summary("query_round", "ms"));
    for (shape, s) in mix::SHAPES.iter().zip(&m.shapes) {
        println!("{}", s.summary(&format!("  query.{}", shape.name), "ms"));
    }
    println!(
        "{}",
        m.gets.summary(&format!("get_{}B", spec.get_len), "ms")
    );
    println!("{}", m.puts.summary(&format!("put_{}B", m.put_bytes), "ms"));
    for e in m.mismatches.iter().take(5) {
        println!("MISMATCH {e}");
    }
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("query_ms", m.rounds.median(), "ms"),
        metric("get_ms", m.get_rounds.median(), "ms"),
        metric(
            "put_MBps",
            m.put_bytes as f64 / 1e6 / (m.puts.median() / 1e3),
            "MB/s",
        ),
        metric("ops_per_s", m.completed() as f64 / m.wall_s, "op/s"),
        metric("query_wire_KB", closing.query_wire_kb, "KB"),
        metric("storage_overhead", closing.storage_overhead, "ratio"),
        metric("peak_rss_MB", workload::peak_rss_mb(), "MB"),
    ];
    let correct = m.mismatches.is_empty() && metrics.iter().all(|x| x.value.is_finite());
    println!(
        "{}",
        result_line(correct, m.attempted(), m.failed(), &metrics)
    );
    Ok(correct)
}

/// Runs the workload once per seed `1..=runs` in child processes and
/// prints each metric's spread.
fn spread(args: &Args, runs: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut fail_shares = Vec::new();
    for seed in 1..=runs as u64 {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                args.workload.name,
                "--seed",
                &seed.to_string(),
            ])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_string();
        if !out.status.success() {
            return Err(format!("seed {seed} exited with {}: {last}", out.status));
        }
        let (attempted, failed, metrics) =
            parse_result(&last).ok_or(format!("seed {seed}: no result line"))?;
        fail_shares.push(format!("{failed}/{attempted}"));
        for (name, value, unit) in metrics {
            match values.iter_mut().find(|v| v.0 == name) {
                Some(v) => v.2.push(value),
                None => values.push((name, unit, vec![value])),
            }
        }
        println!("seed {seed}: {last}");
    }
    println!("failed/attempted per run: {}", fail_shares.join(" "));
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "metric", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for (name, unit, v) in &values {
        let (q1, q2, q3) = quartiles(v);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<22} {q2:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {:>8.4}  {unit}",
            name,
            (q3 - q1) / q2
        );
    }
    Ok(true)
}

/// `attempted`, `failed` and `(name, value, unit)` of every metric.
type Parsed = (u64, u64, Vec<(String, f64, String)>);

/// Reads `attempted`, `failed` and `(name, value, unit)` of every metric
/// back from a result line this program printed.
fn parse_result(line: &str) -> Option<Parsed> {
    let num_after = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        rest.split([',', '}']).next()?.trim().parse().ok()
    };
    let attempted = num_after("\"attempted\": ")?;
    let failed = num_after("\"failed\": ")?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1)?.to_string();
        let value = entry
            .split("\"value\": ")
            .nth(1)?
            .split(',')
            .next()?
            .trim()
            .parse()
            .ok()?;
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)?
            .split('"')
            .next()?
            .to_string();
        metrics.push((name, value, unit));
    }
    Some((attempted, failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.spread {
        Some(runs) => spread(&args, runs),
        None => run(&args),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("perfbench: a check failed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            true,
            10,
            0,
            &[metric("a_ms", 1.25, "ms"), metric("b", 3.0, "MB/s")],
        );
        let (att, failed, m) = parse_result(&line).unwrap();
        assert_eq!((att, failed), (10, 0));
        assert_eq!(m[0], ("a_ms".to_string(), 1.25, "ms".to_string()));
        assert_eq!(m[1], ("b".to_string(), 3.0, "MB/s".to_string()));
    }
}
