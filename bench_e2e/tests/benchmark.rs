//! The benchmark's own tests: seeded request sequences, the Zipf stream,
//! the metric catalog against `BENCHMARK.json`, and a tiny-corpus smoke
//! of every workload through the real binary.

use create_bench_e2e::metrics::{valid_name, END_TO_END, PER_LAYER};
use create_bench_e2e::workload::{ClientStream, Inputs, Op, Scale, Workload, CLIENTS, ZIPF_S};
use create_docstore::json::parse_json;
use create_docstore::Value;
use create_util::Rng;
use std::process::Command;

fn sequence(inputs: &Inputs, workload: Workload, client: usize, n: usize) -> Vec<(Op, Vec<u8>)> {
    let mut stream = ClientStream::new(workload, client, inputs);
    (0..n)
        .map(|_| {
            let op = stream.next_op();
            stream.acknowledge(&op, true);
            (op, inputs.request_bytes(&op))
        })
        .collect()
}

#[test]
fn same_seed_gives_an_identical_request_sequence() {
    let a = Inputs::generate(42, Scale::tiny());
    let b = Inputs::generate(42, Scale::tiny());
    let other = Inputs::generate(43, Scale::tiny());
    assert_eq!(a.cold_pool, b.cold_pool);
    assert_eq!(a.hot_pool, b.hot_pool);
    for workload in Workload::ALL {
        for client in 0..CLIENTS {
            let first = sequence(&a, workload, client, 300);
            assert_eq!(
                first,
                sequence(&b, workload, client, 300),
                "{workload:?} client {client}"
            );
            assert_ne!(
                first,
                sequence(&other, workload, client, 300),
                "{workload:?} client {client}"
            );
        }
    }
}

#[test]
fn streams_have_the_documented_shape() {
    let inputs = Inputs::generate(5, Scale::tiny());
    let cold: Vec<Op> = sequence(&inputs, Workload::ReadCold, 0, 4000)
        .into_iter()
        .map(|(op, _)| op)
        .collect();
    let cohorts = cold.iter().filter(|op| matches!(op, Op::Cohort(_))).count() as f64;
    let share = cohorts / cold.len() as f64;
    assert!((0.08..0.12).contains(&share), "cohort share {share}");
    // The two clients interleave one walk over the cold pool.
    let c0 = sequence(&inputs, Workload::ReadCold, 0, 200);
    let c1 = sequence(&inputs, Workload::ReadCold, 1, 200);
    let slots = |seq: &[(Op, Vec<u8>)]| -> Vec<u32> {
        seq.iter()
            .filter_map(|(op, _)| match op {
                Op::Search(_, n) => Some(*n),
                _ => None,
            })
            .collect()
    };
    assert!(slots(&c0).iter().all(|n| n % 2 == 0));
    assert!(slots(&c1).iter().all(|n| n % 2 == 1));
    // The writer flushes after every `flush_every` acknowledged submits.
    let writer: Vec<Op> = sequence(&inputs, Workload::WriteMix, 0, 60)
        .into_iter()
        .map(|(op, _)| op)
        .collect();
    let every = inputs.scale.flush_every;
    for (i, op) in writer.iter().enumerate() {
        let expect_flush = (i + 1) % (every + 1) == 0;
        assert_eq!(matches!(op, Op::Flush), expect_flush, "op {i}: {op:?}");
    }
    let reader = sequence(&inputs, Workload::WriteMix, 1, 50);
    assert!(reader.iter().all(|(op, _)| matches!(op, Op::Search(..))));
}

#[test]
fn held_out_reports_are_new_and_deterministic() {
    let inputs = Inputs::generate(9, Scale::tiny());
    let ids: std::collections::HashSet<&str> =
        inputs.reports.iter().map(|r| r.id.as_str()).collect();
    for n in 0..20 {
        let report = inputs.held_out(n);
        assert!(!ids.contains(report.id.as_str()), "{} collides", report.id);
        assert_eq!(report.text, inputs.held_out(n).text);
    }
}

#[test]
fn zipf_rank_frequencies_follow_the_exponent() {
    let (n, s, draws) = (64usize, ZIPF_S, 200_000usize);
    let mut rng = Rng::seed_from_u64(7);
    let mut counts = vec![0usize; n];
    for _ in 0..draws {
        counts[rng.zipf(n, s)] += 1;
    }
    let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
    for (rank, &count) in counts.iter().enumerate().take(8) {
        let expected = (rank as f64 + 1.0).powf(-s) / norm * draws as f64;
        let err = (count as f64 - expected).abs() / expected;
        assert!(err < 0.05, "rank {rank}: {count} vs expected {expected:.0}");
    }
    // Rank 1 over rank 2 is 2^s.
    let ratio = counts[0] as f64 / counts[1] as f64;
    assert!(
        (ratio - 2f64.powf(s)).abs() < 0.06,
        "rank-1/rank-2 ratio {ratio}"
    );
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let catalog = |defs: &[create_bench_e2e::metrics::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), catalog(END_TO_END));
    assert_eq!(listed("per_layer"), catalog(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for (name, ..) in listed("end_to_end").iter().chain(&listed("per_layer")) {
        assert!(valid_name(name), "{name}");
    }
}

/// Runs the real binary at the tiny scale and returns its result line.
fn smoke(workload: &str, trace: &str) -> Value {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e-smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_create-bench-e2e"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            trace,
        ])
        .args(["--scale", "tiny", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_json(last).expect("result line is JSON")
}

fn assert_clean(result: &Value, defs: &[create_bench_e2e::metrics::MetricDef]) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), defs.len());
    for d in defs {
        let value = metrics[d.name].get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{} = {value:?}", d.name);
    }
}

#[test]
fn tiny_corpus_smoke_of_every_workload() {
    for workload in Workload::ALL {
        assert_clean(&smoke(workload.name(), "1"), PER_LAYER);
    }
    assert_clean(&smoke("read_cold", "0"), END_TO_END);
}
