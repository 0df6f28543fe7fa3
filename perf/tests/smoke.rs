//! A `--smoke` pass over all five workloads and every cell, through the
//! real binary: the printed names are the registry's and
//! `BENCHMARK.json`'s, nothing fails, exact metrics repeat bit for bit
//! with one seed, and the request vector moves with another.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

use farmem_perf::json::{members, Json};
use farmem_perf::registry::{benchmark_json, metric, Tier, METRICS, RUN_SECONDS, WORKLOADS};

const BIN: &str = env!("CARGO_BIN_EXE_farmem-perf");

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the binary; returns its stdout.
fn perf(out: &PathBuf, args: &[&str]) -> String {
    let o = Command::new(BIN)
        .args(args)
        .env("FARMEM_PERF_OUT", out)
        .output()
        .expect("start farmem-perf");
    assert!(
        o.status.success(),
        "farmem-perf {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    );
    String::from_utf8(o.stdout).unwrap()
}

/// `(workload, metric) → value` from the human rows, plus the digest of
/// each workload's request vector.
fn rows(stdout: &str) -> (BTreeMap<(String, String), String>, BTreeMap<String, String>) {
    let mut values = BTreeMap::new();
    let mut digests = BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with('#') {
            if let Some(d) = f.iter().find_map(|w| w.strip_prefix("digest=")) {
                digests.insert(f[1].to_string(), d.to_string());
            }
        } else if f.len() >= 4 && WORKLOADS.iter().any(|w| w.name == f[0]) {
            values.insert((f[0].to_string(), f[1].to_string()), f[2].to_string());
        }
    }
    (values, digests)
}

#[test]
fn committed_benchmark_json_is_the_registry() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(RUN_SECONDS),
        "BENCHMARK.json drifted; regenerate it with `-- --emit-benchmark-json`"
    );
    let j = Json::parse(&committed).unwrap();
    assert_eq!(
        members(&j).unwrap().len(),
        6,
        "exactly the six contract keys"
    );
    let ok = |n: &str| {
        n.len() <= 64
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    };
    for (key, max) in [("end_to_end", 16), ("per_layer", 128), ("workloads", 8)] {
        let list = j.get(key).and_then(Json::as_arr).unwrap();
        assert!(
            !list.is_empty() && list.len() <= max,
            "{key}: {} entries",
            list.len()
        );
        for m in list {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            assert!(ok(name), "bad name `{name}` in {key}");
        }
    }
}

#[test]
fn smoke_pass_over_every_workload_and_cell() {
    let out = tmp("smoke");
    let file = |n: &str| out.join(n).to_string_lossy().into_owned();
    let a = perf(
        &out,
        &[
            "--all",
            "--smoke",
            "--traced",
            "--seed",
            "11",
            "--out",
            &file("a.json"),
        ],
    );
    let b = perf(
        &out,
        &[
            "--all",
            "--smoke",
            "--traced",
            "--seed",
            "11",
            "--out",
            &file("b.json"),
        ],
    );
    let c = perf(
        &out,
        &["--all", "--smoke", "--seed", "12", "--out", &file("c.json")],
    );
    let ((va, da), (vb, _), (vc, dc)) = (rows(&a), rows(&b), rows(&c));

    // (i) Every registered metric is printed on some workload, under a
    // registered name; nothing else is printed.
    let printed: BTreeSet<&str> = va
        .keys()
        .map(|(_, m)| m.as_str())
        .filter(|m| *m != "fail_ratio")
        .collect();
    let registered: BTreeSet<&str> = METRICS.iter().map(|m| m.name).collect();
    assert_eq!(
        printed, registered,
        "printed names differ from the registry"
    );

    // (ii) Nothing failed, on either seed.
    for v in [&va, &vb, &vc] {
        for w in WORKLOADS {
            assert_eq!(
                v.get(&(w.name.to_string(), "fail_ratio".to_string()))
                    .map(String::as_str),
                Some("0"),
                "{}: fail_ratio",
                w.name
            );
        }
    }

    // `serve-churn` exists for the LRU and the TTL: both fired.
    for m in ["serve.evicted_per_kop", "serve.expired_per_kop"] {
        let v: f64 = va[&("serve-churn".to_string(), m.to_string())]
            .parse()
            .unwrap();
        assert!(v > 0.0, "serve-churn {m} = {v}");
    }

    // A metric that is not defined on a workload is omitted there.
    for absent in ["op_p50_ns", "op_p99_ns", "core.httree_splits"] {
        assert!(
            !va.contains_key(&("serve-sessions".to_string(), absent.to_string())),
            "{absent}"
        );
    }
    assert!(!va.contains_key(&("structures".to_string(), "serve.hit_ratio".to_string())));
    assert!(va.contains_key(&("serve-get-small".to_string(), "serve.self_ns".to_string())));

    // (iii) Exact metrics repeat bit for bit with one seed on the
    // single-threaded workloads; the request vector moves with the seed.
    for ((w, m), x) in &va {
        if w != "serve-sessions" && metric(m).is_some_and(|d| d.exact) {
            assert_eq!(
                Some(x),
                vb.get(&(w.clone(), m.clone())),
                "{w} {m} did not repeat"
            );
        }
    }
    for w in WORKLOADS {
        assert_ne!(
            da[w.name], dc[w.name],
            "{}: seed 12 generated seed 11's requests",
            w.name
        );
    }

    // The span files exist and are JSON lines with the five keys.
    for w in WORKLOADS {
        let text = std::fs::read_to_string(out.join(format!("trace-{}.jsonl", w.name))).unwrap();
        let first = Json::parse(text.lines().next().expect("at least one span")).unwrap();
        for key in ["name", "op", "start_ns", "end_ns", "parent"] {
            assert!(first.get(key).is_some(), "{}: span without `{key}`", w.name);
        }
    }

    // The result files feed --compare; one code, one seed: no regression
    // on any count (host times of smoke runs are too short to judge).
    let cmp = Command::new(BIN)
        .args(["--compare", &file("a.json"), &file("b.json")])
        .output()
        .unwrap();
    let text = String::from_utf8(cmp.stdout).unwrap();
    for line in text
        .lines()
        .filter(|l| l.contains(" rt_per_op ") || l.contains(" sim_ns_per_op "))
    {
        if !line.starts_with("serve-sessions") {
            assert!(
                line.contains("ratio=1.0000") && line.ends_with(" ok"),
                "{line}"
            );
        }
    }
}

#[test]
fn driver_form_prints_exactly_the_listed_metrics_last() {
    let out = tmp("driver");
    for (trace, traced) in [("0", false), ("1", true)] {
        let stdout = perf(
            &out,
            &[
                "--workload",
                "serve-sessions",
                "--seed",
                "3",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ],
        );
        let last =
            Json::parse(stdout.lines().last().unwrap()).expect("last line is one JSON object");
        let keys: BTreeSet<&str> = members(&last).unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            BTreeSet::from(["attempted", "correct", "failed", "metrics"])
        );
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let got: BTreeSet<&str> = members(last.get("metrics").unwrap())
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        let want: BTreeSet<&str> = METRICS
            .iter()
            .filter(|m| (m.tier != Tier::Gate) == traced)
            .map(|m| m.name)
            .collect();
        assert_eq!(got, want, "--trace {trace}");
        if !traced {
            for (name, m) in members(last.get("metrics").unwrap()).unwrap() {
                assert!(
                    m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                    "{name} must never be 0"
                );
            }
        }
    }
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--frobnicate"][..],
        &["--trace", "2"][..],
    ] {
        let o = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?} printed a result");
    }
}
