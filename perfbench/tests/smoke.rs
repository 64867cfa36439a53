//! One traced request per workload through the traced pass's self-checks,
//! plus consistency of the metric lists with `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use athena_core::fuzz::gen_case;
use athena_perfbench::report::{per_layer_names, END_TO_END};
use athena_perfbench::runner::{coverage, coverage_ok, keyed, paired_request, traced_seed};
use athena_perfbench::serve::KEY_SALT;
use athena_perfbench::traced::{summarize, Recorder};
use athena_perfbench::workloads::{by_name, within_headroom, NAMES};

#[test]
fn one_traced_request_per_workload_passes_the_self_checks() {
    let seed = 7;
    for name in NAMES {
        let w = by_name(name).expect("known workload");
        let pool = w.certified_inputs(seed).expect("inputs certify");
        let (k, _) = keyed(&w, seed ^ KEY_SALT).expect("plan compiles");
        let mut rec = Recorder::new();
        let p = paired_request(&k, &pool[0], traced_seed(seed, 0), &mut rec, false);
        assert!(
            p.identical,
            "{name}: traced logits differ from plan::execute"
        );
        let dev = pool[0].deviation(&p.logits).expect("one logit per output");
        assert!(dev <= pool[0].tolerance, "{name}: deviation {dev}");
        let s = summarize(&rec, 0);
        let c = coverage(&s);
        assert!(
            coverage_ok(c),
            "{name}: step self times cover {c} of the wall"
        );
        let expect_fbs = name != "linear_only";
        assert_eq!(s.self_s("fbs") > 0.0, expect_fbs, "{name}: fbs spans");
        assert!(s.self_s("dim_switch") > 0.0, "{name}: dim_switch span");
    }
}

#[test]
fn headroom_gate_accepts_what_the_fuzz_generator_emits() {
    for seed in 0..64 {
        let case = gen_case(seed);
        assert!(
            within_headroom(&case.model, &case.input, case.params.lwe_n),
            "fuzz case {seed} rejected"
        );
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    // `(name, unit)` of every entry in a section; the unit is empty for
    // workloads.
    let section = |key: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        let field = |entry: &str, f: &str| {
            entry
                .split(&format!("\"{f}\": \""))
                .nth(1)
                .map_or(String::new(), |s| {
                    s.split('"').next().unwrap_or("").to_string()
                })
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(section("end_to_end"), e2e);
    let per: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(section("per_layer"), per);
    let workloads: Vec<String> = section("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, NAMES.to_vec());
}
