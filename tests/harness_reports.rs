//! End-to-end: every experiment of the harness must reproduce the paper
//! (all paper-vs-measured comparisons match), and reports must serialize.

use ac_harness::experiments;

#[test]
fn table1_reproduces() {
    for (n, f) in [(4, 1), (6, 2), (8, 5)] {
        let r = experiments::table1(n, f);
        assert!(r.all_matched(), "n={n} f={f}:\n{}", r.render());
    }
}

#[test]
fn table2_and_table3_reproduce() {
    let r2 = experiments::table2();
    assert!(r2.all_matched(), "{}", r2.render());
    let r3 = experiments::table3();
    assert!(r3.all_matched(), "{}", r3.render());
}

#[test]
fn table4_reproduces() {
    let r = experiments::table4(6, 2);
    assert!(r.all_matched(), "{}", r.render());
}

#[test]
fn table5_reproduces_across_the_sweep() {
    let r = experiments::table5(&[4, 6, 8, 10], &[1, 2, 3]);
    assert!(r.all_matched(), "{}", r.render());
    // The crossover notes must be present.
    assert!(r.notes.iter().any(|n| n.contains("2PC")));
    assert!(r.notes.iter().any(|n| n.contains("trade-off")));
}

#[test]
fn fig1_reproduces_all_branches() {
    let r = experiments::fig1();
    assert!(r.all_matched(), "{}", r.render());
    let rendered = r.render();
    for branch in ["decide AND", "cons-propose 1", "cons-propose 0", "HELP"] {
        assert!(
            rendered.contains(branch),
            "missing branch {branch}:\n{rendered}"
        );
    }
}

#[test]
fn ablations_reproduce() {
    let r = experiments::ablations();
    assert!(r.all_matched(), "{}", r.render());
}

#[test]
fn reports_serialize_to_json() {
    let r = experiments::table2();
    let json = r.to_json();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(v["id"], "table2");
    assert!(v["tables"].as_array().is_some());
}

/// The committed `BENCH_baseline.json` is the full `repro saturate`
/// output: it must validate with all six sections, and its saturation
/// section must cover every Table-5 protocol on the channel transport.
#[test]
fn committed_baseline_validates_with_every_section() {
    use ac_harness::report::{table5_protocol_names, BenchBaseline};
    let text = include_str!("../BENCH_baseline.json");
    assert_eq!(
        BenchBaseline::validate_json(text),
        Ok(vec![
            "protocols",
            "explorer",
            "service",
            "attribution",
            "chaos",
            "saturation"
        ])
    );
    let v: serde_json::Value = serde_json::from_str(text).unwrap();
    let curves = v["saturation"]["curves"].as_array().unwrap();
    for protocol in table5_protocol_names() {
        assert!(
            curves
                .iter()
                .any(|c| c["protocol"].as_str() == Some(protocol)
                    && c["transport"].as_str() == Some("channel")),
            "no channel saturation curve for {protocol}"
        );
    }
}
