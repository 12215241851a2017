//! Real-file loaders feeding a real experiment: write a small dataset in
//! each supported on-disk format, load it back, and attack it.

use fedrecattack::prelude::*;
use std::io::Write;

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fedrecattack-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(content.as_bytes()).expect("write temp file");
    path
}

/// Render a synthetic dataset as MovieLens-100K `u.data` lines.
fn as_u_data(data: &Dataset) -> String {
    let mut out = String::new();
    for (u, v) in data.iter() {
        // 1-based ids, fake rating and timestamp, tab-separated.
        out.push_str(&format!("{}\t{}\t5\t881250949\n", u + 1, v + 1));
    }
    out
}

#[test]
fn u_data_roundtrip_preserves_structure() {
    let original = SyntheticConfig::smoke().generate(3);
    let path = write_temp("roundtrip-u.data", &as_u_data(&original));
    let loaded = fedrecattack::data::loader::load_movielens_100k(&path).expect("load");
    assert_eq!(loaded.num_interactions(), original.num_interactions());
    // Items with zero interactions don't appear in the file, so counts
    // may shrink; users all appear (generator guarantees degree >= 1).
    assert_eq!(loaded.num_users(), original.num_users());
    assert!(loaded.num_items() <= original.num_items());
}

#[test]
fn loaded_file_supports_full_attack_pipeline() {
    let original = SyntheticConfig::smoke().generate(4);
    let path = write_temp("pipeline-u.data", &as_u_data(&original));
    let data = fedrecattack::data::loader::load_movielens_100k(&path).expect("load");

    let (train, test) = leave_one_out(&data, 5);
    let targets = train.coldest_items(1);
    let malicious = train.num_users() / 20;
    let public = PublicView::sample(&train, 0.05, 2);
    let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, malicious);
    let fed = FedConfig {
        epochs: 40,
        ..FedConfig::smoke()
    };
    let mut sim = Simulation::new(&train, fed, Box::new(attack), malicious);
    sim.run();
    let evaluator = Evaluator::new(&train, &test, &targets, 3);
    let rep = evaluator.evaluate(sim.items(), sim.user_rows(), &train, &test);
    assert!(
        rep.attack.er_at_10 > 0.3,
        "attack on file-loaded data ineffective: {}",
        rep.attack.er_at_10
    );
}

#[test]
fn steam_format_roundtrip() {
    let original = SyntheticConfig::smoke_sparse().generate(5);
    let mut content = String::new();
    for (u, v) in original.iter() {
        content.push_str(&format!(
            "{},Game Number {v},play,{}.0,0\n",
            u + 10_000,
            v + 1
        ));
    }
    let path = write_temp("roundtrip-steam.csv", &content);
    let loaded = fedrecattack::data::loader::load_steam_200k(&path).expect("load");
    assert_eq!(loaded.num_interactions(), original.num_interactions());
    assert_eq!(loaded.num_users(), original.num_users());
}
