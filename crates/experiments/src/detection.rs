//! Extension experiment: can upload-level detectors spot each attack?
//!
//! §V-D of the paper argues norm-style detection "does not perform well
//! in FR" because honest gradients vary widely and carry DP noise, and
//! §VI points at gradient classification \[51\] as future work. This
//! runner measures both standard signals against every attack family:
//! one round of genuine benign uploads plus the attack's uploads, scored
//! by the norm-outlier and cosine-similarity detectors.

use crate::report::Table;
use crate::scale::{DatasetId, Scale};
use fedrec_baselines::registry::{build_adversary, AttackEnv, AttackMethod};
use fedrec_data::split::leave_one_out;
use fedrec_defense::{NormDetector, SimilarityDetector};
use fedrec_federated::adversary::RoundCtx;
use fedrec_federated::client::BenignClient;
use fedrec_linalg::{Matrix, SeededRng, SparseGrad};

/// Attacks evaluated by the detection experiment.
pub const DETECTION_METHODS: [AttackMethod; 5] = [
    AttackMethod::Random,
    AttackMethod::Popular,
    AttackMethod::ExplicitBoost,
    AttackMethod::PipAttack,
    AttackMethod::FedRecAttack,
];

/// Build one round of uploads: all benign clients plus `num_malicious`
/// poisoned uploads from `method`. Returns `(uploads, malicious_range)`.
fn one_round(method: AttackMethod, scale: Scale, seed: u64) -> (Vec<SparseGrad>, Vec<usize>) {
    let full = scale.dataset(DatasetId::Ml100k, None, seed);
    let (train, _) = leave_one_out(&full, seed ^ 0x10);
    let targets = train.coldest_items(1);
    let fed = scale.fed_config(seed);
    let num_malicious = (train.num_users() as f64 * 0.05).round() as usize;

    let mut rng = SeededRng::new(seed ^ 0xDE7);
    let items = Matrix::random_normal(train.num_items(), fed.k, 0.0, 0.1, &mut rng);
    let mut uploads = Vec::new();
    for u in 0..train.num_users() {
        let mut c = BenignClient::new(
            u,
            train.user_items(u).to_vec(),
            train.num_items(),
            fed.k,
            &mut rng,
        );
        if let Some(up) = c.local_round(&items, fed.lr, fed.clip_norm, 0.0) {
            uploads.push(up.item_grads);
        }
    }
    let benign = uploads.len();

    let env = AttackEnv::over_dataset(&train, &targets)
        .malicious(num_malicious)
        .kappa(60)
        .k(fed.k)
        .seed(seed ^ 0xA7)
        .public(0.05, seed ^ 0xD1);
    let mut adversary = build_adversary(method, &env);
    let selected: Vec<usize> = (0..num_malicious).collect();
    let ctx = RoundCtx {
        round: 0,
        lr: fed.lr,
        clip_norm: fed.clip_norm,
        selected_malicious: &selected,
    };
    uploads.extend(adversary.poison(&items, &ctx, &mut rng));
    let malicious: Vec<usize> = (benign..uploads.len()).collect();
    (uploads, malicious)
}

/// The detection extension table: per attack, the recall/precision of
/// both detectors on one round of traffic.
pub fn extension_detection(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "Extension: per-round detectability of each attack (MovieLens-100K, rho=5%)",
        vec![
            "Attack",
            "norm recall",
            "norm precision",
            "similarity recall",
            "similarity precision",
        ],
    );
    let norm = NormDetector::new(3.0);
    let sim = SimilarityDetector {
        cosine_threshold: 0.9,
        min_pairs: 2,
    };
    for method in DETECTION_METHODS {
        let (uploads, malicious) = one_round(method, scale, seed);
        let nr = norm.inspect(&uploads);
        let sr = sim.inspect(&uploads);
        t.push_row(vec![
            method.label().to_string(),
            format!("{:.2}", nr.recall(&malicious)),
            format!("{:.2}", nr.precision(&malicious)),
            format!("{:.2}", sr.recall(&malicious)),
            format!("{:.2}", sr.precision(&malicious)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_table_has_all_attacks() {
        let t = extension_detection(Scale::Smoke, 3);
        assert_eq!(t.rows.len(), DETECTION_METHODS.len());
        for row in &t.rows {
            for cell in &row[1..] {
                let v: f64 = cell.parse().expect("numeric cell");
                assert!((0.0..=1.0).contains(&v), "{row:?}");
            }
        }
    }

    #[test]
    fn fedrecattack_evades_norms_but_not_similarity() {
        let t = extension_detection(Scale::Smoke, 3);
        let cell = |label: &str, col: usize| -> f64 {
            t.rows.iter().find(|r| r[0] == label).expect("row")[col]
                .parse()
                .unwrap()
        };
        // The paper's stealth claim at the traffic level: clipped uploads
        // mostly hide inside the benign norm distribution...
        assert!(
            cell("FedRecAttack", 1) <= 0.5,
            "norm detection should mostly miss the clipped attack"
        );
        // ...but the measured extension finding is that coordination is
        // the better signal: the attack's clients share target rows, so
        // similarity clustering catches at least as many as norms do.
        assert!(
            cell("FedRecAttack", 3) >= cell("FedRecAttack", 1),
            "similarity should be the stronger signal"
        );
    }
}
