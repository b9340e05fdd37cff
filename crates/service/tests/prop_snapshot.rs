//! Property test: snapshot compaction is observationally invisible.
//!
//! For a random admit/release sequence and a random snapshot cadence,
//! an engine that snapshots-and-rotates must answer identically to one
//! that keeps the full journal, and — the durability half — recovery
//! from `snapshot + journal tail` must land on exactly the state that
//! full-journal replay lands on, Rat-exact (the canonical state encodes
//! every rational verbatim, and the digests hash that text).

use dnc_net::builders::{tandem, TandemOptions};
use dnc_net::ServerId;
use dnc_num::Rat;
use dnc_service::{scratch_dir, AdmitRequest, ChurnEngine, EngineConfig, Request, ScratchDir};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn draw_requests(seed: u64, n: usize, ops: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = 0usize;
    let mut assumed: Vec<String> = Vec::new();
    (0..ops)
        .map(|_| {
            if assumed.is_empty() || rng.gen_ratio(3, 5) {
                next += 1;
                let name = format!("p{next}");
                assumed.push(name.clone());
                let start = rng.gen_range(0..n);
                let len = rng.gen_range(1..=(n - start).min(3));
                Request::Admit(AdmitRequest {
                    name,
                    route: (start..start + len).map(ServerId).collect(),
                    buckets: vec![(
                        Rat::from(rng.gen_range(1i64..=3)),
                        Rat::new(rng.gen_range(1i128..=3), 40),
                    )],
                    peak: None,
                    priority: 1,
                    deadline: Rat::from(rng.gen_range(4i64..=120)),
                })
            } else {
                let victim = rng.gen_range(0..assumed.len());
                Request::Release {
                    name: assumed.remove(victim),
                }
            }
        })
        .collect()
}

fn scratch(tag: &str) -> ScratchDir {
    scratch_dir(&format!("prop_snap_{tag}")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn snapshot_plus_tail_replay_equals_full_replay(
        seed in 0u64..1 << 32,
        every in 1u64..=5,
    ) {
        let n = 4;
        let base = tandem(n, Rat::ONE, Rat::new(1, 16), TandemOptions::default()).net;
        let dir = scratch(&format!("{seed}_{every}"));
        let full_wal = dir.join("full.wal");
        let snap_wal = dir.join("snap.wal");
        let cfg = |snapshot_every| EngineConfig {
            snapshot_every,
            ..EngineConfig::default()
        };

        let (mut full, _) =
            ChurnEngine::open(base.clone(), Vec::new(), cfg(None), &full_wal).unwrap();
        let (mut compacted, _) =
            ChurnEngine::open(base.clone(), Vec::new(), cfg(Some(every)), &snap_wal).unwrap();

        for (step, req) in draw_requests(seed, n, 16).into_iter().enumerate() {
            let a = full.process(req.clone()).expect("real backend cannot fault");
            let b = compacted.process(req).expect("real backend cannot fault");
            prop_assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "step {} answered differently under compaction", step
            );
        }
        let live_digest = full.state_digest();
        prop_assert_eq!(compacted.state_digest(), live_digest);
        let committed = full.committed_seq();
        prop_assert_eq!(compacted.committed_seq(), committed);
        drop(full);
        drop(compacted);

        // Recovery equivalence: full-journal replay and snapshot+tail
        // replay land on the identical canonical state.
        let (rec_full, info_full) =
            ChurnEngine::open(base.clone(), Vec::new(), cfg(None), &full_wal).unwrap();
        let (rec_snap, info_snap) =
            ChurnEngine::open(base, Vec::new(), cfg(Some(every)), &snap_wal).unwrap();
        prop_assert_eq!(rec_full.state_digest(), live_digest);
        prop_assert_eq!(rec_snap.state_digest(), live_digest);
        prop_assert_eq!(
            rec_full.canonical_state(),
            rec_snap.canonical_state(),
            "canonical states must match Rat-exactly"
        );
        prop_assert_eq!(info_full.committed_seq, committed);
        prop_assert_eq!(info_snap.committed_seq, committed);

        // The compaction bound: the snapshot engine replays only the
        // tail past its newest snapshot.
        if let Some((_, snap_seq)) = info_snap.snapshot {
            prop_assert_eq!(info_snap.ops_replayed as u64, committed - snap_seq);
            prop_assert!(
                (info_snap.ops_replayed as u64) < every.max(1) * 2,
                "tail replay ({} ops) must be bounded by the cadence ({})",
                info_snap.ops_replayed,
                every
            );
        }
    }
}
