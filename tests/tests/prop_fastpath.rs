//! Property tests for the fast-path engine: the parallel fan-out and the
//! shared memo cache never change a byte of the report.

use dnc_core::cache::AnalysisCache;
use dnc_core::integrated::Integrated;
use dnc_core::DelayAnalysis;
use dnc_net::builders::random_feedforward;
use dnc_num::rat;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fanning pairing groups over worker threads must not change a
    /// single byte of the report: the wave schedule fixes both what each
    /// worker sees and the merge order. Both worker counts first run
    /// uncached, so every worker computes cold. Two cached runs follow:
    /// the first fills one memo cache from eight workers at once, the
    /// second answers from its hits, and both must be just as exact.
    #[test]
    fn worker_count_never_changes_the_report(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_feedforward(&mut rng, 5, 7, 4, rat(3, 4), true);
        let sequential = Integrated::paper().analyze(&net);
        let cache = AnalysisCache::new();
        let runs = [(2usize, None), (8, None), (8, Some(&cache)), (8, Some(&cache))];
        for (workers, memo) in runs {
            let parallel = Integrated::paper()
                .with_workers(workers)
                .analyze_with(&net, memo);
            match (&sequential, &parallel) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(
                        a.to_csv(), b.to_csv(),
                        "workers={} cached={} diverged from sequential",
                        workers, memo.is_some()
                    );
                    for (fa, fb) in a.flows.iter().zip(b.flows.iter()) {
                        prop_assert_eq!(fa.e2e, fb.e2e);
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                _ => prop_assert!(
                    false,
                    "sequential and workers={} cached={} disagree on success",
                    workers, memo.is_some()
                ),
            }
        }
    }
}
