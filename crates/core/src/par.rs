//! Scoped-thread fan-out shared by the parallel analyses.

use dnc_curves::limits;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `job(0)..job(count-1)` over up to `workers` scoped threads and
/// return the results **in index order** (the bench `sweep` idiom:
/// atomic work counter + ordered slots), so callers merge
/// deterministically regardless of thread interleaving.
///
/// Each worker installs a snapshot of the coordinating thread's
/// [`limits`] so deadlines and cancellation apply identically on every
/// thread. Worker panics — including `BudgetBreach` payloads from the
/// limits checkpoints — are re-raised on the coordinating thread so a
/// guarded runner's `catch_unwind` still observes them.
pub(crate) fn fan_out<T, F>(count: usize, workers: usize, job: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // Worker panics are caught per job (std::thread::scope would replace
    // the payload with a generic "a scoped thread panicked" message,
    // losing the BudgetBreach) and re-raised below.
    enum Slot<T> {
        Done(T),
        Panicked(Box<dyn std::any::Any + Send>),
    }

    let mut slots: Vec<Option<Slot<T>>> = Vec::new();
    slots.resize_with(count, || None);
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let slot = Mutex::new(&mut slots);
    let budget = limits::current();
    // A panic outside the per-job guard (only the harness itself) makes
    // `std::thread::scope` panic with its generic message once every
    // worker has joined; job panics keep their payload via the slots.
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1).min(count) {
            let budget = budget.clone();
            let (next, slot, aborted) = (&next, &slot, &aborted);
            scope.spawn(move || {
                let _guard = budget.map(limits::install);
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= count || aborted.load(Ordering::Relaxed) {
                        break;
                    }
                    let r = match catch_unwind(AssertUnwindSafe(|| job(k))) {
                        Ok(v) => Slot::Done(v),
                        Err(payload) => {
                            aborted.store(true, Ordering::Relaxed);
                            Slot::Panicked(payload)
                        }
                    };
                    // audit: allow(index, slots has one slot per job index; k < count checked above)
                    slot.lock().unwrap_or_else(|p| p.into_inner())[k] = Some(r);
                }
            });
        }
    });
    let mut done = Vec::with_capacity(count);
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for s in slots {
        match s {
            Some(Slot::Done(v)) => done.push(v),
            Some(Slot::Panicked(p)) => {
                // Keep the lowest-indexed payload for determinism.
                first_panic.get_or_insert(p);
            }
            // Empty slots only exist after an abort, handled below.
            None => {}
        }
    }
    if let Some(p) = first_panic {
        std::panic::resume_unwind(p);
    }
    assert_eq!(done.len(), count, "fan_out: every slot filled");
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for workers in [1usize, 2, 8] {
            let out = fan_out(17, workers, &|i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_panics_reach_the_coordinator() {
        let r = std::panic::catch_unwind(|| {
            fan_out(4, 2, &|i| {
                if i == 2 {
                    std::panic::panic_any(limits::BudgetBreach::Cancelled);
                }
                i
            })
        });
        let payload = r.expect_err("panic must propagate");
        assert_eq!(
            limits::breach_of(payload.as_ref()),
            Some(&limits::BudgetBreach::Cancelled),
            "payload must survive the thread boundary"
        );
    }

    #[test]
    fn workers_inherit_the_installed_budget() {
        let tok = limits::CancelToken::new();
        tok.cancel();
        let _g = limits::install(limits::Limits {
            cancel: Some(tok),
            ..limits::Limits::default()
        });
        let r = std::panic::catch_unwind(|| {
            fan_out(2, 2, &|_| {
                // Workers re-install the coordinator's limits, so the
                // tripped token must be visible here.
                limits::checkpoint(1);
            })
        });
        assert!(
            limits::breach_of(r.expect_err("cancelled budget must trip").as_ref()).is_some(),
            "worker checkpoint must observe the coordinator's cancel token"
        );
    }
}
