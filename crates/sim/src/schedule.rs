//! List scheduling of gTasks onto execution units.
//!
//! Models the long-tail effect of Figure 12: an overfill gTask that starts
//! late keeps one execution unit busy while the rest idle. Differentiated
//! scheduling (§6.2) raises the priority of heavy tasks (and demotes
//! edge-wise leftovers), producing a balanced makespan.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A schedulable unit of work.
#[derive(Clone, Copy, Debug)]
pub struct ScheduledTask {
    /// Execution time of the task on one unit (seconds).
    pub duration: f64,
    /// Higher priority starts earlier. Uniform execution uses 0 for all.
    pub priority: i32,
}

/// Greedy list schedule: tasks in priority order (stable for ties, i.e.
/// submission order), each placed on the earliest-available unit, the
/// lowest-indexed of those free at the same time. Returns the makespan
/// (seconds).
///
/// # Panics
///
/// Panics if `units == 0` or a duration is NaN or infinite.
pub fn makespan(tasks: &[ScheduledTask], units: usize) -> f64 {
    assert!(units > 0, "need at least one execution unit");
    assert!(
        tasks.iter().all(|t| t.duration.is_finite()),
        "task durations must be finite times"
    );
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| Reverse(tasks[i].priority));
    // Units by (free time, index), earliest first. Finite sums from +0.0
    // are never -0.0, so `total_cmp` orders them as `<` does.
    let mut free: BinaryHeap<Reverse<FreeAt>> =
        (0..units).map(|unit| Reverse(FreeAt(0.0, unit))).collect();
    for &i in &order {
        let mut earliest = free.peek_mut().expect("units > 0");
        earliest.0 .0 += tasks[i].duration;
    }
    free.into_iter().map(|Reverse(FreeAt(t, _))| t).fold(0.0, f64::max)
}

/// A unit's free time and index, ordered by time and then index.
struct FreeAt(f64, usize);

impl PartialEq for FreeAt {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for FreeAt {}

impl Ord for FreeAt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for FreeAt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Uniform execution: all tasks at equal priority, submission order.
pub fn makespan_uniform(durations: &[f64], units: usize) -> f64 {
    let tasks: Vec<ScheduledTask> = durations
        .iter()
        .map(|&d| ScheduledTask {
            duration: d,
            priority: 0,
        })
        .collect();
    makespan(&tasks, units)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_unit_sums_durations() {
        let d = [1.0, 2.0, 3.0];
        assert_eq!(makespan_uniform(&d, 1), 6.0);
    }

    #[test]
    fn balanced_tasks_divide_evenly() {
        let d = vec![1.0; 16];
        let m = makespan_uniform(&d, 4);
        assert!((m - 4.0).abs() < 1e-9);
    }

    #[test]
    fn long_tail_from_late_heavy_task() {
        // 15 small tasks then one huge one: uniform order starts the huge
        // task last (at t = 3, when a unit frees up) → long tail.
        let mut d = vec![1.0; 15];
        d.push(10.0);
        assert_eq!(makespan_uniform(&d, 4), 13.0);
    }

    #[test]
    fn lower_bound_holds() {
        let d = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for units in 1..6 {
            // No schedule beats max(total / units, longest task).
            let lb = (31.0 / units as f64).max(9.0);
            assert!(makespan_uniform(&d, units) >= lb - 1e-9);
        }
    }

    #[test]
    fn priorities_control_start_order() {
        // Two units; a low-priority long task and high-priority short ones.
        let tasks = vec![
            ScheduledTask {
                duration: 8.0,
                priority: -1,
            },
            ScheduledTask {
                duration: 4.0,
                priority: 1,
            },
            ScheduledTask {
                duration: 4.0,
                priority: 1,
            },
            ScheduledTask {
                duration: 4.0,
                priority: 1,
            },
        ];
        // High-priority shorts fill both units (4+4, 4), the long task then
        // lands on the unit free at t=4 → makespan 12.
        assert_eq!(makespan(&tasks, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_units_panics() {
        makespan_uniform(&[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "finite times")]
    fn a_nan_duration_panics() {
        makespan_uniform(&[1.0, f64::NAN, 2.0], 2);
    }

    #[test]
    #[should_panic(expected = "finite times")]
    fn an_infinite_duration_panics() {
        makespan_uniform(&[f64::INFINITY], 1);
    }

    /// The schedule the heap replaced: a scan for the first unit with the
    /// least free time, per task.
    fn scanned_makespan(tasks: &[ScheduledTask], units: usize) -> f64 {
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by_key(|&i| Reverse(tasks[i].priority));
        let mut free_at = vec![0.0f64; units];
        for &i in &order {
            let (slot, _) = free_at
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
                .expect("units > 0");
            free_at[slot] += tasks[i].duration;
        }
        free_at.into_iter().fold(0.0, f64::max)
    }

    wisegraph_testkit::proptest! {
        #![proptest_config(wisegraph_testkit::prop::ProptestConfig::with_cases(256))]

        /// The heap gives the scan's makespan, to the bit, with repeated
        /// durations so that free times tie. Which of two units free at
        /// the same time takes a task cannot change the result (the units
        /// are interchangeable); the index in the key keeps the choice the
        /// scan's.
        fn heap_schedule_equals_the_scan(
            n in 0usize..60,
            units in 1usize..12,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = wisegraph_testkit::rng::Rng::seed_from_u64(seed);
            let tasks: Vec<ScheduledTask> = (0..n)
                .map(|_| ScheduledTask {
                    duration: [0.0, 0.1, 0.25, 1.0, 3.0][rng.below(5) as usize]
                        + rng.below(2) as f64 * rng.f64(),
                    priority: rng.below(3) as i32 - 1,
                })
                .collect();
            wisegraph_testkit::prop_assert_eq!(
                makespan(&tasks, units).to_bits(),
                scanned_makespan(&tasks, units).to_bits(),
                "{n} tasks on {units} units"
            );
        }
    }
}
