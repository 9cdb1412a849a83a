//! List scheduling of gTasks onto execution units.
//!
//! Models the long-tail effect of Figure 12: an overfill gTask that starts
//! late keeps one execution unit busy while the rest idle. Differentiated
//! scheduling (§6.2) raises the priority of heavy tasks (and demotes
//! edge-wise leftovers), producing a balanced makespan.

/// A schedulable unit of work.
#[derive(Clone, Copy, Debug)]
pub struct ScheduledTask {
    /// Execution time of the task on one unit (seconds).
    pub duration: f64,
    /// Higher priority starts earlier. Uniform execution uses 0 for all.
    pub priority: i32,
}

/// Greedy list schedule: tasks in priority order (stable for ties, i.e.
/// submission order), each placed on the earliest-available unit. Returns
/// the makespan (seconds).
///
/// # Panics
///
/// Panics if `units == 0`.
pub fn makespan(tasks: &[ScheduledTask], units: usize) -> f64 {
    assert!(units > 0, "need at least one execution unit");
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(tasks[i].priority));
    // Earliest-free unit via a simple min-scan (units are few: SM groups).
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
}
